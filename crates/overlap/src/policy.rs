//! Seed-exploration policies (paper §5, §8).
//!
//! "At the two extremes, the one-seed option computes pairwise alignment
//! on exactly one seed per pair, while the all-seed option computes
//! pairwise alignment on all the available seeds separated by at least the
//! k-mer length. As an intermediate point we consider only seeds separated
//! by 1,000 bps." These are the three computational-intensity settings of
//! Figures 9–11.

use crate::task::SharedSeed;

/// Which of a pair's shared seeds are explored by the alignment stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeedPolicy {
    /// Exactly one seed per pair (the paper's minimum-intensity setting).
    Single,
    /// All seeds separated by at least this many bases on read `a`.
    /// `MinDistance(k)` is the paper's "all seeds" setting;
    /// `MinDistance(1000)` is the intermediate one.
    MinDistance(u32),
}

impl SeedPolicy {
    /// The paper's three named settings, for sweeps.
    pub fn paper_settings(k: usize) -> [(&'static str, SeedPolicy); 3] {
        [
            ("one-seed", SeedPolicy::Single),
            ("d=1K", SeedPolicy::MinDistance(1000)),
            ("d=k", SeedPolicy::MinDistance(k as u32)),
        ]
    }

    /// Filter a pair's seed list in place.
    ///
    /// Seeds must arrive sorted by `a_pos` (consolidation guarantees it);
    /// the greedy spacing filter keeps a seed iff it lies at least the
    /// required distance beyond the last kept seed, up to
    /// `max_seeds_per_pair`. Returns the number of dropped seeds.
    pub fn apply(&self, seeds: &mut Vec<SharedSeed>, max_seeds_per_pair: usize) -> usize {
        debug_assert!(seeds.windows(2).all(|w| w[0].a_pos() <= w[1].a_pos()));
        let before = seeds.len();
        match self {
            SeedPolicy::Single => seeds.truncate(1),
            SeedPolicy::MinDistance(d) => {
                let mut kept = 0usize;
                let mut last_a: Option<u32> = None;
                let mut last_rev: Option<bool> = None;
                seeds.retain(|s| {
                    if kept >= max_seeds_per_pair {
                        return false;
                    }
                    // Seeds of different orientation are independent
                    // candidate overlaps; spacing applies per orientation
                    // run (a simple, deterministic approximation of
                    // BELLA's chaining).
                    let far_enough = match (last_a, last_rev) {
                        (Some(a), Some(rev)) if rev == s.reverse() => {
                            s.a_pos() >= a.saturating_add(*d)
                        }
                        _ => true,
                    };
                    if far_enough {
                        kept += 1;
                        last_a = Some(s.a_pos());
                        last_rev = Some(s.reverse());
                        true
                    } else {
                        false
                    }
                });
            }
        }
        before - seeds.len()
    }

    /// The fold under which a pair's seeds may accumulate — at a source
    /// rank, in the SpGEMM row accumulator, on arrival — without changing
    /// what [`apply`](Self::apply) finally keeps (`chain_on`: a colinear
    /// chain filter runs between consolidation and the policy).
    ///
    /// | policy | chain filter | fold |
    /// |---|---|---|
    /// | `Single` | off | `Min` — `apply` keeps the minimum of the sorted list, and the minimum of a union is the minimum of the parts' minima |
    /// | `Single` | on | `All` — the best chain is a property of the whole list |
    /// | `MinDistance(_)` | either | `All` — greedy spacing is not closed under truncating the parts: a seed a part drops can be the one the union keeps |
    pub fn source_keep(&self, chain_on: bool) -> SeedFold {
        match self {
            SeedPolicy::Single if !chain_on => SeedFold::Min,
            _ => SeedFold::All,
        }
    }
}

/// Stage 3's semiring "add": what a pair's seed list keeps as one more
/// shared seed is folded in. Chosen by [`SeedPolicy::source_keep`], so
/// every place seeds accumulate applies the same, policy-preserving rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedFold {
    /// Keep every seed, in arrival order.
    All,
    /// Keep the least seed under [`SharedSeed`]'s order — a plain `min`:
    /// associative, commutative and idempotent, so folding per source and
    /// again at the destination equals folding once, and a pair's record
    /// is one seed long whatever it folded.
    Min,
}

impl SeedFold {
    /// Fold `seeds` into a pair's kept list, in order. Under `All` the
    /// list grows once, by exactly what arrives.
    #[inline]
    pub fn extend(self, kept: &mut Vec<SharedSeed>, seeds: impl IntoIterator<Item = SharedSeed>) {
        match self {
            SeedFold::All => kept.extend(seeds),
            SeedFold::Min => seeds.into_iter().for_each(|seed| self.add(kept, seed)),
        }
    }

    /// Fold one `seed` into a pair's kept list.
    #[inline]
    pub fn add(self, kept: &mut Vec<SharedSeed>, seed: SharedSeed) {
        match self {
            SeedFold::All => kept.push(seed),
            SeedFold::Min => match kept.first_mut() {
                Some(least) => *least = seed.min(*least),
                None => kept.push(seed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(a: u32, rev: bool) -> SharedSeed {
        SharedSeed::new(a, a, rev)
    }

    #[test]
    fn single_keeps_first() {
        let mut seeds = vec![seed(5, false), seed(100, false), seed(900, false)];
        let dropped = SeedPolicy::Single.apply(&mut seeds, 100);
        assert_eq!(dropped, 2);
        assert_eq!(seeds, vec![seed(5, false)]);
    }

    #[test]
    fn min_distance_spacing() {
        let mut seeds = vec![
            seed(0, false),
            seed(500, false),
            seed(999, false),
            seed(1001, false),
            seed(2500, false),
        ];
        SeedPolicy::MinDistance(1000).apply(&mut seeds, 100);
        assert_eq!(
            seeds.iter().map(|s| s.a_pos()).collect::<Vec<_>>(),
            vec![0, 1001, 2500]
        );
    }

    #[test]
    fn min_distance_k_keeps_non_overlapping_seeds() {
        let mut seeds: Vec<SharedSeed> = (0..10).map(|i| seed(i * 17, false)).collect();
        SeedPolicy::MinDistance(17).apply(&mut seeds, 100);
        assert_eq!(seeds.len(), 10);
        let mut dense: Vec<SharedSeed> = (0..10).map(|i| seed(i, false)).collect();
        SeedPolicy::MinDistance(17).apply(&mut dense, 100);
        assert_eq!(dense.len(), 1);
    }

    #[test]
    fn orientation_change_resets_spacing() {
        let mut seeds = vec![seed(0, false), seed(5, true), seed(10, false)];
        SeedPolicy::MinDistance(1000).apply(&mut seeds, 100);
        // Each orientation flip is kept despite proximity.
        assert_eq!(seeds.len(), 3);
    }

    #[test]
    fn cap_respected() {
        let mut seeds: Vec<SharedSeed> = (0..50).map(|i| seed(i * 2000, false)).collect();
        SeedPolicy::MinDistance(1000).apply(&mut seeds, 8);
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn empty_seed_list_is_a_no_op() {
        for policy in [SeedPolicy::Single, SeedPolicy::MinDistance(1000)] {
            let mut seeds: Vec<SharedSeed> = Vec::new();
            assert_eq!(policy.apply(&mut seeds, 4), 0);
            assert!(seeds.is_empty());
        }
    }

    #[test]
    fn cap_interacts_with_orientation_runs() {
        // Alternating orientations: every flip resets the spacing rule,
        // so all seeds are spacing-eligible and the cap alone truncates.
        let mut seeds: Vec<SharedSeed> = (0..10).map(|i| seed(i, i % 2 == 1)).collect();
        let dropped = SeedPolicy::MinDistance(1000).apply(&mut seeds, 4);
        assert_eq!(dropped, 6);
        assert_eq!(
            seeds.iter().map(|s| (s.a_pos(), s.reverse())).collect::<Vec<_>>(),
            vec![(0, false), (1, true), (2, false), (3, true)],
            "cap must keep the first four in a_pos order, orientations intact"
        );
    }

    #[test]
    fn cap_applies_after_spacing_within_a_run() {
        // Same-orientation seeds at half the spacing distance: the
        // spacing rule halves them first, then the cap truncates the
        // survivors — so the kept set is the first `max` *spaced* seeds,
        // not the first `max` raw seeds.
        let mut seeds: Vec<SharedSeed> = (0..20).map(|i| seed(i * 500, false)).collect();
        let dropped = SeedPolicy::MinDistance(1000).apply(&mut seeds, 3);
        assert_eq!(
            seeds.iter().map(|s| s.a_pos()).collect::<Vec<_>>(),
            vec![0, 1000, 2000]
        );
        assert_eq!(dropped, 17);
    }

    #[test]
    fn zero_cap_drops_everything_under_min_distance() {
        let mut seeds = vec![seed(0, false), seed(5000, true)];
        assert_eq!(SeedPolicy::MinDistance(1000).apply(&mut seeds, 0), 2);
        assert!(seeds.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "seeds.windows")]
    fn unsorted_input_is_rejected_in_debug() {
        let mut seeds = vec![seed(10, false), seed(0, false)];
        SeedPolicy::MinDistance(5).apply(&mut seeds, 4);
    }

    #[test]
    fn source_keep_folds_only_where_apply_keeps_the_minimum() {
        assert_eq!(SeedPolicy::Single.source_keep(false), SeedFold::Min);
        assert_eq!(SeedPolicy::Single.source_keep(true), SeedFold::All);
        for chain_on in [false, true] {
            assert_eq!(SeedPolicy::MinDistance(1000).source_keep(chain_on), SeedFold::All);
        }
    }

    #[test]
    fn min_keeps_the_least_seed_and_all_keeps_every_one() {
        let mut least = Vec::new();
        for a in [40, 10, 30, 10, 50, 20, 5] {
            SeedFold::Min.add(&mut least, seed(a, false));
        }
        assert_eq!(least, vec![seed(5, false)]);
        SeedFold::Min.add(&mut least, seed(5, true));
        assert_eq!(least, vec![seed(5, false)], "forward orders before reverse at equal positions");
        let mut all = Vec::new();
        for a in [40, 10, 10] {
            SeedFold::All.add(&mut all, seed(a, false));
        }
        assert_eq!(all, vec![seed(40, false), seed(10, false), seed(10, false)]);
    }

    #[test]
    fn paper_settings_cover_three_points() {
        let s = SeedPolicy::paper_settings(17);
        assert_eq!(s[0].1, SeedPolicy::Single);
        assert_eq!(s[1].1, SeedPolicy::MinDistance(1000));
        assert_eq!(s[2].1, SeedPolicy::MinDistance(17));
    }
}
