//! Colinear chaining of shared seeds (minimap-style anchor chains).
//!
//! Minimizer hits are sparser than reliable-k-mer hits but also noisier:
//! two reads can share an isolated selected k-mer without any genomic
//! overlap (a repeat fragment, an error coincidence). Chaining keeps, per
//! candidate pair, the largest subset of seeds consistent with *one*
//! relative placement of the two reads — seed positions strictly
//! increasing in both reads for a same-strand overlap, increasing in A
//! and decreasing in B for an opposite-strand one — and drops the pair
//! entirely when even the best chain is too short to be trusted. The
//! surviving chain replaces the pair's seed list before the
//! [`crate::SeedPolicy`] runs, so the alignment stage downstream is
//! untouched.
//!
//! # Algorithm
//!
//! Each orientation is chained on its own: a longest strictly-increasing
//! subsequence in two coordinates, swept in the seeds' sorted
//! `(a_pos, b_pos)` order with a Fenwick (binary-indexed) tree over the
//! dense rank of `b_pos` that answers "best chain ending at a strictly
//! smaller `b`" as a prefix maximum. The reverse orientation mirrors the
//! ranks (`b` must *decrease*), so the same prefix query serves both.
//! Seeds sharing one `a_pos` are all queried before any of them is
//! inserted — they are alternatives, never links of one chain. Cost is
//! `O(n log n)` time and `O(n)` scratch per pair, where the quadratic
//! all-predecessors scan this replaces grew with overlap length squared.
//!
//! # Tie-breaks
//!
//! The result is a pure function of the seed set. Three rules, in the
//! sorted seed order of one orientation, pick among equally long chains:
//!
//! 1. a seed's predecessor is the **earliest** seed among those ending a
//!    longest colinear chain before it;
//! 2. the chain ends at the **earliest** seed of maximal chain length;
//! 3. a **forward** chain beats a reverse chain of equal length.
//!
//! The tree stores `(chain length, earliest index)` per `b` rank and
//! maximises length first, then prefers the smaller index, which is rule
//! 1 verbatim; the test module keeps the quadratic program as the oracle
//! the sweep is compared against.

use crate::task::SharedSeed;

/// Chain-filter configuration (`OverlapConfig::chain`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainConfig {
    /// Minimum seeds the best chain must contain; a pair whose best
    /// chain is shorter is dropped before task construction.
    pub min_chain_seeds: usize,
}

impl Default for ChainConfig {
    fn default() -> Self {
        Self { min_chain_seeds: 2 }
    }
}

/// Reduce `seeds` — sorted ascending and deduplicated — to the best
/// colinear chain, in place. Returns `false` (leaving `seeds` in an
/// unspecified state) when the best chain is shorter than
/// `cfg.min_chain_seeds`: the caller drops the pair.
pub fn chain_seeds(seeds: &mut Vec<SharedSeed>, cfg: &ChainConfig) -> bool {
    debug_assert!(
        seeds.windows(2).all(|w| w[0] < w[1]),
        "chain_seeds requires sorted, deduplicated seeds"
    );
    let fwd = best_chain(seeds, false);
    let rev = best_chain(seeds, true);
    // Longer chain wins; a tie keeps the forward interpretation.
    let best = if rev.len() > fwd.len() { rev } else { fwd };
    if best.len() < cfg.min_chain_seeds {
        return false;
    }
    *seeds = best;
    true
}

/// Best (longest, earliest on ties) strictly-monotone chain among the
/// seeds of one orientation. Returned in ascending `a_pos` order.
fn best_chain(seeds: &[SharedSeed], reverse: bool) -> Vec<SharedSeed> {
    let subset: Vec<SharedSeed> =
        seeds.iter().copied().filter(|s| s.reverse == reverse).collect();
    let n = subset.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(n <= u32::MAX as usize, "seed index must fit the packed tree entry");

    // Dense b-ranks, 1-based for the tree; mirrored when `b` must fall.
    let mut bs: Vec<u32> = subset.iter().map(|s| s.b_pos).collect();
    bs.sort_unstable();
    bs.dedup();
    let ranks = bs.len();
    let rank_of = |b: u32| {
        let r = bs.partition_point(|&x| x < b);
        if reverse {
            ranks - r
        } else {
            r + 1
        }
    };

    // tree[r] = max over a rank interval ending at r of
    // `len << 32 | (u32::MAX - index)`: longer chains win, then earlier
    // seeds. 0 = nothing inserted.
    let mut tree = vec![0u64; ranks + 1];
    let mut len = vec![1u32; n];
    let mut pred = vec![usize::MAX; n];
    let mut rank = vec![0usize; n];
    let mut lo = 0usize;
    while lo < n {
        let hi = lo + subset[lo..].partition_point(|s| s.a_pos == subset[lo].a_pos);
        // Query the whole equal-`a_pos` group against strictly smaller
        // `a_pos` only...
        for i in lo..hi {
            rank[i] = rank_of(subset[i].b_pos);
            let mut best = 0u64;
            let mut r = rank[i] - 1; // strictly smaller rank
            while r > 0 {
                best = best.max(tree[r]);
                r &= r - 1;
            }
            if best != 0 {
                len[i] = (best >> 32) as u32 + 1;
                pred[i] = (u32::MAX - best as u32) as usize;
            }
        }
        // ...then make the group visible to later ones.
        for i in lo..hi {
            let entry = (len[i] as u64) << 32 | (u32::MAX - i as u32) as u64;
            let mut r = rank[i];
            while r <= ranks {
                tree[r] = tree[r].max(entry);
                r += r & r.wrapping_neg();
            }
        }
        lo = hi;
    }

    trace_back(&subset, &len, &pred)
}

/// Walk `pred` links back from the earliest seed of maximal chain length;
/// the chain comes out in ascending `a_pos` order.
fn trace_back(subset: &[SharedSeed], len: &[u32], pred: &[usize]) -> Vec<SharedSeed> {
    let mut best = 0usize;
    for (i, &l) in len.iter().enumerate() {
        if l > len[best] {
            best = i;
        }
    }
    let mut chain = Vec::with_capacity(len[best] as usize);
    let mut i = best;
    loop {
        chain.push(subset[i]);
        if pred[i] == usize::MAX {
            break;
        }
        i = pred[i];
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(a: u32, b: u32, rev: bool) -> SharedSeed {
        SharedSeed { a_pos: a, b_pos: b, reverse: rev }
    }

    /// The quadratic all-predecessors program [`best_chain`] replaced,
    /// kept as the oracle: strict improvement only, so a seed's
    /// predecessor is the earliest maximal one.
    fn best_chain_quadratic(seeds: &[SharedSeed], reverse: bool) -> Vec<SharedSeed> {
        let subset: Vec<SharedSeed> =
            seeds.iter().copied().filter(|s| s.reverse == reverse).collect();
        let n = subset.len();
        if n == 0 {
            return Vec::new();
        }
        let mut len = vec![1u32; n];
        let mut pred = vec![usize::MAX; n];
        for i in 1..n {
            for j in 0..i {
                let colinear = subset[j].a_pos < subset[i].a_pos
                    && if reverse {
                        subset[j].b_pos > subset[i].b_pos
                    } else {
                        subset[j].b_pos < subset[i].b_pos
                    };
                if colinear && len[j] + 1 > len[i] {
                    len[i] = len[j] + 1;
                    pred[i] = j;
                }
            }
        }
        trace_back(&subset, &len, &pred)
    }

    fn chained(mut seeds: Vec<SharedSeed>, min: usize) -> Option<Vec<SharedSeed>> {
        seeds.sort_unstable();
        seeds.dedup();
        chain_seeds(&mut seeds, &ChainConfig { min_chain_seeds: min }).then_some(seeds)
    }

    #[test]
    fn colinear_forward_seeds_all_survive() {
        let seeds = vec![seed(10, 110, false), seed(40, 140, false), seed(90, 190, false)];
        assert_eq!(chained(seeds.clone(), 2), Some(seeds));
    }

    #[test]
    fn off_diagonal_seed_is_pruned() {
        // The (50, 20) anchor contradicts the +100 diagonal the other
        // three agree on — the chain excludes it.
        let seeds =
            vec![seed(10, 110, false), seed(40, 140, false), seed(50, 20, false), seed(90, 190, false)];
        let want = vec![seed(10, 110, false), seed(40, 140, false), seed(90, 190, false)];
        assert_eq!(chained(seeds, 2), Some(want));
    }

    #[test]
    fn reverse_orientation_chains_on_antidiagonal() {
        // Opposite-strand overlap: A ascending while B descends.
        let seeds = vec![seed(10, 190, true), seed(40, 160, true), seed(90, 110, true)];
        assert_eq!(chained(seeds.clone(), 3), Some(seeds));
        // Ascending b_pos is NOT a valid reverse chain: only one survives
        // and a min of 2 drops the pair.
        let bad = vec![seed(10, 110, true), seed(40, 140, true)];
        assert_eq!(chained(bad, 2), None);
    }

    #[test]
    fn orientations_compete_and_majority_wins() {
        let seeds = vec![
            seed(10, 110, false),
            seed(40, 140, false),
            seed(90, 190, false),
            seed(20, 180, true),
            seed(60, 120, true),
        ];
        let want = vec![seed(10, 110, false), seed(40, 140, false), seed(90, 190, false)];
        assert_eq!(chained(seeds, 2), Some(want));
    }

    #[test]
    fn equal_length_tie_keeps_forward() {
        let seeds = vec![seed(10, 110, false), seed(40, 140, false), seed(20, 180, true), seed(60, 120, true)];
        let got = chained(seeds, 2).unwrap();
        assert!(got.iter().all(|s| !s.reverse));
    }

    #[test]
    fn short_chain_drops_pair() {
        assert_eq!(chained(vec![seed(10, 110, false)], 2), None);
        // But survives a min of 1.
        assert_eq!(chained(vec![seed(10, 110, false)], 1), Some(vec![seed(10, 110, false)]));
        // Empty input never chains.
        assert_eq!(chained(vec![], 1), None);
    }

    #[test]
    fn equal_a_pos_seeds_cannot_co_chain() {
        // Strict monotonicity in a_pos: two seeds at the same A offset
        // are alternatives, not chain links.
        let seeds = vec![seed(10, 110, false), seed(10, 140, false)];
        let got = chained(seeds, 1).unwrap();
        assert_eq!(got.len(), 1);
        // Earliest end on ties → the smaller b_pos survives.
        assert_eq!(got[0], seed(10, 110, false));
    }

    #[test]
    fn chain_output_is_sorted_for_the_policy() {
        let seeds = vec![
            seed(90, 190, false),
            seed(10, 110, false),
            seed(50, 20, false),
            seed(40, 140, false),
        ];
        let got = chained(seeds, 2).unwrap();
        assert!(got.windows(2).all(|w| w[0].a_pos < w[1].a_pos));
    }

    /// 3 000 tie-dense inputs: coordinates come from a range smaller than
    /// `n`, so equal-`a_pos` groups, equal `b_pos`, and equally long
    /// competing chains are the norm, with both orientations mixed.
    #[test]
    fn sweep_matches_quadratic_oracle_on_tie_dense_inputs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..3000 {
            // Mostly short lists; every tenth is deep enough to walk several
            // tree levels.
            let n = 1 + next(if case % 10 == 0 { 400 } else { 48 }) as usize;
            let range = 2 + next(n as u64); // < n + 2: ties everywhere
            let rev_share = next(4); // 0 → all forward, else mixed
            let mut seeds: Vec<SharedSeed> = (0..n)
                .map(|_| seed(next(range) as u32, next(range) as u32, next(4) < rev_share))
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            for reverse in [false, true] {
                assert_eq!(
                    best_chain(&seeds, reverse),
                    best_chain_quadratic(&seeds, reverse),
                    "case {case} reverse={reverse} seeds={seeds:?}"
                );
            }
            // And the orientation pick on top of them.
            let fwd = best_chain_quadratic(&seeds, false);
            let rev = best_chain_quadratic(&seeds, true);
            let want = if rev.len() > fwd.len() { rev } else { fwd };
            let mut got = seeds.clone();
            assert!(chain_seeds(&mut got, &ChainConfig { min_chain_seeds: 1 }), "case {case}");
            assert_eq!(got, want, "case {case} seeds={seeds:?}");
        }
    }

    #[test]
    fn all_seeds_on_one_a_pos_chain_to_the_first() {
        // One equal-`a_pos` group: nothing links, the earliest seed ends
        // the (length-1) chain in either orientation.
        let fwd: Vec<_> = (0..6).map(|b| seed(7, 10 * b, false)).collect();
        assert_eq!(chained(fwd, 1), Some(vec![seed(7, 0, false)]));
        let rev: Vec<_> = (0..6).map(|b| seed(7, 10 * b, true)).collect();
        assert_eq!(chained(rev.clone(), 1), Some(vec![seed(7, 0, true)]));
        assert_eq!(chained(rev, 2), None);
    }

    #[test]
    fn anti_colinear_list_chains_to_one_seed() {
        // Forward seeds whose `b` falls as `a` rises: best chain is 1, and
        // it is the earliest seed.
        let seeds: Vec<_> = (0..8).map(|i| seed(10 * i, 100 - 10 * i, false)).collect();
        assert_eq!(chained(seeds.clone(), 1), Some(vec![seeds[0]]));
        assert_eq!(chained(seeds, 2), None);
    }

    #[test]
    fn earliest_end_wins_between_maximal_chains() {
        // Chain lengths in sorted order are [1, 1, 2, 2]: two maximal
        // chains end at index 2 (30,50) and index 3 (40,20). The earlier
        // end wins, and of its two length-1 predecessors — (10,40) and
        // (20,10) — the earlier one is kept.
        let seeds =
            vec![seed(10, 40, false), seed(20, 10, false), seed(30, 50, false), seed(40, 20, false)];
        assert_eq!(chained(seeds, 1), Some(vec![seed(10, 40, false), seed(30, 50, false)]));
        // Same shape on the antidiagonal.
        let seeds =
            vec![seed(10, 20, true), seed(20, 50, true), seed(30, 10, true), seed(40, 40, true)];
        assert_eq!(chained(seeds, 1), Some(vec![seed(10, 20, true), seed(30, 10, true)]));
    }

    #[test]
    fn forward_wins_an_equal_length_tie_exactly() {
        let seeds = vec![
            seed(5, 300, true),
            seed(10, 110, false),
            seed(20, 200, true),
            seed(40, 140, false),
            seed(60, 100, true),
            seed(90, 190, false),
        ];
        let want = vec![seed(10, 110, false), seed(40, 140, false), seed(90, 190, false)];
        assert_eq!(chained(seeds, 3), Some(want));
    }
}
