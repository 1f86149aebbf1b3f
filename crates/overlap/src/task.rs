//! Overlap pairs, shared seeds, and the task-owner heuristic.
//!
//! Every alignment task is homed by one rule, [`task_home`] (the parity
//! heuristic): stage 3 sends each pair to the owner of the read it names.
//! It balances task counts across ranks, which is what stage 4 — most of
//! the wall — needs; a length-aware home (the paper's §9 future work)
//! saves read bytes but leaves stage 4 up to 1.56× imbalanced at 8 ranks.

use dibella_io::ReadId;

/// An unordered pair of distinct reads, stored normalized (`a < b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReadPair {
    /// Smaller read ID.
    pub a: ReadId,
    /// Larger read ID.
    pub b: ReadId,
}

impl ReadPair {
    /// Normalize two distinct read IDs into a pair.
    ///
    /// # Panics
    /// Panics if `x == y` — self-overlaps are skipped upstream.
    pub fn new(x: ReadId, y: ReadId) -> Self {
        assert_ne!(x, y, "self-pair");
        if x < y {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        }
    }
}

/// A k-mer shared by both reads of a pair: the candidate alignment seed.
///
/// Positions are on each read's own forward orientation; `reverse` records
/// whether the two reads observed the canonical k-mer on opposite strands
/// (in which case read `b` must be reverse-complemented for alignment).
///
/// Eight bytes: `a_pos << 32 | b_pos << 1 | reverse`, so the derived order
/// is lexicographic `(a_pos, b_pos, reverse)` — what every least-seed fold,
/// sort, dedup and chain tie-break compares — and `b_pos` must be below
/// 2³¹, as in the pair-record wire format.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SharedSeed(u64);

const _: () = assert!(std::mem::size_of::<SharedSeed>() == 8);

impl SharedSeed {
    /// Orders above every seed [`Self::new`] can make.
    pub(crate) const MAX: Self = Self(u64::MAX);

    /// The seed at `a_pos` in read `a` and `b_pos` in read `b`.
    ///
    /// # Panics
    /// Panics if `b_pos ≥ 2³¹`: bit 0 of its half holds the orientation.
    #[inline]
    pub fn new(a_pos: u32, b_pos: u32, reverse: bool) -> Self {
        assert!(b_pos < 1 << 31, "position {b_pos} needs bit 31: reads must be shorter than 2^31 bases");
        Self((a_pos as u64) << 32 | (b_pos as u64) << 1 | reverse as u64)
    }

    /// k-mer position in read `a`.
    #[inline]
    pub fn a_pos(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// k-mer position in read `b`.
    #[inline]
    pub fn b_pos(self) -> u32 {
        self.0 as u32 >> 1
    }

    /// Relative orientation: `true` if strands differ.
    #[inline]
    pub fn reverse(self) -> bool {
        self.0 & 1 == 1
    }
}

impl std::fmt::Debug for SharedSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSeed")
            .field("a_pos", &self.a_pos())
            .field("b_pos", &self.b_pos())
            .field("reverse", &self.reverse())
            .finish()
    }
}

/// An alignment task: one read pair plus its (filtered) seed list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OverlapTask {
    /// The read pair to align.
    pub pair: ReadPair,
    /// Seeds to explore, in increasing `a_pos` order.
    pub seeds: Vec<SharedSeed>,
}

/// The odd/even task-placement heuristic (Algorithm 1): choose which of
/// the pair's two reads "homes" the task, so that alignment work lands
/// where one of the reads already lives and the load spreads over both
/// endpoints.
///
/// The paper's literal predicate
/// ```text
/// if ra%2 = 0 AND ra > rb + 1 then buffer[owner(ra)]
/// else if ra%2 ≠ 0 AND ra < rb + 1 then buffer[owner(ra)]
/// else buffer[owner(rb)]
/// ```
/// is *order-sensitive*: a pair discovered through two different k-mers
/// (possibly on different ranks, in different occurrence orders) could be
/// homed at both endpoints, splitting its seed list. We use the
/// order-independent variant with the same structure — ID parity selects
/// the endpoint — which homes every pair uniquely and splits load evenly:
/// the pair goes to its smaller read when the ID sum is even, to the
/// larger when odd.
pub fn task_home(ra: ReadId, rb: ReadId) -> ReadId {
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    if (lo + hi) % 2 == 0 {
        lo
    } else {
        hi
    }
}

/// The one task placement: every task is homed by the parity heuristic
/// ([`task_home`]), the paper's production choice. A single-variant
/// spelling kept only because the repo benchmark's configuration names
/// `PipelineConfig::placement`; it goes with that field (ROADMAP 5(ii)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TaskPlacement {
    /// The parity heuristic ([`task_home`]).
    #[default]
    Parity,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_normalizes() {
        assert_eq!(ReadPair::new(5, 2), ReadPair::new(2, 5));
        assert_eq!(ReadPair::new(2, 5).a, 2);
    }

    #[test]
    #[should_panic(expected = "self-pair")]
    fn self_pair_rejected() {
        let _ = ReadPair::new(3, 3);
    }

    #[test]
    fn seed_round_trips_its_fields() {
        let top = (1 << 31) - 1;
        for (a, b, rev) in [(0, 0, false), (u32::MAX, top, true), (7, top, false), (u32::MAX, 0, true)] {
            let s = SharedSeed::new(a, b, rev);
            assert_eq!((s.a_pos(), s.b_pos(), s.reverse()), (a, b, rev));
        }
    }

    /// The packed word orders as the three fields did, so every least-seed
    /// fold, sort and dedup picks what it picked when they were fields.
    #[test]
    fn packed_seed_order_is_lexicographic() {
        let mut state = 0x5EED_0F5E_ED00_u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let top = (1u32 << 31) - 1;
        // Few distinct positions, with the extremes, so equal `a_pos` and
        // equal `b_pos` across orientations are common.
        let positions = [0, 1, 2, 1_000, top - 1, top];
        let mut pick = move || {
            let r = rnd();
            let a = if r & 1 == 0 { positions[(r >> 8) as usize % 6] } else { (r >> 32) as u32 };
            (a, positions[(r >> 16) as usize % 6] & top, (r >> 24) & 1 == 1)
        };
        for _ in 0..20_000 {
            let (x, y) = (pick(), pick());
            let (sx, sy) = (SharedSeed::new(x.0, x.1, x.2), SharedSeed::new(y.0, y.1, y.2));
            assert_eq!(sx.cmp(&sy), x.cmp(&y), "{x:?} vs {y:?}");
            assert_eq!(sx == sy, x == y);
        }
        let at = |a, rev| SharedSeed::new(a, top, rev);
        assert!(at(5, false) < at(5, true) && at(5, true) < SharedSeed::new(6, 0, false));
        assert!(SharedSeed::new(5, top, false) > SharedSeed::new(5, top - 1, true));
    }

    #[test]
    fn heuristic_parity_cases() {
        // Even ID sum → smaller endpoint.
        assert_eq!(task_home(10, 4), 4);
        assert_eq!(task_home(3, 9), 3);
        // Odd ID sum → larger endpoint.
        assert_eq!(task_home(4, 9), 9);
        assert_eq!(task_home(9, 2), 9);
    }

    #[test]
    fn heuristic_is_order_independent() {
        for a in 0u32..20 {
            for b in 0u32..20 {
                if a != b {
                    assert_eq!(task_home(a, b), task_home(b, a));
                }
            }
        }
    }

    #[test]
    fn heuristic_splits_load_between_endpoints() {
        // Over all unordered pairs in a range, each read should home
        // roughly the same number of tasks (the heuristic's purpose).
        let n: u32 = 64;
        let mut per_read = vec![0usize; n as usize];
        for a in 0..n {
            for b in (a + 1)..n {
                per_read[task_home(a, b) as usize] += 1;
            }
        }
        let avg = per_read.iter().sum::<usize>() as f64 / n as f64;
        let max = *per_read.iter().max().unwrap() as f64;
        let min = *per_read.iter().min().unwrap() as f64;
        assert!(max < avg * 1.4, "max {max} vs avg {avg}");
        assert!(min > avg * 0.4, "min {min} vs avg {avg}");
    }

    #[test]
    fn heuristic_is_total() {
        // A home is always produced and it is one of the two reads.
        for (a, b) in [(0u32, 1u32), (7, 2), (100, 101), (55, 54)] {
            let h = task_home(a, b);
            assert!(h == a || h == b);
        }
    }
}
