//! Reusable per-thread scratch for the x-drop kernel.
//!
//! Pairwise alignment dominates diBELLA's end-to-end runtime (paper §9,
//! Figure 7), and the kernel's only steady-state heap traffic would be
//! scratch: a score row per antidiagonal and staged copies of the reads.
//! An [`AlignWorkspace`] owns all of that, so [`crate::SeedExtender`],
//! [`crate::extend_seed`] and [`crate::extend_xdrop`] allocate **nothing**
//! once the workspace has warmed up to the largest problem it has seen.
//!
//! # Ownership model
//!
//! One workspace per thread, always: the buffers are plain `Vec`s with no
//! interior synchronization, and every kernel call dirties them. Callers
//! that parallelize (e.g. `dibella-core`'s alignment-stage batch executor)
//! keep one workspace per worker thread and reuse it across every task
//! that worker processes. Reusing a *dirty* workspace is always safe —
//! the kernel (re)writes each slot before it reads it — which is exactly
//! what the bit-identity property tests exercise. The scalar core and the
//! lane kernel keep separate rows (`i32` and `i16`), so switching between
//! them on one workspace shares nothing but capacity accounting.

use crate::simd::LANES16;

/// One sequence in the form the lane x-drop kernel reads it: a forward
/// and a reversed copy, each laid out `[1 pad][bases][LANES16 pad]` (one
/// kernel chunk of tail padding).
///
/// An antidiagonal walks one sequence up and the other down; reading the
/// descending side from the reversed copy makes both sides ascending
/// byte loads. The front pad backs the `i − 1 = −1` base index of row
/// cell `i = 0`, the tail pad the full-width loads launched from a row's
/// last cells — the kernel never looks at a score computed from a pad
/// byte, it only needs the load to be in bounds.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneSeq {
    /// `[0][seq][0; LANES16]`.
    pub(crate) fwd: Vec<u8>,
    /// `[0][seq reversed][0; LANES16]`.
    pub(crate) rev: Vec<u8>,
}

impl LaneSeq {
    fn fill(buf: &mut Vec<u8>, bases: impl Iterator<Item = u8>) {
        buf.clear();
        buf.push(0);
        buf.extend(bases);
        buf.extend_from_slice(&[0; LANES16]);
    }

    /// Stage the forward copy of `seq`.
    pub(crate) fn set_fwd(&mut self, seq: &[u8]) {
        Self::fill(&mut self.fwd, seq.iter().copied());
    }

    /// Stage the reversed copy of `seq`.
    pub(crate) fn set_rev(&mut self, seq: &[u8]) {
        Self::fill(&mut self.rev, seq.iter().rev().copied());
    }

    fn capacity(&self) -> usize {
        self.fwd.capacity() + self.rev.capacity()
    }
}

/// Reusable scratch buffers for the x-drop kernel.
///
/// Construct once per thread ([`AlignWorkspace::new`] allocates nothing —
/// buffers grow lazily to the largest call seen) and pass to every kernel
/// entry point. Results do not depend on what earlier calls left in it.
#[derive(Clone, Debug, Default)]
pub struct AlignWorkspace {
    /// Three scalar x-drop score rows (antidiagonals d−2, d−1 and d),
    /// rotated in place instead of cloned per antidiagonal and sized
    /// exactly per row.
    pub(crate) xdrop: [Vec<i32>; 3],
    /// The lane x-drop kernel's rows: three rotating (antidiagonals d−2,
    /// d−1 and d) and one holding the row of the best score so far. Scores
    /// relative to a running offset, slot `1 + i` for cell `i`, so each is
    /// as long as the ascending sequence plus a sentinel and lane padding
    /// (see `docs/ARCHITECTURE.md` § "SIMD kernels"). They only ever grow,
    /// and are not re-initialized per call.
    pub(crate) xdrop_lanes: [Vec<i16>; 4],
    /// Staged copies of the sequence whose index ascends along an
    /// antidiagonal (`s` / read `a`) for the lane x-drop kernel.
    pub(crate) lane_a: LaneSeq,
    /// Staged copies of the descending side (`t` / oriented read `b`).
    pub(crate) lane_b: LaneSeq,
    /// Reverse-complement scratch for callers orienting a read before
    /// seeding (take it with [`std::mem::take`] while the kernels borrow
    /// the workspace mutably, and put it back afterwards).
    pub rc: Vec<u8>,
}

impl AlignWorkspace {
    /// An empty workspace. Allocates nothing; buffers grow on first use
    /// and are then reused for every subsequent call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap bytes currently reserved by the scratch buffers — the
    /// per-thread steady-state footprint (reported by the kernel bench
    /// baseline).
    pub fn scratch_bytes(&self) -> usize {
        let i32s = self.xdrop.iter().map(Vec::capacity).sum::<usize>();
        let i16s = self.xdrop_lanes.iter().map(Vec::capacity).sum::<usize>();
        i32s * std::mem::size_of::<i32>()
            + i16s * std::mem::size_of::<i16>()
            + self.lane_a.capacity()
            + self.lane_b.capacity()
            + self.rc.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::Scoring;
    use crate::simd::SimdMode;
    use crate::xdrop::{extend_xdrop, Dir};

    #[test]
    fn new_workspace_reserves_nothing() {
        let ws = AlignWorkspace::new();
        assert_eq!(ws.scratch_bytes(), 0);
    }

    #[test]
    fn scratch_grows_with_use_then_plateaus() {
        let s = vec![b'A'; 400];
        let t = vec![b'A'; 400];
        for mode in [SimdMode::Scalar, SimdMode::Auto] {
            let mut ws = AlignWorkspace::new();
            let _ = extend_xdrop(&s, &t, Dir::Fwd, Scoring::bella(), 25, &mut ws, mode);
            let after_first = ws.scratch_bytes();
            assert!(after_first > 0);
            let _ = extend_xdrop(&s, &t, Dir::Fwd, Scoring::bella(), 25, &mut ws, mode);
            assert_eq!(ws.scratch_bytes(), after_first, "{mode:?}: steady state must not grow");
        }
    }

    #[test]
    fn lane_seq_copies_are_padded_both_ends() {
        let mut seq = LaneSeq::default();
        seq.set_fwd(b"ACG");
        seq.set_rev(b"ACG");
        assert_eq!(&seq.fwd[..4], b"\0ACG");
        assert_eq!(&seq.rev[..4], b"\0GCA");
        assert_eq!(seq.fwd.len(), 1 + 3 + LANES16);
        assert_eq!(seq.rev.len(), 1 + 3 + LANES16);
    }
}
