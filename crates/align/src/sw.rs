//! Full Smith-Waterman local alignment — the O(|s|·|t|) oracle.
//!
//! Paper §2: "Finding an optimal alignment is attainable via a dynamic
//! programming algorithm such as Smith-Waterman". diBELLA never runs the
//! full quadratic kernel in production (the x-drop extension replaces it);
//! here it serves as the ground-truth oracle the x-drop kernel is
//! validated against, and as the "exact" end of the ablation benches.

use crate::scoring::Scoring;

/// Result of a local alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalAlignment {
    /// Optimal local score (0 if the best alignment is empty).
    pub score: i32,
    /// Aligned region of `s`: `s_start..s_end`.
    pub s_start: usize,
    /// End (exclusive) in `s`.
    pub s_end: usize,
    /// Aligned region of `t`: `t_start..t_end`.
    pub t_start: usize,
    /// End (exclusive) in `t`.
    pub t_end: usize,
    /// DP cells computed (the cost-model currency).
    pub cells: u64,
}

/// Full Smith-Waterman with linear gaps. Returns the best-scoring local
/// alignment (ties broken toward smaller end coordinates) including its
/// start coordinates, recovered without a traceback matrix by re-running
/// the DP on reversed prefixes.
pub fn smith_waterman(s: &[u8], t: &[u8], scoring: Scoring) -> LocalAlignment {
    let (score, s_end, t_end, cells) = sw_forward(s, t, scoring);
    if score == 0 {
        return LocalAlignment {
            score: 0,
            s_start: 0,
            s_end: 0,
            t_start: 0,
            t_end: 0,
            cells,
        };
    }
    // The start of the optimal alignment ending at (s_end, t_end) is the
    // end of the optimal alignment of the reversed prefixes.
    let s_rev: Vec<u8> = s[..s_end].iter().rev().copied().collect();
    let t_rev: Vec<u8> = t[..t_end].iter().rev().copied().collect();
    let (rev_score, rs_end, rt_end, cells2) = sw_forward(&s_rev, &t_rev, scoring);
    debug_assert_eq!(rev_score, score, "reverse DP must reproduce the score");
    LocalAlignment {
        score,
        s_start: s_end - rs_end,
        s_end,
        t_start: t_end - rt_end,
        t_end,
        cells: cells + cells2,
    }
}

/// Score-only Smith-Waterman (two-row DP): `(score, s_end, t_end, cells)`.
pub fn sw_forward(s: &[u8], t: &[u8], scoring: Scoring) -> (i32, usize, usize, u64) {
    let n = s.len();
    let m = t.len();
    let mut prev = vec![0i32; m + 1];
    let mut cur = vec![0i32; m + 1];
    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    for i in 1..=n {
        cur[0] = 0;
        let si = s[i - 1];
        for j in 1..=m {
            let diag = prev[j - 1] + scoring.substitution(si, t[j - 1]);
            let up = prev[j] + scoring.gap;
            let left = cur[j - 1] + scoring.gap;
            let v = diag.max(up).max(left).max(0);
            cur[j] = v;
            if v > best {
                best = v;
                best_i = i;
                best_j = j;
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    (best, best_i, best_j, (n as u64) * (m as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw(s: &[u8], t: &[u8]) -> LocalAlignment {
        smith_waterman(s, t, Scoring::bella())
    }

    #[test]
    fn identical_sequences() {
        let a = sw(b"ACGTACGT", b"ACGTACGT");
        assert_eq!(a.score, 8);
        assert_eq!((a.s_start, a.s_end), (0, 8));
        assert_eq!((a.t_start, a.t_end), (0, 8));
    }

    #[test]
    fn embedded_match() {
        // t contains s's middle exactly.
        let a = sw(b"TTTTACGTACGTTTTT", b"GGGGGACGTACGTGGG");
        assert_eq!(a.score, 8);
        assert_eq!(&b"TTTTACGTACGTTTTT"[a.s_start..a.s_end], b"ACGTACGT");
        assert_eq!(&b"GGGGGACGTACGTGGG"[a.t_start..a.t_end], b"ACGTACGT");
    }

    #[test]
    fn single_mismatch_bridged() {
        // Bridging one mismatch pays −1 but gains matches on both sides.
        let a = sw(b"AAAACAAAA", b"AAAAGAAAA");
        assert_eq!(a.score, 4 + 4 - 1);
    }

    #[test]
    fn single_gap_bridged() {
        let a = sw(b"AACCGGTT", b"AACGGTT");
        // 7 matches − 1 gap = 6.
        assert_eq!(a.score, 6);
    }

    #[test]
    fn disjoint_sequences_score_zero_or_tiny() {
        let a = sw(b"AAAA", b"GGGG");
        assert_eq!(a.score, 0);
        assert_eq!(a.s_end, 0);
    }

    #[test]
    fn empty_inputs() {
        let a = sw(b"", b"ACGT");
        assert_eq!(a.score, 0);
        assert_eq!(a.cells, 0);
        let b = sw(b"ACGT", b"");
        assert_eq!(b.score, 0);
    }

    #[test]
    fn cells_counted() {
        let a = sw(b"ACGTT", b"ACG");
        // forward 15 + reverse pass over the 3x3-ish prefix.
        assert!(a.cells >= 15);
    }

    #[test]
    fn score_symmetric() {
        let s = b"ACGTTGCAGGTATT";
        let t = b"CGTTGGAGGTAT";
        assert_eq!(sw(s, t).score, sw(t, s).score);
    }
}
