//! Golden-vector edge cases for both x-drop cores.
//!
//! Unlike the random differential suite (`simd_identity.rs`), these are
//! hand-picked worst cases with **committed** expected outputs, so a bug
//! that broke scalar and SIMD identically would still be caught. Each
//! case runs on both cores through one shared dirty workspace and
//! must reproduce the committed (score, s_ext, t_ext, cells,
//! antidiagonals) tuple exactly. The set covers every way a walk ends,
//! each with its committed `antidiagonals`: no walk at all (an empty
//! side), row 1 pruned, a row pruned whole, and the matrix's last
//! antidiagonal passed (`d > n + m`, which is also where a row's candidate
//! range first comes out empty — a surviving cell of row `d − 1` has
//! `i ≥ d − 1 − m`, so `lo ≤ hi` until then).
//!
//! To regenerate the tables after an intentional kernel change:
//!
//! ```text
//! cargo test -p dibella-align --test kernel_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows (they are produced by the scalar oracle).

use dibella_align::{extend_xdrop, AlignWorkspace, Dir, Scoring, SimdMode};

const BELLA: Scoring = Scoring::bella();

/// An x-drop golden case: inputs plus the expected
/// `(score, s_ext, t_ext, cells, antidiagonals)`.
struct XCase {
    name: &'static str,
    s: &'static [u8],
    t: &'static [u8],
    scoring: Scoring,
    x: i32,
    expect: (i32, usize, usize, u64, u64),
}

/// 40-base homopolymer.
const POLY_A: &[u8] = b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
/// Same length, all-mismatching.
const POLY_C: &[u8] = b"CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC";
/// Homopolymer with a 4-base deletion relative to POLY_A.
const POLY_A_SHORT: &[u8] = b"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA";
/// Ten ACGT periods: only the main diagonal matches.
const ACGT_40: &[u8] = b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT";
/// The same behind a 30-base insertion.
const N30_ACGT_40: &[u8] = b"NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT";
/// A match worth twenty gaps: one new best lifts the pruning threshold
/// past a whole chunk of front cells at once.
const JUMPY: Scoring = Scoring { match_score: 20, mismatch: -1, gap: -1 };
/// Saturation-boundary scoring: one step from the scalar kernel's
/// NEG_INF = i32::MIN/4 sentinel arithmetic headroom.
const HUGE: Scoring = Scoring { match_score: 1 << 20, mismatch: -(1 << 20), gap: -(1 << 20) };

fn xcases() -> Vec<XCase> {
    vec![
        XCase { name: "both_empty", s: b"", t: b"", scoring: BELLA, x: 5, expect: (0, 0, 0, 0, 0) },
        XCase { name: "s_empty", s: b"", t: b"ACGT", scoring: BELLA, x: 5, expect: (0, 0, 0, 0, 0) },
        XCase { name: "t_empty", s: b"ACGT", t: b"", scoring: BELLA, x: 5, expect: (0, 0, 0, 0, 0) },
        XCase { name: "one_base_match", s: b"A", t: b"A", scoring: BELLA, x: 5, expect: (1, 1, 1, 3, 2) },
        XCase { name: "one_base_mismatch", s: b"A", t: b"C", scoring: BELLA, x: 5, expect: (0, 0, 0, 3, 2) },
        XCase { name: "homopolymer_equal", s: POLY_A, t: POLY_A, scoring: BELLA, x: 10, expect: (40, 40, 40, 624, 80) },
        XCase { name: "homopolymer_indel", s: POLY_A, t: POLY_A_SHORT, scoring: BELLA, x: 10, expect: (36, 36, 36, 582, 76) },
        XCase { name: "all_mismatch", s: POLY_A, t: POLY_C, scoring: BELLA, x: 4, expect: (0, 0, 0, 34, 9) },
        XCase { name: "mismatch_tail", s: b"AAAAGGGG", t: b"AAAACCCC", scoring: BELLA, x: 3, expect: (4, 4, 4, 51, 15) },
        XCase { name: "tiny_x_immediate_stop", s: POLY_A, t: POLY_A, scoring: Scoring { match_score: 1, mismatch: -1, gap: -9 }, x: 1, expect: (0, 0, 0, 2, 1) },
        XCase { name: "huge_scores_match_run", s: POLY_A, t: POLY_A, scoring: HUGE, x: 1 << 20, expect: (41943040, 40, 40, 198, 80) },
        XCase { name: "huge_scores_mismatch", s: POLY_A, t: POLY_C, scoring: HUGE, x: 1 << 20, expect: (0, 0, 0, 7, 3) },
        XCase { name: "asymmetric_lengths", s: b"ACGTACGTACGTACGTACGT", t: b"ACG", scoring: BELLA, x: 8, expect: (3, 3, 3, 39, 15) },
        // Lane-kernel row shapes: a band that narrows to one cell on every
        // other antidiagonal, a row losing more than a chunk of front cells
        // in one pruning step, and rows shorter than one chunk throughout.
        XCase { name: "one_cell_band", s: ACGT_40, t: ACGT_40, scoring: BELLA, x: 1, expect: (40, 40, 40, 198, 80) },
        XCase { name: "front_pruned_in_bulk", s: N30_ACGT_40, t: ACGT_40, scoring: JUMPY, x: 40, expect: (770, 70, 40, 1051, 110) },
        // x < match + |gap|: a cell past the row's last candidate sees a live
        // diagonal source and would outscore the true best if the lane
        // kernel's tail mask let it into the row maximum.
        XCase { name: "live_diagonal_past_row_end", s: b"TCGGCCAG", t: b"AAGTATTCAG", scoring: Scoring { match_score: 5, mismatch: -1, gap: -1 }, x: 4, expect: (8, 3, 10, 53, 18) },
        XCase { name: "sub_lane_pair", s: b"ACGTA", t: b"ACTTAGGCATTA", scoring: BELLA, x: 6, expect: (3, 5, 5, 59, 17) },
    ]
}

/// Prints the scalar oracle's outputs in source form for pasting into the
/// `expect` fields above. Ignored in normal runs.
#[test]
#[ignore = "generator for the committed expectations"]
fn print_golden() {
    let mut ws = AlignWorkspace::new();
    for c in xcases() {
        let e = extend_xdrop(c.s, c.t, Dir::Fwd, c.scoring, c.x, &mut ws, SimdMode::Scalar);
        println!("x {}: ({}, {}, {}, {}, {})", c.name, e.score, e.s_ext, e.t_ext, e.cells, e.antidiagonals);
    }
}

#[test]
fn xdrop_golden_vectors_on_both_kernels() {
    let mut ws = AlignWorkspace::new();
    for c in xcases() {
        for mode in [SimdMode::Scalar, SimdMode::Auto] {
            let e = extend_xdrop(c.s, c.t, Dir::Fwd, c.scoring, c.x, &mut ws, mode);
            assert_eq!(
                (e.score, e.s_ext, e.t_ext, e.cells, e.antidiagonals),
                c.expect,
                "xdrop case {:?} on {mode:?}",
                c.name
            );
        }
        // The reverse walk over mirrored inputs must agree with the
        // committed forward expectation on both kernels, too.
        let s_rev: Vec<u8> = c.s.iter().rev().copied().collect();
        let t_rev: Vec<u8> = c.t.iter().rev().copied().collect();
        for mode in [SimdMode::Scalar, SimdMode::Auto] {
            let e = extend_xdrop(&s_rev, &t_rev, Dir::Rev, c.scoring, c.x, &mut ws, mode);
            assert_eq!(
                (e.score, e.s_ext, e.t_ext, e.cells, e.antidiagonals),
                c.expect,
                "reversed xdrop case {:?} on {mode:?}",
                c.name
            );
        }
    }
}
