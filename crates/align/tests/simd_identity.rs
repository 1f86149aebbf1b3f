//! Differential bit-identity of the lane x-drop kernel vs the scalar
//! core — the property suite behind the "SIMD changes throughput, never
//! output" guarantee.
//!
//! Every case drives **both** cores through ONE thread-local
//! [`AlignWorkspace`] that is never reset, so the ~1k random inputs
//! double as a dirty-reuse test: the lane kernel never re-initializes its
//! rows or staged sequence copies, and any stale-scratch leak would
//! diverge here. Sweeps cover sequence lengths from 0 to 4k (including
//! lengths below one SIMD lane), PacBio-like error rates, random scoring
//! parameters, the x-drop `X` and both walk directions; scores, extents
//! and `cells` tallies must all be identical. Two deterministic cases
//! reach what 4 kb cannot: 40–70 kb pairs whose scores cross the lane
//! kernel's rebase point several times, and the scoring / `x` values
//! either side of its eligibility bounds. Two more properties pin the
//! workspace itself: a [`Dir::Rev`] walk equals a forward walk over
//! reversed copies, and a result does not depend on which calls dirtied
//! the workspace before it. Two deterministic cases pin the lane rows'
//! absolute-cell layout: 4 000 against 20 bases (and the reverse), and
//! long → short → long reads through one workspace that is never reset.

use dibella_align::{
    extend_seed, extend_xdrop, AlignWorkspace, Dir, Extension, Scoring, SeedAlignment, SeedHit,
    SimdMode,
};
use proptest::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Deliberately shared, never-cleared workspace: every case of every
    /// property dirties it for the next one — alternating between the
    /// scalar and lane row layouts.
    static WS: RefCell<AlignWorkspace> = RefCell::new(AlignWorkspace::new());
}

fn with_ws<R>(f: impl FnOnce(&mut AlignWorkspace) -> R) -> R {
    WS.with(|cell| f(&mut cell.borrow_mut()))
}

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), len)
}

/// Random but always-valid scoring parameters (match > 0 > mismatch, gap).
fn scoring() -> impl Strategy<Value = Scoring> {
    (1i32..5, -5i32..0, -5i32..0).prop_map(|(ma, mi, gap)| Scoring::new(ma, mi, gap))
}

/// Apply a PacBio-like mutation stream to `template`: per-base byte `op`
/// drives substitutions, deletions and insertions, with the effective
/// error rate set by the op distribution the caller generates.
fn mutate(template: &[u8], ops: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(template.len() + 8);
    for (&base, &op) in template.iter().zip(ops) {
        match op {
            0..=7 => out.push(b"ACGT"[(op % 4) as usize]), // substitution
            8..=11 => {}                                   // deletion
            12..=15 => {
                // insertion before the kept base
                out.push(b"ACGT"[(op % 4) as usize]);
                out.push(base);
            }
            _ => out.push(base),
        }
    }
    out
}

/// What one call of `mixed_call_orders_stay_identical` returned.
#[derive(Debug, PartialEq)]
enum Out {
    Ext(Extension),
    Seed(SeedAlignment),
}

/// Both x-drop cores over the shared dirty workspace, scalar first.
fn xdrop_both(s: &[u8], t: &[u8], dir: Dir, sc: Scoring, x: i32) -> (Extension, Extension) {
    with_ws(|ws| {
        let scalar = extend_xdrop(s, t, dir, sc, x, ws, SimdMode::Scalar);
        let simd = extend_xdrop(s, t, dir, sc, x, ws, SimdMode::Auto);
        (scalar, simd)
    })
}

/// Both cores over the shared dirty workspace on a full seed-and-extend.
fn seed_both(
    a: &[u8],
    b: &[u8],
    seed: SeedHit,
    sc: Scoring,
    x: i32,
) -> (SeedAlignment, SeedAlignment) {
    with_ws(|ws| {
        (
            extend_seed(a, b, seed, sc, x, ws, SimdMode::Scalar),
            extend_seed(a, b, seed, sc, x, ws, SimdMode::Auto),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Sub-lane and tiny inputs (0..16 bases — shorter than one 16-wide
    /// x-drop chunk) with random scoring and x: the all-edge regime where
    /// a masking or padding bug would live.
    #[test]
    fn sublane_xdrop_identical(
        s in dna(0..16),
        t in dna(0..16),
        sc in scoring(),
        x in 1i32..40,
    ) {
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Fwd, sc, x);
        prop_assert_eq!(simd, scalar);
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Rev, sc, x);
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Mid-size unrelated pairs, both directions, random scoring and x.
    #[test]
    fn random_pair_xdrop_identical(
        s in dna(0..300),
        t in dna(0..300),
        sc in scoring(),
        x in 1i32..100,
    ) {
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Fwd, sc, x);
        prop_assert_eq!(simd, scalar);
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Rev, sc, x);
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// True overlaps at a controlled error rate: template + independent
    /// mutation streams for each copy, then full seed-and-extend (both
    /// directions + prologue) on both cores.
    #[test]
    fn noisy_overlap_seed_extension_identical(
        template in dna(40..240),
        ops_a in prop::collection::vec(0u8..255, 240),
        ops_b in prop::collection::vec(0u8..255, 240),
        x in 1i32..60,
    ) {
        let a = mutate(&template, &ops_a);
        let b = mutate(&template, &ops_b);
        prop_assume!(a.len() >= 24 && b.len() >= 24);
        let seed = SeedHit { a_pos: a.len() / 3, b_pos: b.len() / 3, k: 12 };
        prop_assume!(seed.a_pos + seed.k <= a.len() && seed.b_pos + seed.k <= b.len());
        let (scalar, simd) = seed_both(&a, &b, seed, Scoring::bella(), x);
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Long-read regime: 1–4 kb noisy overlaps, the shape stage 4
    /// actually runs. Few cases (they are big), but each covers thousands
    /// of antidiagonals of both cores.
    #[test]
    fn long_noisy_pairs_identical(
        template in dna(1000..4000),
        seed_byte in 0u8..255,
        x in 10i32..60,
    ) {
        // Cheap deterministic per-base op stream derived from the
        // template itself, offset by `seed_byte` — avoids generating a
        // second 4k vector per case.
        let ops_a: Vec<u8> = template
            .iter()
            .enumerate()
            .map(|(i, &b)| b.wrapping_mul(31).wrapping_add(i as u8) ^ seed_byte)
            .collect();
        let ops_b: Vec<u8> = ops_a.iter().map(|&o| o.rotate_left(3) ^ 0x5A).collect();
        let a = mutate(&template, &ops_a);
        let b = mutate(&template, &ops_b);
        let seed = SeedHit { a_pos: a.len() / 2, b_pos: b.len() / 2, k: 17 };
        prop_assume!(seed.a_pos + seed.k <= a.len() && seed.b_pos + seed.k <= b.len());
        let (scalar, simd) = seed_both(&a, &b, seed, Scoring::bella(), x);
        prop_assert_eq!(simd, scalar);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Reverse-direction extension (in-place backward walk) equals a
    /// forward extension over materialized reversed copies, on both cores.
    #[test]
    fn rev_dir_matches_reversed_copies(s in dna(0..140), t in dna(0..140), x in 1i32..60) {
        let s_rev: Vec<u8> = s.iter().rev().copied().collect();
        let t_rev: Vec<u8> = t.iter().rev().copied().collect();
        let sc = Scoring::bella();
        let (copied, _) = xdrop_both(&s_rev, &t_rev, Dir::Fwd, sc, x);
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Rev, sc, x);
        prop_assert_eq!(scalar, copied);
        prop_assert_eq!(simd, copied);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Mixed call orders over one dirty workspace: each case interleaves a
    /// forward extension, a reverse extension and a seed extension, on
    /// either core, in an input-dependent order, and every result must
    /// match the same call on fresh scratch.
    #[test]
    fn mixed_call_orders_stay_identical(
        s in dna(13..120),
        t in dna(13..120),
        x in 1i32..50,
        order in 0u8..6,
        modes in 0u8..8,
    ) {
        let sc = Scoring::bella();
        let seed = SeedHit { a_pos: s.len() / 2 - 6, b_pos: t.len() / 2 - 6, k: 12 };
        let mode = |op: usize| {
            if modes >> op & 1 == 0 { SimdMode::Scalar } else { SimdMode::Auto }
        };
        let run = |op: usize, ws: &mut AlignWorkspace| match op {
            0 => Out::Ext(extend_xdrop(&s, &t, Dir::Fwd, sc, x, ws, mode(op))),
            1 => Out::Ext(extend_xdrop(&s, &t, Dir::Rev, sc, x, ws, mode(op))),
            _ => Out::Seed(extend_seed(&s, &t, seed, sc, x, ws, mode(op))),
        };
        let seq: [usize; 3] = match order {
            0 => [0, 1, 2],
            1 => [0, 2, 1],
            2 => [1, 0, 2],
            3 => [1, 2, 0],
            4 => [2, 0, 1],
            _ => [2, 1, 0],
        };
        for op in seq {
            let fresh = run(op, &mut AlignWorkspace::new());
            let dirty = with_ws(|ws| run(op, ws));
            prop_assert_eq!(dirty, fresh, "op {} in order {:?}", op, seq);
        }
    }
}

/// xorshift64 step.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `len` uniformly random bases.
fn random_dna(len: usize, state: &mut u64) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[(next(state) % 4) as usize]).collect()
}

/// A copy of `template` with substitutions, deletions and insertions at
/// a total rate of `err` (4 : 3 : 3).
fn noisy_copy(template: &[u8], err: f64, state: &mut u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(template.len() + template.len() / 8);
    for &base in template {
        let r = (next(state) % 1_000_000) as f64 / 1e6;
        let other = b"ACGT"[(next(state) % 4) as usize];
        if r < err * 0.4 {
            out.push(other);
        } else if r < err * 0.7 {
            // deletion
        } else if r < err {
            out.push(other);
            out.push(base);
        } else {
            out.push(base);
        }
    }
    out
}

/// Long-read pairs far beyond the proptest sizes: the lane kernel stores
/// scores relative to an offset it rebases every ~16 000 score, so only
/// tens of kilobases of extension exercise that path at all. Lengths,
/// error rates, both directions, unit and non-unit scoring, two `x`.
#[test]
fn long_pairs_identical_across_rebases() {
    let mut state = 0x00D1_BE11_A5EE_D000u64;
    let non_unit = Scoring::new(3, -2, -2);
    let mut most_rebases = [0i32; 2];
    for (len, err) in [(70_000usize, 0.0f64), (60_000, 0.01), (50_000, 0.05), (40_000, 0.15)] {
        let template = random_dna(len, &mut state);
        let a = noisy_copy(&template, err, &mut state);
        let b = noisy_copy(&template, err, &mut state);
        for (which, sc) in [Scoring::bella(), non_unit].into_iter().enumerate() {
            for x in [25, 100] {
                for dir in [Dir::Fwd, Dir::Rev] {
                    let (scalar, simd) = xdrop_both(&a, &b, dir, sc, x);
                    assert_eq!(simd, scalar, "len {len} err {err} {sc:?} x {x} {dir:?}");
                    // The kernel rebases each time the relative best passes
                    // 16 000 and a row adds at most 64 to it.
                    most_rebases[which] = most_rebases[which].max(scalar.score / 16_064);
                }
            }
        }
    }
    assert!(most_rebases[0] >= 2, "unit scoring crossed {} rebases", most_rebases[0]);
    assert!(most_rebases[1] >= 2, "non-unit scoring crossed {} rebases", most_rebases[1]);
}

/// The lane kernel takes `x ≤ 4000` and score magnitudes `≤ 64`; beyond
/// either, `SimdMode::Auto` runs the scalar core. The largest
/// eligible and smallest ineligible value of each parameter must give
/// the scalar result through both — a boundary that only shows if the
/// 16-bit rows mishandle the extreme they are specified for.
#[test]
fn eligibility_boundary_is_invisible() {
    let mut state = 0x0E11_61B1_E000_0001u64;
    let template = random_dna(700, &mut state);
    let a = noisy_copy(&template, 0.03, &mut state);
    let b = noisy_copy(&template, 0.03, &mut state);
    let base = Scoring::bella();
    let mut cases = vec![(base, 4_000), (base, 4_001)];
    for v in [64, 65] {
        cases.push((Scoring { match_score: v, ..base }, 200));
        cases.push((Scoring { mismatch: -v, ..base }, 200));
        cases.push((Scoring { gap: -v, ..base }, 200));
        cases.push((Scoring { match_score: v, mismatch: -v, gap: -v }, 4_000));
    }
    for (sc, x) in cases {
        for dir in [Dir::Fwd, Dir::Rev] {
            let (scalar, simd) = xdrop_both(&a, &b, dir, sc, x);
            assert_eq!(simd, scalar, "{sc:?} x {x} {dir:?}");
            assert!(scalar.cells > 500, "{sc:?} x {x}: extension too small to be probative");
        }
    }
}

/// Rows are indexed by absolute cell and sized from the ascending side
/// alone, so a side of 4 000 bases against one of 20 (and the reverse)
/// gives the longest rows a short band ever sits in: the band runs along
/// the short side's end far from cell 0 in one case, and covers a whole
/// 20-slot row in the other. Related and unrelated pairs, both walk
/// directions, unit and non-unit scoring.
#[test]
fn strongly_asymmetric_lengths_identical() {
    let mut state = 0xA5A5_0000_4000_0020u64;
    let long = random_dna(4_000, &mut state);
    let related = noisy_copy(&long[..20], 0.05, &mut state);
    let unrelated = random_dna(20, &mut state);
    for short in [&related, &unrelated] {
        for (s, t) in [(&long, short), (short, &long)] {
            for sc in [Scoring::bella(), Scoring::new(3, -2, -2)] {
                for x in [1, 25, 400] {
                    for dir in [Dir::Fwd, Dir::Rev] {
                        let (scalar, simd) = xdrop_both(s, t, dir, sc, x);
                        let (n, m) = (s.len(), t.len());
                        assert_eq!(simd, scalar, "n {n} m {m} {sc:?} x {x} {dir:?}");
                    }
                }
            }
        }
    }
}

/// One workspace, never reset, driven long → short → long read `a`: the
/// short read's rows are windows into rows grown for the long one, and
/// the second long read walks over the slots both earlier reads left —
/// rows are never re-initialized, so a guard slot the kernel failed to
/// write would show here as a difference from a fresh workspace.
#[test]
fn long_short_long_reads_over_one_dirty_workspace() {
    let mut state = 0x0D1B_0000_1000_5000u64;
    let template = random_dna(3_000, &mut state);
    let reads = [
        (noisy_copy(&template, 0.15, &mut state), noisy_copy(&template, 0.15, &mut state)),
        (random_dna(60, &mut state), random_dna(60, &mut state)),
        (noisy_copy(&template[500..], 0.02, &mut state), noisy_copy(&template[500..], 0.02, &mut state)),
    ];
    let mut dirty = AlignWorkspace::new();
    for (a, b) in &reads {
        let (len_a, len_b) = (a.len(), b.len());
        let seeds = [
            SeedHit { a_pos: 0, b_pos: 0, k: 1 },
            SeedHit { a_pos: len_a / 2, b_pos: len_b / 2, k: 12 },
            SeedHit { a_pos: len_a - 12, b_pos: len_b - 12, k: 12 },
        ];
        for seed in seeds {
            for x in [8, 25, 60] {
                let fresh = extend_seed(a, b, seed, Scoring::bella(), x, &mut AlignWorkspace::new(), SimdMode::Scalar);
                let lanes = extend_seed(a, b, seed, Scoring::bella(), x, &mut dirty, SimdMode::Auto);
                assert_eq!(lanes, fresh, "a {len_a} b {len_b} {seed:?} x {x}");
            }
        }
    }
}

/// The lane kernel finds the best cell of the best row only when the walk
/// ends, except on a row whose new best passes the rebase point: the
/// rebase moves that row's surviving cells and leaves its pruned front,
/// so the cell is pinned before it. Here that row is the last to raise
/// the best. 800 shared bases score 16 000 (+20 each, not yet past the
/// point); 30 unmatched bases in `s` spread a front of equal gap-only
/// scores; two more matches reach 16 010, which prunes that whole front in
/// one step and is never beaten after.
#[test]
fn best_row_rebased_with_a_pruned_front_keeps_its_cell() {
    let mut state = 0x0000_5EED_0001_0001u64;
    let shared = random_dna(800, &mut state);
    let s = [&shared[..], &[b'N'; 30], b"GG", &[b'A'; 20]].concat();
    let t = [&shared[..], b"GG", &[b'C'; 20]].concat();
    let sc = Scoring { match_score: 20, mismatch: -64, gap: -1 };
    for x in [34, 40, 43] {
        let (scalar, simd) = xdrop_both(&s, &t, Dir::Fwd, sc, x);
        assert_eq!((scalar.score, scalar.s_ext, scalar.t_ext), (16_010, 832, 802), "x {x}");
        assert_eq!(simd, scalar, "x {x}");
        let s_rev: Vec<u8> = s.iter().rev().copied().collect();
        let t_rev: Vec<u8> = t.iter().rev().copied().collect();
        let (scalar, simd) = xdrop_both(&s_rev, &t_rev, Dir::Rev, sc, x);
        assert_eq!(simd, scalar, "x {x} reversed");
    }
}
