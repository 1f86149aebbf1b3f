//! Property tests: x-drop cross-validation against the Smith-Waterman
//! oracle.

use dibella_align::{
    extend_seed, extend_xdrop, smith_waterman, AlignWorkspace, Dir, Extension, Scoring,
    SeedAlignment, SeedHit, SimdMode,
};
use proptest::prelude::*;

/// A forward extension on the production dispatch, fresh scratch.
fn xdrop(s: &[u8], t: &[u8], sc: Scoring, x: i32) -> Extension {
    extend_xdrop(s, t, Dir::Fwd, sc, x, &mut AlignWorkspace::new(), SimdMode::Auto)
}

/// A seed extension on the production dispatch, fresh scratch.
fn seeded(a: &[u8], b: &[u8], seed: SeedHit, sc: Scoring, x: i32) -> SeedAlignment {
    extend_seed(a, b, seed, sc, x, &mut AlignWorkspace::new(), SimdMode::Auto)
}

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), len)
}

/// Mutate `seq` with substitutions/indels at roughly `rate`, seeded.
fn mutate(seq: &[u8], rate: f64, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut out = Vec::with_capacity(seq.len());
    for &b in seq {
        let r = (next() % 10_000) as f64 / 10_000.0;
        if r < rate {
            match next() % 3 {
                0 => out.push(b"ACGT"[(next() % 4) as usize]), // substitution
                1 => {
                    out.push(b);
                    out.push(b"ACGT"[(next() % 4) as usize]); // insertion
                }
                _ => {} // deletion
            }
        } else {
            out.push(b);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// x-drop prefix extension never exceeds the SW local optimum.
    #[test]
    fn xdrop_bounded_by_sw(s in dna(1..120), t in dna(1..120), x in 1i32..60) {
        let sc = Scoring::bella();
        let e = xdrop(&s, &t, sc, x);
        let oracle = smith_waterman(&s, &t, sc);
        prop_assert!(e.score <= oracle.score,
            "xdrop {} > sw {}", e.score, oracle.score);
        prop_assert!(e.score >= 0);
        prop_assert!(e.s_ext <= s.len() && e.t_ext <= t.len());
    }

    /// x-drop score is monotone non-decreasing in X.
    #[test]
    fn xdrop_monotone_in_x(s in dna(10..150), seed in any::<u64>()) {
        let t = mutate(&s, 0.15, seed);
        prop_assume!(!t.is_empty());
        let sc = Scoring::bella();
        let mut prev = 0;
        for x in [1, 3, 8, 20, 60, 200] {
            let e = xdrop(&s, &t, sc, x);
            prop_assert!(e.score >= prev, "x={x}: {} < {prev}", e.score);
            prev = e.score;
        }
    }

    /// With X larger than any possible drop, the extension equals the
    /// best prefix-pair score computed by unpruned DP.
    #[test]
    fn xdrop_infinite_x_equals_full_prefix_dp(s in dna(1..60), t in dna(1..60)) {
        let sc = Scoring::bella();
        let e = xdrop(&s, &t, sc, 1_000_000);
        // Reference: full DP over prefixes (global start, free end).
        let n = s.len();
        let m = t.len();
        let mut dp = vec![vec![0i32; m + 1]; n + 1];
        for i in 0..=n {
            for j in 0..=m {
                if i == 0 && j == 0 { continue; }
                let mut v = i32::MIN / 4;
                if i > 0 { v = v.max(dp[i-1][j] + sc.gap); }
                if j > 0 { v = v.max(dp[i][j-1] + sc.gap); }
                if i > 0 && j > 0 {
                    v = v.max(dp[i-1][j-1] + sc.substitution(s[i-1], t[j-1]));
                }
                dp[i][j] = v;
            }
        }
        let best = dp.iter().flatten().copied().max().unwrap().max(0);
        prop_assert_eq!(e.score, best);
    }

    /// Seed-and-extend through a *true* shared window never beats SW and
    /// recovers at least the seed score when the window matches exactly.
    #[test]
    fn seeded_alignment_sound(
        genome in dna(60..200),
        a_off in 0usize..20,
        seed_rel in 0usize..20,
        noise in any::<u64>(),
    ) {
        let k = 12usize;
        // Two overlapping "reads" from the same genome region.
        prop_assume!(genome.len() >= a_off + 20 + seed_rel + k + 10);
        let a: Vec<u8> = genome[a_off..].to_vec();
        let b: Vec<u8> = genome[a_off + seed_rel..].to_vec();
        let _ = noise;
        let seed = SeedHit { a_pos: seed_rel, b_pos: 0, k };
        let sc = Scoring::bella();
        let al = seeded(&a, &b, seed, sc, 30);
        let oracle = smith_waterman(&a, &b, sc);
        prop_assert!(al.score <= oracle.score);
        prop_assert!(al.score >= k as i32, "seed not recovered: {}", al.score);
        // Coordinates are consistent.
        prop_assert!(al.a_start <= seed.a_pos && al.a_end >= seed.a_pos + k);
        prop_assert!(al.b_start <= seed.b_pos && al.b_end >= seed.b_pos + k);
        prop_assert!(al.a_end <= a.len() && al.b_end <= b.len());
    }

    /// A noisy copy of a read aligns with score proportional to length
    /// (regression guard for the PacBio regime: 15 % error, unit scores).
    #[test]
    fn noisy_overlap_scores_scale(len in 200usize..500, seed in any::<u64>()) {
        let base: Vec<u8> = (0..len).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        let noisy = mutate(&base, 0.15, seed);
        let sc = Scoring::bella();
        let e = seeded(&base, &noisy, SeedHit { a_pos: 0, b_pos: 0, k: 1 }, sc, 50);
        // With e=15% and unit scores, expected per-base score ≈ 0.5; allow
        // a broad band.
        prop_assert!(e.score as f64 > 0.2 * len as f64,
            "score {} too low for len {len}", e.score);
    }
}
