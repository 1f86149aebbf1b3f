//! BELLA's statistical parameter selection (paper §2–§3, and \[14\]).
//!
//! diBELLA inherits BELLA's data-driven choices:
//!
//! * the k-mer length `k` is picked so that a pair of truly-overlapping
//!   reads shares at least one *correct* k-mer with high probability, while
//!   keeping k long enough to suppress repeats;
//! * the high-occurrence threshold `m` cuts k-mers whose multiplicity is
//!   implausibly large for a unique genomic locus given depth `d` and error
//!   rate `e`;
//! * dataset-size identities `N = G·d` (Eq. 1) and `#k-mers ≈ G·d` (Eq. 2)
//!   size the distributed Bloom filter without a cardinality pass.
//!
//! All probabilities use BELLA's independence approximations, which the
//! paper's own analysis shows are accurate for PacBio-style error rates.

/// Probability that a single k-mer drawn from a read with per-base error
/// rate `e` is error-free: `(1 − e)^k`.
#[inline]
pub fn prob_correct_kmer(e: f64, k: usize) -> f64 {
    assert!((0.0..1.0).contains(&e), "error rate must be in [0,1)");
    (1.0 - e).powi(k as i32)
}

/// Probability that two reads overlapping over `ov` bases share at least
/// one k-mer that is correct in *both* reads.
///
/// Each of the `ov − k + 1` positions is correct in both reads with
/// probability `(1 − e)^{2k}`; BELLA treats positions as independent.
pub fn prob_shared_correct_kmer(ov: usize, k: usize, e: f64) -> f64 {
    if ov < k {
        return 0.0;
    }
    let positions = (ov - k + 1) as f64;
    let p_both = (1.0 - e).powi(2 * k as i32);
    1.0 - (1.0 - p_both).powf(positions)
}

/// Poisson probability mass function (numerically stable via logs).
pub fn poisson_pmf(lambda: f64, x: u64) -> f64 {
    assert!(lambda > 0.0);
    let xf = x as f64;
    let ln_p = xf * lambda.ln() - lambda - ln_factorial(x);
    ln_p.exp()
}

/// Poisson cumulative distribution function `P[X ≤ x]`.
pub fn poisson_cdf(lambda: f64, x: u64) -> f64 {
    (0..=x).map(|i| poisson_pmf(lambda, i)).sum::<f64>().min(1.0)
}

/// `ln(x!)` via Stirling's series with exact values for small `x`.
fn ln_factorial(x: u64) -> f64 {
    #[allow(clippy::approx_constant)] // table entry happens to be ln 2
    const TABLE: [f64; 11] = [
        0.0,
        0.0,
        0.693_147_180_559_945_3,
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_47,
        15.104_412_573_075_516,
    ];
    if (x as usize) < TABLE.len() {
        return TABLE[x as usize];
    }
    let xf = x as f64;
    // Stirling: ln x! ≈ x ln x − x + ½ ln(2πx) + 1/(12x) − 1/(360x³)
    xf * xf.ln() - xf + 0.5 * (2.0 * std::f64::consts::PI * xf).ln() + 1.0 / (12.0 * xf)
        - 1.0 / (360.0 * xf * xf * xf)
}

/// The high-occurrence threshold `m` (paper §2): the multiplicity of a
/// correct k-mer from a *unique* genomic locus is approximately
/// `Poisson(λ)` with `λ = d·(1 − e)^k` (each of the ~`d` covering reads
/// contributes an error-free copy with probability `(1 − e)^k`).
///
/// We return the smallest `m` with `P[X ≤ m] ≥ 1 − epsilon`; k-mers seen
/// more often than that are, with confidence `1 − epsilon`, repeats — and
/// are discarded to avoid the `m²` pair blow-up of Eq. (3).
pub fn reliable_max_multiplicity(d: f64, e: f64, k: usize, epsilon: f64) -> u32 {
    assert!(d > 0.0, "depth must be positive");
    assert!((0.0..1.0).contains(&epsilon) && epsilon > 0.0);
    let lambda = d * prob_correct_kmer(e, k);
    let mut cdf = 0.0;
    let mut m = 0u64;
    // λ for real datasets is ≤ depth, so this loop is short; cap defensively.
    let cap = (lambda * 20.0).max(64.0) as u64;
    loop {
        cdf += poisson_pmf(lambda, m);
        if cdf >= 1.0 - epsilon || m >= cap {
            // A retained k-mer must appear at least twice (singletons are
            // dropped separately), so the threshold is never below 2.
            return (m as u32).max(2);
        }
        m += 1;
    }
}

/// Eq. (1): total input bases `N = G·d` for genome size `G` and depth `d`.
#[inline]
pub fn input_bases(genome_size: u64, depth: f64) -> u64 {
    (genome_size as f64 * depth).round() as u64
}

/// Eq. (2): the size of the k-mer *bag* parsed from the input,
/// `G·d·(L − k + 1)/L ≈ G·d`.
#[inline]
pub fn kmer_bag_size(genome_size: u64, depth: f64, avg_read_len: f64, k: usize) -> u64 {
    let n = genome_size as f64 * depth;
    (n * (avg_read_len - k as f64 + 1.0).max(0.0) / avg_read_len).round() as u64
}

/// Estimate the distinct-k-mer cardinality for Bloom filter sizing (§6):
/// the bag size multiplied by the typical distinct-to-bag ratio observed
/// across data sets. With long-read error rates most erroneous k-mers are
/// unique, so the cardinality is a large constant fraction of the bag.
#[inline]
pub fn estimate_cardinality(kmer_bag: u64, distinct_ratio: f64) -> u64 {
    assert!((0.0..=1.0).contains(&distinct_ratio));
    (kmer_bag as f64 * distinct_ratio).ceil() as u64
}

/// Bounds of paper §8, Eq. (3)/(4): the global number of overlap tasks lies
/// in `[ι·K, ι·K·m²/2]` for retained fraction `ι`, k-mer count `K` and
/// maximum multiplicity `m` (each retained k-mer contributes between 1 and
/// `m(m−1)/2` pairs).
pub fn overlap_task_bounds(iota: f64, kmer_count: u64, m: u32) -> (u64, u64) {
    let retained = iota * kmer_count as f64;
    let lo = retained;
    let hi = retained * (m as f64 * (m as f64 - 1.0) / 2.0);
    (lo.round() as u64, hi.round() as u64)
}

/// Default parameters diBELLA/BELLA use for PacBio data.
pub mod defaults {
    /// Typical k for long reads (paper §2: "17-mers are typical").
    pub const K: usize = 17;
    /// Minimum overlap length considered a true overlap (BELLA: 2 kb).
    pub const MIN_OVERLAP: usize = 2000;
    /// Tail mass allowed past the high-occurrence threshold.
    pub const EPSILON: f64 = 1e-4;
    /// Typical distinct/bag ratio for Bloom sizing: up to 98 % of long-read
    /// k-mers are singletons (§6), so the distinct set is nearly the bag.
    pub const DISTINCT_RATIO: f64 = 0.7;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_correct_monotone_in_k() {
        let e = 0.15;
        assert!(prob_correct_kmer(e, 11) > prob_correct_kmer(e, 17));
        assert!(prob_correct_kmer(e, 17) > prob_correct_kmer(e, 21));
        assert!((prob_correct_kmer(0.0, 17) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_kmer_probability_sane() {
        // 2 kb overlap at 15% error with k = 17 detects with high prob.
        let p = prob_shared_correct_kmer(2000, 17, 0.15);
        assert!(p > 0.9, "p = {p}");
        // Overlap shorter than k can never share a k-mer.
        assert_eq!(prob_shared_correct_kmer(10, 17, 0.15), 0.0);
        // Error-free data detects with certainty-ish.
        assert!(prob_shared_correct_kmer(100, 17, 0.0) > 0.999_999);
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        for lambda in [0.5, 3.0, 12.0] {
            let total: f64 = (0..200).map(|x| poisson_pmf(lambda, x)).sum();
            assert!((total - 1.0).abs() < 1e-7, "λ={lambda}: {total}");
        }
    }

    #[test]
    fn poisson_cdf_monotone() {
        let lambda = 4.2;
        let mut prev = 0.0;
        for x in 0..30 {
            let c = poisson_cdf(lambda, x);
            assert!(c >= prev);
            prev = c;
        }
        assert!((poisson_cdf(lambda, 100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_accuracy() {
        // 20! = 2432902008176640000
        let exact = (2_432_902_008_176_640_000f64).ln();
        assert!((ln_factorial(20) - exact).abs() < 1e-9);
        // 100! via known value of ln(100!) ≈ 363.73937555556349
        assert!((ln_factorial(100) - 363.739_375_555_563_49).abs() < 1e-9);
    }

    #[test]
    fn reliable_threshold_tracks_depth() {
        let m30 = reliable_max_multiplicity(30.0, 0.15, 17, 1e-4);
        let m100 = reliable_max_multiplicity(100.0, 0.15, 17, 1e-4);
        assert!(m100 > m30, "m100={m100} m30={m30}");
        // λ = 30·(0.85)^17 ≈ 1.9 → threshold a small number ≥ 2.
        assert!((2..=12).contains(&m30), "m30={m30}");
        // The Poisson tail must actually be below epsilon at the threshold.
        let lambda = 30.0 * prob_correct_kmer(0.15, 17);
        assert!(1.0 - poisson_cdf(lambda, m30 as u64) <= 1e-4);
    }

    #[test]
    fn dataset_size_identities() {
        // E. coli 30x: G = 4.64 Mb, d = 30 → N ≈ 139 Mb (paper §3 scale).
        let g = 4_640_000u64;
        assert_eq!(input_bases(g, 30.0), 139_200_000);
        let bag = kmer_bag_size(g, 30.0, 9958.0, 17);
        let n = input_bases(g, 30.0);
        // Bag ≈ N within 1% (L >> k).
        assert!((bag as f64 - n as f64).abs() / (n as f64) < 0.01);
    }

    #[test]
    fn overlap_bounds_ordering() {
        let (lo, hi) = overlap_task_bounds(0.08, 1_000_000, 8);
        assert!(lo <= hi);
        assert_eq!(lo, 80_000);
        assert_eq!(hi, 80_000 * (8 * 7 / 2));
    }
}
