//! Configuration for the k-mer analysis stages.

use dibella_kmer::params;

/// Parameters of the two k-mer passes (paper §6–§7).
#[derive(Clone, Debug)]
pub struct KcountConfig {
    /// k-mer length (≤ 32; diBELLA uses 17 for PacBio data).
    pub k: usize,
    /// High-occurrence threshold `m`: k-mers seen more often are treated
    /// as repeats and discarded (paper §2).
    pub max_multiplicity: u32,
    /// Bloom filter false-positive target.
    pub bloom_fp_rate: f64,
    /// Estimated distinct k-mers across the whole input (Eq. 2 × typical
    /// distinct ratio) used to size the distributed Bloom filter without a
    /// counting pass.
    pub expected_distinct: u64,
    /// Memory cap per rank and round: at most this many k-mer windows are
    /// packed before an exchange is forced. The paper streams "a subset
    /// of input data at a time to limit the memory consumption" (§4).
    pub max_kmers_per_round: usize,
    /// Byte cap per rank and exchange round (`usize::MAX` = unbounded).
    /// Whichever of this and [`KcountConfig::max_kmers_per_round`] is
    /// tighter bounds a round — the `--round-mb` knob every stage of the
    /// pipeline shares. A round is planned on the most a window can cost
    /// (a 20-byte minimizer record; an owner-run record of one k-mer), so
    /// the cap is an upper bound, usually a loose one.
    pub max_exchange_bytes_per_round: usize,
    /// Windows per executor batch when extraction is threaded: each
    /// exchange round's window range is cut into fixed batches of this
    /// many k-mer windows, extracted in parallel and merged in batch
    /// order. Pure function of the input — never of the thread count — so
    /// any value is deterministic; tests shrink it to force many batches
    /// on tiny reads.
    pub extract_batch: usize,
}

impl KcountConfig {
    /// Derive a configuration from dataset statistics, mirroring
    /// BELLA/diBELLA's data-driven parameter selection.
    ///
    /// * `total_bases` — `N = G·d` (size of the read set in bases);
    /// * `depth` — coverage `d`;
    /// * `error_rate` — per-base error rate `e`.
    pub fn from_dataset(total_bases: u64, depth: f64, error_rate: f64, k: usize) -> Self {
        assert!((4..=32).contains(&k), "k = {k} unsupported (need 4..=32)");
        let m = params::reliable_max_multiplicity(depth, error_rate, k, params::defaults::EPSILON);
        // k-mer bag ≈ total bases (Eq. 2); distinct ≈ bag × typical ratio.
        let expected_distinct =
            params::estimate_cardinality(total_bases, params::defaults::DISTINCT_RATIO).max(1024);
        Self {
            k,
            max_multiplicity: m,
            bloom_fp_rate: 0.05,
            expected_distinct,
            max_kmers_per_round: 1 << 20,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: Self::DEFAULT_EXTRACT_BATCH,
        }
    }

    /// Default executor batch size for threaded extraction: big enough to
    /// amortize per-batch routing buffers, small enough that a default
    /// round (2²⁰ k-mers) splits into ~1k batches for dynamic scheduling.
    pub const DEFAULT_EXTRACT_BATCH: usize = 1024;

    /// Per-rank share of the expected distinct k-mer set.
    pub fn expected_distinct_per_rank(&self, ranks: usize) -> u64 {
        (self.expected_distinct / ranks as u64).max(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_paper_like_parameters() {
        // E. coli 30x-like: 139 Mb of reads at depth 30, 15% error, k=17.
        let cfg = KcountConfig::from_dataset(139_200_000, 30.0, 0.15, 17);
        assert_eq!(cfg.k, 17);
        assert!((2..=12).contains(&cfg.max_multiplicity));
        assert!(cfg.expected_distinct > 50_000_000);
        assert!(cfg.expected_distinct < 139_200_000);
    }

    #[test]
    fn deeper_coverage_raises_m() {
        let c30 = KcountConfig::from_dataset(1_000_000, 30.0, 0.15, 17);
        let c100 = KcountConfig::from_dataset(1_000_000, 100.0, 0.14, 17);
        assert!(c100.max_multiplicity > c30.max_multiplicity);
    }

    #[test]
    fn per_rank_share() {
        let cfg = KcountConfig::from_dataset(1_000_000, 30.0, 0.15, 17);
        assert!(cfg.expected_distinct_per_rank(4) >= cfg.expected_distinct / 4);
        assert!(cfg.expected_distinct_per_rank(1 << 30) >= 256);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn k_bounds() {
        let _ = KcountConfig::from_dataset(1000, 30.0, 0.15, 33);
    }
}
