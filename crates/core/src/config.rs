//! End-to-end pipeline configuration.

use dibella_align::{Scoring, SimdMode};
use dibella_comm::TransportKind;
use dibella_kcount::KcountConfig;
use dibella_kmer::params;
use dibella_overlap::{ChainConfig, OverlapConfig, OverlapEngine, SeedPolicy, TaskPlacement};
use std::fmt;
use std::str::FromStr;

/// Which seed source feeds the overlap stage (the pipeline's front end).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SeedMode {
    /// The paper's reliable-k-mer front end: a distributed Bloom pass
    /// eliminates singletons, then a full hash pass attaches occurrence
    /// lists — every k-mer instance crosses the wire twice (8 + 20
    /// bytes).
    #[default]
    Reliable,
    /// Minimizer-sketch front end (minimap-style): one pass exchanges
    /// only (w, k) window-minimum k-mers (~`2/(w+1)` of instances, 20
    /// bytes each), and candidate pairs are colinear-chained before
    /// alignment. Traffic shrinks several-fold; recall on genuine
    /// overlaps stays within a few percent (see `tests/seed_modes.rs`).
    Minimizer,
}

impl FromStr for SeedMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reliable" => Ok(SeedMode::Reliable),
            "minimizer" => Ok(SeedMode::Minimizer),
            other => Err(format!("unknown seed mode {other:?} (expected reliable|minimizer)")),
        }
    }
}

impl fmt::Display for SeedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeedMode::Reliable => "reliable",
            SeedMode::Minimizer => "minimizer",
        })
    }
}

/// Configuration of the full four-stage pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// k-mer length (≤ 32; the paper's typical value is 17).
    pub k: usize,
    /// Assumed per-base error rate of the data (drives `m`).
    pub error_rate: f64,
    /// Assumed depth of coverage (drives `m`).
    pub depth: f64,
    /// Override the derived high-occurrence threshold `m`.
    pub max_multiplicity: Option<u32>,
    /// Seed source for the overlap stage: the paper's reliable-k-mer
    /// passes, or the minimizer sketch (`--seed-mode`,
    /// `DIBELLA_SEED_MODE`).
    pub seed_mode: SeedMode,
    /// Minimizer window width `w` (number of consecutive k-mer windows a
    /// selected k-mer must win; only used under
    /// [`SeedMode::Minimizer`]). Expected sketch density is
    /// `2/(w + 1)`.
    pub minimizer_w: usize,
    /// Minimum colinear-chain length for a minimizer-mode candidate pair
    /// to survive into alignment (only used under
    /// [`SeedMode::Minimizer`]).
    pub min_chain_seeds: usize,
    /// Seed exploration policy (one-seed / min-distance; paper §5).
    pub seed_policy: SeedPolicy,
    /// Cap on seeds explored per pair.
    pub max_seeds_per_pair: usize,
    /// Accepted and ignored: stage 3 has one engine. Kept, with
    /// [`PipelineConfig::pair_batch`], only so configurations that spell
    /// out every field keep compiling; both go when the repo benchmark
    /// stops constructing this struct field by field.
    pub overlap_engine: OverlapEngine,
    /// Accepted and ignored, like [`PipelineConfig::overlap_engine`].
    pub pair_batch: usize,
    /// Most rows of `A·Aᵀ` per executor batch of the overlap stage
    /// (`--spgemm-block`, `DIBELLA_SPGEMM_BLOCK`).
    pub spgemm_block: usize,
    /// x-drop termination parameter `X` of the alignment kernel.
    pub xdrop: i32,
    /// Alignment scoring scheme.
    pub scoring: Scoring,
    /// Alignments scoring below this are dropped from the output (the
    /// per-seed alignment is still *computed* — cost is unchanged).
    pub min_align_score: i32,
    /// Streaming cap per rank and round in the k-mer passes.
    pub max_kmers_per_round: usize,
    /// Byte cap per rank and exchange round, across **all four stages**
    /// (`usize::MAX` = unbounded). Every stage streams its irregular
    /// exchange through the `RoundExchange` engine in rounds of at most
    /// this many send bytes (plus at most one record of slack — records
    /// never split across rounds), packing each round while the previous
    /// one is in flight. The CLI exposes this as `--round-mb`, the bench
    /// harness as `DIBELLA_ROUND_MB`. Results are bit-identical at every
    /// setting; only memory footprint and comm/compute overlap change.
    pub max_exchange_bytes_per_round: usize,
    /// Bloom filter false-positive target.
    pub bloom_fp_rate: f64,
    /// When set, run a distributed HyperLogLog pre-pass of this precision
    /// to size the Bloom filter instead of the Eq.-2 estimate (paper §6:
    /// HipMer's fallback for extremely large / repetitive genomes).
    pub hll_precision: Option<u8>,
    /// Alignment-task placement: the paper's parity heuristic, or the §9
    /// future-work longer-read placement that minimizes read movement.
    pub placement: TaskPlacement,
    /// **Deprecated alias** for [`PipelineConfig::threads`], only
    /// consulted when `threads` is `None`. Historically this knob threaded
    /// the alignment stage alone; the whole pipeline now runs on one
    /// executor.
    pub align_threads: usize,
    /// Intra-rank threads for **all four stages** (hybrid parallelism,
    /// paper §9 / diBELLA 2D lineage): `1` = sequential, `0` = one thread
    /// per hardware core, `n` = exactly `n` threads. `None` (the default)
    /// falls back to the deprecated [`PipelineConfig::align_threads`].
    /// Every stage shards its work into fixed-size batches on the shared
    /// `BatchedExecutor` and merges in batch order, so results are
    /// bit-identical for every value.
    pub threads: Option<usize>,
    /// Communication backend the SPMD world runs on: `SharedMem` (the
    /// default) executes collectives through real shared memory;
    /// `SimNet(platform, ranks_per_node)` runs the same byte-identical
    /// exchanges but reports the `exchange_wall` a modeled interconnect
    /// (virtual Cori, Edison, Titan or AWS) would have charged.
    pub transport: TransportKind,
    /// Which x-drop core stage 4 runs: `None` (the default) and
    /// `Some(SimdMode::Auto)` are the production dispatch — the lane
    /// kernel, with the scalar core for inputs it cannot take;
    /// `Some(SimdMode::Scalar)` pins the scalar core, which the tests use
    /// as the bit-identity oracle. The two are bit-identical, so this only
    /// moves throughput.
    pub simd: Option<SimdMode>,
    /// When set (`--checkpoint-dir`), each rank serializes its completed
    /// stage outputs (reliable/minimizer k-mer table after stage 2, the
    /// overlap task list after stage 3) into this directory through the
    /// `Wire` codec, and a fresh run over the same inputs resumes from
    /// the last completed stage bit-identically instead of recomputing —
    /// the recovery path a rank that exhausted its exchange retries
    /// points at. `None` (the default) neither reads nor writes
    /// checkpoints.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            k: 17,
            error_rate: 0.15,
            depth: 30.0,
            max_multiplicity: None,
            seed_mode: SeedMode::Reliable,
            minimizer_w: 7,
            min_chain_seeds: 2,
            seed_policy: SeedPolicy::Single,
            max_seeds_per_pair: 16,
            overlap_engine: OverlapEngine::Spgemm,
            pair_batch: 1024,
            spgemm_block: OverlapConfig::DEFAULT_SPGEMM_BLOCK,
            xdrop: 25,
            scoring: Scoring::bella(),
            min_align_score: 0,
            max_kmers_per_round: 1 << 20,
            max_exchange_bytes_per_round: usize::MAX,
            bloom_fp_rate: 0.05,
            hll_precision: None,
            placement: TaskPlacement::Parity,
            align_threads: 1,
            threads: None,
            transport: TransportKind::SharedMem,
            simd: None,
            checkpoint_dir: None,
        }
    }
}

impl PipelineConfig {
    /// The effective high-occurrence threshold: the override if set, else
    /// BELLA's Poisson-derived value for (depth, error, k).
    pub fn multiplicity_threshold(&self) -> u32 {
        self.max_multiplicity.unwrap_or_else(|| {
            params::reliable_max_multiplicity(
                self.depth,
                self.error_rate,
                self.k,
                params::defaults::EPSILON,
            )
        })
    }

    /// Derive the k-mer-analysis configuration for a given input size.
    pub fn kcount(&self, total_bases: u64) -> KcountConfig {
        let mut kc = KcountConfig::from_dataset(total_bases.max(1), self.depth, self.error_rate, self.k);
        kc.max_multiplicity = self.multiplicity_threshold();
        kc.bloom_fp_rate = self.bloom_fp_rate;
        kc.max_kmers_per_round = self.max_kmers_per_round;
        kc.max_exchange_bytes_per_round = self.max_exchange_bytes_per_round;
        kc
    }

    /// The intra-rank thread count every stage actually runs with — the
    /// single resolution point for the `threads` knob: `threads` if set
    /// (falling back to the deprecated `align_threads`), with `0` resolved
    /// to the hardware parallelism.
    pub fn effective_threads(&self) -> usize {
        let n = self.threads.unwrap_or(self.align_threads);
        if n == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            n
        }
    }

    /// The thread count requested via the environment (`DIBELLA_THREADS`),
    /// defaulting to `1` (sequential) when unset. Panics on an unparsable
    /// value — a silently ignored perf knob is worse than a crash. Feed
    /// the result to [`PipelineConfig::threads`].
    pub fn env_threads() -> usize {
        match std::env::var("DIBELLA_THREADS") {
            Err(_) => 1,
            Ok(v) => v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("DIBELLA_THREADS must be a thread count, got {v:?}")),
        }
    }

    /// The seed mode requested via the environment (`DIBELLA_SEED_MODE`),
    /// defaulting to [`SeedMode::Reliable`] when unset. Panics on an
    /// unparsable value — a silently ignored mode switch is worse than a
    /// crash. Feed the result to [`PipelineConfig::seed_mode`].
    pub fn env_seed_mode() -> SeedMode {
        match std::env::var("DIBELLA_SEED_MODE") {
            Err(_) => SeedMode::Reliable,
            Ok(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("DIBELLA_SEED_MODE: {e}")),
        }
    }

    /// Derive the overlap-stage configuration. The chain filter is
    /// enabled exactly when the minimizer front end feeds the stage.
    pub fn overlap(&self) -> OverlapConfig {
        OverlapConfig {
            policy: self.seed_policy,
            max_seeds_per_pair: self.max_seeds_per_pair,
            placement: self.placement,
            max_exchange_bytes_per_round: self.max_exchange_bytes_per_round,
            chain: match self.seed_mode {
                SeedMode::Reliable => None,
                SeedMode::Minimizer => {
                    Some(ChainConfig { min_chain_seeds: self.min_chain_seeds })
                }
            },
            spgemm_block: self.spgemm_block,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.k, 17);
        assert_eq!(cfg.seed_policy, SeedPolicy::Single);
        assert_eq!(cfg.transport, TransportKind::SharedMem);
        assert!(cfg.xdrop > 0);
        // Derived m is the BELLA Poisson threshold.
        let m = cfg.multiplicity_threshold();
        assert!((2..=12).contains(&m), "m = {m}");
    }

    #[test]
    fn override_wins() {
        let cfg = PipelineConfig { max_multiplicity: Some(77), ..Default::default() };
        assert_eq!(cfg.multiplicity_threshold(), 77);
        assert_eq!(cfg.kcount(1_000_000).max_multiplicity, 77);
    }

    #[test]
    fn kcount_inherits_knobs() {
        let cfg = PipelineConfig { max_kmers_per_round: 4096, bloom_fp_rate: 0.2, ..Default::default() };
        let kc = cfg.kcount(1_000_000);
        assert_eq!(kc.max_kmers_per_round, 4096);
        assert_eq!(kc.bloom_fp_rate, 0.2);
        assert_eq!(kc.k, 17);
    }

    #[test]
    fn round_byte_cap_reaches_every_stage_config() {
        // Default: unbounded everywhere.
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.max_exchange_bytes_per_round, usize::MAX);
        assert_eq!(cfg.kcount(1_000).max_exchange_bytes_per_round, usize::MAX);
        assert_eq!(cfg.overlap().max_exchange_bytes_per_round, usize::MAX);
        // A cap flows into both derived configs (stage 4 reads it off the
        // PipelineConfig directly).
        let capped = PipelineConfig { max_exchange_bytes_per_round: 1 << 20, ..Default::default() };
        assert_eq!(capped.kcount(1_000).max_exchange_bytes_per_round, 1 << 20);
        assert_eq!(capped.overlap().max_exchange_bytes_per_round, 1 << 20);
    }

    #[test]
    fn simd_knob_defaults_to_auto() {
        assert_eq!(PipelineConfig::default().simd, None);
        assert_eq!(PipelineConfig::default().simd.unwrap_or_default(), SimdMode::Auto);
        let cfg = PipelineConfig { simd: Some(SimdMode::Scalar), ..Default::default() };
        assert_eq!(cfg.simd, Some(SimdMode::Scalar));
    }

    #[test]
    fn seed_mode_parses_and_wires_the_chain() {
        assert_eq!("reliable".parse::<SeedMode>().unwrap(), SeedMode::Reliable);
        assert_eq!("Minimizer".parse::<SeedMode>().unwrap(), SeedMode::Minimizer);
        assert!("bloom".parse::<SeedMode>().is_err());
        assert_eq!(SeedMode::Minimizer.to_string(), "minimizer");
        // Reliable mode: no chain filter. Minimizer mode: chain on, with
        // the configured minimum.
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.seed_mode, SeedMode::Reliable);
        assert!(cfg.overlap().chain.is_none());
        let cfg = PipelineConfig {
            seed_mode: SeedMode::Minimizer,
            min_chain_seeds: 3,
            ..Default::default()
        };
        assert_eq!(cfg.overlap().chain, Some(ChainConfig { min_chain_seeds: 3 }));
        assert_eq!(cfg.minimizer_w, 7);
    }

    #[test]
    fn overlap_engine_knobs_reach_the_stage_config() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.overlap().spgemm_block, OverlapConfig::DEFAULT_SPGEMM_BLOCK);
        let cfg = PipelineConfig { spgemm_block: 5, ..Default::default() };
        assert_eq!(cfg.overlap().spgemm_block, 5);
        // The retired engine spellings reach nothing.
        let ignored = PipelineConfig { overlap_engine: OverlapEngine::Pairs, pair_batch: 17, ..cfg.clone() };
        assert_eq!(format!("{:?}", ignored.overlap()), format!("{:?}", cfg.overlap()));
    }

    #[test]
    fn threads_knob_resolution() {
        // Default: sequential via the deprecated alias.
        assert_eq!(PipelineConfig::default().effective_threads(), 1);
        // threads wins over align_threads when set.
        let cfg = PipelineConfig { threads: Some(3), align_threads: 7, ..Default::default() };
        assert_eq!(cfg.effective_threads(), 3);
        // Unset threads falls back to the alias.
        let cfg = PipelineConfig { align_threads: 5, ..Default::default() };
        assert_eq!(cfg.effective_threads(), 5);
        // 0 means hardware parallelism, through either spelling.
        assert!(PipelineConfig { threads: Some(0), ..Default::default() }.effective_threads() >= 1);
        assert!(PipelineConfig { align_threads: 0, ..Default::default() }.effective_threads() >= 1);
    }
}
