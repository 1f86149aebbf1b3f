//! # dibella-bench
//!
//! The harness that regenerates every table and figure of the diBELLA
//! paper (see DESIGN.md §6 for the experiment index). Each `src/bin/`
//! binary prints one figure's series as a tab-separated table; this
//! library holds the shared machinery: workload construction, pipeline
//! execution at one-rank-per-modeled-core world sizes, memoization, and
//! metric extraction.
//!
//! Scale knobs (environment): `DIBELLA_SCALE` (E. coli 30×-like genome
//! scale, default 0.01 ≈ 46 kb) and `DIBELLA_SCALE_100X` (100×-like,
//! default 0.006). `scale = 1.0` reproduces paper-sized inputs. A value
//! that is not a positive number stops the run with a message naming the
//! knob ([`positive_knob`]). Every run is configured by [`config_for`]:
//! one thread per rank, shared memory, unbounded rounds and the reliable
//! front end — the figures' setting; `tests/invariant.rs` shows that no
//! other setting changes the output.

#![warn(missing_docs)]

use dibella_comm::BatchedExecutor;
use dibella_core::{run_pipeline, PipelineConfig, RankReport};
use dibella_datagen::{ecoli_100x_like, ecoli_30x_like, ecoli_30x_sample_like, SyntheticDataset};
use dibella_io::{Read, ReadPartition};
use dibella_kcount::{pack_supermers, KcountConfig, KmerHashTable, Occurrence};
use dibella_kmer::supermer::supermers;
use dibella_kmer::{Kmer1, Strand, WindowIndex};
use dibella_netmodel::{NodeMapping, Platform, Series};
use dibella_overlap::{SeedPolicy, SharedSeed};
use std::collections::HashMap;
use std::sync::Arc;

/// Node counts of every strong-scaling figure (x-axis of Figs. 3–13).
pub const NODE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The paper's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// E. coli 30× (PacBio P5-C3-like).
    E30,
    /// E. coli 100× (PacBio P4-C2-like).
    E100,
    /// The Table-2 "sample" slice of E. coli 30×.
    E30Sample,
}

impl Workload {
    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E30 => "E.coli 30x",
            Workload::E100 => "E.coli 100x",
            Workload::E30Sample => "E.coli 30x (sample)",
        }
    }

    /// (depth, error-rate) the pipeline config assumes for this workload.
    pub fn shape(self) -> (f64, f64) {
        match self {
            Workload::E30 | Workload::E30Sample => (30.0, 0.15),
            Workload::E100 => (100.0, 0.14),
        }
    }
}

/// The value of the environment knob `var`, given what the environment
/// holds for it (`raw`, `None` when unset): `default` when unset, else
/// the value parsed as a positive number, or an error naming the knob.
pub fn positive_knob<T>(var: &str, raw: Option<&str>, default: T) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let Some(raw) = raw else { return Ok(default) };
    raw.trim()
        .parse()
        .ok()
        .filter(|v| *v > T::default())
        .ok_or_else(|| format!("{var}: expected a positive number, got {raw:?}"))
}

/// [`positive_knob`] read from the process environment. A value it
/// rejects stops the process with exit status 1 and the message.
pub fn env_knob<T>(var: &str, default: T) -> T
where
    T: std::str::FromStr + PartialOrd + Default,
{
    let raw = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    positive_knob(var, raw.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// Deterministic synthetic k-mer table (plus an even read partition over
/// `ranks` owners) for the SpGEMM row benches: `n_kmers` random
/// k-mers, each occurring 2–8 times across `n_reads` reads. The
/// `spgemm_rows_per_sec` Criterion group and the `bench_kernels_json`
/// baseline writer share this fixture so both measure the same workload.
pub fn spgemm_fixture(n_reads: u32, n_kmers: usize, ranks: usize, seed: u64) -> (KmerHashTable, ReadPartition) {
    const K: usize = 17;
    let kc = KcountConfig {
        k: K,
        max_multiplicity: 64,
        bloom_fp_rate: 0.05,
        expected_distinct: n_kmers.max(16) as u64,
        max_kmers_per_round: 1 << 20,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: 16,
    };
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut table = KmerHashTable::with_capacity(n_kmers);
    for _ in 0..n_kmers {
        let ascii: Vec<u8> = (0..K).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
        let km = Kmer1::from_ascii(&ascii).expect("fixture k-mer");
        table.insert_key(km);
        for _ in 0..(2 + rnd() % 7) {
            let strand = if rnd() % 2 == 0 { Strand::Forward } else { Strand::Reverse };
            let occ = Occurrence { read: (rnd() % n_reads as u64) as u32, pos: (rnd() % 10_000) as u32, strand };
            // Random k-mers may collide (incl. reverse-complement hits);
            // the multiplicity cap then legitimately drops occurrences.
            let _ = table.record_occurrence(&km, occ, &kc);
        }
    }
    let per = (n_reads as usize).div_ceil(ranks);
    let counts: Vec<usize> = (0..ranks)
        .map(|r| per.min((n_reads as usize).saturating_sub(r * per)))
        .collect();
    (table, ReadPartition::from_counts(&counts))
}

/// Deterministic colinear-plus-noise seed list for the chaining benches,
/// sorted and deduplicated as [`dibella_overlap::chain_seeds`] requires:
/// three of four seeds sit on one forward diagonal with a few bases of
/// indel jitter, the rest are uniform noise of either orientation — the
/// shape of one HiFi pair's minimizer hits. The `chain_seeds_per_sec`
/// Criterion group and the `bench_kernels_json` baseline writer share it,
/// at several `n`, so the rate *ratio* between sizes is comparable.
pub fn chain_fixture(n: usize, seed: u64) -> Vec<SharedSeed> {
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let span = 16 * n as u64;
    let mut seeds: Vec<SharedSeed> = (0..n as u64)
        .map(|i| {
            if rnd() % 4 != 0 {
                let a = 16 * i + rnd() % 8;
                SharedSeed { a_pos: a as u32, b_pos: (a + 500 + rnd() % 5) as u32, reverse: false }
            } else {
                SharedSeed {
                    a_pos: (rnd() % span) as u32,
                    b_pos: (rnd() % span) as u32,
                    reverse: rnd() % 2 == 0,
                }
            }
        })
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Deterministic uniform-random reads for the k-mer pass benches. The
/// `kmer_extract_per_sec` / `kmer_pack_per_sec` Criterion groups and the
/// `bench_kernels_json` baseline writer share this fixture, so both
/// measure the same workload.
pub fn kmer_fixture(n_reads: u32, read_len: usize, seed: u64) -> Vec<Read> {
    let mut state = seed | 1;
    (0..n_reads)
        .map(|id| {
            let seq: Vec<u8> = (0..read_len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    b"ACGT"[(state % 4) as usize]
                })
                .collect();
            Read::new(id, format!("r{id}"), seq)
        })
        .collect()
}

/// The owner-run buffers of `reads` packed to `ranks` destinations, with
/// the k-mers they hold — what an owner rolls in
/// [`supermer_roll_kmers`]. Shared by the `supermer_roll` rows of the
/// Criterion bench and the baseline writer.
pub fn supermer_fixture(reads: &[Read], k: usize, ranks: usize) -> (Vec<Vec<u8>>, u64) {
    let idx = WindowIndex::new(reads.iter().map(|r| r.len()), k);
    let batch = KcountConfig::DEFAULT_EXTRACT_BATCH;
    pack_supermers(reads, &idx, 0, idx.total_windows(), ranks, batch, &BatchedExecutor::sequential())
}

/// The owner side of the reliable front end without the filter or the
/// table: decode every record of `bufs` and roll its k-mers from the 2-bit
/// bases. Returns a checksum over the hits so the work cannot be elided.
pub fn supermer_roll_kmers(bufs: &[Vec<u8>], k: usize) -> u64 {
    let mut acc = 0u64;
    for buf in bufs {
        for record in supermers(buf, k) {
            let record = record.expect("fixture buffers decode");
            for hit in record.hits::<1>() {
                acc = acc.wrapping_add(hit.kmer.words()[0] ^ hit.pos as u64);
            }
        }
    }
    acc
}

/// Construct a workload's synthetic dataset at the bench scale.
pub fn dataset(w: Workload) -> SyntheticDataset {
    match w {
        Workload::E30 => ecoli_30x_like(env_knob("DIBELLA_SCALE", 0.01), 42),
        Workload::E100 => ecoli_100x_like(env_knob("DIBELLA_SCALE_100X", 0.006), 42),
        Workload::E30Sample => ecoli_30x_sample_like(env_knob("DIBELLA_SCALE", 0.01), 42),
    }
}

/// Pipeline configuration for a workload and seed policy. The per-pair
/// seed cap is 4 at bench scale: the scaled genome makes average true
/// overlaps long relative to reads, so uncapped `d = k` exploration would
/// inflate intensity beyond the paper's regime. Everything else is the
/// default: one thread per rank, shared memory, unbounded rounds and the
/// reliable front end.
pub fn config_for(w: Workload, policy: SeedPolicy) -> PipelineConfig {
    let (depth, error_rate) = w.shape();
    PipelineConfig {
        k: 17,
        depth,
        error_rate,
        seed_policy: policy,
        max_seeds_per_pair: 4,
        ..Default::default()
    }
}

/// Memoizing pipeline runner: one full SPMD execution per distinct
/// `(workload, policy, ranks)`, shared by all platform projections.
#[derive(Default)]
pub struct ReportCache {
    datasets: HashMap<Workload, Arc<SyntheticDataset>>,
    runs: HashMap<(Workload, SeedPolicy, usize), Arc<Vec<RankReport>>>,
}

impl ReportCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (cached) dataset for a workload.
    pub fn dataset(&mut self, w: Workload) -> Arc<SyntheticDataset> {
        Arc::clone(
            self.datasets
                .entry(w)
                .or_insert_with(|| Arc::new(dataset(w))),
        )
    }

    /// Per-rank reports of a pipeline run with `ranks` ranks.
    pub fn reports(&mut self, w: Workload, policy: SeedPolicy, ranks: usize) -> Arc<Vec<RankReport>> {
        if let Some(r) = self.runs.get(&(w, policy, ranks)) {
            return Arc::clone(r);
        }
        let ds = self.dataset(w);
        let cfg = config_for(w, policy);
        eprintln!("[bench] running {} {policy:?} P={ranks} ...", w.name());
        let res = run_pipeline(&ds.reads, ranks, &cfg);
        let arc = Arc::new(res.reports);
        self.runs.insert((w, policy, ranks), Arc::clone(&arc));
        arc
    }
}

/// Total k-mer instances processed (the rate unit of Figs. 3 and 5).
pub fn total_kmers(reports: &[RankReport]) -> u64 {
    reports.iter().map(|r| r.bloom.kmers_received).sum()
}

/// Total retained k-mers (rate unit of Fig. 6).
pub fn total_retained(reports: &[RankReport]) -> u64 {
    reports.iter().map(|r| r.filter.retained).sum()
}

/// Total alignments computed (rate unit of Figs. 7 and 13).
pub fn total_alignments(reports: &[RankReport]) -> u64 {
    reports.iter().map(|r| r.align.alignments).sum()
}

/// Build one figure series per platform: for each node count, run the
/// pipeline with `nodes × cores_per_node(platform)` ranks, project the
/// run onto the platform, and apply `metric` to (reports, projection,
/// nodes).
pub fn platform_series<F>(
    cache: &mut ReportCache,
    w: Workload,
    policy: SeedPolicy,
    mut metric: F,
) -> Vec<Series>
where
    F: FnMut(&[RankReport], &dibella_core::PipelineProjection, usize) -> f64,
{
    let mut out = Vec::new();
    for platform in Platform::all() {
        let mut points = Vec::new();
        for &nodes in &NODE_COUNTS {
            let mapping = NodeMapping::for_platform(platform, nodes);
            let reports = cache.reports(w, policy, mapping.ranks());
            let proj = dibella_core::project(platform, mapping, &reports);
            points.push((nodes, metric(&reports, &proj, nodes)));
        }
        out.push(Series::new(platform.name, points));
    }
    out
}

/// Print a figure header followed by the rendered series table.
pub fn print_figure(title: &str, node_counts: &[usize], series: &[Series]) {
    println!("# {title}");
    print!("{}", dibella_netmodel::render_table(node_counts, series));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate process-global environment variables
    /// (`DIBELLA_SCALE` and the retired spellings): the test harness runs
    /// on parallel threads, and a sibling test reading the env
    /// mid-mutation would nondeterministically pick up the wrong knob.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn workload_shapes() {
        assert_eq!(Workload::E30.shape(), (30.0, 0.15));
        assert_eq!(Workload::E100.shape(), (100.0, 0.14));
        assert!(Workload::E30.name().contains("30x"));
    }

    #[test]
    fn config_policy_propagates() {
        let cfg = config_for(Workload::E100, SeedPolicy::MinDistance(1000));
        assert_eq!(cfg.depth, 100.0);
        assert_eq!(cfg.seed_policy, SeedPolicy::MinDistance(1000));
        assert_eq!(cfg.k, 17);
    }

    #[test]
    fn positive_knob_rejects_what_it_cannot_use() {
        assert_eq!(positive_knob("DIBELLA_SCALE", None, 0.01), Ok(0.01));
        assert_eq!(positive_knob("DIBELLA_SCALE", Some("0.05"), 0.01), Ok(0.05));
        assert_eq!(positive_knob("DIBELLA_TABLE2_RANKS", Some(" 8 "), 4usize), Ok(8));
        for bad in ["0,05", "", "x", "0", "-1", "NaN"] {
            let err = positive_knob("DIBELLA_SCALE", Some(bad), 0.01).unwrap_err();
            assert!(err.starts_with("DIBELLA_SCALE: "), "{err}");
        }
        for bad in ["0", "2.5", "-3"] {
            assert!(positive_knob("DIBELLA_TABLE2_RANKS", Some(bad), 4usize).is_err(), "{bad}");
        }
    }

    #[test]
    fn overlap_engine_env_knobs() {
        // Stage 3 reads no environment knob: its retired spellings,
        // assembled from parts so they are named nowhere else, change
        // nothing.
        let _env = ENV_LOCK.lock().unwrap();
        let want = format!("{:?}", config_for(Workload::E30, SeedPolicy::Single));
        for name in [["SPGEMM", "BLOCK"], ["PAIR", "BATCH"], ["OVERLAP", "ENGINE"]].map(|w| format!("DIBELLA_{}", w.join("_"))) {
            std::env::set_var(&name, "9");
            assert_eq!(format!("{:?}", config_for(Workload::E30, SeedPolicy::Single)), want, "{name}");
            std::env::remove_var(&name);
        }
    }

    #[test]
    fn cache_memoizes() {
        // Tiny world over the sample workload: the second call must not
        // re-run (identity of the Arc proves it).
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("DIBELLA_SCALE", "0.002");
        let mut cache = ReportCache::new();
        let a = cache.reports(Workload::E30Sample, SeedPolicy::Single, 2);
        let b = cache.reports(Workload::E30Sample, SeedPolicy::Single, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2);
    }
}
