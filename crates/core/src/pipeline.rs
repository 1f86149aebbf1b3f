//! The four-stage diBELLA pipeline driver (paper §4).
//!
//! [`pipeline_rank`] is the SPMD body one rank executes; [`run_pipeline`]
//! launches a whole world over an in-memory read set, and
//! [`run_pipeline_fastq`] additionally exercises the parallel-input path
//! (block-partitioned FASTQ with an exclusive scan assigning global read
//! IDs). Every stage is timed and its communication counters snapshotted,
//! producing one [`RankReport`] per rank — the raw material for Table 2
//! and, through `crate::model`, Figures 3–13.
//!
//! Execution is hybrid-parallel: ranks are the distributed dimension, and
//! within each rank **all four stages** fan their compute out over one
//! shared `BatchedExecutor` of [`PipelineConfig::threads`] workers with
//! deterministic batching — results are bit-identical at every thread
//! count. The reliable front end exchanges once: the Bloom pass ships
//! every k-mer inside owner-run records and each owner keeps what it
//! received, which the hash pass then sweeps locally
//! ([`dibella_kcount::bloom_stage_overlapping`] →
//! [`dibella_kcount::hash_stage_prepacked`]).
//!
//! The communication substrate is chosen by [`PipelineConfig::transport`]:
//! real shared memory, or shared memory under injected faults — alignments
//! and traffic counters are byte-identical on both. Timings are host
//! time; a modeled platform's time is [`crate::project`] of the reports.

use crate::alignment_stage::{align_tasks, fetch_remote_reads, AlignCounters};
use crate::checkpoint::{
    decode_table, decode_tasks, encode_table, encode_tasks, run_fingerprint, TableCheckpoint,
    TABLE_STAGE, TASKS_STAGE,
};
use crate::config::{PipelineConfig, SeedMode};
use crate::record::AlignmentRecord;
use dibella_comm::{BatchedExecutor, Comm, CommStats, CommWorld};
use dibella_io::{
    parse_block, partition_reads, byte_ranges, CheckpointStore, ParseError, Read, ReadPartition,
    ReadSet, ReadStore,
};
use dibella_kcount::{
    bloom_stage_overlapping, hash_stage_prepacked, minimizer_stage, FilterStats, KmerHashTable,
    KmerStageCounters,
};
use dibella_overlap::{overlap_stage_with_lengths, OverlapCounters, OverlapTask};
use std::time::{Duration, Instant};

/// Wall-clock split of one stage on one rank.
///
/// `exchange` and `pack` measure concurrent intervals — rounds are packed
/// *while* the previous exchange is in flight — so `exchange + pack` can
/// legitimately exceed `total`; the excess is exactly the overlap the
/// streaming engine bought.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTiming {
    /// Total stage time on this rank.
    pub total: Duration,
    /// Portion spent inside collectives (from `CommStats::exchange_wall`).
    pub exchange: Duration,
    /// Wall time spent packing exchange rounds (from
    /// `CommStats::pack_wall`); overlapped with `exchange` whenever a
    /// previous round was in flight.
    pub pack: Duration,
}

impl StageTiming {
    /// The timing of a stage that ran for `total` and made the traffic
    /// in `comm`.
    pub fn new(total: Duration, comm: &CommStats) -> Self {
        Self { total, exchange: comm.exchange_wall, pack: comm.pack_wall }
    }

    /// Local compute portion (`total − exchange`).
    pub fn local(&self) -> Duration {
        self.total.saturating_sub(self.exchange)
    }

    /// Compute portion outside both collectives and round packing
    /// (`total − exchange − pack`, saturating — overlap can drive the
    /// subtrahends past `total`).
    pub fn compute(&self) -> Duration {
        self.total.saturating_sub(self.exchange).saturating_sub(self.pack)
    }
}

/// Everything one rank measured while running the pipeline.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// Rank index.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// Reads owned by this rank.
    pub local_reads: u64,
    /// Bases owned by this rank.
    pub local_bases: u64,
    // ---- stage 1: Bloom filter ----
    /// Bloom-pass work counters (all-zero under
    /// [`SeedMode::Minimizer`], which skips the Bloom pass entirely).
    pub bloom: KmerStageCounters,
    /// Bloom-pass traffic.
    pub bloom_comm: CommStats,
    /// Bloom-pass timing.
    pub bloom_wall: StageTiming,
    /// Peak Bloom partition bytes.
    pub bloom_bytes: u64,
    /// Keys promoted into the hash table.
    pub table_keys: u64,
    // ---- stage 2: hash table ----
    /// Hash-pass work counters. Under [`SeedMode::Minimizer`] this slot
    /// holds the single minimizer-index pass instead.
    pub hash: KmerStageCounters,
    /// Hash-pass traffic.
    pub hash_comm: CommStats,
    /// Hash-pass timing.
    pub hash_wall: StageTiming,
    /// Reliable-k-mer filter outcome.
    pub filter: FilterStats,
    /// Resident bytes of the filtered table partition.
    pub table_bytes: u64,
    // ---- stage 3: overlap ----
    /// Overlap work counters.
    pub overlap: OverlapCounters,
    /// Overlap traffic.
    pub overlap_comm: CommStats,
    /// Overlap timing.
    pub overlap_wall: StageTiming,
    // ---- stage 4: alignment ----
    /// Alignment work counters.
    pub align: AlignCounters,
    /// Alignment traffic (read redistribution).
    pub align_comm: CommStats,
    /// Alignment timing.
    pub align_wall: StageTiming,
}

impl RankReport {
    /// The four stage timings in pipeline order (Bloom, Hash, Overlap,
    /// Align) — the single place that enumerates them, so aggregate
    /// accessors cannot silently miss a stage when one is added.
    pub fn stage_timings(&self) -> [StageTiming; 4] {
        [self.bloom_wall, self.hash_wall, self.overlap_wall, self.align_wall]
    }

    /// Total pipeline wall time on this rank.
    pub fn total_wall(&self) -> Duration {
        self.stage_timings().iter().map(|t| t.total).sum()
    }

    /// Total time this rank spent inside collectives, across all stages.
    pub fn total_exchange(&self) -> Duration {
        self.stage_timings().iter().map(|t| t.exchange).sum()
    }

    /// The four stage traffic snapshots in pipeline order — the
    /// counterpart of [`Self::stage_timings`] for [`CommStats`].
    pub fn stage_comms(&self) -> [&CommStats; 4] {
        [&self.bloom_comm, &self.hash_comm, &self.overlap_comm, &self.align_comm]
    }

    /// All four stages' traffic counters merged into one snapshot —
    /// including the hardened-exchange fault counters
    /// (`frames_corrupt_detected`, `frames_retransmitted`,
    /// `duplicates_dropped`, `wait_timeouts`, `retry_wall`), which are
    /// zero unless the transport injected faults.
    pub fn total_comm(&self) -> CommStats {
        let mut merged = CommStats::new(self.ranks);
        for stage in self.stage_comms() {
            merged.merge(stage);
        }
        merged
    }
}

/// Result of a whole-world pipeline run.
#[derive(Debug)]
pub struct PipelineResult {
    /// All alignments, merged across ranks and deterministically sorted.
    pub alignments: Vec<AlignmentRecord>,
    /// Per-rank measurements, indexed by rank.
    pub reports: Vec<RankReport>,
}

impl PipelineResult {
    /// Distinct overlapping read pairs found.
    pub fn n_pairs(&self) -> usize {
        let mut pairs: Vec<_> = self.alignments.iter().map(|a| a.pair).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    /// Total alignments computed (not just accepted) across ranks.
    pub fn n_alignments_computed(&self) -> u64 {
        self.reports.iter().map(|r| r.align.alignments).sum()
    }

    /// The slowest rank's wall time (the BSP job time).
    pub fn wall(&self) -> Duration {
        self.reports.iter().map(|r| r.total_wall()).max().unwrap_or_default()
    }
}

/// SPMD pipeline body: run all four stages for one rank.
///
/// `local` must be exactly the reads of `part.range_of(comm.rank())`, in
/// ID order.
pub fn pipeline_rank(
    comm: &Comm,
    local: Vec<Read>,
    part: &ReadPartition,
    cfg: &PipelineConfig,
) -> (Vec<AlignmentRecord>, RankReport) {
    let rank = comm.rank();
    let local_reads = local.len() as u64;
    let local_bases: u64 = local.iter().map(|r| r.len() as u64).sum();

    // Agree on dataset-wide parameters before timing the stages.
    let total_bases = comm.allreduce_sum_u64(local_bases);
    let total_reads = comm.allreduce_sum_u64(local_reads);
    let kc = cfg.kcount(total_bases);
    let oc = cfg.overlap();
    let exec = BatchedExecutor::new(cfg.effective_threads());

    // ---- checkpoint/restart setup -----------------------------------------
    // Open the store and *decode* any stage snapshots up front, then agree
    // world-wide on which (if any) to resume from. The agreement must be
    // unanimous and must follow a successful decode on every rank: stages
    // are collectives, so a world where one rank skips a stage and another
    // recomputes it would deadlock. A rank whose file is missing, damaged,
    // or from a different run votes "recompute" and the whole world falls
    // back — a bad checkpoint costs time, never correctness or liveness.
    let checkpoint = cfg.checkpoint_dir.as_ref().map(|dir| {
        CheckpointStore::new(dir, comm.size(), run_fingerprint(cfg, total_reads, total_bases))
            .unwrap_or_else(|e| panic!("cannot open checkpoint dir {}: {e}", dir.display()))
    });
    let loaded_tasks: Option<Vec<OverlapTask>> = checkpoint
        .as_ref()
        .and_then(|store| load_stage(store, TASKS_STAGE, rank, decode_tasks));
    let loaded_table: Option<TableCheckpoint> = checkpoint
        .as_ref()
        .and_then(|store| load_stage(store, TABLE_STAGE, rank, decode_table));
    // Both votes run unconditionally — every rank must join every collective.
    let p = comm.size() as u64;
    let all_tasks = comm.allreduce_sum_u64(loaded_tasks.is_some() as u64) == p;
    let all_table = comm.allreduce_sum_u64(loaded_table.is_some() as u64) == p;
    let resume_tasks = all_tasks.then_some(loaded_tasks).flatten();
    let resume_table = (!all_tasks && all_table).then_some(loaded_table).flatten();
    let resumed_front_end = resume_tasks.is_some() || resume_table.is_some();

    comm.take_stats(); // reset counters; setup traffic is not charged to a stage

    // Every slot of a stage that does not run (a skipped or resumed stage,
    // the Bloom slot under minimizer mode) stays zeroed.
    let mut report = RankReport {
        rank,
        ranks: comm.size(),
        local_reads,
        local_bases,
        bloom: KmerStageCounters::default(),
        bloom_comm: CommStats::new(comm.size()),
        bloom_wall: StageTiming::default(),
        bloom_bytes: 0,
        table_keys: 0,
        hash: KmerStageCounters::default(),
        hash_comm: CommStats::new(comm.size()),
        hash_wall: StageTiming::default(),
        filter: FilterStats::default(),
        table_bytes: 0,
        overlap: OverlapCounters::default(),
        overlap_comm: CommStats::new(comm.size()),
        overlap_wall: StageTiming::default(),
        align: AlignCounters::default(),
        align_comm: CommStats::new(comm.size()),
        align_wall: StageTiming::default(),
    };

    // ---- stages 1 + 2: seed-source front end ------------------------------
    // Reliable mode runs the paper's two passes (Bloom, then hash over
    // the records the Bloom pass kept). Minimizer mode replaces both with
    // one sketch pass that fills the stage-2 slot of the report.
    let table = if resume_tasks.is_some() {
        // Stages 1–3 are skipped wholesale. The table is not rebuilt —
        // stage 4 only needs the task list.
        KmerHashTable::default()
    } else if let Some(restored) = resume_table {
        // Resume from the post-stage-2 snapshot: stages 1–2 are skipped;
        // the filter statistics and pre-filter key count are restored so
        // those report fields survive the restart.
        report.table_keys = restored.table_keys;
        report.filter = restored.filter;
        restored.table
    } else {
        match cfg.seed_mode {
            SeedMode::Reliable => {
                // The Bloom pass is the front end's one exchange; the
                // owner-run records it received stay with this rank for
                // the hash pass to sweep.
                let ((bloom_out, retained), bloom_comm, bloom_wall) =
                    timed(comm, || bloom_stage_overlapping(comm, &local, &kc, &exec));
                let mut table = bloom_out.table;
                report.bloom = bloom_out.counters;
                (report.bloom_comm, report.bloom_wall) = (bloom_comm, bloom_wall);
                report.bloom_bytes = bloom_out.bloom_bytes as u64;
                report.table_keys = table.len() as u64;
                let (hash_out, hash_comm, hash_wall) = timed(comm, || {
                    hash_stage_prepacked(comm, &local, &mut table, &kc, &exec, Some(retained))
                });
                (report.hash, report.filter) = (hash_out.counters, hash_out.filter);
                (report.hash_comm, report.hash_wall) = (hash_comm, hash_wall);
                table
            }
            SeedMode::Minimizer => {
                let (mo, hash_comm, hash_wall) =
                    timed(comm, || minimizer_stage(comm, &local, cfg.minimizer_w, &kc, &exec));
                report.table_keys = mo.counters.promoted_keys;
                (report.hash, report.filter) = (mo.counters, mo.filter);
                (report.hash_comm, report.hash_wall) = (hash_comm, hash_wall);
                mo.table
            }
        }
    };
    report.table_bytes = table.memory_bytes();
    if let Some(store) = checkpoint.as_ref().filter(|_| !resumed_front_end) {
        // Persist the stage-2 output (outside the stage's timing window;
        // checkpoint I/O is not pipeline work).
        save_stage(store, TABLE_STAGE, rank, &encode_table(&table, report.table_keys, &report.filter));
    }

    // ---- stage 3: overlap ---------------------------------------------------
    let tasks = match resume_tasks {
        // Stage 3 skipped: tasks come from the snapshot. (The skip is safe
        // precisely because it is unanimous — no rank enters the stage's
        // collectives.)
        Some(tasks) => tasks,
        None => {
            let (out, overlap_comm, overlap_wall) =
                timed(comm, || overlap_stage_with_lengths(comm, &table, part, &oc, None, &exec));
            if let Some(store) = &checkpoint {
                save_stage(store, TASKS_STAGE, rank, &encode_tasks(&out.tasks));
            }
            report.overlap = out.counters;
            (report.overlap_comm, report.overlap_wall) = (overlap_comm, overlap_wall);
            out.tasks
        }
    };
    drop(table); // the hash table is no longer needed once tasks exist

    // ---- stage 4: read redistribution + alignment ---------------------------
    let (alignments, align_comm, align_wall) = timed(comm, || {
        let mut store = ReadStore::new(rank, part.clone(), local);
        fetch_remote_reads(comm, &mut store, &tasks, cfg.max_exchange_bytes_per_round, &mut report.align);
        align_tasks(&store, &tasks, cfg, &mut report.align, &exec)
    });
    (report.align_comm, report.align_wall) = (align_comm, align_wall);
    (alignments, report)
}

/// Run one stage: its output, the traffic it made (taken from `comm`) and
/// its timing.
fn timed<T>(comm: &Comm, stage: impl FnOnce() -> T) -> (T, CommStats, StageTiming) {
    let t = Instant::now();
    let out = stage();
    let stats = comm.take_stats();
    let timing = StageTiming::new(t.elapsed(), &stats);
    (out, stats, timing)
}

/// Load and decode one stage snapshot, degrading *every* failure — a
/// missing file, a damaged envelope, a foreign fingerprint, a payload a
/// different build wrote — to `None` (recompute) with a warning on
/// stderr. Checkpoints are an optimization; they must never be able to
/// fail a run that could succeed from scratch.
fn load_stage<T>(
    store: &CheckpointStore,
    stage: &str,
    rank: usize,
    decode: impl FnOnce(&[u8]) -> Result<T, String>,
) -> Option<T> {
    match store.load(stage, rank) {
        Ok(None) => None,
        Ok(Some(payload)) => match decode(&payload) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!(
                    "warning: rank {rank}: checkpoint '{stage}' payload rejected ({e}); recomputing"
                );
                None
            }
        },
        Err(e) => {
            eprintln!("warning: rank {rank}: checkpoint '{stage}' rejected ({e}); recomputing");
            None
        }
    }
}

/// Write one stage snapshot; failing to persist is a warning, not an
/// error — it only costs the *next* run a recompute.
fn save_stage(store: &CheckpointStore, stage: &str, rank: usize, payload: &[u8]) {
    if let Err(e) = store.save(stage, rank, payload) {
        eprintln!("warning: rank {rank}: failed to write checkpoint '{stage}': {e}");
    }
}

fn merge(results: Vec<(Vec<AlignmentRecord>, RankReport)>) -> PipelineResult {
    let mut alignments = Vec::new();
    let mut reports = Vec::with_capacity(results.len());
    for (recs, rep) in results {
        alignments.extend(recs);
        reports.push(rep);
    }
    alignments.sort_unstable();
    PipelineResult { alignments, reports }
}

/// Run the full pipeline on `p` ranks over an in-memory read set (IDs must
/// be dense input-order, as produced by the loaders in `dibella-io`).
pub fn run_pipeline(reads: &ReadSet, p: usize, cfg: &PipelineConfig) -> PipelineResult {
    let (part, chunks) = partition_reads(reads, p);
    let results = CommWorld::run_with(p, &cfg.transport, |comm| {
        pipeline_rank(
            comm,
            chunks[comm.rank()].clone().into_reads(),
            &part,
            cfg,
        )
    });
    merge(results)
}

/// Run the pipeline from raw FASTQ bytes using the block-parallel input
/// path: every rank parses the records beginning in its byte range, a
/// world-wide exclusive scan assigns global read IDs, and the partition is
/// built from the per-rank counts (paper §6: "the input reads are
/// distributed roughly uniformly over the processors using parallel I/O").
///
/// # Errors
/// A block that does not parse fails the whole world: every rank learns
/// of it in one reduction before any other collective, so all return, and
/// the error is the lowest failing rank's.
pub fn run_pipeline_fastq(
    fastq: &[u8],
    p: usize,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, ParseError> {
    let ranges = byte_ranges(fastq.len(), p);
    let results = CommWorld::run_with(p, &cfg.transport, |comm| {
        // Every rank learns whether any block failed before the scan: a
        // rank that returned alone would leave its peers blocked in it.
        let parsed = parse_block(fastq, ranges[comm.rank()]);
        if comm.allreduce_sum_u64(parsed.is_err() as u64) > 0 {
            return parsed.map(|_| None);
        }
        let mut local = parsed?;
        // Global, input-order read IDs via exclusive scan of counts.
        let first = comm.exscan_sum_u64(local.len() as u64) as u32;
        for (i, r) in local.iter_mut().enumerate() {
            r.id = first + i as u32;
        }
        let counts = comm.allgather(local.len());
        let part = ReadPartition::from_counts(&counts);
        Ok(Some(pipeline_rank(comm, local, &part, cfg)))
    });
    let results: Vec<_> = results.into_iter().collect::<Result<_, _>>()?;
    Ok(merge(results.into_iter().flatten().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_io::write_fastq;
    use dibella_overlap::SeedPolicy;

    /// Overlapping reads off one random genome.
    fn dataset(n: usize, read_len: usize, stride: usize, seed: u64) -> ReadSet {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let genome: Vec<u8> = (0..(n * stride + read_len))
            .map(|_| b"ACGT"[(rnd() % 4) as usize])
            .collect();
        (0..n as u32)
            .map(|i| {
                let s = i as usize * stride;
                Read::new(i, format!("r{i}"), genome[s..s + read_len].to_vec())
            })
            .collect()
    }

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            k: 11,
            seed_policy: SeedPolicy::MinDistance(11),
            max_seeds_per_pair: 32,
            max_kmers_per_round: 512,
            // Error-free toy data: multiplicity grows with true genomic
            // copies, cap high to keep neighbours' shared k-mers.
            max_multiplicity: Some(24),
            ..Default::default()
        }
    }

    #[test]
    fn finds_neighbour_overlaps_end_to_end() {
        let reads = dataset(10, 200, 60, 42);
        let res = run_pipeline(&reads, 3, &small_cfg());
        // Adjacent reads overlap by 140 bases — all 9 pairs must align
        // with score ≈ overlap length.
        for i in 0..9u32 {
            let rec = res
                .alignments
                .iter()
                .find(|r| r.pair == dibella_overlap::ReadPair::new(i, i + 1))
                .unwrap_or_else(|| panic!("missing alignment ({i},{})", i + 1));
            assert!(rec.score >= 120, "pair ({i},{}): score {}", i, rec.score);
            assert!(!rec.reverse);
        }
        assert!(res.n_pairs() >= 9);
    }

    #[test]
    fn world_size_invariance() {
        let reads = dataset(12, 150, 50, 7);
        let cfg = small_cfg();
        let baseline = run_pipeline(&reads, 1, &cfg);
        for p in [2usize, 4, 5] {
            let r = run_pipeline(&reads, p, &cfg);
            assert_eq!(
                r.alignments, baseline.alignments,
                "P={p} diverges from serial"
            );
        }
    }

    #[test]
    fn fastq_path_matches_in_memory_path() {
        let reads = dataset(9, 150, 50, 3);
        let mut fastq = Vec::new();
        write_fastq(&mut fastq, &reads).unwrap();
        let cfg = small_cfg();
        let mem = run_pipeline(&reads, 3, &cfg);
        let via_fastq = run_pipeline_fastq(&fastq, 3, &cfg).unwrap();
        assert_eq!(mem.alignments, via_fastq.alignments);
    }

    #[test]
    fn reports_are_complete_and_consistent() {
        let reads = dataset(10, 150, 50, 11);
        let res = run_pipeline(&reads, 4, &small_cfg());
        assert_eq!(res.reports.len(), 4);
        let total_reads: u64 = res.reports.iter().map(|r| r.local_reads).sum();
        assert_eq!(total_reads, 10);
        // The front end's ledger: every k-mer is packed once, arrives once
        // (Bloom pass) and is swept once (hash pass) — from the records the
        // owners kept, which are exactly the bytes the Bloom pass shipped;
        // the hash pass parses and exchanges nothing.
        let sum = |f: &dyn Fn(&RankReport) -> u64| res.reports.iter().map(f).sum::<u64>();
        let kmers: u64 = reads.iter().map(|r| (r.len() - 11 + 1) as u64).sum();
        assert_eq!(sum(&|r| r.bloom.kmers_parsed), kmers);
        assert_eq!(sum(&|r| r.bloom.kmers_received), kmers);
        assert_eq!(sum(&|r| r.hash.kmers_received), kmers);
        assert_eq!(sum(&|r| r.hash.kmers_parsed), 0);
        assert_eq!(sum(&|r| r.bloom.retained_bytes), sum(&|r| r.bloom_comm.total_bytes()));
        assert_eq!(sum(&|r| r.hash_comm.total_bytes()), 0);
        // At k = 11 the owner map's m-mer is the whole k-mer, so runs are
        // only as long as chance makes them (~1.3 k-mers at P = 4) and a
        // k-mer costs ~9 B — a third of the 8 B + 20 B the two stand-alone
        // records cost, and under the 12 B of a run of one.
        let shipped = sum(&|r| r.bloom_comm.total_bytes());
        assert!(shipped < 10 * kmers, "{shipped} B for {kmers} k-mers");
        // Alignments computed equal the accepted ones here (threshold 0).
        let computed: u64 = res.reports.iter().map(|r| r.align.alignments).sum();
        assert_eq!(computed, res.n_alignments_computed());
        assert!(computed >= res.alignments.len() as u64);
        // Round-aware exchange accounting: every stage executed at least
        // one round on every rank, and the irregular-collective count of
        // each stage equals the rounds its counters report — true at any
        // round cap, not just the monolithic default.
        for r in &res.reports {
            assert!(r.bloom.rounds >= 1);
            assert_eq!(r.hash.rounds, 0, "the hash pass is a local sweep");
            assert!(r.overlap.rounds >= 1);
            assert!(r.align.rounds >= 2, "ID requests + sequence replies");
            assert_eq!(r.bloom_comm.alltoallv_calls, r.bloom.rounds);
            assert_eq!(r.hash_comm.alltoallv_calls, r.hash.rounds);
            assert_eq!(r.overlap_comm.alltoallv_calls, r.overlap.rounds);
            assert_eq!(r.align_comm.alltoallv_calls, r.align.rounds);
            // The round-peak high-water mark never exceeds a stage's total
            // send volume.
            for comm in [&r.bloom_comm, &r.hash_comm, &r.overlap_comm, &r.align_comm] {
                assert!(comm.peak_round_bytes <= comm.total_bytes());
            }
        }
    }

    #[test]
    fn total_wall_sums_all_stage_timings() {
        let reads = dataset(8, 150, 50, 9);
        let res = run_pipeline(&reads, 2, &small_cfg());
        for r in &res.reports {
            let timings = r.stage_timings();
            assert_eq!(timings.len(), 4);
            let sum: Duration = timings.iter().map(|t| t.total).sum();
            assert_eq!(r.total_wall(), sum);
            let exch: Duration = timings.iter().map(|t| t.exchange).sum();
            assert_eq!(r.total_exchange(), exch);
            assert!(r.total_wall() >= r.bloom_wall.total + r.align_wall.total);
            // Pack walls are recorded per stage; with data flowing, some
            // stage must have packed something, and the derived compute
            // split never exceeds the stage total.
            let pack: Duration = timings.iter().map(|t| t.pack).sum();
            assert!(pack > Duration::ZERO);
            for t in &timings {
                assert!(t.compute() <= t.total);
            }
        }
    }

    #[test]
    fn no_stage_reports_more_pack_time_than_wall_time() {
        // Pack walls are intervals of the rank thread inside the stage's
        // own timing window. The reliable hash pass packs nothing at all —
        // it sweeps what the Bloom pass received — so the exchanging
        // k-mer pass is the Bloom slot there and the hash slot under
        // minimizer mode.
        let reads = dataset(12, 400, 120, 17);
        let one_round = PipelineConfig { max_kmers_per_round: 1 << 20, ..small_cfg() };
        let streamed = PipelineConfig { max_exchange_bytes_per_round: 2_000, ..small_cfg() };
        let minimizer = PipelineConfig { max_exchange_bytes_per_round: 2_000, ..minimizer_cfg() };
        for (mode, cfg, rounds) in [
            ("reliable, one round", one_round, 1),
            ("reliable, streamed", streamed, 2),
            ("minimizer, streamed", minimizer, 2),
        ] {
            let res = run_pipeline(&reads, 2, &cfg);
            assert!(!res.alignments.is_empty(), "{mode}: nothing aligned");
            for r in &res.reports {
                let exchanging = match cfg.seed_mode {
                    SeedMode::Reliable => {
                        assert_eq!((r.hash.rounds, r.hash_wall.pack), (0, Duration::ZERO), "{mode}");
                        &r.bloom
                    }
                    SeedMode::Minimizer => &r.hash,
                };
                assert_eq!(exchanging.rounds.min(2), rounds, "{mode}: k-mer pass rounds");
                for (stage, t) in ["bloom", "hash", "overlap", "align"].iter().zip(r.stage_timings()) {
                    assert!(
                        t.pack <= t.total,
                        "{mode} rank {} {stage}: pack {:?} > total {:?}",
                        r.rank,
                        t.pack,
                        t.total
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_pipeline_works() {
        let reads = dataset(6, 120, 40, 5);
        let res = run_pipeline(&reads, 1, &small_cfg());
        assert!(!res.alignments.is_empty());
        assert_eq!(res.reports.len(), 1);
    }

    fn minimizer_cfg() -> PipelineConfig {
        PipelineConfig {
            seed_mode: SeedMode::Minimizer,
            minimizer_w: 5,
            min_chain_seeds: 2,
            ..small_cfg()
        }
    }

    #[test]
    fn minimizer_mode_finds_neighbour_overlaps() {
        let reads = dataset(10, 200, 60, 42);
        let res = run_pipeline(&reads, 3, &minimizer_cfg());
        // Adjacent reads overlap by 140 bases; the sketch keeps enough
        // shared minimizers for every neighbour pair to survive chaining.
        for i in 0..9u32 {
            let rec = res
                .alignments
                .iter()
                .find(|r| r.pair == dibella_overlap::ReadPair::new(i, i + 1))
                .unwrap_or_else(|| panic!("missing alignment ({i},{})", i + 1));
            assert!(rec.score >= 120, "pair ({i},{}): score {}", i, rec.score);
            assert!(!rec.reverse);
        }
        for r in &res.reports {
            // The Bloom pass is skipped: its report slot is all-zero.
            assert_eq!(r.bloom, dibella_kcount::KmerStageCounters::default());
            assert_eq!(r.bloom_comm.total_bytes(), 0);
            assert_eq!(r.bloom_bytes, 0);
            assert!(r.hash.rounds >= 1);
            assert_eq!(r.hash_comm.alltoallv_calls, r.hash.rounds);
        }
        // The sketch samples ~2/(w + 1) of the windows but ships each as a
        // stand-alone 20-byte record, while the reliable front end ships
        // *every* k-mer inside owner-run records of 2-bit bases — so the
        // sketch no longer cuts seed-stage bytes by the ≥ 2x it did when
        // reliable k-mers travelled twice as 8 + 20 bytes. Measured here
        // (k = 11, where runs are shortest): 0.84x; at k = 17 it ships
        // more than the reliable path (`tests/seed_modes.rs`). What it
        // still cuts is the k-mers an owner has to process.
        let reliable = run_pipeline(&reads, 3, &small_cfg());
        let sum = |res: &PipelineResult, f: &dyn Fn(&RankReport) -> u64| {
            res.reports.iter().map(f).sum::<u64>()
        };
        let sketch_bytes = sum(&res, &|r| r.hash_comm.total_bytes());
        let reliable_bytes = sum(&reliable, &|r| r.bloom_comm.total_bytes() + r.hash_comm.total_bytes());
        assert!(
            2 * sketch_bytes > reliable_bytes && sketch_bytes < 2 * reliable_bytes,
            "sketch {sketch_bytes} B vs reliable {reliable_bytes} B"
        );
        assert!(
            3 * sum(&res, &|r| r.hash.kmers_received) < sum(&reliable, &|r| r.bloom.kmers_received),
            "the sketch should hand its owners under a third of the k-mers"
        );
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dibella-pipeline-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let reads = dataset(12, 150, 50, 21);
        let dir = ckpt_dir("resume");
        let cfg = PipelineConfig { checkpoint_dir: Some(dir.clone()), ..small_cfg() };
        let p = 3;

        let first = run_pipeline(&reads, p, &cfg);
        for r in 0..p {
            for stage in [crate::checkpoint::TABLE_STAGE, crate::checkpoint::TASKS_STAGE] {
                assert!(
                    dir.join(format!("dibella-{stage}.r{r}of{p}.ckpt")).exists(),
                    "missing {stage} checkpoint for rank {r}"
                );
            }
        }

        // Second run resumes from the tasks snapshot: stages 1–3 are
        // skipped (zeroed slots), yet alignments are bit-identical.
        let resumed = run_pipeline(&reads, p, &cfg);
        assert_eq!(resumed.alignments, first.alignments);
        for r in &resumed.reports {
            assert_eq!(r.bloom_comm.total_bytes(), 0);
            assert_eq!(r.hash_comm.total_bytes(), 0);
            assert_eq!(r.overlap_comm.total_bytes(), 0);
            assert_eq!(r.overlap.rounds, 0, "overlap stage must not have run");
            assert!(r.align.rounds >= 2, "alignment stage always runs");
        }

        // Drop the tasks snapshots: the world falls back to the table
        // snapshot, re-runs the overlap stage only, and still matches.
        for r in 0..p {
            std::fs::remove_file(dir.join(format!("dibella-tasks.r{r}of{p}.ckpt"))).unwrap();
        }
        let from_table = run_pipeline(&reads, p, &cfg);
        assert_eq!(from_table.alignments, first.alignments);
        for (r, fresh) in from_table.reports.iter().zip(&first.reports) {
            assert_eq!(r.bloom_comm.total_bytes(), 0, "bloom pass must be skipped");
            assert_eq!(r.overlap.rounds, fresh.overlap.rounds);
            assert_eq!(r.overlap_comm.total_bytes(), fresh.overlap_comm.total_bytes());
            assert_eq!(r.filter, fresh.filter, "filter stats restored from the snapshot");
            assert_eq!(r.table_keys, fresh.table_keys);
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_or_partial_checkpoints_degrade_to_recompute() {
        let reads = dataset(10, 150, 50, 33);
        let dir = ckpt_dir("degrade");
        let cfg = PipelineConfig { checkpoint_dir: Some(dir.clone()), ..small_cfg() };
        let p = 2;
        let first = run_pipeline(&reads, p, &cfg);

        // Corrupt rank 0's tasks snapshot and delete rank 1's table
        // snapshot: neither resume point is unanimous anymore, so the
        // world must recompute everything — and still match.
        let tasks0 = dir.join(format!("dibella-tasks.r0of{p}.ckpt"));
        let mut bytes = std::fs::read(&tasks0).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&tasks0, &bytes).unwrap();
        std::fs::remove_file(dir.join(format!("dibella-table.r1of{p}.ckpt"))).unwrap();

        let rerun = run_pipeline(&reads, p, &cfg);
        assert_eq!(rerun.alignments, first.alignments);
        for r in &rerun.reports {
            assert!(r.bloom.rounds >= 1, "full recompute must run the Bloom pass");
            assert!(r.overlap.rounds >= 1);
        }

        // A config change (different k) invalidates the fingerprint: the
        // rewritten snapshots are ignored, not misapplied.
        let other = PipelineConfig { k: 13, ..cfg.clone() };
        let other_res = run_pipeline(&reads, p, &other);
        for r in &other_res.reports {
            assert!(r.bloom.rounds >= 1, "foreign-fingerprint snapshots must be ignored");
        }

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn minimizer_mode_world_size_invariance() {
        let reads = dataset(12, 150, 50, 7);
        let cfg = minimizer_cfg();
        let baseline = run_pipeline(&reads, 1, &cfg);
        assert!(!baseline.alignments.is_empty());
        for p in [2usize, 4, 5] {
            let r = run_pipeline(&reads, p, &cfg);
            assert_eq!(
                r.alignments, baseline.alignments,
                "P={p} diverges from serial"
            );
        }
    }
}
