//! The adapter: every call the benchmark makes into the workspace crates.
//!
//! Nothing outside this file names a `dibella_*` item, so this is the whole
//! surface a refactor of the program has to keep compatible (or update in
//! one place): workload generation, `PipelineConfig` construction,
//! `run_pipeline`, the stage functions of the traced run, the report
//! fields the metrics are read from, and the stand-alone layer probes.

use crate::trace::SpanLog;
use crate::workloads::{Engine, FrontEnd, Workload};
use dibella_align::{Scoring, SimdMode};
use dibella_comm::{BatchedExecutor, Comm, CommStats, CommWorld, TransportKind};
use dibella_core::{
    align_tasks, fetch_remote_reads, project, run_pipeline, AlignCounters, AlignmentRecord,
    PipelineConfig, RankReport, SeedMode, StageTiming,
};
use dibella_datagen::{simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec};
use dibella_io::{byte_ranges, parse_block, partition_reads, write_fastq, ReadSet, ReadStore};
use dibella_kcount::{
    bloom_stage_overlapping, hash_stage_prepacked, minimizer_stage, KmerStageCounters,
};
use dibella_kmer::{extract_kmers, minimizers};
use dibella_netmodel::{NodeMapping, AWS, CORI};
use dibella_overlap::{overlap_stage_with_lengths, OverlapEngine, SeedPolicy, TaskPlacement};
use dibella_sketch::BloomFilter;
use std::hint::black_box;
use std::time::Instant;

/// A read pair, smaller id first.
pub type Pair = (u32, u32);

/// A generated workload input. The pipeline is handed `reads` and nothing
/// else; the truth sets stay on the benchmark's side for the output check.
pub struct Input {
    /// The simulated reads.
    pub reads: ReadSet,
    /// Total bases in `reads`.
    pub bases: u64,
    /// Read pairs whose genome intervals share at least 2 000 bp (recall).
    pub truth_strict: Vec<Pair>,
    /// Read pairs whose genome intervals share at least 500 bp (precision).
    pub truth_loose: Vec<Pair>,
    /// Seconds spent generating the genome and the reads.
    pub generate_s: f64,
    /// Seconds spent in `partition_reads`.
    pub partition_s: f64,
}

/// Generate a workload's input from `seed`: genome, reads, ground truth,
/// and one `partition_reads` (timed; the pipeline partitions again itself).
pub fn setup(w: &Workload, seed: u64) -> Input {
    let t = Instant::now();
    let genome = GenomeSpec {
        size: w.genome_bp,
        repeat_fraction: w.repeat_fraction,
        repeat_unit_len: 700,
        repeat_families: 5,
        seed: seed ^ 0x9E37_79B9,
    }
    .generate();
    let dataset = simulate_reads(
        &genome,
        &ReadSimSpec {
            depth: w.depth,
            mean_len: w.mean_len,
            len_sigma: 0.35,
            min_len: w.mean_len / 10,
            errors: ErrorModel::pacbio(w.error),
            seed,
        },
    );
    let generate_s = t.elapsed().as_secs_f64();
    let truth_strict = dataset.true_overlaps(2_000);
    let truth_loose = dataset.true_overlaps(500);
    let reads = dataset.reads;
    let t = Instant::now();
    black_box(partition_reads(&reads, w.ranks));
    let partition_s = t.elapsed().as_secs_f64();
    let bases = reads.total_bases();
    Input {
        reads,
        bases,
        truth_strict,
        truth_loose,
        generate_s,
        partition_s,
    }
}

/// The pipeline configuration of a workload. Every field is written out,
/// with today's defaults as literals, so neither a changed default nor a
/// `DIBELLA_*` variable can change what is measured.
fn config(w: &Workload, threads: usize) -> PipelineConfig {
    PipelineConfig {
        k: w.k,
        error_rate: w.error,
        depth: w.depth,
        max_multiplicity: None,
        seed_mode: match w.front_end {
            FrontEnd::Reliable => SeedMode::Reliable,
            FrontEnd::Minimizer => SeedMode::Minimizer,
        },
        minimizer_w: 7,
        min_chain_seeds: 2,
        seed_policy: SeedPolicy::Single,
        max_seeds_per_pair: 16,
        overlap_engine: match w.engine {
            Engine::Pairs => OverlapEngine::Pairs,
            Engine::Spgemm => OverlapEngine::Spgemm,
        },
        pair_batch: 1024,
        spgemm_block: 64,
        xdrop: 25,
        scoring: Scoring::bella(),
        min_align_score: 0,
        max_kmers_per_round: 1 << 20,
        max_exchange_bytes_per_round: w.round_cap_mib.map_or(usize::MAX, |mib| mib << 20),
        bloom_fp_rate: 0.05,
        hll_precision: None,
        placement: TaskPlacement::Parity,
        align_threads: 1,
        threads: Some(threads),
        transport: TransportKind::SharedMem,
        simd: Some(SimdMode::Auto),
        checkpoint_dir: None,
    }
}

/// What one pipeline run produced, reduced to what the benchmark checks
/// and reports.
pub struct RunOutput {
    /// 64-bit digest over the sorted alignment records.
    pub digest: u64,
    /// Distinct read pairs with at least one alignment, sorted.
    pub pairs: Vec<Pair>,
    /// Counts read from the per-rank reports.
    pub counts: Counts,
}

/// Run the pipeline through its public entry point.
pub fn run(reads: &ReadSet, w: &Workload) -> RunOutput {
    run_on(reads, w, w.ranks, w.threads)
}

/// The same workload on one rank and one thread: the plain sequential
/// baseline `core.scaling_eff_p2` is measured against.
pub fn run_sequential(reads: &ReadSet, w: &Workload) -> RunOutput {
    run_on(reads, w, 1, 1)
}

fn run_on(reads: &ReadSet, w: &Workload, ranks: usize, threads: usize) -> RunOutput {
    let result = run_pipeline(reads, ranks, &config(w, threads));
    output(&result.alignments, &result.reports)
}

fn output(alignments: &[AlignmentRecord], reports: &[RankReport]) -> RunOutput {
    let mut pairs: Vec<Pair> = alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect();
    pairs.dedup(); // alignments are sorted by pair first
    RunOutput {
        digest: digest(alignments),
        pairs,
        counts: Counts::read(reports),
    }
}

/// FNV-1a over every field of every record, in the output's sorted order.
fn digest(alignments: &[AlignmentRecord]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for a in alignments {
        eat(a.pair.a as u64);
        eat(a.pair.b as u64);
        eat(a.reverse as u64);
        eat(a.score as u64);
        eat(a.a_start as u64);
        eat(a.a_end as u64);
        eat(a.b_start as u64);
        eat(a.b_end as u64);
        eat(a.cells);
    }
    h
}

/// Counters of one run, summed over ranks unless stated otherwise. Stage
/// arrays are in pipeline order: Bloom, hash (or minimizer), overlap, align.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Bytes handed to the transport per stage (self-sends included).
    pub stage_wire_bytes: [u64; 4],
    /// Largest send volume of one rank in one exchange round.
    pub peak_round_bytes: u64,
    /// Non-empty point-to-point buffers sent.
    pub msgs: u64,
    /// Irregular exchanges, as calls per rank summed over ranks.
    pub alltoallv_calls: u64,
    /// Frames the hardened exchange layer had to send again.
    pub retransmits: u64,
    /// Seconds inside collectives, on the rank that spent the most there.
    pub exchange_s: f64,
    /// Seconds packing rounds, on the rank that spent the most there.
    pub pack_s: f64,
    /// k-mers (or minimizers) parsed and packed by the front-end passes.
    pub kmers_parsed: u64,
    /// Exchange rounds of the front-end passes, on one rank.
    pub kcount_rounds: u64,
    /// Keys the reliable filter looked at.
    pub keys_seen: u64,
    /// Keys it kept.
    pub keys_retained: u64,
    /// Resident bytes of the filtered table partitions.
    pub table_bytes: u64,
    /// Shared-seed instances the overlap stage found.
    pub seeds_emitted: u64,
    /// Wire records it sent for them.
    pub records_emitted: u64,
    /// Pairs the chain filter dropped.
    pub pairs_chain_dropped: u64,
    /// Exchange rounds of the overlap stage, on one rank.
    pub overlap_rounds: u64,
    /// Alignment tasks (read pairs) handed to stage 4.
    pub tasks: u64,
    /// Alignments computed.
    pub alignments: u64,
    /// Alignments at or above the output score threshold.
    pub accepted: u64,
    /// DP cells per rank.
    pub dp_cells: Vec<u64>,
    /// Read bytes fetched from other ranks.
    pub read_bytes_fetched: u64,
    /// Modeled exchange seconds on Cori (from counters only).
    pub cori_exchange_s: f64,
    /// Modeled exchange seconds on the AWS cluster.
    pub aws_exchange_s: f64,
    /// Modeled pipeline seconds on the AWS cluster.
    pub aws_total_s: f64,
}

impl Counts {
    fn read(reports: &[RankReport]) -> Counts {
        let mut c = Counts::default();
        for r in reports {
            for (slot, comm) in c.stage_wire_bytes.iter_mut().zip(r.stage_comms()) {
                *slot += comm.total_bytes();
                c.peak_round_bytes = c.peak_round_bytes.max(comm.peak_round_bytes);
            }
            let comm = r.total_comm();
            c.msgs += comm.total_msgs();
            c.alltoallv_calls += comm.alltoallv_calls;
            c.retransmits += comm.frames_retransmitted;
            c.exchange_s = c.exchange_s.max(r.total_exchange().as_secs_f64());
            let pack: f64 = r.stage_timings().iter().map(|t| t.pack.as_secs_f64()).sum();
            c.pack_s = c.pack_s.max(pack);
            c.kmers_parsed += r.bloom.kmers_parsed + r.hash.kmers_parsed;
            c.kcount_rounds = c.kcount_rounds.max(r.bloom.rounds + r.hash.rounds);
            c.keys_seen +=
                r.filter.singletons_removed + r.filter.high_freq_removed + r.filter.retained;
            c.keys_retained += r.filter.retained;
            c.table_bytes += r.table_bytes;
            c.seeds_emitted += r.overlap.pairs_emitted;
            c.records_emitted += r.overlap.candidate_pairs_emitted;
            c.pairs_chain_dropped += r.overlap.pairs_chain_dropped;
            c.overlap_rounds = c.overlap_rounds.max(r.overlap.rounds);
            c.tasks += r.align.tasks;
            c.alignments += r.align.alignments;
            c.accepted += r.align.accepted;
            c.dp_cells.push(r.align.dp_cells);
            c.read_bytes_fetched += r.align.read_bytes_fetched;
        }
        // One rank per modeled node, so every remote byte crosses the
        // modeled network.
        let mapping = NodeMapping::new(reports.len(), 1);
        c.cori_exchange_s = project(&CORI, mapping, reports).exchange_seconds();
        let aws = project(&AWS, mapping, reports);
        c.aws_exchange_s = aws.exchange_seconds();
        c.aws_total_s = aws.total_seconds();
        c
    }

    /// Bytes handed to the transport over the whole run.
    pub fn wire_bytes(&self) -> u64 {
        self.stage_wire_bytes.iter().sum()
    }

    /// These counts with the host-timed fields zeroed: what must be equal
    /// between two runs of one workload.
    pub fn exact(&self) -> Counts {
        Counts {
            exchange_s: 0.0,
            pack_s: 0.0,
            ..self.clone()
        }
    }
}

fn wire_counts(comm: &CommStats) -> Vec<(&'static str, u64)> {
    vec![
        ("wire_bytes", comm.total_bytes()),
        ("alltoallv_calls", comm.alltoallv_calls),
    ]
}

fn kmer_counts(k: &KmerStageCounters, comm: &CommStats) -> Vec<(&'static str, u64)> {
    let mut counts = wire_counts(comm);
    counts.extend([("kmers_parsed", k.kmers_parsed), ("rounds", k.rounds)]);
    counts
}

fn timing(seconds: std::time::Duration, comm: &CommStats) -> StageTiming {
    StageTiming {
        total: seconds,
        exchange: comm.exchange_wall,
        pack: comm.pack_wall,
    }
}

/// The traced run: the benchmark's own SPMD body, making the public calls
/// `pipeline_rank` makes in the same order with a span around each and
/// the communicator's counters snapshotted at the same boundaries. Its
/// output digest must equal `run`'s — that is what keeps this copy of the
/// stage sequence honest. Spans are appended to `log` under a root span
/// `core.pipeline` that covers what `run` times from outside.
pub fn run_traced(reads: &ReadSet, w: &Workload, log: &mut SpanLog) -> RunOutput {
    let (cfg, ranks) = (config(w, w.threads), w.ranks);
    let root = log.open("core.pipeline", None);
    let span = log.open("io.partition", Some(root));
    let (part, chunks) = partition_reads(reads, ranks);
    log.close(span, Vec::new());
    let driver_log = &*log;

    let per_rank = CommWorld::run_with(ranks, &cfg.transport, |comm: &Comm| {
        let rank = comm.rank();
        let mut log = driver_log.for_rank(rank);
        let local = chunks[rank].clone().into_reads();
        let local_reads = local.len() as u64;
        let local_bases: u64 = local.iter().map(|r| r.len() as u64).sum();
        let total_bases = comm.allreduce_sum_u64(local_bases);
        comm.allreduce_sum_u64(local_reads);
        let kc = cfg.kcount(total_bases);
        let oc = cfg.overlap();
        let exec = BatchedExecutor::new(cfg.effective_threads());
        comm.take_stats();

        let (
            table,
            bloom,
            bloom_comm,
            bloom_wall,
            bloom_bytes,
            table_keys,
            hash,
            hash_comm,
            hash_wall,
            filter,
        ) = match cfg.seed_mode {
            SeedMode::Reliable => {
                let span = log.open("kcount.bloom", None);
                let t = Instant::now();
                let (bloom_out, prepacked) = bloom_stage_overlapping(comm, &local, &kc, &exec);
                let bloom_comm = comm.take_stats();
                let bloom_wall = timing(t.elapsed(), &bloom_comm);
                log.close(span, kmer_counts(&bloom_out.counters, &bloom_comm));
                let mut table = bloom_out.table;
                let table_keys = table.len() as u64;

                let span = log.open("kcount.hash", None);
                let t = Instant::now();
                let hash_out =
                    hash_stage_prepacked(comm, &local, &mut table, &kc, &exec, Some(prepacked));
                let hash_comm = comm.take_stats();
                let hash_wall = timing(t.elapsed(), &hash_comm);
                log.close(span, kmer_counts(&hash_out.counters, &hash_comm));
                (
                    table,
                    bloom_out.counters,
                    bloom_comm,
                    bloom_wall,
                    bloom_out.bloom_bytes as u64,
                    table_keys,
                    hash_out.counters,
                    hash_comm,
                    hash_wall,
                    hash_out.filter,
                )
            }
            SeedMode::Minimizer => {
                let span = log.open("kcount.hash", None);
                let t = Instant::now();
                let out = minimizer_stage(comm, &local, cfg.minimizer_w, &kc, &exec);
                let hash_comm = comm.take_stats();
                let hash_wall = timing(t.elapsed(), &hash_comm);
                log.close(span, kmer_counts(&out.counters, &hash_comm));
                (
                    out.table,
                    KmerStageCounters::default(),
                    CommStats::new(ranks),
                    StageTiming::default(),
                    0,
                    out.counters.promoted_keys,
                    out.counters,
                    hash_comm,
                    hash_wall,
                    out.filter,
                )
            }
        };
        let table_bytes = table.memory_bytes();

        let span = log.open("overlap.stage", None);
        let t = Instant::now();
        let overlap_out = overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec);
        let overlap_comm = comm.take_stats();
        let overlap_wall = timing(t.elapsed(), &overlap_comm);
        let mut counts = wire_counts(&overlap_comm);
        counts.extend([
            ("seeds_emitted", overlap_out.counters.pairs_emitted),
            ("tasks", overlap_out.tasks.len() as u64),
        ]);
        log.close(span, counts);
        drop(table);

        let stage = log.open("core.align_stage", None);
        let t = Instant::now();
        let mut align = AlignCounters::default();
        let span = log.open("core.fetch_reads", Some(stage));
        let mut store = ReadStore::new(rank, part.clone(), local);
        fetch_remote_reads(
            comm,
            &mut store,
            &overlap_out.tasks,
            cfg.max_exchange_bytes_per_round,
            &mut align,
        );
        log.close(span, vec![("read_bytes_fetched", align.read_bytes_fetched)]);
        let span = log.open("core.align_tasks", Some(stage));
        let alignments = align_tasks(&store, &overlap_out.tasks, &cfg, &mut align, &exec);
        log.close(
            span,
            vec![
                ("alignments", align.alignments),
                ("dp_cells", align.dp_cells),
            ],
        );
        let align_comm = comm.take_stats();
        let align_wall = timing(t.elapsed(), &align_comm);
        log.close(stage, wire_counts(&align_comm));

        let report = RankReport {
            rank,
            ranks,
            local_reads,
            local_bases,
            bloom,
            bloom_comm,
            bloom_wall,
            bloom_bytes,
            table_keys,
            hash,
            hash_comm,
            hash_wall,
            filter,
            table_bytes,
            overlap: overlap_out.counters,
            overlap_comm,
            overlap_wall,
            align,
            align_comm,
            align_wall,
        };
        (alignments, report, log)
    });

    let span = log.open("core.merge", Some(root));
    let mut alignments = Vec::new();
    let mut reports = Vec::new();
    let mut logs = Vec::new();
    for (recs, report, rank_log) in per_rank {
        alignments.extend(recs);
        reports.push(report);
        logs.push(rank_log);
    }
    alignments.sort_unstable();
    log.close(span, Vec::new());
    log.close(root, vec![("alignments", alignments.len() as u64)]);
    for rank_log in logs {
        log.adopt(rank_log, root);
    }
    output(&alignments, &reports)
}

/// Stand-alone rates of the layers under the pipeline, measured on the
/// workload's own reads outside any pipeline run.
pub struct LayerProbes {
    /// `extract_kmers::<1>` over all reads, million k-mers per second.
    pub extract_mkmers_per_s: f64,
    /// `minimizers` over all reads, million k-mer windows per second.
    pub minimizer_mkmers_per_s: f64,
    /// `BloomFilter::insert` of those k-mers' hashes, million per second.
    pub bloom_minserts_per_s: f64,
    /// Size of that filter (sized as a one-rank pipeline would), MiB.
    pub bloom_mb: f64,
    /// Its share of set bits after the inserts.
    pub bloom_fill: f64,
    /// `write_fastq` to memory, then `parse_block` over the ranks' byte
    /// ranges, million bases per second of parsing.
    pub fastq_parse_mbases_per_s: f64,
    /// Two ranks, one `alltoallv_bytes` of 64 MiB per rank, GB/s per rank.
    pub alltoallv_gb_per_s: f64,
}

/// Measure the stand-alone layer rates on `input`.
pub fn probe_layers(input: &Input, w: &Workload) -> LayerProbes {
    let (cfg, ranks) = (config(w, w.threads), w.ranks);
    let reads = input.reads.reads();

    let t = Instant::now();
    let mut hashes = Vec::with_capacity(input.bases as usize);
    for read in reads {
        hashes.extend(
            extract_kmers::<1>(&read.seq, cfg.k)
                .iter()
                .map(|hit| hit.kmer.hash64()),
        );
    }
    let extract_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut selected = 0usize;
    for read in reads {
        selected += black_box(minimizers(&read.seq, cfg.k, cfg.minimizer_w)).len();
    }
    let minimizer_s = t.elapsed().as_secs_f64();
    black_box(selected);

    let kc = cfg.kcount(input.bases);
    let mut bloom = BloomFilter::for_items(kc.expected_distinct_per_rank(1), kc.bloom_fp_rate);
    let t = Instant::now();
    let mut repeats = 0u64;
    for &h in &hashes {
        repeats += bloom.insert(h) as u64;
    }
    let bloom_s = t.elapsed().as_secs_f64();
    black_box(repeats);

    let mut fastq = Vec::with_capacity(2 * input.bases as usize);
    write_fastq(&mut fastq, &input.reads).expect("writing FASTQ to memory cannot fail");
    let t = Instant::now();
    let mut parsed = 0u64;
    for range in byte_ranges(fastq.len(), ranks) {
        let block = parse_block(&fastq, range).expect("FASTQ written by write_fastq parses");
        parsed += block.iter().map(|r| r.len() as u64).sum::<u64>();
    }
    let parse_s = t.elapsed().as_secs_f64();
    assert_eq!(parsed, input.bases, "FASTQ round trip lost bases");
    drop(fastq);

    const PER_DEST: usize = 32 << 20;
    let exchange_s = CommWorld::run_with(2, &TransportKind::SharedMem, |comm: &Comm| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let send = vec![vec![comm.rank() as u8; PER_DEST]; 2];
            comm.barrier();
            let t = Instant::now();
            black_box(comm.alltoallv_bytes(send));
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    })
    .into_iter()
    .fold(0.0, f64::max);

    let kmers = hashes.len() as f64;
    LayerProbes {
        extract_mkmers_per_s: kmers / 1e6 / extract_s,
        minimizer_mkmers_per_s: kmers / 1e6 / minimizer_s,
        bloom_minserts_per_s: kmers / 1e6 / bloom_s,
        bloom_mb: bloom.memory_bytes() as f64 / (1 << 20) as f64,
        bloom_fill: bloom.fill_ratio(),
        fastq_parse_mbases_per_s: input.bases as f64 / 1e6 / parse_s,
        alltoallv_gb_per_s: (2 * PER_DEST) as f64 / 1e9 / exchange_s,
    }
}
