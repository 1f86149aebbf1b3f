//! The overlap engine end to end: the streamed `A·Aᵀ` stage must produce
//! its one-round run's exact alignments — across seed policies, seed
//! modes, world sizes, transports, round caps, thread counts and block
//! sizes — and ship what the seed policy keeps, folded per pair at the
//! source, never one record per shared k-mer.

use dibella::datagen::{
    ecoli_30x_sample_like, simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec,
};
use dibella::overlap::OverlapCounters;
use dibella::pipeline::RankReport;
use dibella::prelude::*;

/// Overlapping error-free reads off one deterministic genome (the
/// stage_threads dataset shape): adjacent reads share 140 bases, so most
/// pairs carry many shared k-mers — the regime where source-side dedup
/// pays.
fn dense_reads() -> ReadSet {
    let mut state = 0x0D1B_E11A_5EEDu64 | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let genome: Vec<u8> = (0..(24 * 60 + 200)).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
    (0..24u32)
        .map(|i| Read::new(i, format!("r{i}"), genome[i as usize * 60..][..200].to_vec()))
        .collect()
}

fn cfg(
    seed_policy: SeedPolicy,
    seed_mode: SeedMode,
    threads: usize,
    transport: TransportKind,
    cap: usize,
) -> PipelineConfig {
    PipelineConfig {
        k: 11,
        seed_policy,
        max_seeds_per_pair: 32,
        max_multiplicity: Some(24),
        seed_mode,
        minimizer_w: 5,
        threads: Some(threads),
        transport,
        max_exchange_bytes_per_round: cap,
        ..Default::default()
    }
}

/// Per-rank overlap counters a round cap cannot move: what was enumerated,
/// what was shipped and what came out. Rounds and the seeds pending
/// between them are physical and are held to the exchange accounting
/// instead.
fn logical_counters(res: &dibella::pipeline::PipelineResult) -> Vec<OverlapCounters> {
    res.reports
        .iter()
        .map(|r| OverlapCounters { rounds: 0, peak_seeds_pending: 0, ..r.overlap })
        .collect()
}

/// The counter ledger: each enumerated instance is counted once at its
/// source (shipped or folded), what is shipped arrives somewhere, and the
/// world's merge work is one operation per instance.
fn assert_ledger(res: &dibella::pipeline::PipelineResult, at: &str) {
    let sum = |f: fn(&OverlapCounters) -> u64| -> u64 { res.reports.iter().map(|r| f(&r.overlap)).sum() };
    assert_eq!(sum(|c| c.seeds_shipped), sum(|c| c.seeds_received), "shipped ≠ received at {at}");
    assert_eq!(sum(|c| c.seeds_merged()), sum(|c| c.pairs_emitted), "merge work at {at}");
    for r in &res.reports {
        let c = r.overlap;
        assert!(c.candidate_pairs_emitted <= c.seeds_shipped, "empty record at {at}");
        assert!(c.seeds_shipped <= c.pairs_emitted, "shipped > enumerated at {at}");
        assert!(c.seeds_kept <= c.seeds_received, "kept > received at {at}");
    }
}

/// The sweep: both folds (`MinDistance` ships every seed, `Single` the
/// minimum per pair), both seed modes, worlds {1, 2, 4}, transports
/// {shared, sim:cori:2}, round caps {unbounded, 4 KiB} — the final
/// alignments are those of the one-rank, one-round run, every counter a
/// cap cannot move equals the one-round run's on the same world, the
/// ledger balances, and the exchange accounting (alltoallv calls ==
/// executed rounds, peak round ≤ cap + one record) holds.
#[test]
fn capped_rounds_match_the_one_round_run_across_the_sweep() {
    let reads = dense_reads();
    for policy in [SeedPolicy::MinDistance(11), SeedPolicy::Single] {
        for seed_mode in [SeedMode::Reliable, SeedMode::Minimizer] {
            let run = |p, transport, cap| run_pipeline(&reads, p, &cfg(policy, seed_mode, 1, transport, cap));
            let reference = run(1, TransportKind::SharedMem, usize::MAX);
            assert!(!reference.alignments.is_empty(), "dead workload at {policy:?} {seed_mode}");
            for p in [1usize, 2, 4] {
                for transport in
                    [TransportKind::SharedMem, "sim:cori:2".parse().expect("transport spec")]
                {
                    let one_round = run(p, transport, usize::MAX);
                    let capped = run(p, transport, 4096);
                    for (cap, res) in [(usize::MAX, &one_round), (4096, &capped)] {
                        let at = format!(
                            "policy={policy:?} mode={seed_mode} p={p} transport={transport} cap={cap}"
                        );
                        assert_eq!(res.alignments, reference.alignments, "alignments diverge at {at}");
                        assert_eq!(
                            logical_counters(res),
                            logical_counters(&one_round),
                            "logical counters diverge at {at}"
                        );
                        assert_ledger(res, &at);
                        for r in &res.reports {
                            assert_eq!(r.overlap_comm.alltoallv_calls, r.overlap.rounds, "rounds accounting at {at}");
                            // Records never split: one pair record of slack
                            // at most (this workload's records stay well
                            // under 2 KiB).
                            assert!(
                                cap == usize::MAX || r.overlap_comm.peak_round_bytes <= cap as u64 + 2048,
                                "peak {} over cap at {at}",
                                r.overlap_comm.peak_round_bytes
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Thread counts and row-block sizes never change alignments or any
/// overlap counter (including the wire-record counters — the record
/// stream itself is invariant).
#[test]
fn spgemm_bit_identical_across_threads_and_blocks() {
    let reads = dense_reads();
    let base = cfg(
        SeedPolicy::MinDistance(11),
        SeedMode::Reliable,
        1,
        TransportKind::SharedMem,
        usize::MAX,
    );
    let baseline = run_pipeline(&reads, 4, &base);
    assert!(!baseline.alignments.is_empty());
    for threads in [1usize, 4] {
        for block in [1usize, 3, 1024] {
            let run = run_pipeline(
                &reads,
                4,
                &PipelineConfig { threads: Some(threads), spgemm_block: block, ..base.clone() },
            );
            let at = format!("threads={threads} block={block}");
            assert_eq!(run.alignments, baseline.alignments, "alignments diverge at {at}");
            for (a, b) in run.reports.iter().zip(&baseline.reports) {
                assert_eq!(a.overlap, b.overlap, "rank {} counters at {at}", a.rank);
            }
        }
    }
}

/// A 1 %-error HiFi-like read set: nearly every k-mer of an overlap is
/// shared, so a pair meets in thousands of instances — the regime where
/// shipping per instance costs two orders of magnitude over the fold.
fn hifi_like() -> ReadSet {
    let genome = GenomeSpec {
        size: 24_000,
        repeat_fraction: 0.03,
        repeat_unit_len: 700,
        repeat_families: 5,
        seed: 7,
    }
    .generate();
    let spec = ReadSimSpec {
        depth: 12.0,
        mean_len: 4_000,
        len_sigma: 0.35,
        min_len: 400,
        errors: ErrorModel::pacbio(0.01),
        seed: 7,
    };
    simulate_reads(&genome, &spec).reads
}

/// The byte claim, asserted on the committed sample workload and on
/// HiFi-like reads: under `Single` a source ships at most one 20-byte
/// record per pair it found, so the stage's bytes and its largest round
/// are bounded by `20 · pairs · ranks` — a return to one record per shared
/// k-mer fails here, not only in the repo benchmark.
#[test]
fn folded_records_bound_overlap_bytes() {
    const RANKS: usize = 4;
    let sample = PipelineConfig {
        k: 17,
        depth: 30.0,
        error_rate: 0.15,
        seed_policy: SeedPolicy::Single,
        max_seeds_per_pair: 4,
        ..Default::default()
    };
    let hifi = PipelineConfig { k: 21, depth: 12.0, error_rate: 0.01, ..sample.clone() };
    for (name, reads, base) in [
        ("sample", ecoli_30x_sample_like(0.01, 42).reads, sample),
        ("hifi-like", hifi_like(), hifi),
    ] {
        let res = run_pipeline(&reads, RANKS, &base);
        assert!(!res.alignments.is_empty(), "dead workload: {name}");
        assert_ledger(&res, name);
        let sum = |f: fn(&RankReport) -> u64| -> u64 { res.reports.iter().map(f).sum() };
        let pairs = sum(|r| r.overlap.pairs_consolidated);
        let bound = 20 * pairs * RANKS as u64;
        let bytes = sum(|r| r.overlap_comm.total_bytes());
        let peak = res.reports.iter().map(|r| r.overlap_comm.peak_round_bytes).max().unwrap();
        let emitted = sum(|r| r.overlap.pairs_emitted);
        let dup_factor = emitted as f64 / sum(|r| r.overlap.candidate_pairs_emitted) as f64;
        eprintln!(
            "{name}: {bytes} overlap bytes for {pairs} pairs from {emitted} instances \
             (bound {bound}, peak round {peak}, seed dup factor {dup_factor:.1})"
        );
        assert!(bytes <= bound, "{name}: {bytes} bytes over 20·pairs·ranks = {bound}");
        assert!(peak <= bound, "{name}: peak round {peak} over {bound}");
        assert!(dup_factor > 1.0, "{name}: expected source-side folding");
    }
}
