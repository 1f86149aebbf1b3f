//! Overlap-engine equivalence: the SpGEMM `A·Aᵀ` engine must produce the
//! pairs engine's exact alignments — across seed policies, seed modes,
//! world sizes, transports, round caps, thread counts, and block sizes —
//! and both must ship what the seed policy keeps, folded per pair at the
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
    engine: OverlapEngine,
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
        overlap_engine: engine,
        threads: Some(threads),
        transport,
        max_exchange_bytes_per_round: cap,
        ..Default::default()
    }
}

/// Per-rank engine-invariant overlap counters: what was enumerated and
/// what came out. How many records and seeds crossed the wire in between
/// is physical — the pairs engine folds per round, SpGEMM per row — and
/// is held to the ledger by [`assert_ledger`] instead.
fn logical_counters(res: &dibella::pipeline::PipelineResult) -> Vec<[u64; 5]> {
    res.reports
        .iter()
        .map(|r| {
            let c = r.overlap;
            [
                c.retained_kmers,
                c.pairs_emitted,
                c.pairs_consolidated,
                c.seeds_kept,
                c.pairs_chain_dropped,
            ]
        })
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

/// The tentpole sweep: both engines, both folds (`MinDistance` ships every
/// seed, `Single` the minimum per pair), both seed modes, worlds {1, 2, 4},
/// transports {shared, sim:cori:2}, round caps {unbounded, 4 KiB} — the
/// final alignments and every logical overlap counter are bit-identical,
/// the ledger balances, and the exchange accounting (alltoallv calls ==
/// executed rounds, peak round ≤ cap + one record) holds for both record
/// streams.
#[test]
fn spgemm_matches_pairs_across_the_sweep() {
    let reads = dense_reads();
    for policy in [SeedPolicy::MinDistance(11), SeedPolicy::Single] {
        for seed_mode in [SeedMode::Reliable, SeedMode::Minimizer] {
            for p in [1usize, 2, 4] {
                for transport in
                    [TransportKind::SharedMem, "sim:cori:2".parse().expect("transport spec")]
                {
                    for cap in [usize::MAX, 4096] {
                        let at = format!(
                            "policy={policy:?} mode={seed_mode} p={p} transport={transport} cap={cap}"
                        );
                        let run = |engine| {
                            run_pipeline(&reads, p, &cfg(engine, policy, seed_mode, 1, transport, cap))
                        };
                        let pairs_res = run(OverlapEngine::Pairs);
                        let spgemm_res = run(OverlapEngine::Spgemm);
                        assert!(!pairs_res.alignments.is_empty(), "dead workload at {at}");
                        assert_eq!(
                            pairs_res.alignments, spgemm_res.alignments,
                            "alignments diverge at {at}"
                        );
                        assert_eq!(
                            logical_counters(&pairs_res),
                            logical_counters(&spgemm_res),
                            "logical counters diverge at {at}"
                        );
                        for res in [&pairs_res, &spgemm_res] {
                            assert_ledger(res, &at);
                            for r in &res.reports {
                                assert_eq!(
                                    r.overlap_comm.alltoallv_calls, r.overlap.rounds,
                                    "rounds accounting at {at}"
                                );
                                // Records never split: one pair record of
                                // slack at most (this workload's records
                                // stay well under 2 KiB).
                                assert!(
                                    cap == usize::MAX
                                        || r.overlap_comm.peak_round_bytes <= cap as u64 + 2048,
                                    "peak {} over cap at {at}",
                                    r.overlap_comm.peak_round_bytes
                                );
                            }
                        }
                        if cap == usize::MAX {
                            // One round: both engines fold a pair's local
                            // seeds into the same single record.
                            for (a, b) in pairs_res.reports.iter().zip(&spgemm_res.reports) {
                                assert_eq!(a.overlap, b.overlap, "rank {} counters at {at}", a.rank);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// SpGEMM-specific determinism: thread counts and row-block sizes never
/// change alignments or any overlap counter (including the wire-record
/// counters — the record stream itself is invariant).
#[test]
fn spgemm_bit_identical_across_threads_and_blocks() {
    let reads = dense_reads();
    let base = cfg(
        OverlapEngine::Spgemm,
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

/// The byte claim, asserted for both engines on the committed sample
/// workload and on HiFi-like reads: under `Single` a source ships at most
/// one 20-byte record per pair it found, so the stage's bytes and its
/// largest round are bounded by `20 · pairs · ranks` — a return to one
/// record per shared k-mer fails here, not only in the repo benchmark.
#[test]
fn folded_records_bound_overlap_bytes_for_both_engines() {
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
        let run = |engine| {
            run_pipeline(&reads, RANKS, &PipelineConfig { overlap_engine: engine, ..base.clone() })
        };
        let pairs_res = run(OverlapEngine::Pairs);
        let spgemm_res = run(OverlapEngine::Spgemm);
        assert!(!pairs_res.alignments.is_empty(), "dead workload: {name}");
        assert_eq!(pairs_res.alignments, spgemm_res.alignments, "{name}");
        for (engine, res) in [("pairs", &pairs_res), ("spgemm", &spgemm_res)] {
            let sum = |f: fn(&RankReport) -> u64| -> u64 { res.reports.iter().map(f).sum() };
            let pairs = sum(|r| r.overlap.pairs_consolidated);
            let bound = 20 * pairs * RANKS as u64;
            let bytes = sum(|r| r.overlap_comm.total_bytes());
            let peak = res.reports.iter().map(|r| r.overlap_comm.peak_round_bytes).max().unwrap();
            let emitted = sum(|r| r.overlap.pairs_emitted);
            let dup_factor = emitted as f64 / sum(|r| r.overlap.candidate_pairs_emitted) as f64;
            eprintln!(
                "{name}/{engine}: {bytes} overlap bytes for {pairs} pairs from {emitted} instances \
                 (bound {bound}, peak round {peak}, seed dup factor {dup_factor:.1})"
            );
            assert!(bytes <= bound, "{name}/{engine}: {bytes} bytes over 20·pairs·ranks = {bound}");
            assert!(peak <= bound, "{name}/{engine}: peak round {peak} over {bound}");
            assert!(dup_factor > 1.0, "{name}/{engine}: expected source-side folding");
        }
    }
}
