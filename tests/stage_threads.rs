//! Determinism of the whole threaded pipeline: every stage — k-mer
//! extraction, hash counting, overlap pair enumeration and alignment —
//! runs its compute through the shared batched executor, and for any
//! thread count every rank's outputs and work counters must be
//! bit-identical to the sequential run. This sweeps the full matrix the
//! executor promises: threads × transport (real shared memory and a
//! simulated interconnect) × streaming-round cap.

use dibella::prelude::*;

/// Overlapping reads off one deterministic pseudo-random genome.
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

fn cfg(threads: usize, transport: TransportKind, round_cap: usize) -> PipelineConfig {
    PipelineConfig {
        k: 11,
        seed_policy: SeedPolicy::MinDistance(11),
        max_seeds_per_pair: 32,
        max_multiplicity: Some(24),
        threads: Some(threads),
        transport,
        max_exchange_bytes_per_round: round_cap,
        ..Default::default()
    }
}

fn transports() -> [TransportKind; 2] {
    [TransportKind::SharedMem, "sim:cori:2".parse().expect("transport spec")]
}

/// At a fixed transport and round cap, every thread count must reproduce
/// the sequential run exactly: merged alignment records plus each rank's
/// per-stage work counters (extraction, filter, overlap, alignment) and
/// traffic totals.
#[test]
fn all_stages_bit_identical_across_threads() {
    let reads = dataset(24, 200, 60, 0x57A6E5);
    let ranks = 4;
    for transport in transports() {
        // usize::MAX = monolithic exchanges; 4096 forces several rounds
        // per stage, exercising the round-sliced batch decomposition.
        for cap in [usize::MAX, 4096] {
            let baseline = run_pipeline(&reads, ranks, &cfg(1, transport, cap));
            assert!(
                !baseline.alignments.is_empty(),
                "workload must exercise all stages (transport {transport}, cap {cap})"
            );
            for threads in [2usize, 4] {
                let run = run_pipeline(&reads, ranks, &cfg(threads, transport, cap));
                let at = format!("threads={threads} transport={transport} cap={cap}");
                assert_eq!(run.alignments, baseline.alignments, "records diverge at {at}");
                for (par, seq) in run.reports.iter().zip(&baseline.reports) {
                    let rank = par.rank;
                    assert_eq!(par.bloom, seq.bloom, "rank {rank} bloom counters, {at}");
                    assert_eq!(par.hash, seq.hash, "rank {rank} hash counters, {at}");
                    assert_eq!(par.table_keys, seq.table_keys, "rank {rank} table keys, {at}");
                    assert_eq!(par.filter, seq.filter, "rank {rank} filter stats, {at}");
                    assert_eq!(par.overlap, seq.overlap, "rank {rank} overlap counters, {at}");
                    assert_eq!(par.align, seq.align, "rank {rank} align counters, {at}");
                    for (p, s, stage) in [
                        (&par.bloom_comm, &seq.bloom_comm, "bloom"),
                        (&par.hash_comm, &seq.hash_comm, "hash"),
                        (&par.overlap_comm, &seq.overlap_comm, "overlap"),
                        (&par.align_comm, &seq.align_comm, "align"),
                    ] {
                        assert_eq!(
                            p.total_bytes(),
                            s.total_bytes(),
                            "rank {rank} {stage} bytes, {at}"
                        );
                        assert_eq!(
                            p.alltoallv_calls, s.alltoallv_calls,
                            "rank {rank} {stage} rounds, {at}"
                        );
                    }
                }
            }
        }
    }
}

/// The alignment-kernel implementation axis: pinning stage 4 to the
/// scalar kernel vs `Auto` (the lane-SIMD kernels) must never change the
/// pipeline output — merged alignment records and every rank's alignment
/// counters (including the `dp_cells` tally the cost model consumes) are
/// bit-identical across kernel implementations, at every thread count.
#[test]
fn simd_mode_bit_identical_across_kernels_and_threads() {
    use dibella::align::SimdMode;
    let reads = dataset(24, 200, 60, 0x51D_CAFE);
    let ranks = 4;
    let with_mode = |threads: usize, mode: SimdMode| PipelineConfig {
        simd: Some(mode),
        ..cfg(threads, TransportKind::SharedMem, usize::MAX)
    };
    let baseline = run_pipeline(&reads, ranks, &with_mode(1, SimdMode::Scalar));
    assert!(!baseline.alignments.is_empty(), "workload must reach the alignment stage");
    for mode in [SimdMode::Scalar, SimdMode::Auto] {
        for threads in [1usize, 2, 4] {
            let run = run_pipeline(&reads, ranks, &with_mode(threads, mode));
            let at = format!("simd={mode:?} threads={threads}");
            assert_eq!(run.alignments, baseline.alignments, "records diverge at {at}");
            for (par, seq) in run.reports.iter().zip(&baseline.reports) {
                let rank = par.rank;
                assert_eq!(par.align, seq.align, "rank {rank} align counters, {at}");
                assert_eq!(par.overlap, seq.overlap, "rank {rank} overlap counters, {at}");
            }
        }
    }
}

/// Across round caps the per-round decomposition changes (more, smaller
/// exchanges) but the final output must not — at any thread count.
#[test]
fn round_cap_does_not_change_threaded_output() {
    let reads = dataset(18, 200, 60, 0xCA9);
    let ranks = 3;
    let baseline = run_pipeline(
        &reads,
        ranks,
        &cfg(1, TransportKind::SharedMem, usize::MAX),
    );
    assert!(!baseline.alignments.is_empty());
    for threads in [1usize, 4] {
        for cap in [16 << 10, 2 << 10] {
            let run = run_pipeline(&reads, ranks, &cfg(threads, TransportKind::SharedMem, cap));
            assert_eq!(
                run.alignments, baseline.alignments,
                "records diverge at threads={threads} cap={cap}"
            );
        }
    }
}
