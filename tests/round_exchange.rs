//! Integration tests of the streaming `RoundExchange` engine at pipeline
//! scope: capping the per-round exchange bytes changes *how* the stages
//! communicate (more, smaller, pipelined rounds) but never *what* they
//! compute — alignments are bit-identical at every `(ranks, transport,
//! round cap)` combination, per-destination traffic totals are equal up
//! to the record headers a round boundary adds, and the per-round memory
//! high-water mark respects the cap up to one record.

use dibella::prelude::*;

/// Overlapping reads off one deterministic pseudo-random genome. The
/// small stride makes each read overlap its four neighbours on both
/// sides, so at P > 1 plenty of alignment tasks reference remote reads —
/// exercising the round-bounded read redistribution, not just the k-mer
/// passes.
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

fn cfg(cap: usize, transport: TransportKind) -> PipelineConfig {
    PipelineConfig {
        k: 11,
        seed_policy: SeedPolicy::MinDistance(11),
        max_seeds_per_pair: 32,
        max_multiplicity: Some(48),
        max_exchange_bytes_per_round: cap,
        transport,
        ..Default::default()
    }
}

const READ_LEN: usize = 200;
/// Tiny enough that every exchanging stage needs several rounds on this
/// dataset (the Bloom pass plans ~21 k-mer windows per round under it).
const TINY_CAP: usize = 256;
/// The largest wire record stages 1, 2 and 4 ship: a stage-4 reply (8-byte
/// header + full read).
const MAX_RECORD: u64 = 8 + READ_LEN as u64;
/// The largest record the overlap stage ships: one pair's record under
/// `MinDistance`, every seed the pair shares on a rank — at most one per
/// k-mer position of a read on this repeat-free genome (12-byte header,
/// 8 bytes per seed). Records never split across rounds.
const MAX_PAIR_RECORD: u64 = 12 + 8 * (READ_LEN as u64 - 11 + 1);

/// Indices of the Bloom and overlap stages in [`stage_comms`].
const BLOOM: usize = 0;
const OVERLAP: usize = 2;

fn stage_comms(r: &dibella::pipeline::RankReport) -> [&dibella::comm::CommStats; 4] {
    [&r.bloom_comm, &r.hash_comm, &r.overlap_comm, &r.align_comm]
}

#[test]
fn round_cap_sweep_is_bit_identical() {
    let reads = dataset(16, READ_LEN, 40, 13);
    let transports = [
        TransportKind::SharedMem,
        TransportKind::SimNet(SimNetConfig { platform: PlatformId::CoriXC40, ranks_per_node: 2 }),
    ];
    let baseline = run_pipeline(&reads, 1, &cfg(usize::MAX, TransportKind::SharedMem));
    assert!(baseline.alignments.len() >= 20, "dataset must produce work");

    for p in [1usize, 2, 4] {
        // Per-P traffic reference: the unbounded shared-memory run.
        let reference = run_pipeline(&reads, p, &cfg(usize::MAX, TransportKind::SharedMem));
        assert_eq!(reference.alignments, baseline.alignments, "P={p} default");

        for transport in transports {
            for cap in [TINY_CAP, 64 << 10, usize::MAX] {
                let res = run_pipeline(&reads, p, &cfg(cap, transport));
                // The headline invariant: science never moves.
                assert_eq!(
                    res.alignments, baseline.alignments,
                    "P={p} cap={cap} transport={transport}: alignments diverged"
                );
                for (got, want) in res.reports.iter().zip(&reference.reports) {
                    for (si, (cg, cw)) in
                        stage_comms(got).iter().zip(stage_comms(want)).enumerate()
                    {
                        let at = format!(
                            "P={p} cap={cap} transport={transport} rank {} stage {si}",
                            got.rank
                        );
                        if si == BLOOM && got.bloom.rounds > want.bloom.rounds {
                            // A round boundary inside a read cuts an
                            // owner-run record in two: the k-mers every
                            // owner decodes are those of the one-round
                            // run, only the header count grows with the
                            // split.
                            assert_eq!(got.bloom.kmers_parsed, want.bloom.kmers_parsed, "{at}");
                            assert_eq!(got.bloom.kmers_received, want.bloom.kmers_received, "{at}");
                            assert_eq!(got.hash.kmers_received, want.hash.kmers_received, "{at}");
                            assert_eq!(got.hash.recorded_occurrences, want.hash.recorded_occurrences, "{at}");
                            assert!(cg.dest_bytes.iter().zip(&cw.dest_bytes).all(|(g, w)| g >= w), "{at}");
                        } else {
                            // Per-destination byte totals are independent
                            // of the round split and of the transport (the
                            // overlap stage's pair records are cut into
                            // rounds whole, one record per pair).
                            assert_eq!(cg.dest_bytes, cw.dest_bytes, "{at}");
                        }
                        // Rounds (= irregular calls) are what the cap moves;
                        // the peak round volume must respect it.
                        if cap != usize::MAX {
                            let record = if si == OVERLAP { MAX_PAIR_RECORD } else { MAX_RECORD };
                            assert!(
                                cg.peak_round_bytes <= cap as u64 + record,
                                "P={p} cap={cap} rank {} stage {si}: peak {}",
                                got.rank,
                                cg.peak_round_bytes,
                            );
                        }
                    }
                    // At the default (unbounded) cap the whole traffic
                    // profile — messages and call counts included — matches
                    // the reference exactly.
                    if cap == usize::MAX {
                        for (cg, cw) in stage_comms(got).iter().zip(stage_comms(want)) {
                            assert_eq!(cg.dest_msgs, cw.dest_msgs);
                            assert_eq!(cg.alltoallv_calls, cw.alltoallv_calls);
                            assert_eq!(cg.peak_round_bytes, cw.peak_round_bytes);
                        }
                    }
                }
                // The tiny cap must genuinely exercise the multi-round
                // path in every stage (stage 4 needs remote reads, so at
                // P = 1 its two exchanges stay two trivial rounds).
                if cap == TINY_CAP {
                    for r in &res.reports {
                        assert!(r.bloom.rounds >= 3, "P={p}: bloom rounds {}", r.bloom.rounds);
                        assert_eq!(r.hash.rounds, 0, "P={p}: the hash pass is a local sweep");
                        assert!(
                            r.overlap.rounds >= 3,
                            "P={p}: overlap rounds {}",
                            r.overlap.rounds
                        );
                        if p > 1 {
                            assert!(
                                r.align.rounds >= 3,
                                "P={p}: align rounds {}",
                                r.align.rounds
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A cap below the worst case of a single owner-run record (a run of one
/// k-mer: 9 + ⌈k/4⌉ = 12 bytes at k = 11) cannot be honoured, and must
/// not stall: every round then ships one k-mer window's record, the run
/// finishes, and the science is that of the uncapped run.
#[test]
fn round_cap_below_one_record_still_finishes_identically() {
    let reads = dataset(8, 120, 30, 5);
    let uncapped = run_pipeline(&reads, 2, &cfg(usize::MAX, TransportKind::SharedMem));
    assert!(!uncapped.alignments.is_empty(), "dataset must produce work");
    let starved = run_pipeline(&reads, 2, &cfg(8, TransportKind::SharedMem));
    assert_eq!(starved.alignments, uncapped.alignments);
    let windows_per_read = (120 - 11 + 1) as u64;
    for (got, want) in starved.reports.iter().zip(&uncapped.reports) {
        // One window per round on the busiest rank (4 reads each here).
        assert_eq!(got.bloom.rounds, 4 * windows_per_read);
        assert!(got.bloom_comm.peak_round_bytes <= 12, "one record of one k-mer");
        assert_eq!(got.bloom.kmers_received, want.bloom.kmers_received);
        assert_eq!(got.filter, want.filter);
    }
}

/// The FASTQ input path drives the same streamed stages; a capped run off
/// raw bytes must reproduce the in-memory result exactly.
#[test]
fn round_cap_matches_across_input_paths() {
    let reads = dataset(12, READ_LEN, 40, 29);
    let mut fastq = Vec::new();
    dibella::io::write_fastq(&mut fastq, &reads).unwrap();
    let capped = cfg(TINY_CAP, TransportKind::SharedMem);
    let mem = run_pipeline(&reads, 3, &capped);
    let via_fastq = run_pipeline_fastq(&fastq, 3, &capped);
    assert_eq!(mem.alignments, via_fastq.alignments);
}
