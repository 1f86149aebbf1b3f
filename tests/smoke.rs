//! Fast CI smoke signal: one tiny end-to-end pipeline run on a 2-rank
//! world, designed to finish in well under 5 seconds so a broken build is
//! caught before the heavier `end_to_end` / `model_projection` suites run.
//!
//! `DIBELLA_TRANSPORT` (`shared` | `sim:<platform>[:<ranks_per_node>]`)
//! selects the communication backend, `DIBELLA_ROUND_MB` caps the
//! streaming-exchange rounds, and `DIBELLA_THREADS` sets the intra-rank
//! thread count of every stage, so CI smokes the real and simulated
//! transports, the multi-round exchange path *and* the threaded stage
//! executor with the same assertions. `DIBELLA_SEED_MODE`
//! (`reliable` | `minimizer`) selects the seed front end, so the same
//! smoke also covers the minimizer sketch path. A `faulty:...` transport
//! runs the same assertions under injected faults — the hardened
//! exchange layer must make chaos invisible to all of them — and
//! `DIBELLA_EXPECT_FAULTS=1` additionally requires that the fault
//! counters prove faults were actually injected and survived.

use dibella::prelude::*;
use std::time::Instant;

/// Tiny deterministic dataset → 2-rank pipeline → overlaps found, reports
/// consistent, and the whole thing is fast.
#[test]
fn two_rank_pipeline_smoke() {
    let t0 = Instant::now();

    // A 4 kb pseudo-random genome sliced into 30 overlapping error-free
    // reads (stride 120, length 400: every adjacent pair shares 280 bases).
    let mut state = 0x5EED_CAFEu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let genome: Vec<u8> = (0..4_000).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
    let reads: ReadSet = (0..30u32)
        .map(|i| Read::new(i, format!("r{i}"), genome[i as usize * 120..][..400].to_vec()))
        .collect();

    let transport: TransportKind = std::env::var("DIBELLA_TRANSPORT")
        .ok()
        .map(|v| v.parse().expect("DIBELLA_TRANSPORT"))
        .unwrap_or_default();
    let round_bytes: usize = std::env::var("DIBELLA_ROUND_MB")
        .ok()
        .map(|v| {
            let mb: f64 = v
                .parse()
                .ok()
                .filter(|&m| m > 0.0)
                .expect("DIBELLA_ROUND_MB: positive MiB");
            (mb * (1 << 20) as f64) as usize
        })
        .unwrap_or(usize::MAX);
    let cfg = PipelineConfig {
        k: 15,
        depth: 3.0,
        error_rate: 0.0,
        max_multiplicity: Some(16),
        transport,
        max_exchange_bytes_per_round: round_bytes,
        threads: Some(PipelineConfig::env_threads()),
        seed_mode: PipelineConfig::env_seed_mode(),
        ..Default::default()
    };
    let res = run_pipeline(&reads, 2, &cfg);

    // Adjacent slices overlap by 280 bases — the pipeline must find pairs
    // and align them with positive scores.
    assert!(res.n_pairs() >= 20, "expected >= 20 overlap pairs, got {}", res.n_pairs());
    assert!(!res.alignments.is_empty());
    assert!(res.alignments.iter().all(|a| a.score > 0 && a.pair.a < a.pair.b));
    assert_eq!(res.reports.len(), 2, "one report per rank");
    // Streaming-exchange accounting holds at any round cap: each stage's
    // irregular-collective count equals its executed rounds, and no round
    // exceeded the configured byte cap by more than one record.
    for r in &res.reports {
        assert_eq!(r.bloom_comm.alltoallv_calls, r.bloom.rounds);
        assert_eq!(r.hash_comm.alltoallv_calls, r.hash.rounds);
        assert_eq!(r.overlap_comm.alltoallv_calls, r.overlap.rounds);
        assert_eq!(r.align_comm.alltoallv_calls, r.align.rounds);
        if round_bytes != usize::MAX {
            for c in [&r.bloom_comm, &r.hash_comm, &r.overlap_comm, &r.align_comm] {
                assert!(c.peak_round_bytes <= round_bytes as u64 + 8 + 400);
            }
        }
    }

    // Robustness counters: a clean transport must record none; a chaos
    // transport must have survived whatever it injected (every assertion
    // above already ran on its output). CI's chaos matrix sets
    // DIBELLA_EXPECT_FAULTS=1 to insist that its fixed-seed spec really
    // did inject something — guarding against a silently disabled
    // injector passing the smoke vacuously.
    let survived: u64 = res
        .reports
        .iter()
        .map(|r| {
            let c = r.total_comm();
            c.frames_corrupt_detected + c.frames_retransmitted + c.duplicates_dropped
                + c.wait_timeouts
        })
        .sum();
    if matches!(cfg.transport, TransportKind::Faulty(_)) {
        if std::env::var("DIBELLA_EXPECT_FAULTS").as_deref() == Ok("1") {
            assert!(survived > 0, "chaos transport injected no faults");
        }
    } else {
        assert_eq!(survived, 0, "clean transport recorded fault counters");
    }

    // A cap under one record turns every k-mer window into a round of
    // its own — thousands of rank-to-rank hand-offs whose cost is the
    // host's scheduler, not the pipeline — so that leg gets a wider budget.
    let budget = if round_bytes < 1024 { 60.0 } else { 5.0 };
    let elapsed = t0.elapsed();
    assert!(elapsed.as_secs_f64() < budget, "smoke test too slow: {elapsed:?}");
}
