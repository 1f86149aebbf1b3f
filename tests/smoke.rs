//! Fast CI smoke signal: one tiny end-to-end pipeline run on a 2-rank
//! world, designed to finish in well under 5 seconds so a broken build is
//! caught before the heavier suites run. It reads no environment: the
//! transports, round caps, threads, seed front ends and injected faults
//! it once took from environment variables are rows of
//! `tests/invariant.rs`.

mod common;

use common::{faults_survived, genome_slice};
use dibella::prelude::*;
use std::time::Instant;

/// Tiny deterministic dataset → 2-rank pipeline → overlaps found, reports
/// consistent, and the whole thing is fast.
#[test]
fn two_rank_pipeline_smoke() {
    let t0 = Instant::now();

    // 30 overlapping error-free reads (stride 120, length 400: every
    // adjacent pair shares 280 bases).
    let reads = genome_slice(30, 400, 120, 0x5EED_CAFE);
    let cfg = PipelineConfig {
        k: 15,
        depth: 3.0,
        error_rate: 0.0,
        max_multiplicity: Some(16),
        ..Default::default()
    };
    let res = run_pipeline(&reads, 2, &cfg);

    // Adjacent slices overlap by 280 bases — the pipeline must find pairs
    // and align them with positive scores.
    assert!(res.n_pairs() >= 20, "expected >= 20 overlap pairs, got {}", res.n_pairs());
    assert!(!res.alignments.is_empty());
    assert!(res.alignments.iter().all(|a| a.score > 0 && a.pair.a < a.pair.b));
    assert_eq!(res.reports.len(), 2, "one report per rank");
    // Each stage's irregular-collective count equals its executed rounds.
    for r in &res.reports {
        assert_eq!(r.bloom_comm.alltoallv_calls, r.bloom.rounds);
        assert_eq!(r.hash_comm.alltoallv_calls, r.hash.rounds);
        assert_eq!(r.overlap_comm.alltoallv_calls, r.overlap.rounds);
        assert_eq!(r.align_comm.alltoallv_calls, r.align.rounds);
    }
    assert_eq!(faults_survived(&res), 0, "clean transport recorded fault counters");

    let elapsed = t0.elapsed();
    assert!(elapsed.as_secs_f64() < 5.0, "smoke test too slow: {elapsed:?}");
}
