//! Integration tests of the pluggable transport layer: running the full
//! pipeline over the netmodel-driven `SimNet` backend must change *only*
//! the reported exchange timings — never the science — and those timings
//! must agree with the analytic cross-architecture projection, making the
//! Figure 3–13 model validatable against an executed run.

use dibella::netmodel::{collective_latency_s, NodeMapping, CORI};
use dibella::pipeline::{project, RankReport, Stage};
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

fn cfg(transport: TransportKind) -> PipelineConfig {
    PipelineConfig {
        k: 11,
        seed_policy: SeedPolicy::MinDistance(11),
        max_seeds_per_pair: 32,
        max_kmers_per_round: 1 << 20,
        max_multiplicity: Some(24),
        transport,
        ..Default::default()
    }
}

fn sim(platform: PlatformId, ranks_per_node: usize) -> TransportKind {
    TransportKind::SimNet(SimNetConfig { platform, ranks_per_node })
}

/// Per-stage traffic of one rank, in pipeline order.
fn stage_comms(r: &RankReport) -> [&dibella::comm::CommStats; 4] {
    [&r.bloom_comm, &r.hash_comm, &r.overlap_comm, &r.align_comm]
}

/// The headline invariant: `SimNet` changes timing, never payloads.
/// Alignments and every traffic counter are byte-identical to `SharedMem`
/// at every world size.
#[test]
fn simnet_results_byte_identical_to_sharedmem() {
    let reads = dataset(12, 150, 50, 7);
    for p in [1usize, 2, 4] {
        let real = run_pipeline(&reads, p, &cfg(TransportKind::SharedMem));
        let simulated = run_pipeline(&reads, p, &cfg(sim(PlatformId::Aws, 2)));
        assert_eq!(
            real.alignments, simulated.alignments,
            "P={p}: SimNet must not change alignments"
        );
        for (a, b) in real.reports.iter().zip(&simulated.reports) {
            for (ca, cb) in stage_comms(a).iter().zip(stage_comms(b)) {
                assert_eq!(ca.dest_bytes, cb.dest_bytes, "P={p} rank {}", a.rank);
                assert_eq!(ca.dest_msgs, cb.dest_msgs);
                assert_eq!(ca.alltoallv_calls, cb.alltoallv_calls);
                assert_eq!(ca.dense_collectives, cb.dense_collectives);
            }
        }
    }
}

/// The paper's cross-platform argument, executed rather than projected: the
/// same run reports strictly larger exchange walls on the Ethernet-like
/// AWS platform than on Aries-backed Cori, per rank and per stage that
/// exchanges — the hash stage sweeps local records and has no exchange
/// wall on either.
#[test]
fn ethernet_exchange_strictly_slower_than_aries() {
    let reads = dataset(12, 150, 50, 7);
    let aries = run_pipeline(&reads, 4, &cfg(sim(PlatformId::CoriXC40, 2)));
    let ethernet = run_pipeline(&reads, 4, &cfg(sim(PlatformId::Aws, 2)));
    for (c, a) in aries.reports.iter().zip(&ethernet.reports) {
        let mut exchanging = 0;
        for (sc, sa) in stage_comms(c).iter().zip(stage_comms(a)) {
            if sc.alltoallv_calls + sc.dense_collectives == 0 {
                assert_eq!((sc.exchange_wall, sa.exchange_wall), Default::default());
                continue;
            }
            exchanging += 1;
            assert!(
                sa.exchange_wall > sc.exchange_wall,
                "rank {}: AWS {:?} should exceed Cori {:?}",
                c.rank,
                sa.exchange_wall,
                sc.exchange_wall
            );
        }
        assert_eq!(exchanging, 3, "Bloom, overlap and alignment exchange");
        assert!(a.total_exchange() > c.total_exchange());
    }
}

/// End-to-end validation of the analytic model: the `exchange_wall` an
/// executed `SimNet` run reports must match what `model::project` predicts
/// from the same run's counters — both are functions of those counters
/// alone, so host load cannot move either. The only accounting difference
/// is that `SimNet` also charges dense collectives one latency each (the
/// analytic model folds those into nothing), so the expectation adds
/// `dense_collectives × (α + α_rank·P)` per rank and stage.
#[test]
fn simnet_timings_agree_with_model_projection() {
    let reads = dataset(12, 150, 50, 7);
    let ranks_per_node = 2;
    let p = 4;
    let res = run_pipeline(&reads, p, &cfg(sim(PlatformId::CoriXC40, ranks_per_node)));

    // With the round cap far above this workload, each k-mer pass issues
    // exactly one alltoallv — so SimNet's per-call first-Alltoallv charge
    // equals the model's per-average-call one and the comparison is exact
    // up to nanosecond rounding.
    for r in &res.reports {
        assert_eq!(r.bloom_comm.alltoallv_calls, 1, "expected a single Bloom round");
    }

    let mapping = NodeMapping::new(p / ranks_per_node, ranks_per_node);
    let proj = project(&CORI, mapping, &res.reports);
    let lat = collective_latency_s(&CORI, p);
    for (si, stage) in Stage::ALL.iter().enumerate() {
        let modeled = &proj.stage(*stage).exchange_s;
        for r in &res.reports {
            let comm = stage_comms(r)[si];
            let expected = modeled[r.rank] + comm.dense_collectives as f64 * lat;
            let got = comm.exchange_wall.as_secs_f64();
            // Each collective's charge is a `Duration`: one rounding to a
            // whole nanosecond per call, and nothing else.
            let rounding = 1e-9 * (comm.alltoallv_calls + comm.dense_collectives) as f64;
            assert!(
                (got - expected).abs() <= rounding,
                "{} rank {}: executed {got:.9e}s vs modeled {expected:.9e}s (allowed {rounding:.1e}s)",
                stage.name(),
                r.rank
            );
        }
    }
}

/// A single simulated rank still pays latency and on-node copies but has
/// zero off-rank traffic — the world-size edge case of the new backend.
#[test]
fn simnet_single_rank_world() {
    let reads = dataset(6, 120, 40, 5);
    let res = run_pipeline(&reads, 1, &cfg(sim(PlatformId::TitanXK7, 1)));
    assert!(!res.alignments.is_empty());
    let r = &res.reports[0];
    assert_eq!(r.bloom_comm.remote_bytes(0), 0);
    assert!(r.bloom_comm.exchange_wall.as_secs_f64() > 0.0);
}
