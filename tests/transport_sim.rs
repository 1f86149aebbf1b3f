//! Integration tests of the pluggable transport layer: the exchange
//! timings the netmodel-driven `SimNet` backend reports must agree with
//! the analytic cross-architecture projection, making the Figure 3–13
//! model validatable against an executed run. That `SimNet` never changes
//! the science is a row of the determinism matrix
//! (`tests/common/matrix.rs`), run here.

mod common;

use common::genome_slice;
use common::matrix::{check, Net, Row, NOISY, SLICE};
use dibella::netmodel::{collective_latency_s, NodeMapping, CORI};
use dibella::pipeline::{project, Stage};
use dibella::prelude::*;

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

/// The paper's cross-platform argument, executed rather than projected: the
/// same run reports strictly larger exchange walls on the Ethernet-like
/// AWS platform than on Aries-backed Cori, per rank and per stage that
/// exchanges — the hash stage sweeps local records and has no exchange
/// wall on either.
#[test]
fn ethernet_exchange_strictly_slower_than_aries() {
    let reads = genome_slice(12, 150, 50, 7);
    let aries = run_pipeline(&reads, 4, &cfg(sim(PlatformId::CoriXC40, 2)));
    let ethernet = run_pipeline(&reads, 4, &cfg(sim(PlatformId::Aws, 2)));
    for (c, a) in aries.reports.iter().zip(&ethernet.reports) {
        let mut exchanging = 0;
        for (sc, sa) in c.stage_comms().iter().zip(a.stage_comms()) {
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
    let reads = genome_slice(12, 150, 50, 7);
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
            let comm = r.stage_comms()[si];
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
    let reads = genome_slice(6, 120, 40, 5);
    let res = run_pipeline(&reads, 1, &cfg(sim(PlatformId::TitanXK7, 1)));
    assert!(!res.alignments.is_empty());
    let r = &res.reports[0];
    assert_eq!(r.bloom_comm.remote_bytes(0), 0);
    assert!(r.bloom_comm.exchange_wall.as_secs_f64() > 0.0);
}

/// The Ethernet-like simulated platform on 1, 2 and 4 ranks of the
/// genome slice, and on 2 ranks of the noisy reads.
#[test]
fn simnet_results_byte_identical_to_sharedmem() {
    check(&[Row { ranks: &[1, 2, 4], nets: &[Net::Aws], ..SLICE }, Row { ranks: &[2], nets: &[Net::Aws], ..NOISY }]);
}
