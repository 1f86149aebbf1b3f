//! Integration tests of the cross-architecture projection: the paper's
//! qualitative cross-platform facts must hold when real pipeline runs are
//! projected through the cost model.

use dibella::datagen::ecoli_30x_like;
use dibella::netmodel::{
    first_alltoallv_setup_s, stage_cost, NodeMapping, AWS, CORI, EDISON, TITAN,
};
use dibella::pipeline::{project, rank_load, run_pipeline, Stage};
use dibella::prelude::*;

fn reports_for(ranks: usize) -> std::sync::Arc<Vec<dibella::pipeline::RankReport>> {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Vec<dibella::pipeline::RankReport>>>>> =
        OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&ranks) {
        return Arc::clone(hit);
    }
    let ds = ecoli_30x_like(0.004, 42);
    let cfg = PipelineConfig { k: 17, depth: 30.0, error_rate: 0.15, ..Default::default() };
    let reports = Arc::new(run_pipeline(&ds.reads, ranks, &cfg).reports);
    cache.lock().unwrap().insert(ranks, Arc::clone(&reports));
    reports
}

/// §10: "the more powerful Haswell CPU nodes and network on Cori (XC40)
/// giving superior overall performance" — at equal node counts the full
/// pipeline is fastest on Cori.
#[test]
fn cori_wins_overall() {
    let nodes = 2usize;
    let mut totals = Vec::new();
    for p in [&CORI, &EDISON, &TITAN, &AWS] {
        let mapping = NodeMapping::for_platform(p, nodes);
        let reports = reports_for(mapping.ranks());
        let proj = project(p, mapping, &reports);
        totals.push((p.name, proj.total_seconds()));
    }
    let cori = totals[0].1;
    for &(name, t) in &totals[1..] {
        assert!(cori < t, "Cori ({cori:.4}s) not faster than {name} ({t:.4}s)");
    }
}

/// §5: "the AWS node has similar performance to a Titan CPU node" — at a
/// single node (16 ranks each) their pipeline times are within 2×.
#[test]
fn aws_similar_to_titan_single_node() {
    let mapping = NodeMapping::new(1, 16);
    let reports = reports_for(16);
    let titan = project(&TITAN, mapping, &reports).total_seconds();
    let aws = project(&AWS, mapping, &reports).total_seconds();
    let ratio = titan / aws;
    assert!((0.5..2.0).contains(&ratio), "Titan/AWS = {ratio:.2}");
}

/// §10 and Fig. 12: exchange efficiency degrades fastest on the commodity
/// AWS network.
#[test]
fn aws_exchange_degrades_fastest() {
    let degradation = |p: &'static dibella::netmodel::Platform| {
        let m1 = NodeMapping::for_platform(p, 1);
        let m4 = NodeMapping::for_platform(p, 4);
        let e1 = project(p, m1, &reports_for(m1.ranks())).exchange_seconds();
        let e4 = project(p, m4, &reports_for(m4.ranks())).exchange_seconds();
        // Strong-scaling exchange efficiency 1 → 4 nodes.
        e1 / (4.0 * e4)
    };
    let aws = degradation(&AWS);
    let cori = degradation(&CORI);
    assert!(
        aws < cori,
        "AWS exchange efficiency ({aws:.3}) should degrade below Cori's ({cori:.3})"
    );
}

/// §6/§10: the first-Alltoallv anomaly — the job's first irregular
/// exchange pays the set-up cost, and that is the Bloom stage's. (The
/// paper saw it as a Bloom exchange dearer than the hash exchange despite
/// 2.5× less volume; here the hash stage sweeps the records the Bloom
/// pass left with each owner and exchanges nothing at all.)
#[test]
fn first_alltoallv_anomaly_reproduced() {
    let mapping = NodeMapping::for_platform(&CORI, 1);
    let reports = reports_for(mapping.ranks());
    for r in reports.iter() {
        assert!(r.bloom_comm.total_bytes() > 0 && r.bloom_comm.alltoallv_calls > 0);
        assert_eq!((r.hash_comm.total_bytes(), r.hash_comm.alltoallv_calls), (0, 0));
    }
    let proj = project(&CORI, mapping, &reports);
    assert_eq!(proj.stage(Stage::Hash).max_exchange(), 0.0, "the hash stage exchanges nothing");
    // The same Bloom loads costed as a steady-state stage: what is left is
    // the set-up, at least its per-peer connection term.
    let loads: Vec<_> = reports.iter().map(|r| rank_load(r, Stage::Bloom)).collect();
    let steady = stage_cost(&CORI, mapping, &loads, false).max_exchange();
    let setup = proj.stage(Stage::Bloom).max_exchange() - steady;
    assert!(
        setup >= first_alltoallv_setup_s(&CORI, mapping.ranks(), 0.0),
        "Bloom exchange should absorb the first-call setup cost, carries {setup:.6} s over steady state"
    );
}

/// Fig. 8: the alignment stage's load imbalance exceeds 1 and grows as
/// ranks multiply (fewer tasks per rank → larger variance), while the
/// task-count balance itself stays near-perfect (§9: "less than 0.002%"
/// — near-perfect at paper scale; tasks-per-rank spread stays tiny here).
#[test]
fn alignment_imbalance_grows_with_scale() {
    let im = |nodes: usize| {
        let mapping = NodeMapping::for_platform(&CORI, nodes);
        let reports = reports_for(mapping.ranks());
        project(&CORI, mapping, &reports)
            .stage(Stage::Align)
            .imbalance()
    };
    let i1 = im(1);
    let i8 = im(8);
    assert!(i1 >= 1.0 && i8 >= 1.0);
    assert!(i8 > i1, "imbalance should grow: {i1:.3} → {i8:.3}");
}

/// The number of alignments per rank is balanced by the odd/even
/// heuristic even when their costs are not (§8–§9).
#[test]
fn task_count_balance() {
    let reports = reports_for(8);
    let counts: Vec<u64> = reports.iter().map(|r| r.align.alignments).collect();
    let max = *counts.iter().max().unwrap() as f64;
    let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    assert!(avg > 0.0);
    assert!(max / avg < 1.35, "task counts imbalanced: {counts:?}");
}

/// Strong scaling helps every platform (Fig. 13: "all of the systems show
/// increasing performance on increased node counts").
#[test]
fn everyone_speeds_up_with_nodes() {
    for p in [&CORI, &EDISON, &TITAN, &AWS] {
        let m1 = NodeMapping::for_platform(p, 1);
        let m8 = NodeMapping::for_platform(p, 8);
        let t1 = project(p, m1, &reports_for(m1.ranks())).total_seconds();
        let t8 = project(p, m8, &reports_for(m8.ranks())).total_seconds();
        assert!(t8 < t1, "{}: {t1:.4} → {t8:.4}", p.name);
    }
}
