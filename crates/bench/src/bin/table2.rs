//! Table 2 — single-node wall-clock comparison (I/O excluded): the
//! diBELLA pipeline versus the DALIGNER-style sort-merge baseline on
//! E. coli 30× (sample), 30× and 100×. Real measured seconds on this
//! host (absolute values are host-dependent; the paper's relation —
//! competitive, with DALIGNER somewhat ahead single-node — is the
//! reproduction target).
use dibella_baseline::{run_baseline, BaselineConfig};
use dibella_bench::*;
use dibella_core::run_pipeline;
use dibella_overlap::SeedPolicy;
use std::time::Instant;

fn main() {
    // The paper uses 64 threads on a Cori Haswell node; this host is
    // smaller, so choose a world size near its parallelism.
    let ranks: usize = env_knob(
        "DIBELLA_TABLE2_RANKS",
        std::thread::available_parallelism().map(|n| n.get() * 2).unwrap_or(4),
    );
    println!("# Table 2: single node runtime (s), I/O excluded, {ranks} ranks / rayon threads");
    println!("workload\tdiBELLA(s)\tDALIGNER-style(s)\tdiBELLA pairs\tbaseline pairs");
    for w in [Workload::E30Sample, Workload::E30, Workload::E100] {
        let ds = dataset(w);
        let cfg = config_for(w, SeedPolicy::Single);
        let t = Instant::now();
        let res = run_pipeline(&ds.reads, ranks, &cfg);
        let t_pipeline = t.elapsed().as_secs_f64();

        let bcfg = BaselineConfig {
            k: cfg.k,
            max_multiplicity: cfg.multiplicity_threshold(),
            seed_min_distance: None,
            max_seeds_per_pair: cfg.max_seeds_per_pair,
            xdrop: cfg.xdrop,
            scoring: cfg.scoring,
            min_score: cfg.min_align_score,
        };
        let t = Instant::now();
        let base = run_baseline(&ds.reads, &bcfg);
        let t_base = t.elapsed().as_secs_f64();
        println!(
            "{}\t{:.2}\t{:.2}\t{}\t{}",
            w.name(),
            t_pipeline,
            t_base,
            res.n_pairs(),
            base.n_pairs
        );
    }
}
