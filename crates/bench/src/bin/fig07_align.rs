//! Figure 7 — alignment stage cross-architecture strong scaling,
//! millions of alignments per second, E. coli 30× one-seed.
use dibella_bench::*;
use dibella_core::Stage;
use dibella_netmodel::mrate;
use dibella_overlap::SeedPolicy;

fn main() {
    let mut cache = ReportCache::new();
    let series = platform_series(&mut cache, Workload::E30, SeedPolicy::Single, |reports, proj, _| {
        mrate(total_alignments(reports), proj.stage(Stage::Align).stage_seconds())
    });
    print_figure(
        "Figure 7: Alignment Performance (M alignments/sec), E.coli 30x one-seed",
        &NODE_COUNTS,
        &series,
    );
}
