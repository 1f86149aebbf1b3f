//! Figure 4 — Bloom filter stage efficiency breakdown on AWS (packing,
//! exchanging, local processing, overall), strong scaling relative to one
//! node, E. coli 30× one-seed, 16 ranks per node.
use dibella_bench::*;
use dibella_core::{project, Stage};
use dibella_netmodel::{cache_penalty, op_costs, strong_efficiency, NodeMapping, Series, AWS};
use dibella_overlap::SeedPolicy;

/// (packing, local-processing, exchanging, overall) seconds at `nodes`.
fn components(cache: &mut ReportCache, nodes: usize) -> (f64, f64, f64, f64) {
    let mapping = NodeMapping::for_platform(&AWS, nodes);
    let reports = cache.reports(Workload::E30, SeedPolicy::Single, mapping.ranks());
    // Split the Bloom stage's local model into its packing (sender-side)
    // and processing (owner-side) parts, both cache-adjusted.
    let mut packing: f64 = 0.0;
    let mut processing: f64 = 0.0;
    for r in reports.iter() {
        let pen = cache_penalty(
            r.bloom_bytes as f64 + r.table_keys as f64 * 32.0,
            AWS.cache_per_core,
        );
        // As `dibella_core::rank_load` charges them: the sender's minimizer
        // scan + owner-run pack, the owner's roll + filter probe.
        let pack = r.bloom.kmers_parsed as f64 * op_costs::NS_PER_KMER_PACK * 1e-9 / AWS.core_perf * pen;
        let per_received = op_costs::NS_PER_KMER_ROLL + op_costs::NS_PER_KMER_BLOOM;
        let proc = r.bloom.kmers_received as f64 * per_received * 1e-9 / AWS.core_perf * pen;
        packing = packing.max(pack);
        processing = processing.max(proc);
    }
    let proj = project(&AWS, mapping, &reports);
    let exchanging = proj.stage(Stage::Bloom).max_exchange();
    let overall = proj.stage(Stage::Bloom).stage_seconds();
    (packing, processing, exchanging, overall)
}

fn main() {
    let mut cache = ReportCache::new();
    let base = components(&mut cache, 1);
    let mut pack_s = Vec::new();
    let mut proc_s = Vec::new();
    let mut exch_s = Vec::new();
    let mut over_s = Vec::new();
    for &nodes in &NODE_COUNTS {
        let (p, l, e, o) = components(&mut cache, nodes);
        pack_s.push((nodes, strong_efficiency(base.0, p, nodes)));
        proc_s.push((nodes, strong_efficiency(base.1, l, nodes)));
        exch_s.push((nodes, strong_efficiency(base.2, e, nodes)));
        over_s.push((nodes, strong_efficiency(base.3, o, nodes)));
    }
    let series = vec![
        Series::new("Packing Efficiency", pack_s),
        Series::new("Exchanging Efficiency", exch_s),
        Series::new("Local Processing Efficiency", proc_s),
        Series::new("Overall Efficiency", over_s),
    ];
    print_figure(
        "Figure 4: Bloom Filter Efficiency on AWS (relative to 1 node), E.coli 30x one-seed",
        &NODE_COUNTS,
        &series,
    );
}
