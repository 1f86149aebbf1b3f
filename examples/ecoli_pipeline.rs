//! The paper's E. coli 30× workload (scaled): full pipeline run with the
//! three seed policies of §5, reporting per-stage time, exchange volume,
//! recall against ground truth, and the reliable-k-mer statistics of §2.
//!
//! ```sh
//! cargo run --release --example ecoli_pipeline           # default 1% scale, 8 ranks
//! DIBELLA_SCALE=0.05 DIBELLA_RANKS=16 cargo run --release --example ecoli_pipeline
//! ```
//!
//! Threads per rank, the transport and the round cap are the CLI's
//! (`dibella overlap -t`, `--transport`, `--round-mb`); none of them
//! changes the output.

use dibella::datagen::ecoli_30x_like;
use dibella::prelude::*;

fn main() {
    let scale: f64 = positive_env("DIBELLA_SCALE", 0.01);
    let ranks: usize = positive_env("DIBELLA_RANKS", 8);

    println!("== E. coli 30x-like workload at scale {scale} ==");
    println!("{ranks} ranks");
    let ds = ecoli_30x_like(scale, 42);
    println!(
        "genome {:.0} kb | {} reads | {:.1} Mb | depth {:.1}x | mean read {:.0} bp",
        ds.genome.len() as f64 / 1e3,
        ds.reads.len(),
        ds.reads.total_bases() as f64 / 1e6,
        ds.realized_depth(),
        ds.mean_read_len()
    );
    let truth = ds.true_overlaps(2_000);
    println!("ground truth: {} overlapping pairs (≥ 2 kb)", truth.len());

    for (name, policy) in SeedPolicy::paper_settings(17) {
        let cfg = PipelineConfig {
            k: 17,
            depth: 30.0,
            error_rate: 0.15,
            seed_policy: policy,
            max_seeds_per_pair: 8,
            ..Default::default()
        };
        let t = std::time::Instant::now();
        let result = run_pipeline(&ds.reads, ranks, &cfg);
        let wall = t.elapsed();

        let found: std::collections::HashSet<(u32, u32)> =
            result.alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect();
        let recalled = truth.iter().filter(|p| found.contains(p)).count();

        // Aggregate statistics across ranks.
        let retained: u64 = result.reports.iter().map(|r| r.filter.retained).sum();
        let singles: u64 = result.reports.iter().map(|r| r.filter.singletons_removed).sum();
        let highf: u64 = result.reports.iter().map(|r| r.filter.high_freq_removed).sum();
        let kmers: u64 = result.reports.iter().map(|r| r.bloom.kmers_received).sum();
        let bytes: u64 = result
            .reports
            .iter()
            .map(|r| {
                r.bloom_comm.total_bytes()
                    + r.hash_comm.total_bytes()
                    + r.overlap_comm.total_bytes()
                    + r.align_comm.total_bytes()
            })
            .sum();
        let iota = retained as f64 / (retained + singles + highf).max(1) as f64;

        println!("\n-- seed policy: {name} ({ranks} ranks) --");
        println!(
            "  wall {:.2?} | pairs {} | alignments {} | recall(≥2kb) {:.1}%",
            wall,
            result.n_pairs(),
            result.n_alignments_computed(),
            100.0 * recalled as f64 / truth.len().max(1) as f64
        );
        println!(
            "  k-mer bag {kmers} | retained {retained} (ι_set = {iota:.3}) | singletons {singles} | >m {highf}"
        );
        println!("  exchanged {:.2} MB total", bytes as f64 / 1e6);
        let slowest = result.wall();
        println!("  slowest rank wall {slowest:.2?}");
    }
}

/// The environment knob `var` as a positive number, `default` when unset;
/// any other value stops the run with exit status 1.
fn positive_env<T: std::str::FromStr + PartialOrd + Default>(var: &str, default: T) -> T {
    let Some(raw) = std::env::var_os(var) else { return default };
    let raw = raw.to_string_lossy();
    match raw.trim().parse() {
        Ok(v) if v > T::default() => v,
        _ => {
            eprintln!("error: {var}: expected a positive number, got {raw:?}");
            std::process::exit(1)
        }
    }
}
