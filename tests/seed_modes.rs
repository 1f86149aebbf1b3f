//! Seed front-end comparison: what the minimizer sketch buys, and that it
//! buys it without giving up the overlaps the pipeline exists to find.
//!
//! On the sampled E. coli 30× workload the sketch must hand its owners at
//! least 3.5× fewer seed k-mers than the reliable front end while
//! recovering at least 95% of the ground-truth overlap pairs the reliable
//! mode finds. It no longer saves wire bytes: the reliable front end ships
//! every k-mer inside owner-run records (~2.8 B per k-mer at k = 17 on 4
//! ranks) and exchanges once, the sketch ships a quarter of the k-mers as
//! stand-alone 20-byte records — 1.80× the reliable bytes here, recorded
//! by the test. The minimizer front end's determinism across threads and
//! round caps is a row of the determinism matrix
//! (`tests/common/matrix.rs`), run here; across world sizes and
//! transports it is a row of `tests/invariant.rs`.

mod common;

use common::matrix::{check, Row, KIB4, SLICE, UNBOUNDED};
use dibella::datagen::ecoli_30x_sample_like;
use dibella::prelude::*;
use std::collections::BTreeSet;

const RANKS: usize = 4;

/// Distinct aligned pairs of a run.
fn found_pairs(res: &dibella::pipeline::PipelineResult) -> BTreeSet<(ReadId, ReadId)> {
    res.alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect()
}

/// Seed-stage (bloom + hash) wire bytes of a run.
fn seed_bytes(res: &dibella::pipeline::PipelineResult) -> u64 {
    res.reports
        .iter()
        .map(|r| r.bloom_comm.total_bytes() + r.hash_comm.total_bytes())
        .sum()
}

/// The bench harness's sample-workload configuration (`config_for`),
/// pinned here so the test is deterministic.
fn sample_cfg(seed_mode: SeedMode) -> PipelineConfig {
    PipelineConfig {
        k: 17,
        depth: 30.0,
        error_rate: 0.15,
        seed_policy: SeedPolicy::Single,
        max_seeds_per_pair: 4,
        seed_mode,
        ..Default::default()
    }
}

/// The headline trade: ≥ 3.5× fewer seed k-mers at the owners, ≥ 95% of
/// the ground-truth pairs the reliable mode finds — at 1.8× the wire bytes.
#[test]
fn minimizer_mode_keeps_recall_and_cuts_owner_kmers() {
    let ds = ecoli_30x_sample_like(0.01, 42);
    let truth: BTreeSet<(ReadId, ReadId)> = ds.true_overlaps(2_000).into_iter().collect();
    assert!(!truth.is_empty(), "sample workload must have ground-truth overlaps");

    let reliable = run_pipeline(&ds.reads, RANKS, &sample_cfg(SeedMode::Reliable));
    let minimizer = run_pipeline(&ds.reads, RANKS, &sample_cfg(SeedMode::Minimizer));

    // Owner-side work: reliable owners see every k-mer (and sweep it a
    // second time), sketch owners ~2/(w + 1) of them, once.
    let owner_kmers = |res: &dibella::pipeline::PipelineResult| -> u64 {
        res.reports.iter().map(|r| r.bloom.kmers_received.max(r.hash.kmers_received)).sum()
    };
    let (rk, mk) = (owner_kmers(&reliable), owner_kmers(&minimizer));
    let kmer_ratio = rk as f64 / mk as f64;
    eprintln!("owner k-mers: reliable {rk}, minimizer {mk}, ratio {kmer_ratio:.2}x");
    assert!(kmer_ratio >= 3.5, "sketch must hand owners >= 3.5x fewer k-mers, got {kmer_ratio:.2}x");

    // Byte ratio, recorded: reliable ships one pass of owner-run records
    // (2-bit bases, ~2.8 B per k-mer here), the sketch one 20-byte record
    // per selected k-mer — the sketch is the dearer front end on the wire
    // (measured 1.80x), where it used to be >= 4x cheaper against the
    // 8 B + 20 B per k-mer of stand-alone reliable records.
    let (rb, mb) = (seed_bytes(&reliable), seed_bytes(&minimizer));
    let byte_ratio = mb as f64 / rb as f64;
    eprintln!("seed-stage bytes: reliable {rb}, minimizer {mb}, minimizer/reliable {byte_ratio:.2}x");
    assert!(
        (1.2..2.5).contains(&byte_ratio),
        "sketch bytes over reliable bytes moved off the measured 1.80x: {byte_ratio:.2}x"
    );

    // Recall against the pairs the reliable mode finds that are real
    // overlaps (>= 2 kb of true genome intersection).
    let target: BTreeSet<_> = found_pairs(&reliable).intersection(&truth).copied().collect();
    assert!(!target.is_empty(), "reliable mode must find ground-truth pairs");
    let kept = found_pairs(&minimizer).intersection(&target).count();
    let recall = kept as f64 / target.len() as f64;
    eprintln!(
        "recall: minimizer recovers {kept}/{} reliable-found true pairs ({:.1}%)",
        target.len(),
        recall * 100.0
    );
    assert!(recall >= 0.95, "minimizer recall {recall:.3} below 0.95");
}

/// The minimizer front end on 2 and 4 threads, in one round and in 4 KiB
/// rounds.
#[test]
fn minimizer_mode_bit_identical_across_threads_transports_and_caps() {
    check(&[Row { modes: &[SeedMode::Minimizer], threads: &[2, 4], caps: &[UNBOUNDED, KIB4], ..SLICE }]);
}
