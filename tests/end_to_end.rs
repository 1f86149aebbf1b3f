//! End-to-end integration tests over the whole workspace: synthetic
//! PacBio-like data → full distributed pipeline → ground-truth recall,
//! precision, baseline agreement and strand invariance; and the
//! determinism matrix's rows on noisy reads (the matrix lives in
//! `tests/common/matrix.rs`): world size, round cap and input path.

mod common;

use common::matrix::{check, Row, NOISY};
use common::{toy_cfg, toy_dataset};
use dibella::datagen::ecoli_30x_like;
use dibella::prelude::*;
use std::collections::HashSet;

/// The headline scientific claim: overlapping noisy long reads are found
/// via shared reliable k-mers with high recall.
#[test]
fn recall_on_noisy_reads() {
    let ds = toy_dataset(1);
    let res = run_pipeline(&ds.reads, 4, &toy_cfg());
    let found: HashSet<(u32, u32)> = res.alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect();
    let truth = ds.true_overlaps(1_000);
    assert!(truth.len() > 50, "weak test: only {} true pairs", truth.len());
    let recalled = truth.iter().filter(|p| found.contains(p)).count();
    let recall = recalled as f64 / truth.len() as f64;
    assert!(recall >= 0.95, "recall {recall:.3} below 95%");
}

/// Alignments returned must correspond to genuinely similar reads: every
/// accepted record with a solid score is a true genomic overlap.
#[test]
fn precision_of_confident_alignments() {
    let ds = toy_dataset(2);
    let cfg = PipelineConfig { min_align_score: 300, ..toy_cfg() };
    let res = run_pipeline(&ds.reads, 3, &cfg);
    assert!(!res.alignments.is_empty());
    let truth: HashSet<(u32, u32)> = ds.true_overlaps(200).into_iter().collect();
    let bad: Vec<_> = res
        .alignments
        .iter()
        .filter(|a| !truth.contains(&(a.pair.a, a.pair.b)))
        .collect();
    assert!(
        bad.len() * 50 <= res.alignments.len(),
        "{} of {} confident alignments are not true overlaps",
        bad.len(),
        res.alignments.len()
    );
}

/// The DALIGNER-style baseline and the distributed pipeline implement the
/// same overlap semantics: identical filtering and kernel ⇒ identical
/// alignment sets.
#[test]
fn baseline_agrees_with_pipeline() {
    let ds = toy_dataset(5);
    let cfg = toy_cfg();
    let pipe = run_pipeline(&ds.reads, 4, &cfg);
    let bres = dibella::baseline::run_baseline(
        &ds.reads,
        &dibella::baseline::BaselineConfig {
            k: cfg.k,
            max_multiplicity: cfg.multiplicity_threshold(),
            seed_min_distance: None, // Single policy
            max_seeds_per_pair: cfg.max_seeds_per_pair,
            xdrop: cfg.xdrop,
            scoring: cfg.scoring,
            min_score: cfg.min_align_score,
        },
    );
    let pipe_set: Vec<(u32, u32, bool, i32)> = pipe
        .alignments
        .iter()
        .map(|a| (a.pair.a, a.pair.b, a.reverse, a.score))
        .collect();
    let base_set: Vec<(u32, u32, bool, i32)> = bres
        .alignments
        .iter()
        .map(|a| (a.a, a.b, a.reverse, a.score))
        .collect();
    assert_eq!(pipe_set, base_set);
}

/// Baseline and pipeline call the same kernel entry on the same dispatch,
/// so agreement goes past pairs and scores: under a multi-seed policy
/// (several extensions per staged read pair) every record's extents and
/// DP-cell count are equal too.
#[test]
fn baseline_records_equal_pipeline_records() {
    let ds = toy_dataset(5);
    let cfg = PipelineConfig { seed_policy: SeedPolicy::MinDistance(300), ..toy_cfg() };
    let pipe = run_pipeline(&ds.reads, 4, &cfg);
    let bres = dibella::baseline::run_baseline(
        &ds.reads,
        &dibella::baseline::BaselineConfig {
            k: cfg.k,
            max_multiplicity: cfg.multiplicity_threshold(),
            seed_min_distance: Some(300),
            max_seeds_per_pair: cfg.max_seeds_per_pair,
            xdrop: cfg.xdrop,
            scoring: cfg.scoring,
            min_score: cfg.min_align_score,
        },
    );
    type Record = (u32, u32, bool, i32, u32, u32, u32, u32, u64);
    let mut pipe_set: Vec<Record> = pipe
        .alignments
        .iter()
        .map(|a| {
            (a.pair.a, a.pair.b, a.reverse, a.score, a.a_start, a.a_end, a.b_start, a.b_end, a.cells)
        })
        .collect();
    let mut base_set: Vec<Record> = bres
        .alignments
        .iter()
        .map(|a| (a.a, a.b, a.reverse, a.score, a.a_start, a.a_end, a.b_start, a.b_end, a.cells))
        .collect();
    pipe_set.sort_unstable();
    base_set.sort_unstable();
    assert!(pipe_set.len() > pipe.n_pairs(), "policy must explore several seeds per pair");
    assert_eq!(pipe_set, base_set);
}

/// Reverse-complement orientation handling end to end: flipping every
/// read's strand must not change which pairs are found.
#[test]
fn strand_invariance() {
    let ds = toy_dataset(6);
    let cfg = toy_cfg();
    let forward = run_pipeline(&ds.reads, 2, &cfg);

    let flipped: ReadSet = ds
        .reads
        .iter()
        .map(|r| {
            Read::new(
                r.id,
                r.name.clone(),
                dibella::kmer::base::reverse_complement_ascii(&r.seq),
            )
        })
        .collect();
    let reversed = run_pipeline(&flipped, 2, &cfg);

    let pairs = |res: &PipelineResult| -> HashSet<(u32, u32)> {
        res.alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect()
    };
    let a = pairs(&forward);
    let b = pairs(&reversed);
    let common = a.intersection(&b).count();
    // Canonical k-mers make discovery strand-independent; allow a tiny
    // fringe from boundary effects.
    assert!(
        common * 100 >= a.len() * 97 && common * 100 >= b.len() * 97,
        "pair sets differ: {} vs {} (common {common})",
        a.len(),
        b.len()
    );
}

/// The E. coli 30×-like preset at small scale exercises every stage and
/// meets the paper's filtering expectations (most k-mers are singletons;
/// retained fraction is small).
#[test]
fn ecoli_preset_statistics() {
    let ds = ecoli_30x_like(0.004, 9);
    let cfg = PipelineConfig { k: 17, depth: 30.0, error_rate: 0.15, ..Default::default() };
    let res = run_pipeline(&ds.reads, 4, &cfg);
    let singles: u64 = res.reports.iter().map(|r| r.filter.singletons_removed).sum();
    let retained: u64 = res.reports.iter().map(|r| r.filter.retained).sum();
    let highf: u64 = res.reports.iter().map(|r| r.filter.high_freq_removed).sum();
    let kmers: u64 = res.reports.iter().map(|r| r.bloom.kmers_received).sum();
    // The front end's ledger: every clean window is packed once, arrives
    // once and is swept once from the owner-run records the owners kept —
    // exactly the bytes the Bloom pass shipped; the hash pass parses and
    // exchanges nothing.
    let sum = |f: &dyn Fn(&dibella::pipeline::RankReport) -> u64| res.reports.iter().map(f).sum::<u64>();
    let clean_windows: u64 =
        ds.reads.iter().map(|r| dibella::kmer::KmerIter::<1>::new(&r.seq, 17).count() as u64).sum();
    assert_eq!(kmers, clean_windows);
    assert_eq!(sum(&|r| r.bloom.kmers_parsed), clean_windows);
    assert_eq!(sum(&|r| r.hash.kmers_received), clean_windows);
    assert_eq!(sum(&|r| r.hash.kmers_parsed), 0);
    assert_eq!(sum(&|r| r.hash_comm.total_bytes()), 0);
    assert_eq!(sum(&|r| r.hash_comm.alltoallv_calls), 0);
    assert_eq!(sum(&|r| r.bloom.retained_bytes), sum(&|r| r.bloom_comm.total_bytes()));
    // §6: up to 98% of long-read k-mers are singletons. At 15% error and
    // k=17 the singleton fraction of the distinct set is overwhelming.
    // The Bloom filter already absorbed most singletons: table keys ≪ bag.
    let table_total = singles + retained + highf;
    assert!(
        table_total < kmers / 2,
        "Bloom filter ineffective: {table_total} keys from {kmers} k-mers"
    );
    assert!(retained > 0);
    // Retained set is a small fraction of the k-mer bag (filtering
    // reduces the k-mer set by 85–98%, §9).
    assert!(
        (retained as f64) < 0.15 * kmers as f64,
        "retained fraction too high: {retained}/{kmers}"
    );
    // And overlaps were actually found.
    assert!(res.n_pairs() > 100);
}

/// Noisy reads on worlds of 1, 2, 5 and 16 ranks.
#[test]
fn world_size_invariance_on_noisy_data() {
    check(&[Row { ranks: &[1, 2, 5, 16], ..NOISY }]);
}

/// Noisy reads read off FASTQ bytes.
#[test]
fn fastq_round_trip_pipeline() {
    check(&[Row { ranks: &[4], fastq: &[true], ..NOISY }]);
}

/// Noisy reads under k-mer budgets of 512 and 4 Mi per round.
#[test]
fn round_cap_invariance() {
    check(&[Row { ranks: &[3], kmers_per_round: &[512, 1 << 22], ..NOISY }]);
}
