//! The overlap engine end to end: the `A·Aᵀ` stage ships what the seed
//! policy keeps, folded per pair at the source, never one record per
//! shared k-mer. That its output does not depend on world size,
//! transport, round cap, threads or row block is held by the determinism
//! matrix (`tests/common/matrix.rs`); its row-block row runs here.

mod common;

use common::assert_overlap_ledger;
use common::matrix::{check, Row, SLICE};
use dibella::datagen::{ecoli_30x_sample_like, simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec};
use dibella::pipeline::RankReport;
use dibella::prelude::*;

/// A 1 %-error HiFi-like read set: nearly every k-mer of an overlap is
/// shared, so a pair meets in thousands of instances — the regime where
/// shipping per instance costs two orders of magnitude over the fold.
fn hifi_like() -> ReadSet {
    let genome = GenomeSpec {
        size: 24_000,
        repeat_fraction: 0.03,
        repeat_unit_len: 700,
        repeat_families: 5,
        seed: 7,
    }
    .generate();
    let spec = ReadSimSpec {
        depth: 12.0,
        mean_len: 4_000,
        len_sigma: 0.35,
        min_len: 400,
        errors: ErrorModel::pacbio(0.01),
        seed: 7,
    };
    simulate_reads(&genome, &spec).reads
}

/// The byte claim, asserted on the committed sample workload and on
/// HiFi-like reads: under `Single` a source ships at most one 20-byte
/// record per pair it found, so the stage's bytes and its largest round
/// are bounded by `20 · pairs · ranks` — a return to one record per shared
/// k-mer fails here, not only in the repo benchmark.
#[test]
fn folded_records_bound_overlap_bytes() {
    const RANKS: usize = 4;
    let sample = PipelineConfig {
        k: 17,
        depth: 30.0,
        error_rate: 0.15,
        seed_policy: SeedPolicy::Single,
        max_seeds_per_pair: 4,
        ..Default::default()
    };
    let hifi = PipelineConfig { k: 21, depth: 12.0, error_rate: 0.01, ..sample.clone() };
    for (name, reads, base) in [
        ("sample", ecoli_30x_sample_like(0.01, 42).reads, sample),
        ("hifi-like", hifi_like(), hifi),
    ] {
        let res = run_pipeline(&reads, RANKS, &base);
        assert!(!res.alignments.is_empty(), "dead workload: {name}");
        assert_overlap_ledger(&res, name);
        let sum = |f: fn(&RankReport) -> u64| -> u64 { res.reports.iter().map(f).sum() };
        let pairs = sum(|r| r.overlap.pairs_consolidated);
        let bound = 20 * pairs * RANKS as u64;
        let bytes = sum(|r| r.overlap_comm.total_bytes());
        let peak = res.reports.iter().map(|r| r.overlap_comm.peak_round_bytes).max().unwrap();
        let emitted = sum(|r| r.overlap.pairs_emitted);
        let dup_factor = emitted as f64 / sum(|r| r.overlap.candidate_pairs_emitted) as f64;
        eprintln!(
            "{name}: {bytes} overlap bytes for {pairs} pairs from {emitted} instances \
             (bound {bound}, peak round {peak}, seed dup factor {dup_factor:.1})"
        );
        assert!(bytes <= bound, "{name}: {bytes} bytes over 20·pairs·ranks = {bound}");
        assert!(peak <= bound, "{name}: peak round {peak} over {bound}");
        assert!(dup_factor > 1.0, "{name}: expected source-side folding");
    }
}

/// `A·Aᵀ` in row blocks of 1, 3 and 1024 on 1 and 4 threads.
#[test]
fn spgemm_bit_identical_across_threads_and_blocks() {
    check(&[Row { threads: &[1, 4], blocks: &[1, 3, 1024], ..SLICE }]);
}
