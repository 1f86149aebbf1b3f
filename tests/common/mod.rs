//! Fixtures the integration suites share: the error-free genome slice,
//! the noisy `toy_dataset` with its pipeline configuration, the overlap
//! stage's counter ledger, the sum of the fault counters a hardened
//! exchange records, and the determinism matrix ([`matrix`]).
//!
//! Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

pub mod matrix;

use dibella::datagen::{simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec, SyntheticDataset};
use dibella::overlap::OverlapCounters;
use dibella::prelude::*;

/// `n` error-free reads of `read_len` bases off one xorshift genome of
/// `seed`; read `i` starts at base `i · stride`, so neighbours share
/// `read_len − stride` bases.
pub fn genome_slice(n: usize, read_len: usize, stride: usize, seed: u64) -> ReadSet {
    let mut state = seed | 1;
    let genome: Vec<u8> = (0..n * stride + read_len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state % 4) as usize]
        })
        .collect();
    (0..n as u32)
        .map(|i| {
            let s = i as usize * stride;
            Read::new(i, format!("r{i}"), genome[s..s + read_len].to_vec())
        })
        .collect()
}

/// Noisy PacBio-like reads: 10× over a 15 kb genome at 12 % error.
pub fn toy_dataset(seed: u64) -> SyntheticDataset {
    let genome = GenomeSpec { size: 15_000, seed, ..Default::default() }.generate();
    simulate_reads(
        &genome,
        &ReadSimSpec {
            depth: 10.0,
            mean_len: 2_000,
            min_len: 400,
            errors: ErrorModel::pacbio(0.12),
            seed: seed ^ 0xABCD,
            ..Default::default()
        },
    )
}

/// The pipeline configuration [`toy_dataset`] is read with.
pub fn toy_cfg() -> PipelineConfig {
    PipelineConfig {
        k: 15,
        depth: 10.0,
        error_rate: 0.12,
        seed_policy: SeedPolicy::Single,
        max_kmers_per_round: 4096, // force multi-round exchanges
        ..Default::default()
    }
}

/// Faults a run detected and survived, summed over ranks and stages:
/// damaged frames, retransmitted frames, dropped duplicates and waits
/// that timed out.
pub fn faults_survived(res: &PipelineResult) -> u64 {
    res.reports
        .iter()
        .map(|r| {
            let c = r.total_comm();
            c.frames_corrupt_detected + c.frames_retransmitted + c.duplicates_dropped + c.wait_timeouts
        })
        .sum()
}

/// The overlap stage's counter ledger: each enumerated instance is
/// counted once at its source (shipped or folded), what is shipped
/// arrives somewhere, and the world's merge work is one operation per
/// instance.
pub fn assert_overlap_ledger(res: &PipelineResult, at: &str) {
    let sum = |f: fn(&OverlapCounters) -> u64| -> u64 { res.reports.iter().map(|r| f(&r.overlap)).sum() };
    assert_eq!(sum(|c| c.seeds_shipped), sum(|c| c.seeds_received), "shipped vs received at {at}");
    assert_eq!(sum(|c| c.seeds_merged()), sum(|c| c.pairs_emitted), "merge work at {at}");
    for r in &res.reports {
        let c = r.overlap;
        assert!(c.candidate_pairs_emitted <= c.seeds_shipped, "empty record at {at}");
        assert!(c.seeds_shipped <= c.pairs_emitted, "shipped > enumerated at {at}");
        assert!(c.seeds_kept <= c.seeds_received, "kept > received at {at}");
    }
}
