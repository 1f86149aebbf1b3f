//! Alignment-kernel microbenchmarks: x-drop vs full Smith-Waterman on a
//! PacBio-like overlapping pair, plus the x-drop `X` ablation (the
//! paper's §2 claim that x-drop makes pairwise alignment linear in L).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dibella_align::{
    extend_seed, extend_xdrop, smith_waterman, AlignWorkspace, Dir, Extension, Scoring, SeedHit,
    SimdMode,
};
use dibella_bench::{chain_fixture, spgemm_fixture};
use dibella_datagen::ErrorModel;
use dibella_kcount::ReadKmerCsr;
use dibella_overlap::{chain_seeds, pack_row_block, ChainConfig, SeedFold};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A true overlapping pair: two noisy reads of one template.
fn noisy_pair(len: usize, error: f64) -> (Vec<u8>, Vec<u8>) {
    noisy_pair_seeded(len, error, 99)
}

fn noisy_pair_seeded(len: usize, error: f64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let template: Vec<u8> = (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let m = ErrorModel::pacbio(error);
    (m.apply(&template, &mut rng), m.apply(&template, &mut rng))
}

/// A forward extension on the production dispatch.
fn xdrop(s: &[u8], t: &[u8], x: i32, ws: &mut AlignWorkspace) -> Extension {
    extend_xdrop(s, t, Dir::Fwd, Scoring::bella(), x, ws, SimdMode::Auto)
}

fn bench_kernels(c: &mut Criterion) {
    let (a, b) = noisy_pair(2_000, 0.15);
    let sc = Scoring::bella();
    let seed = SeedHit { a_pos: 0, b_pos: 0, k: 17 };
    let mut ws = AlignWorkspace::new();

    let mut g = c.benchmark_group("kernel");
    g.sample_size(10);
    g.throughput(Throughput::Elements(a.len() as u64));
    g.bench_function("xdrop_x25", |bench| {
        bench.iter(|| black_box(extend_seed(&a, &b, seed, sc, 25, &mut ws, SimdMode::Auto)))
    });
    g.bench_function("full_sw", |bench| {
        bench.iter(|| black_box(smith_waterman(&a, &b, sc)))
    });
    g.finish();
}

/// The x-drop kernel's scalar core vs its lane kernel, reported in DP
/// **cells/sec** (one element = one DP cell — the cost currency of the
/// cross-architecture model). The same numbers are emitted as a tracked
/// baseline by the `bench_kernels_json` binary (`BENCH_kernels.json`).
fn bench_xdrop_cores(c: &mut Criterion) {
    let (a, b) = noisy_pair(2_000, 0.15);
    let sc = Scoring::bella();
    let seed = SeedHit { a_pos: 800, b_pos: 800, k: 17 };
    let mut ws = AlignWorkspace::new();

    let mut g = c.benchmark_group("kernel_cells_per_sec");
    g.sample_size(10);

    // Bit-identical outputs — only the cells/s may differ.
    let seed_cells = extend_seed(&a, &b, seed, sc, 25, &mut ws, SimdMode::Auto).cells;
    g.throughput(Throughput::Elements(seed_cells));
    g.bench_function("seed_xdrop_scalar_x25", |bench| {
        bench.iter(|| black_box(extend_seed(&a, &b, seed, sc, 25, &mut ws, SimdMode::Scalar)))
    });
    g.bench_function("seed_xdrop_simd_x25", |bench| {
        bench.iter(|| black_box(extend_seed(&a, &b, seed, sc, 25, &mut ws, SimdMode::Auto)))
    });

    let xdrop_cells = xdrop(&a, &b, 25, &mut ws).cells;
    g.throughput(Throughput::Elements(xdrop_cells));
    g.bench_function("xdrop_x25", |bench| bench.iter(|| black_box(xdrop(&a, &b, 25, &mut ws))));
    g.finish();
}

/// SpGEMM overlap engine: the row accumulator packing the shared fixture
/// table, in rows/s (one element = one CSR row — a read's whole `A·Aᵀ`
/// expansion). `bench_kernels_json` tracks the same number in
/// `BENCH_kernels.json`.
fn bench_spgemm_rows(c: &mut Criterion) {
    const RANKS: usize = 4;
    const BLOCK: usize = 64;
    let (table, part) = spgemm_fixture(256, 2_000, RANKS, 0x0D1B_E11A);
    let csr = ReadKmerCsr::from_table(&table);

    let mut g = c.benchmark_group("spgemm_rows_per_sec");
    g.sample_size(10);
    g.throughput(Throughput::Elements(csr.n_rows() as u64));
    g.bench_function("pack", |bench| {
        bench.iter(|| {
            for lo in (0..csr.n_rows()).step_by(BLOCK) {
                let hi = (lo + BLOCK).min(csr.n_rows());
                black_box(pack_row_block(&csr, lo..hi, &part, RANKS, SeedFold::All));
            }
        })
    });
    g.finish();
}

/// Colinear chaining in seeds/s (one element = one input seed) on the
/// shared colinear-plus-noise fixture. The rate may fall with `n` only by
/// the `log n` of the sweep — `bench_kernels_json` tracks the 8 192 / 256
/// ratio in `BENCH_kernels.json` and CI bounds it.
fn bench_chain_seeds(c: &mut Criterion) {
    let cfg = ChainConfig { min_chain_seeds: 2 };
    let mut g = c.benchmark_group("chain_seeds_per_sec");
    g.sample_size(10);
    for n in [256usize, 8_192] {
        let seeds = chain_fixture(n, 0xC4A1_5EED);
        g.throughput(Throughput::Elements(seeds.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &seeds, |bench, seeds| {
            bench.iter(|| {
                let mut s = seeds.clone();
                black_box(chain_seeds(&mut s, &cfg));
                s
            })
        });
    }
    g.finish();
}

/// Ablation: the x-drop threshold X trades completed extension length
/// (score) against DP cells.
fn bench_xdrop_ablation(c: &mut Criterion) {
    let (a, b) = noisy_pair(4_000, 0.15);
    let mut ws = AlignWorkspace::new();
    let mut g = c.benchmark_group("ablation_xdrop_x");
    g.sample_size(10);
    for x in [5, 15, 25, 50, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(x), &x, |bench, &x| {
            bench.iter(|| black_box(xdrop(&a, &b, x, &mut ws)))
        });
    }
    g.finish();
}

/// x-drop is linear in L for true overlaps (§2): double the length,
/// roughly double the time — visible across these sizes.
fn bench_xdrop_scaling(c: &mut Criterion) {
    let mut ws = AlignWorkspace::new();
    let mut g = c.benchmark_group("xdrop_length_scaling");
    g.sample_size(10);
    for len in [1_000usize, 2_000, 4_000, 8_000] {
        let (a, b) = noisy_pair(len, 0.15);
        g.throughput(Throughput::Elements(len as u64));
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |bench, _| {
            bench.iter(|| black_box(xdrop(&a, &b, 25, &mut ws)))
        });
    }
    g.finish();
}

/// Divergence cost comparison. Structurally divergent tails exit after
/// ~X antidiagonals (unit-tested in `dibella-align`), but note the
/// subtlety this bench exposes: on *uniform random* DNA with BELLA's
/// unit scores the best score plateaus rather than falling, the pruning
/// threshold rarely binds, and the band widens — so a seeded-but-
/// unrelated pair can cost more DP cells than a true overlap of the same
/// length. Per-pair DP cost variance (either direction) is precisely the
/// Fig-8 load-imbalance mechanism.
fn bench_xdrop_divergent(c: &mut Criterion) {
    let mut ws = AlignWorkspace::new();
    // Same template → true overlap; different seeds → unrelated
    // sequences (a genuinely spurious pair).
    let (a, b) = noisy_pair_seeded(4_000, 0.15, 99);
    let (unrelated, _) = noisy_pair_seeded(4_000, 0.15, 1234);
    let mut g = c.benchmark_group("xdrop_divergence");
    g.sample_size(10);
    g.bench_function("true_overlap_4k", |bench| {
        bench.iter(|| black_box(xdrop(&a, &b, 25, &mut ws)))
    });
    g.bench_function("spurious_pair_4k", |bench| {
        bench.iter(|| black_box(xdrop(&a, &unrelated, 25, &mut ws)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_xdrop_cores,
    bench_spgemm_rows,
    bench_chain_seeds,
    bench_xdrop_ablation,
    bench_xdrop_scaling,
    bench_xdrop_divergent
);
criterion_main!(benches);
