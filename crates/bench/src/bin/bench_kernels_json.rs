//! Kernel-throughput baseline writer: emits `BENCH_kernels.json`.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p dibella-bench --bin bench_kernels_json
//! ```
//!
//! (optionally pass an output path as the first argument). The file
//! records, for the x-drop kernel's scalar core and its lane kernel (side
//! by side, same workload — their `cells_per_call` must agree because the
//! two are bit-identical):
//!
//! * **cells/s** — DP cells per second, the cost currency of the
//!   cross-architecture model, on a fixed 2 kb PacBio-like overlapping
//!   pair, plus the `simd_speedup` ratio that justifies the lane kernel;
//! * **allocs/call** — heap allocations per kernel call measured by a
//!   counting global allocator (0 once the workspace is warm);
//! * **task/s** of a 4-rank end-to-end pipeline on the sampled E. coli
//!   30× workload — the number a perf regression in any stage moves;
//! * **stage-4 reconciliation** (schema `/4`) — the same workload on one
//!   rank: stage-4 DP cells over stage-4 compute time, next to the lane
//!   kernel's cells/s. The two must agree within
//!   [`RECONCILE_FACTOR`] either way (asserted here and in CI), so a gap
//!   between them says whether the next stage-4 speedup is in the kernel
//!   or in the task loop around it;
//! * **x-drop ns per antidiagonal** (schema `/10`) — the lane kernel on
//!   the same pair at X = 8, 25 and 60, as nanoseconds per antidiagonal
//!   walked next to the live cells an antidiagonal holds. The kernel's
//!   antidiagonals are a serial chain (row maximum → threshold → two
//!   scans → the next row's bounds), so this is the number that says
//!   whether "fewer cells" can buy time: a cost that barely moves while
//!   the cells per antidiagonal grow sixfold is a fixed cost per
//!   antidiagonal, not per cell (see ROADMAP, "Measured and not kept"). Schema `/11`
//!   commits that split as `xdrop_fit`: the least-squares line through
//!   the three points, `fixed_ns` per antidiagonal plus `ns_per_cell` per
//!   live cell;
//! * **spgemm rows/s** (schema `/3`; one accumulator since `/12`) — the
//!   overlap engine's row accumulator packing the shared
//!   [`dibella_bench::spgemm_fixture`] table, and (schema `/10`) the
//!   rows/s of the engine's count-only symbolic pass over the same rows,
//!   with its record lengths asserted equal to the packed ones;
//! * **overlap fold** (schema `/8`; the count pass since `/14`) — stage
//!   3's seed fold under `SeedFold::Min` on the same fixture: rows/s of the
//!   pass the stage runs for it, `count_row_block` folding each pair's
//!   least seed as it counts, plus the records the fold leaves per
//!   enumerated instance (the fold must count the unfolded pass's
//!   instances and write the folded `pack_row_block`'s bytes, one seed a
//!   record — asserted);
//! * **chain seeds/s** (schema `/5`) — `chain_seeds` on the shared
//!   [`dibella_bench::chain_fixture`] at 256 and 8 192 seeds. The figure
//!   that matters is the *ratio* of the two rates: a linearithmic chain
//!   keeps about half its rate over the 32× larger list, one whose
//!   per-seed cost is linear in `n` would keep 1/32, and
//!   [`CHAIN_MIN_RATE_RATIO`] (asserted here and in CI) tells them apart
//!   on any host;
//! * **k-mer pass rates** (schema `/6`, supermer rows since `/9`) —
//!   k-mers/s of the rolling extractor at k = 15 and k = 31, of the
//!   reliable front end's owner-run packer to 2 and to 64 destinations
//!   (with the wire bytes per k-mer it wrote) and of the owner-side roll
//!   of those records, and of the minimizer selection, all on the shared
//!   [`dibella_bench::kmer_fixture`]. `op_costs::NS_PER_KMER_PACK` and
//!   `NS_PER_KMER_ROLL` are fitted from the pack and roll rows. The
//!   figure that matters for the extractor is again a *ratio*: its
//!   per-window cost must not grow with k, so its k = 31 rate stays within
//!   [`KMER_MIN_RATE_RATIO`] of its k = 15 rate (asserted here and in
//!   CI); the O(k)-per-window extractor this replaced measured 0.4–0.6.
//!   The packer's bytes per k-mer must stay under 4 (asserted in CI): a
//!   stand-alone k-mer record costs 8;
//! * **hash pass** (schema `/13`, `kmer.hash_pass`) — a one-rank Bloom +
//!   hash pass over 1× coverage of a simulated genome at 15 % error, the
//!   shape where almost no swept k-mer is resident: the hash pass's ns per
//!   k-mer next to the roll alone on the same records, the share of swept
//!   k-mers that are resident and the share the screen of resident keys
//!   lets through to a table probe. The screen has no false negatives and
//!   about 1 % false positives, so the pass share lies between the
//!   resident share and 2 points above it (asserted here and in CI —
//!   counts, not timings).
//!
//! Perf PRs diff this file to leave a measurable trajectory; the numbers
//! are machine-dependent, so compare ratios, not absolutes, across hosts.

use dibella_align::{extend_seed, AlignWorkspace, Scoring, SeedExtender, SeedHit, SimdMode};
use dibella_bench::{
    chain_fixture, kmer_fixture, spgemm_fixture, supermer_fixture, supermer_roll_kmers,
};
use dibella_comm::{BatchedExecutor, CommWorld};
use dibella_core::{run_pipeline, PipelineConfig};
use dibella_datagen::{ecoli_30x_sample_like, simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec};
use dibella_io::ReadPartition;
use dibella_kcount::{
    bloom_stage_overlapping, hash_stage_prepacked, pack_supermers, KcountConfig, ReadKmerCsr,
};
use dibella_kmer::{extract_kmers, kmer_count, minimizers, WindowIndex};
use dibella_netmodel::op_costs;
use dibella_overlap::{
    chain_seeds, count_row_block, pack_row_block, ChainConfig, SeedFold, SpgemmBlockOut,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PAIR_LEN: usize = 2_000;
const ERROR_RATE: f64 = 0.15;
const XDROP_X: i32 = 25;
const KERNEL_ITERS: u32 = 60;
/// Drop-offs the per-antidiagonal cost is read at: BELLA's default region,
/// the pipeline's, and one wide enough to hold ~6x the cells of the first.
const ANTIDIAGONAL_XS: [i32; 3] = [8, 25, 60];
/// Antidiagonals timed per drop-off (iterations = this / the pair's),
/// split into this many interleaved slices.
const ANTIDIAGONALS_TIMED: u64 = 1 << 22;
const ANTIDIAGONAL_ROUNDS: u64 = 8;

/// Stage-4 compute must lie within this factor of `dp_cells / kernel
/// cells/s`, either way. The kernel rate comes from one 2 kb pair, the
/// stage from ~170 pairs of 1–20 kb with per-task orientation and staging
/// on top, and both are single-shot wall times on a shared host: 2× is
/// the spread that leaves, not a target.
const RECONCILE_FACTOR: f64 = 2.0;

const SPGEMM_READS: u32 = 256;
const SPGEMM_KMERS: usize = 2_000;
const SPGEMM_RANKS: usize = 4;
const SPGEMM_BATCH_ROWS: usize = 64;
const SPGEMM_ITERS: u32 = 40;

const CHAIN_SIZES: [usize; 2] = [256, 8_192];
/// Input seeds chained per measured size (iterations = this / n), so both
/// sizes are timed over the same amount of input.
const CHAIN_SEEDS_TIMED: usize = 1 << 20;
/// Floor on `rate(8 192) / rate(256)`: half of the ~0.5 the sweep
/// measures (its `log n` plus the larger working set), eight times the
/// 1/32 an all-predecessors scan would leave.
const CHAIN_MIN_RATE_RATIO: f64 = 0.25;

const KMER_READS: u32 = 40;
const KMER_READ_LEN: usize = 10_000;
const KMER_ITERS: u32 = 10;
const KMER_EXTRACT_KS: [usize; 2] = [15, 31];
const KMER_PACK_K: usize = 21;
const KMER_PACK_DESTINATIONS: [usize; 2] = [2, 64];
/// Reference-core cost of one `extract_kmers` window at k = 15, the unit
/// the k-mer op costs are fitted in: `NS_PER_KMER_PACK` was 14.0 ns for
/// the 8-byte-record packer that `BENCH_kernels.json` (schema `/8`)
/// measured at 62.06 M k-mers/s next to an extractor at 76.74 M/s, which
/// puts the extractor at 14.0 × 62.06 / 76.74 ns.
const EXTRACT_REFERENCE_NS: f64 = 11.32;
/// `op_costs::NS_PER_KMER_PACK` / `NS_PER_KMER_ROLL` must stay within
/// this factor of what the run fits — single-shot rates on a shared host
/// spread by ~1.5×, so this catches a constant left behind by a change
/// of algorithm, not a noisy afternoon.
const OP_COST_FIT_FACTOR: f64 = 2.0;
const KMER_MINIMIZER_W: usize = 7;
/// Floor on `extract_rate(k = 31) / extract_rate(k = 15)`: both run the
/// same two register updates per base, so the ratio sits near 1; an
/// extractor that rebuilds or re-masks the window per position loses a
/// third or more of its rate over that k range.
const KMER_MIN_RATE_RATIO: f64 = 0.7;
/// The hash-pass fixture: 1× coverage of a genome this long.
const HASH_PASS_GENOME: usize = 2_000_000;
/// Bloom + hash passes run; the hash pass keeps its fastest.
const HASH_PASS_RUNS: u32 = 5;
/// The screen may let through at most this share of the swept k-mers
/// beyond the resident ones.
const SCREEN_MAX_EXCESS: f64 = 0.02;

/// One row pass of the overlap engine: `pack_row_block` or `count_row_block`.
type RowPass = fn(&ReadKmerCsr<'_>, Range<usize>, &ReadPartition, usize, SeedFold) -> SpgemmBlockOut;

/// Run `pass` over the whole fixture CSR under `fold`: per-destination
/// byte streams plus record/seed/instance totals.
fn spgemm_pack_all(
    csr: &ReadKmerCsr<'_>,
    part: &ReadPartition,
    pass: RowPass,
    fold: SeedFold,
) -> (Vec<Vec<u8>>, u64, u64, u64) {
    let mut bufs = vec![Vec::new(); SPGEMM_RANKS];
    let (mut records, mut seeds, mut instances) = (0u64, 0u64, 0u64);
    for lo in (0..csr.n_rows()).step_by(SPGEMM_BATCH_ROWS) {
        let hi = (lo + SPGEMM_BATCH_ROWS).min(csr.n_rows());
        let out = pass(csr, lo..hi, part, SPGEMM_RANKS, fold);
        records += out.records;
        seeds += out.seeds;
        instances += out.instances;
        for (d, b) in bufs.iter_mut().zip(out.bufs) {
            d.extend_from_slice(&b);
        }
    }
    (bufs, records, seeds, instances)
}

/// One measured kernel: run `iters` calls, return
/// `(cells/s, allocs per call, cells per call)`.
fn measure(iters: u32, cells_per_call: u64, mut call: impl FnMut()) -> (f64, f64, u64) {
    // Warm-up (untimed, uncounted).
    call();
    let allocs0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for _ in 0..iters {
        call();
    }
    let wall = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
    let cells_per_sec = (cells_per_call * iters as u64) as f64 / wall;
    (cells_per_sec, allocs as f64 / iters as f64, cells_per_call)
}

/// Intercept and slope of the least-squares line through `(x, y)` points.
fn least_squares<const N: usize>(points: [(f64, f64); N]) -> (f64, f64) {
    let n = N as f64;
    let mx = points.iter().map(|&(x, _)| x).sum::<f64>() / n;
    let my = points.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

fn kernel_json(name: &str, (cells_per_sec, allocs_per_call, cells_per_call): (f64, f64, u64)) -> String {
    format!(
        "    \"{name}\": {{ \"cells_per_call\": {cells_per_call}, \"cells_per_sec\": {cells_per_sec:.0}, \"allocs_per_call\": {allocs_per_call:.2} }}"
    )
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_kernels.json".into());

    // ---- fixed PacBio-like overlapping pair --------------------------------
    let mut rng = StdRng::seed_from_u64(99);
    let template: Vec<u8> = (0..PAIR_LEN).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect();
    let model = ErrorModel::pacbio(ERROR_RATE);
    let a = model.apply(&template, &mut rng);
    let b = model.apply(&template, &mut rng);
    let sc = Scoring::bella();
    let seed = SeedHit { a_pos: 800, b_pos: 800, k: 17 };
    let mut ws = AlignWorkspace::new();

    let seed_scalar_out = extend_seed(&a, &b, seed, sc, XDROP_X, &mut ws, SimdMode::Scalar);
    let seed_simd_out = extend_seed(&a, &b, seed, sc, XDROP_X, &mut ws, SimdMode::Auto);
    assert_eq!(seed_scalar_out, seed_simd_out, "scalar core and lane kernel disagree on the bench pair");
    let seed_cells = seed_scalar_out.cells;

    let seed_scalar = measure(KERNEL_ITERS, seed_cells, || {
        black_box(extend_seed(&a, &b, seed, sc, XDROP_X, &mut ws, SimdMode::Scalar));
    });
    let seed_simd = measure(KERNEL_ITERS, seed_cells, || {
        black_box(extend_seed(&a, &b, seed, sc, XDROP_X, &mut ws, SimdMode::Auto));
    });

    assert!(seed_scalar.0 > 0.0, "scalar core measured zero throughput");
    assert!(seed_simd.0 > 0.0, "lane kernel measured zero throughput");
    assert_eq!(seed_scalar.1, 0.0, "warmed scalar core must not allocate");
    assert_eq!(seed_simd.1, 0.0, "warmed lane kernel must not allocate");

    // ---- x-drop: cost per antidiagonal at three drop-offs ------------------
    // One staged extender per drop-off, so a short extension (X = 8 stops
    // within a few hundred antidiagonals at 15 % error) is not timed
    // against the copies `extend_seed` stages per call. The drop-offs take
    // turns, one slice each per round, and each keeps its fastest slice: a
    // host that drifts or stalls mid-run then slows all three or none,
    // rather than tilting the fit below.
    let mut x_ws = ANTIDIAGONAL_XS.map(|_| AlignWorkspace::new());
    let mut pairs: Vec<_> = x_ws
        .iter_mut()
        .zip(ANTIDIAGONAL_XS)
        .map(|(ws, x)| {
            let mut pair = SeedExtender::new(&a, sc, x, ws, SimdMode::Auto);
            pair.set_b(&b);
            let out = pair.extend(seed);
            assert!(out.antidiagonals > 0 && out.cells >= out.antidiagonals, "{out:?}");
            (pair, out)
        })
        .collect();
    let mut fastest = [f64::INFINITY; ANTIDIAGONAL_XS.len()];
    for _ in 0..ANTIDIAGONAL_ROUNDS {
        for ((pair, out), best) in pairs.iter_mut().zip(&mut fastest) {
            let iters = (ANTIDIAGONALS_TIMED / ANTIDIAGONAL_ROUNDS).div_ceil(out.antidiagonals);
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(pair.extend(black_box(seed)));
            }
            *best = best.min(t0.elapsed().as_secs_f64() * 1e9 / (iters * out.antidiagonals) as f64);
        }
    }
    let per_antidiagonal: [(f64, f64); ANTIDIAGONAL_XS.len()] = std::array::from_fn(|k| {
        let out = pairs[k].1;
        (fastest[k], out.cells as f64 / out.antidiagonals as f64)
    });
    let (fixed_ns, ns_per_cell) = least_squares(per_antidiagonal.map(|(ns, cells)| (cells, ns)));
    eprintln!(
        "x-drop: {} ns per antidiagonal at {} live cells (X = {ANTIDIAGONAL_XS:?}): \
         {fixed_ns:.1} ns fixed + {ns_per_cell:.3} ns per cell",
        per_antidiagonal.map(|(ns, _)| format!("{ns:.1}")).join(" / "),
        per_antidiagonal.map(|(_, cells)| format!("{cells:.1}")).join(" / "),
    );

    // ---- SpGEMM row accumulator -------------------------------------------
    let (table, part) = spgemm_fixture(SPGEMM_READS, SPGEMM_KMERS, SPGEMM_RANKS, 0x0D1B_E11A);
    let csr = ReadKmerCsr::from_table(&table);
    let (sp_bytes, sp_records, sp_seeds, sp_instances) = spgemm_pack_all(&csr, &part, pack_row_block, SeedFold::All);
    assert!(sp_records > 0, "fixture produced no pair records");
    let t0 = Instant::now();
    for _ in 0..SPGEMM_ITERS {
        black_box(spgemm_pack_all(&csr, &part, pack_row_block, SeedFold::All));
    }
    let spgemm_rows_per_sec = (csr.n_rows() as u64 * SPGEMM_ITERS as u64) as f64 / t0.elapsed().as_secs_f64();

    // The engine's symbolic pass: the same rows, counted instead of packed.
    let symbolic_all = || {
        (0..csr.n_rows()).step_by(SPGEMM_BATCH_ROWS).fold(vec![Vec::new(); SPGEMM_RANKS], |mut lens, lo| {
            let rows = lo..(lo + SPGEMM_BATCH_ROWS).min(csr.n_rows());
            let out = count_row_block(&csr, rows, &part, SPGEMM_RANKS, SeedFold::All);
            lens.iter_mut().zip(out.lens).for_each(|(all, block)| all.extend(block));
            lens
        })
    };
    let counted: Vec<usize> = symbolic_all().iter().map(|lens| lens.iter().sum()).collect();
    assert_eq!(counted, sp_bytes.iter().map(Vec::len).collect::<Vec<_>>(), "symbolic pass miscounts the fixture");
    let t0 = Instant::now();
    for _ in 0..SPGEMM_ITERS {
        black_box(symbolic_all());
    }
    let symbolic_rows_per_sec = (csr.n_rows() as u64 * SPGEMM_ITERS as u64) as f64 / t0.elapsed().as_secs_f64();

    // ---- the seed fold at the source --------------------------------------
    // Under `Min` the stage runs no numeric pass: the count pass folds each
    // pair's least seed and writes its record, which must be the folded
    // numeric pass's.
    let fold = SeedFold::Min;
    let (fold_bytes, fold_records, fold_seeds, fold_instances) = spgemm_pack_all(&csr, &part, count_row_block, fold);
    assert_eq!(fold_instances, sp_instances, "the fold changed what is enumerated");
    assert_eq!(fold_seeds, fold_records, "the fold kept more than one seed per pair");
    assert_eq!(fold_records, sp_records, "folding changed the pair set");
    assert_eq!(
        fold_bytes,
        spgemm_pack_all(&csr, &part, pack_row_block, fold).0,
        "the count pass wrote other records than the folded numeric pass"
    );
    let t0 = Instant::now();
    for _ in 0..SPGEMM_ITERS {
        black_box(spgemm_pack_all(&csr, &part, count_row_block, fold));
    }
    let fold_rows_per_sec = (csr.n_rows() as u64 * SPGEMM_ITERS as u64) as f64 / t0.elapsed().as_secs_f64();

    // ---- colinear chaining: seeds/s at two sizes ---------------------------
    let chain_cfg = ChainConfig { min_chain_seeds: 2 };
    let chain_rates = CHAIN_SIZES.map(|n| {
        let seeds = chain_fixture(n, 0xC4A1_5EED);
        let iters = CHAIN_SEEDS_TIMED / n;
        let run = || {
            let mut s = seeds.clone();
            assert!(chain_seeds(&mut s, &chain_cfg), "fixture diagonal must chain");
            black_box(s);
        };
        run(); // warm-up, untimed
        let t0 = Instant::now();
        for _ in 0..iters {
            run();
        }
        (seeds.len() * iters) as f64 / t0.elapsed().as_secs_f64()
    });
    let chain_ratio = chain_rates[1] / chain_rates[0];
    assert!(
        chain_ratio >= CHAIN_MIN_RATE_RATIO,
        "chain_seeds runs at {:.0} seeds/s on {} seeds but {:.0} on {}: ratio {chain_ratio:.3} is \
         under {CHAIN_MIN_RATE_RATIO}, the per-seed cost grows with the list",
        chain_rates[1],
        CHAIN_SIZES[1],
        chain_rates[0],
        CHAIN_SIZES[0],
    );

    // ---- k-mer passes: extract, pack, select --------------------------------
    let kmer_reads = kmer_fixture(KMER_READS, KMER_READ_LEN, 0x0E87_2AC7);
    // `items` things per call of `run`, timed over KMER_ITERS calls after
    // one untimed warm-up.
    let per_sec = |items: u64, run: &mut dyn FnMut()| {
        run();
        let t0 = Instant::now();
        for _ in 0..KMER_ITERS {
            run();
        }
        (items * KMER_ITERS as u64) as f64 / t0.elapsed().as_secs_f64()
    };
    let windows = |k: usize| kmer_reads.iter().map(|r| kmer_count(r.len(), k) as u64).sum::<u64>();
    let extract_rates = KMER_EXTRACT_KS.map(|k| {
        per_sec(windows(k), &mut || {
            for r in &kmer_reads {
                black_box(extract_kmers::<1>(&r.seq, k));
            }
        })
    });
    let extract_ratio = extract_rates[1] / extract_rates[0];
    assert!(
        extract_ratio >= KMER_MIN_RATE_RATIO,
        "extract_kmers runs at {:.0} k-mers/s at k = {} but {:.0} at k = {}: ratio {extract_ratio:.3} \
         is under {KMER_MIN_RATE_RATIO}, the per-window cost grows with k",
        extract_rates[1],
        KMER_EXTRACT_KS[1],
        extract_rates[0],
        KMER_EXTRACT_KS[0],
    );
    let minimizer_rate = per_sec(windows(KMER_PACK_K), &mut || {
        for r in &kmer_reads {
            black_box(minimizers(&r.seq, KMER_PACK_K, KMER_MINIMIZER_W));
        }
    });
    let kmer_idx = WindowIndex::new(kmer_reads.iter().map(|r| r.len()), KMER_PACK_K);
    let kmer_exec = BatchedExecutor::sequential();
    let batch = KcountConfig::DEFAULT_EXTRACT_BATCH;
    let total = kmer_idx.total_windows();
    // The reliable front end's two per-k-mer loops: the sender's pack (to
    // 2 and to 64 destinations — more owners, shorter runs, more header
    // bytes per k-mer) and the owner's roll of what arrived.
    let mut supermer_bytes_per_kmer = [0f64; 2];
    let supermer_pack_rates: [f64; 2] = std::array::from_fn(|slot| {
        per_sec(total, &mut || {
            let ranks = KMER_PACK_DESTINATIONS[slot];
            let (bufs, n) = pack_supermers(&kmer_reads, &kmer_idx, 0, total, ranks, batch, &kmer_exec);
            assert_eq!(n, total, "clean fixture: every window is a k-mer");
            supermer_bytes_per_kmer[slot] = bufs.iter().map(Vec::len).sum::<usize>() as f64 / total as f64;
        })
    });
    let (arrived, _) = supermer_fixture(&kmer_reads, KMER_PACK_K, KMER_PACK_DESTINATIONS[0]);
    let supermer_roll_rate = per_sec(total, &mut || {
        black_box(supermer_roll_kmers(&arrived, KMER_PACK_K));
    });
    // The cost model's two constants for these loops are fitted from this
    // block, not set by hand: a rate relative to the k = 15 extractor of
    // the same run (so the host's speed cancels), times the extractor's
    // reference-core cost.
    let fitted = |rate: f64| EXTRACT_REFERENCE_NS * extract_rates[0] / rate;
    let (fit_pack, fit_roll) = (fitted(supermer_pack_rates[0]), fitted(supermer_roll_rate));
    eprintln!(
        "k-mer front end: pack {:.1} ns, roll {:.1} ns per k-mer on this host; fitted to the reference core: \
         NS_PER_KMER_PACK {fit_pack:.1} (is {}), NS_PER_KMER_ROLL {fit_roll:.1} (is {})",
        1e9 / supermer_pack_rates[0],
        1e9 / supermer_roll_rate,
        op_costs::NS_PER_KMER_PACK,
        op_costs::NS_PER_KMER_ROLL,
    );
    for (name, constant, fit) in [
        ("NS_PER_KMER_PACK", op_costs::NS_PER_KMER_PACK, fit_pack),
        ("NS_PER_KMER_ROLL", op_costs::NS_PER_KMER_ROLL, fit_roll),
    ] {
        assert!(
            (1.0 / OP_COST_FIT_FACTOR..=OP_COST_FIT_FACTOR).contains(&(constant / fit)),
            "op_costs::{name} = {constant} is not within {OP_COST_FIT_FACTOR}x of the {fit:.1} ns this \
             bench fits: re-fit it (see the constant's docs)"
        );
    }

    // ---- the hash pass where almost nothing is resident --------------------
    // One rank, so a pass is one thread's time. The Bloom pass runs again
    // before each hash pass: the hash pass consumes what it kept.
    let genome = GenomeSpec { size: HASH_PASS_GENOME, seed: 0x1C0F, ..Default::default() }.generate();
    let flood = simulate_reads(&genome, &ReadSimSpec { depth: 1.0, ..Default::default() }).reads;
    let flood_cfg = KcountConfig::from_dataset(flood.total_bases() as u64, 1.0, ERROR_RATE, KMER_PACK_K);
    let hash_runs: Vec<_> = (0..HASH_PASS_RUNS)
        .map(|_| {
            CommWorld::run(1, |comm| {
                let exec = BatchedExecutor::sequential();
                let (bloom, retained) = bloom_stage_overlapping(comm, flood.reads(), &flood_cfg, &exec);
                let mut table = bloom.table;
                let t0 = Instant::now();
                let out = hash_stage_prepacked(comm, flood.reads(), &mut table, &flood_cfg, &exec, Some(retained));
                (t0.elapsed().as_secs_f64(), out.counters)
            })
            .remove(0)
        })
        .collect();
    let hash_counters = hash_runs[0].1;
    assert!(hash_runs.iter().all(|run| run.1 == hash_counters), "hash pass counters differ between runs");
    let hash_s = hash_runs.iter().map(|run| run.0).fold(f64::INFINITY, f64::min);
    let swept = hash_counters.kmers_received;
    let (flood_runs, flood_kmers) = supermer_fixture(flood.reads(), KMER_PACK_K, 1);
    assert_eq!(flood_kmers, swept, "the hash pass swept other k-mers than were packed");
    let roll_ns = 1e9 / per_sec(swept, &mut || {
        black_box(supermer_roll_kmers(&flood_runs, KMER_PACK_K));
    });
    let hash_ns = hash_s * 1e9 / swept as f64;
    let resident_share = hash_counters.recorded_occurrences as f64 / swept as f64;
    let pass_share = hash_counters.screen_passes as f64 / swept as f64;
    eprintln!(
        "hash pass: {hash_ns:.1} ns per k-mer (roll alone {roll_ns:.1} ns); {:.1} % of {swept} swept k-mers \
         resident, {:.1} % through the screen",
        100.0 * resident_share,
        100.0 * pass_share,
    );
    assert!(
        resident_share <= pass_share && pass_share <= resident_share + SCREEN_MAX_EXCESS,
        "the screen let {pass_share:.4} of the swept k-mers through to the table, {resident_share:.4} resident"
    );

    // ---- 4-rank end-to-end pipeline ----------------------------------------
    let ds = ecoli_30x_sample_like(0.004, 42);
    let cfg = PipelineConfig { k: 17, max_seeds_per_pair: 4, ..Default::default() };
    let t0 = Instant::now();
    let res = run_pipeline(&ds.reads, 4, &cfg);
    let pipe_wall = t0.elapsed().as_secs_f64();
    let tasks: u64 = res.reports.iter().map(|r| r.align.tasks).sum();
    let dp_cells: u64 = res.reports.iter().map(|r| r.align.dp_cells).sum();
    let tasks_per_sec = tasks as f64 / pipe_wall;

    // ---- stage-4 reconciliation: pipeline cells/s vs kernel cells/s --------
    // One rank, so the stage's compute time is one thread's and not four
    // ranks' time-sliced over however many cores the host has.
    let solo = &run_pipeline(&ds.reads, 1, &cfg).reports[0];
    let stage4_cells = solo.align.dp_cells;
    let stage4_s = solo.align_wall.compute().as_secs_f64();
    let stage4_rate = stage4_cells as f64 / stage4_s;
    let predicted_s = stage4_cells as f64 / seed_simd.0;
    let measured_over_predicted = stage4_s / predicted_s;
    eprintln!(
        "stage 4: {:.0} Mcell/s in the pipeline ({stage4_cells} cells in {stage4_s:.3} s) vs {:.0} Mcell/s \
         in the kernel bench: measured / predicted = {measured_over_predicted:.2}",
        stage4_rate / 1e6,
        seed_simd.0 / 1e6,
    );
    assert!(
        (1.0 / RECONCILE_FACTOR..=RECONCILE_FACTOR).contains(&measured_over_predicted),
        "stage-4 compute {stage4_s:.3} s is not within {RECONCILE_FACTOR}x of the {predicted_s:.3} s \
         that kernel cells/s x stage DP cells predicts"
    );

    let json = format!(
        "{{\n  \"schema\": \"dibella-bench-kernels/14\",\n  \"pair_len\": {PAIR_LEN},\n  \"error_rate\": {ERROR_RATE},\n  \"xdrop_x\": {XDROP_X},\n  \"kernels\": {{\n{},\n{}\n  }},\n  \"simd_speedup\": {{ \"seed_xdrop\": {:.2} }},\n  \"xdrop_ns_per_antidiagonal\": {{ \"8\": {:.1}, \"25\": {:.1}, \"60\": {:.1} }},\n  \"xdrop_cells_per_antidiagonal\": {{ \"8\": {:.1}, \"25\": {:.1}, \"60\": {:.1} }},\n  \"xdrop_fit\": {{ \"fixed_ns\": {fixed_ns:.2}, \"ns_per_cell\": {ns_per_cell:.4} }},\n  \"workspace_scratch_bytes\": {},\n  \"spgemm\": {{ \"n_rows\": {}, \"nnz\": {}, \"records\": {sp_records}, \"seeds\": {sp_seeds}, \"seed_dup_factor\": {:.3}, \"rows_per_sec\": {spgemm_rows_per_sec:.0}, \"symbolic_rows_per_sec\": {symbolic_rows_per_sec:.0} }},\n  \"overlap_fold\": {{ \"fold\": \"min\", \"pass\": \"count_row_block\", \"instances\": {fold_instances}, \"records\": {fold_records}, \"records_per_instance\": {:.3}, \"rows_per_sec\": {fold_rows_per_sec:.0} }},\n  \"chain\": {{ \"fixture\": \"colinear+noise\", \"seeds_per_sec\": {{ \"256\": {:.0}, \"8192\": {:.0} }}, \"rate_ratio_8192_over_256\": {chain_ratio:.3}, \"min_rate_ratio\": {CHAIN_MIN_RATE_RATIO} }},\n  \"kmer\": {{ \"fixture\": \"uniform {KMER_READS}x{KMER_READ_LEN}\", \"extract_kmers_per_sec\": {{ \"15\": {:.0}, \"31\": {:.0} }}, \"extract_rate_ratio_31_over_15\": {extract_ratio:.3}, \"min_rate_ratio\": {KMER_MIN_RATE_RATIO}, \"pack_k\": {KMER_PACK_K}, \"supermer_pack_kmers_per_sec\": {{ \"2\": {:.0}, \"64\": {:.0} }}, \"supermer_bytes_per_kmer\": {{ \"2\": {:.3}, \"64\": {:.3} }}, \"supermer_roll_kmers_per_sec\": {supermer_roll_rate:.0}, \"minimizer_w\": {KMER_MINIMIZER_W}, \"minimizer_windows_per_sec\": {minimizer_rate:.0}, \"hash_pass\": {{ \"fixture\": \"1x of {HASH_PASS_GENOME} bp, 15% error\", \"k\": {KMER_PACK_K}, \"kmers\": {swept}, \"hash_ns_per_kmer\": {hash_ns:.2}, \"roll_ns_per_kmer\": {roll_ns:.2}, \"resident_share\": {resident_share:.4}, \"screen_pass_share\": {pass_share:.4}, \"max_excess\": {SCREEN_MAX_EXCESS} }} }},\n  \"pipeline_4rank\": {{ \"ranks\": 4, \"tasks\": {tasks}, \"dp_cells\": {dp_cells}, \"wall_s\": {pipe_wall:.3}, \"tasks_per_sec\": {tasks_per_sec:.1} }},\n  \"stage4_reconciliation\": {{ \"ranks\": 1, \"dp_cells\": {stage4_cells}, \"compute_s\": {stage4_s:.3}, \"cells_per_sec\": {stage4_rate:.0}, \"kernel_cells_per_sec\": {:.0}, \"measured_over_predicted\": {measured_over_predicted:.2}, \"factor\": {RECONCILE_FACTOR:.1} }}\n}}\n",
        kernel_json("seed_xdrop_scalar", seed_scalar),
        kernel_json("seed_xdrop_simd", seed_simd),
        seed_simd.0 / seed_scalar.0,
        per_antidiagonal[0].0,
        per_antidiagonal[1].0,
        per_antidiagonal[2].0,
        per_antidiagonal[0].1,
        per_antidiagonal[1].1,
        per_antidiagonal[2].1,
        ws.scratch_bytes(),
        csr.n_rows(),
        csr.nnz(),
        sp_seeds as f64 / sp_records as f64,
        fold_records as f64 / fold_instances as f64,
        chain_rates[0],
        chain_rates[1],
        extract_rates[0],
        extract_rates[1],
        supermer_pack_rates[0],
        supermer_pack_rates[1],
        supermer_bytes_per_kmer[0],
        supermer_bytes_per_kmer[1],
        seed_simd.0,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    print!("{json}");
    eprintln!("wrote {out_path}");
}
