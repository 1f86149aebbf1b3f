//! Proof (not just inspection) that the x-drop entry points are
//! allocation-free in steady state: a counting global allocator wraps the
//! system allocator, and after one warm-up call each of them must perform
//! **zero** heap allocations — per call, and therefore per antidiagonal.
//!
//! Kept to a single `#[test]` so no sibling test thread can allocate
//! while a window is being counted.

use dibella_align::{
    extend_seed, extend_xdrop, AlignWorkspace, Dir, Scoring, SeedExtender, SeedHit, SimdMode,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Allocations (incl. reallocations) performed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

fn noisy_pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    // Deterministic template + light mutation so the extension runs the
    // full length (many antidiagonals).
    let mut state = 0xFEED_5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let a: Vec<u8> = (0..len).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
    let b: Vec<u8> = a
        .iter()
        .map(|&c| if next() % 20 == 0 { b"ACGT"[(next() % 4) as usize] } else { c })
        .collect();
    (a, b)
}

#[test]
fn warmed_workspace_kernels_do_not_allocate() {
    let (a, b) = noisy_pair(1_500);
    let sc = Scoring::bella();
    let seed = SeedHit { a_pos: 600, b_pos: 600, k: 17 };
    let small_seed = SeedHit { a_pos: 100, b_pos: 100, k: 17 };
    let mut ws = AlignWorkspace::new();

    // Each core has rows of its own — the lane kernel's are `i16` with a
    // sentinel and lane padding, and it stages padded forward and
    // reversed copies of both sequences; all of it must come from the
    // reused workspace. Warm each path once (first calls may grow the
    // buffers), then demand zero.
    let oracle_x = extend_xdrop(&a, &b, Dir::Fwd, sc, 25, &mut ws, SimdMode::Scalar);
    assert!(oracle_x.cells > 1_000, "extension too small to be probative");
    for mode in [SimdMode::Scalar, SimdMode::Auto] {
        let warm_x = extend_xdrop(&a, &b, Dir::Fwd, sc, 25, &mut ws, mode);
        let warm_s = extend_seed(&a, &b, seed, sc, 25, &mut ws, mode);
        assert_eq!(warm_x, oracle_x, "cores must agree");

        // Steady state: identical-shape calls must not touch the heap.
        let (n, again) =
            allocs_during(|| extend_xdrop(&a, &b, Dir::Fwd, sc, 25, &mut ws, mode));
        assert_eq!(n, 0, "extend_xdrop({mode:?}) allocated {n}x in steady state");
        assert_eq!(again, warm_x);

        let (n, again) = allocs_during(|| extend_seed(&a, &b, seed, sc, 25, &mut ws, mode));
        assert_eq!(n, 0, "extend_seed({mode:?}) allocated {n}x in steady state");
        assert_eq!(again, warm_s);

        // A smaller problem after a bigger one must also stay
        // allocation-free (buffers shrink logically, never physically).
        let (n, _) = allocs_during(|| {
            extend_seed(&a[..400], &b[..400], small_seed, sc, 25, &mut ws, mode)
        });
        assert_eq!(n, 0, "shrunken follow-up call on {mode:?} allocated {n}x");
    }

    // Once both are warm, switching core call by call — scalar, lane,
    // scalar, and an ineligible x that sends an `Auto` call down the
    // scalar path — never allocates either. (The wide x fills the whole
    // matrix, so it gets a warm-up of its own: scalar rows are sized to
    // the band.)
    let _ = extend_xdrop(&a[..700], &b[..700], Dir::Fwd, sc, 4_001, &mut ws, SimdMode::Auto);
    let (n, _) = allocs_during(|| {
        for (mode, x) in [
            (SimdMode::Scalar, 25),
            (SimdMode::Auto, 25),
            (SimdMode::Scalar, 25),
            (SimdMode::Auto, 4_001),
            (SimdMode::Auto, 25),
        ] {
            let _ = extend_xdrop(&a[..700], &b[..700], Dir::Fwd, sc, x, &mut ws, mode);
        }
    });
    assert_eq!(n, 0, "scalar/lane/scalar switching allocated {n}x");

    // A multi-seed task on the lane kernel: `a` staged once, `b` once, any
    // number of seeds — and every seed equal to the one-shot call.
    let seeds = [seed, small_seed, SeedHit { a_pos: 1_200, b_pos: 1_190, k: 17 }];
    let expect: Vec<_> = seeds
        .iter()
        .map(|&hit| extend_seed(&a, &b, hit, sc, 25, &mut ws, SimdMode::Scalar))
        .collect();
    let (n, got) = allocs_during(|| {
        let mut pair = SeedExtender::new(&a, sc, 25, &mut ws, SimdMode::Auto);
        pair.set_b(&b);
        seeds.map(|hit| pair.extend(hit))
    });
    assert_eq!(n, 0, "SeedExtender allocated {n}x over a warm workspace");
    assert_eq!(got.as_slice(), expect.as_slice());

    // Lane rows are sized from the ascending side alone: once an `a` of
    // the largest length has been seen — here against a 20-base `b`, so
    // no row was ever as wide as a long-by-long band — every pair at most
    // that long runs without allocating, whatever `b` it is paired with.
    let mut ws = AlignWorkspace::new();
    let short = &b[..20];
    for dir in [Dir::Fwd, Dir::Rev] {
        let _ = extend_xdrop(short, &b, dir, sc, 25, &mut ws, SimdMode::Auto); // stage a long `t`
        let _ = extend_xdrop(&a, short, dir, sc, 25, &mut ws, SimdMode::Auto); // the longest `s`
    }
    let (n, got) = allocs_during(|| {
        let long = extend_xdrop(&a, &b, Dir::Fwd, sc, 25, &mut ws, SimdMode::Auto);
        let rev = extend_xdrop(&a[..900], &b, Dir::Rev, sc, 25, &mut ws, SimdMode::Auto);
        let seeded = extend_seed(&a, &b, seed, sc, 25, &mut ws, SimdMode::Auto);
        (long, rev, seeded)
    });
    assert_eq!(n, 0, "lane rows grown for the longest `a` allocated {n}x on a long `b`");
    assert_eq!(got.0, oracle_x);
    assert_eq!(got.2, extend_seed(&a, &b, seed, sc, 25, &mut AlignWorkspace::new(), SimdMode::Scalar));
}
