//! The baseline's per-seed extension performs no heap allocation once its
//! workspace is warm — it runs the pipeline's kernel on the pipeline's
//! terms, not a per-call-allocating twin of it. Counting-allocator
//! pattern of `crates/align/tests/alloc_count.rs`; a single `#[test]` so
//! no sibling test thread can allocate while a window is being counted.

use dibella_align::AlignWorkspace;
use dibella_baseline::{align_pair, BaselineConfig};
use dibella_kmer::base::reverse_complement_ascii;
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

#[test]
fn warm_pair_alignment_does_not_allocate() {
    // A read, and a partner that is a lightly mutated copy of it.
    let mut state = 0xBA5E_11AEu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let a: Vec<u8> = (0..1_500).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
    let b: Vec<u8> = a
        .iter()
        .map(|&c| if next() % 20 == 0 { b"ACGT"[(next() % 4) as usize] } else { c })
        .collect();
    let b_stored = reverse_complement_ascii(&b);
    let cfg = BaselineConfig::default();
    let k = cfg.k as u32;

    // Forward seeds against `b`; reverse seeds against its stored reverse
    // complement, positions in the stored read's own frame.
    let rev_pos = |p: u32| b_stored.len() as u32 - k - p;
    let fwd_seeds = [(300, 300, false), (700, 700, false), (1_200, 1_200, false)];
    let rev_seeds = [(300, rev_pos(300), true), (900, rev_pos(900), true)];

    let mut ws = AlignWorkspace::new();
    let mut out = Vec::with_capacity(16);
    let mut run = |partner: &[u8], seeds: &[(u32, u32, bool)], out: &mut Vec<_>| {
        out.clear();
        align_pair((0, 1), &a, partner, seeds, &cfg, &mut ws, out);
    };

    // Warm-up: the first calls grow the workspace.
    run(&b, &fwd_seeds, &mut out);
    let warm_fwd = out.clone();
    run(&b_stored, &rev_seeds, &mut out);
    let warm_rev = out.clone();
    assert_eq!(warm_fwd.len(), 3);
    assert_eq!(warm_rev.len(), 2);
    assert!(warm_fwd.iter().chain(&warm_rev).all(|al| al.cells > 10_000 && al.score > 1_000));

    let before = ALLOCS.load(Ordering::Relaxed);
    run(&b, &fwd_seeds, &mut out);
    let fwd_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(fwd_allocs, 0, "forward-seed extensions allocated {fwd_allocs}x");
    assert_eq!(out, warm_fwd);

    let before = ALLOCS.load(Ordering::Relaxed);
    run(&b_stored, &rev_seeds, &mut out);
    let rev_allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(rev_allocs, 0, "reverse-seed extensions allocated {rev_allocs}x");
    assert_eq!(out, warm_rev);
}
