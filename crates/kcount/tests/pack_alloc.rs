//! Allocation shape of the two k-mer packers: a packed batch allocates
//! once per destination (plus the round's one per destination), not once
//! per k-mer, per record or per buffer doubling. A counting global
//! allocator wraps the system allocator, as in
//! `crates/align/tests/alloc_count.rs`.
//!
//! Kept to a single `#[test]` so no sibling test thread can allocate
//! while a window is being counted.

use dibella_comm::BatchedExecutor;
use dibella_io::Read;
use dibella_kcount::{pack_supermers, pack_windows};
use dibella_kmer::WindowIndex;
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

fn random_read(id: u32, len: usize) -> Read {
    let mut state = 0x00C0_FFEE_u64 + id as u64;
    let seq: Vec<u8> = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state % 4) as usize]
        })
        .collect();
    Read::new(id, format!("r{id}"), seq)
}

#[test]
fn a_packed_batch_allocates_per_destination_not_per_kmer() {
    let k = 21usize;
    let w = 10usize;
    let exec = BatchedExecutor::sequential();
    for ranks in [2usize, 7] {
        let mut per_size = Vec::new();
        for windows in [1_024usize, 16_384] {
            let reads = [random_read(0, windows + k - 1)];
            let idx = WindowIndex::new(reads.iter().map(|r| r.len()), k);
            // One batch covering the whole range, as a round of its own.
            let (runs_allocs, (bufs, parsed)) = allocs_during(|| {
                pack_supermers(&reads, &idx, 0, windows as u64, ranks, windows, &exec)
            });
            assert_eq!(parsed, windows as u64);
            let bytes = bufs.iter().map(Vec::len).sum::<usize>();
            assert!(bytes < 4 * windows, "{bytes} B for {windows} k-mers");
            // The round's buffer and the batch's, per destination.
            assert!(
                runs_allocs <= 2 * ranks as u64 + 4,
                "{runs_allocs} allocations for one batch of {windows} k-mers to {ranks} ranks"
            );

            let (mini_allocs, (bufs, parsed)) = allocs_during(|| {
                pack_windows(&reads, &idx, 0, windows as u64, ranks, w, windows, &exec, &mut Vec::new())
            });
            assert!(parsed > 0 && (parsed as usize) < windows / 2);
            assert_eq!(bufs.iter().map(Vec::len).sum::<usize>(), 20 * parsed as usize);
            // Its selection stages the piece's hits in vectors that double
            // as they grow: logarithmic in the k-mer count, on top of the
            // same per-destination buffers.
            let doublings = 3 * (windows.ilog2() as u64 + 1);
            assert!(
                mini_allocs <= 2 * ranks as u64 + 4 + doublings,
                "{mini_allocs} allocations for the minimizers of {windows} windows to {ranks} ranks"
            );
            per_size.push(runs_allocs);
        }
        assert_eq!(per_size[0], per_size[1], "allocations grew with the k-mer count (ranks={ranks})");
    }
}
