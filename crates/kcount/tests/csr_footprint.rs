//! What the read-by-k-mer CSR keeps, measured rather than inspected: a
//! counting global allocator tracks live heap bytes, and after
//! `ReadKmerCsr::from_table` returns the view may hold no more than
//! `4 B × distinct (read, k-mer) + 16 B × columns + O(rows + max read id)`
//! — columns borrowed from the table, each row naming a column once. A
//! view that copies occurrences (12 B each, once per column and once per
//! row) holds several times that on a table whose k-mers occur a handful
//! of times each.
//!
//! Kept to a single `#[test]` so no sibling test thread can allocate
//! while a window is being counted.

use dibella_kcount::{KcountConfig, KmerHashTable, Occurrence, ReadKmerCsr};
use dibella_kmer::{Kmer1, Strand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counters are plain statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed) - FREED.load(Ordering::Relaxed)
}

/// `n_kmers` random 17-mers, each at 2–9 occurrences over `n_reads`
/// reads; a few percent of them name some read twice.
fn table(n_reads: u32, n_kmers: usize) -> KmerHashTable {
    let kc = KcountConfig {
        k: 17,
        max_multiplicity: 64,
        bloom_fp_rate: 0.05,
        expected_distinct: n_kmers as u64,
        max_kmers_per_round: 1 << 20,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: KcountConfig::DEFAULT_EXTRACT_BATCH,
    };
    let mut state = 0xC5A_F007u64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t = KmerHashTable::with_capacity(n_kmers);
    while t.len() < n_kmers {
        let ascii: Vec<u8> = (0..17).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
        let km = Kmer1::from_ascii(&ascii).expect("17-mer");
        if t.contains(&km) {
            continue;
        }
        t.insert_key(km);
        for _ in 0..2 + rnd() % 8 {
            let strand = if rnd() % 2 == 0 {
                Strand::Forward
            } else {
                Strand::Reverse
            };
            let occ = Occurrence {
                read: (rnd() % n_reads as u64) as u32,
                pos: (rnd() % 10_000) as u32,
                strand,
            };
            assert!(t.record_occurrence(&km, occ, &kc));
        }
    }
    t
}

#[test]
fn csr_keeps_a_column_per_row_entry_and_borrows_the_occurrences() {
    let t = table(300, 4_000);
    let occurrences: usize = t.iter().map(|(_, e)| e.occurrences.len()).sum();
    let distinct: usize = t
        .iter()
        .map(|(_, e)| {
            e.occurrences
                .iter()
                .map(|o| o.read)
                .collect::<HashSet<_>>()
                .len()
        })
        .sum();
    let reads: HashSet<u32> = t
        .iter()
        .flat_map(|(_, e)| e.occurrences.iter().map(|o| o.read))
        .collect();
    let max_read = *reads.iter().max().expect("reads") as u64;
    assert!(
        distinct < occurrences,
        "the table must repeat a k-mer within a read"
    );

    let before = live_bytes();
    let csr = ReadKmerCsr::from_table(&t);
    let kept = live_bytes() - before;

    let (distinct, columns, rows) = (distinct as u64, t.len() as u64, reads.len() as u64);
    let bound = 4 * distinct + 16 * columns + 16 * (rows + max_read + 1);
    assert!(
        kept <= bound,
        "the CSR keeps {kept} B for {distinct} row entries, {columns} columns and {rows} rows \
         ({occurrences} occurrences): over the {bound} B bound"
    );
    assert_eq!((csr.n_rows() as u64, csr.n_cols() as u64), (rows, columns));
    drop(csr);
    assert_eq!(live_bytes(), before, "dropping the view frees what it kept");
}
