//! Property tests for the SpGEMM overlap engine: on arbitrary k-mer
//! tables — reads repeating a k-mer included — the blocked `A·Aᵀ`
//! expansion emits exactly Algorithm 1's cross-read (pair, seed) multiset
//! — no duplicates, no losses — its bytes do not depend on the block size,
//! and the symbolic (count) pass predicts every record the numeric pass
//! writes, or under the one-seed fold writes it.

use dibella_io::ReadPartition;
use dibella_kcount::{KcountConfig, KmerHashTable, Occurrence, ReadKmerCsr};
use dibella_kmer::{Kmer1, Strand};
use dibella_overlap::{
    count_row_block, decode_pair_records, pack_row_block, ReadPair, SeedFold, SharedSeed,
};
use proptest::prelude::*;

const K: usize = 9;
const N_READS: u32 = 12;

fn kc() -> KcountConfig {
    KcountConfig {
        k: K,
        max_multiplicity: 64,
        bloom_fp_rate: 0.05,
        expected_distinct: 256,
        max_kmers_per_round: 1 << 16,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: 16,
    }
}

/// An arbitrary table: up to 10 random k-mers (reverse-complement
/// collisions between them are fine — every consumer sees the same
/// table), each with 2–8 random occurrences over 12 reads.
fn tables() -> impl Strategy<Value = KmerHashTable> {
    prop::collection::vec(
        (
            prop::collection::vec(0u8..4, K),
            prop::collection::vec((0..N_READS, 0u32..1000, any::<bool>()), 2..8),
        ),
        1..10,
    )
    .prop_map(|entries| {
        let c = kc();
        let mut t = KmerHashTable::with_capacity(entries.len());
        for (bases, occs) in entries {
            let ascii: Vec<u8> = bases.iter().map(|&b| b"ACGT"[b as usize]).collect();
            let km = Kmer1::from_ascii(&ascii).unwrap();
            t.promote(km);
            for (read, pos, rev) in occs {
                let strand = if rev { Strand::Reverse } else { Strand::Forward };
                assert!(t.record_occurrence(&km, Occurrence::new(read, pos, strand), &c));
            }
        }
        t
    })
}

/// Algorithm 1's double loop over the same table: every cross-read
/// occurrence pair, normalized `a < b`, as a multiset.
fn reference_multiset(table: &KmerHashTable) -> Vec<(ReadPair, SharedSeed)> {
    let mut out = Vec::new();
    for (_, entry) in table.iter() {
        let occs = &entry.occurrences;
        for i in 0..occs.len() {
            for j in (i + 1)..occs.len() {
                let (oi, oj) = (&occs[i], &occs[j]);
                if oi.read() == oj.read() {
                    continue;
                }
                let (pair, a_pos, b_pos) = if oi.read() < oj.read() {
                    (ReadPair::new(oi.read(), oj.read()), oi.pos(), oj.pos())
                } else {
                    (ReadPair::new(oj.read(), oi.read()), oj.pos(), oi.pos())
                };
                out.push((pair, SharedSeed::new(a_pos, b_pos, oi.strand() != oj.strand())));
            }
        }
    }
    out.sort_unstable();
    out
}

/// A block partition of the 12 reads over `ranks` ranks.
fn partition(ranks: usize) -> ReadPartition {
    let per = (N_READS as usize).div_ceil(ranks);
    let counts: Vec<usize> = (0..ranks)
        .map(|r| per.min((N_READS as usize).saturating_sub(r * per)))
        .collect();
    ReadPartition::from_counts(&counts)
}

/// Pack every row block and decode everything that would ship, as a
/// sorted multiset, plus the per-destination raw bytes.
fn spgemm_multiset(
    table: &KmerHashTable,
    ranks: usize,
    block: usize,
) -> (Vec<(ReadPair, SharedSeed)>, Vec<Vec<u8>>) {
    let csr = ReadKmerCsr::from_table(table);
    let part = partition(ranks);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); ranks];
    let mut seeds = Vec::new();
    for lo in (0..csr.n_rows()).step_by(block.max(1)) {
        let hi = (lo + block.max(1)).min(csr.n_rows());
        let out = pack_row_block(&csr, lo..hi, &part, ranks, SeedFold::All);
        assert!(out.lens.iter().flatten().sum::<usize>() >= out.bufs.iter().map(Vec::len).sum());
        for (d, b) in bufs.iter_mut().zip(out.bufs) {
            d.extend_from_slice(&b);
        }
    }
    for buf in &bufs {
        decode_pair_records(buf, |p, record| seeds.extend(record.map(|s| (p, s)))).unwrap();
    }
    seeds.sort_unstable();
    (seeds, bufs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SpGEMM expansion is exactly Algorithm 1: same (pair, seed)
    /// multiset, for any rank count and block size.
    #[test]
    fn spgemm_multiset_equals_algorithm_one(
        table in tables(),
        ranks in 1usize..4,
        block in 1usize..6,
    ) {
        let want = reference_multiset(&table);
        let (got, _) = spgemm_multiset(&table, ranks, block);
        prop_assert_eq!(got, want);
    }

    /// Blocking never changes the concatenated stream.
    #[test]
    fn blocking_is_byte_identical(table in tables(), block in 1usize..6) {
        let (_, whole) = spgemm_multiset(&table, 3, usize::MAX >> 1);
        let (_, blocked) = spgemm_multiset(&table, 3, block);
        prop_assert_eq!(whole, blocked);
    }

    /// The symbolic pass is the numeric pass without the bytes: the same
    /// record lengths per destination in the same order, the same
    /// counters — under both folds the pipeline runs, for any rank count
    /// and row range (random tables repeat a read position across k-mers,
    /// so pairs with duplicate seeds are covered). Under `Min` it folds as
    /// it counts, and its bytes are the numeric pass's too.
    #[test]
    fn symbolic_lengths_equal_numeric_lengths(
        table in tables(),
        ranks in 1usize..4,
        lo in 0usize..6,
        len in 0usize..12,
    ) {
        let csr = ReadKmerCsr::from_table(&table);
        let part = partition(ranks);
        let rows = lo.min(csr.n_rows())..(lo + len).min(csr.n_rows());
        for fold in [SeedFold::All, SeedFold::Min] {
            let counted = count_row_block(&csr, rows.clone(), &part, ranks, fold);
            let packed = pack_row_block(&csr, rows.clone(), &part, ranks, fold);
            prop_assert_eq!(&counted.lens, &packed.lens);
            prop_assert_eq!(
                (counted.records, counted.seeds, counted.instances),
                (packed.records, packed.seeds, packed.instances)
            );
            match fold {
                SeedFold::All => prop_assert!(counted.bufs.iter().all(Vec::is_empty)),
                SeedFold::Min => prop_assert_eq!(&counted.bufs, &packed.bufs),
            }
            // Each record is planned at its raw `12 + 8n` bytes; coding
            // only ever shortens what is written.
            for (lens, buf) in packed.lens.iter().zip(&packed.bufs) {
                let mut written = Vec::new();
                let records = decode_pair_records(buf, |_, seeds| {
                    written.push((12 + 8 * seeds.len(), seeds.record().len()))
                });
                prop_assert_eq!(records, Ok(lens.len() as u64));
                prop_assert_eq!(written.iter().map(|w| w.0).collect::<Vec<_>>(), lens.clone());
                prop_assert!(written.iter().all(|&(planned, len)| len <= planned));
            }
        }
    }
}
