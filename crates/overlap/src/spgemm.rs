//! SpGEMM overlap engine: blocked `A·Aᵀ` pair discovery (the BELLA /
//! diBELLA-2D formulation), and the **pair record** — stage 3's one wire
//! format, which both engines emit and every destination decodes.
//!
//! The paper's Algorithm 1 (the `pairs` engine in [`crate::stage`])
//! enumerates every occurrence pair of every retained k-mer in table
//! order. This engine reformulates the same enumeration as the sparse
//! matrix product `A·Aᵀ` of the read-by-k-mer matrix
//! ([`dibella_kcount::ReadKmerCsr`]), so that all of a pair's local seeds
//! meet in one row accumulator:
//!
//! 1. rows (local reads) are cut into fixed `spgemm_block`-row blocks —
//!    the parallel decomposition, fanned out on the shared
//!    [`BatchedExecutor`] and merged in block order;
//! 2. each row `i` runs a Gustavson accumulation: for every row entry
//!    `(c, pos, strand)` and every occurrence `(j, pos_j, strand_j)` of
//!    column `c` with `read_j > read_i`, fold the seed into the list kept
//!    under key `read_j` with the run's [`SeedFold`] — the semiring "add"
//!    (strictly upper triangular, so each unordered occurrence pair is
//!    produced by exactly one row — the smaller read's);
//! 3. per pair `(a, b)` one variable-length wire record carries the seeds
//!    the fold kept:
//!
//!    ```text
//!    ┌────────┬────────┬────────┬──────────────────────────────────┐
//!    │ a: u32 │ b: u32 │ n: u32 │ n × (a_pos: u32, b_pos | rev<<31)│
//!    └────────┴────────┴────────┴──────────────────────────────────┘
//!        12-byte header                 8 bytes per seed
//!    ```
//!
//!    at most 20 bytes per seed instance (a one-seed record), 8 when a
//!    pair's seeds ship together, and 20 per *pair* under
//!    `SeedFold::Smallest(1)`. Bit 31 of `b_pos` is the orientation, so a
//!    position must stay below 2³¹ — [`write_pair_record`] refuses one
//!    that does not;
//! 4. the per-destination record streams ship through the standard
//!    [`ByteRounds`]-planned [`RoundExchange`](dibella_comm::RoundExchange),
//!    so the engine stays memory-bounded under `--round-mb`, and the
//!    destination folds arrivals exactly as it does for the pairs engine
//!    (`exchange_records` in [`crate::stage`]).
//!
//! Determinism: column order is the CSR's canonical k-mer sort, row order
//! is ascending read ID, blocks are a pure function of the row count, and
//! both accumulator variants ([`SpgemmAccumulator::Dense`] /
//! [`SpgemmAccumulator::Hash`]) emit candidate reads in ascending-`b`
//! order with seeds folded in row-entry (column) order — so the wire bytes
//! are bit-identical across thread counts, accumulator choices, and round
//! caps, and the shared chain/policy epilogue in [`crate::stage`] produces
//! bit-identical alignments.

use crate::policy::SeedFold;
use crate::stage::{exchange_records, OverlapConfig, OverlapCounters, PairSeeds};
use crate::task::{ReadPair, SharedSeed, TaskPlacement};
use dibella_comm::{BatchedExecutor, ByteRounds, Comm};
use dibella_io::ReadPartition;
use dibella_kcount::{KmerHashTable, ReadKmerCsr};
use std::collections::HashMap;
use std::ops::Range;

/// Bytes of a pair record's `(a, b, n)` header.
pub const RECORD_HEADER_BYTES: usize = 12;
/// Bytes per seed within a pair record.
pub const SEED_BYTES: usize = 8;

/// Gustavson row-accumulator variant. The two implementations traverse
/// identically and emit identical bytes — only the `b → seeds` lookup
/// structure differs, which is what the `spgemm_rows_per_sec` bench
/// compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpgemmAccumulator {
    /// Per block, pick [`Self::Dense`] when the block's flop bound is at
    /// least a quarter of the global read count (the dense array's
    /// O(reads) touch cost is amortized), else [`Self::Hash`]. A pure
    /// function of the input — never of the thread count.
    #[default]
    Auto,
    /// Dense: a `Vec` slot per global read plus a touched list — O(1)
    /// accumulation, best for dense row blocks.
    Dense,
    /// Hash: a `HashMap` keyed by candidate read — O(touched) memory,
    /// best for sparse row blocks.
    Hash,
}

/// One row block's packed output: per-destination wire bytes, the record
/// geometry [`ByteRounds`] plans with, and the emission counters.
#[derive(Debug, Default)]
pub struct SpgemmBlockOut {
    /// Per-destination encoded pair records.
    pub bufs: Vec<Vec<u8>>,
    /// Per-destination record lengths, in send order.
    pub lens: Vec<Vec<usize>>,
    /// Wire records emitted (one per pair with a cross-read seed).
    pub records: u64,
    /// Seeds those records carry — what the fold kept.
    pub seeds: u64,
    /// Shared-seed instances enumerated (`≥ seeds`; equal under
    /// [`SeedFold::All`]).
    pub instances: u64,
}

/// Append one pair record to `buf`; returns its length in bytes.
///
/// # Panics
/// Panics on a `b_pos ≥ 2³¹`: the record keeps the orientation in that
/// bit, so such a position — a read of two gigabases — would come out of
/// [`decode_pair_records`] on the other strand.
pub fn write_pair_record(buf: &mut Vec<u8>, pair: ReadPair, seeds: &[SharedSeed]) -> usize {
    buf.extend_from_slice(&pair.a.to_le_bytes());
    buf.extend_from_slice(&pair.b.to_le_bytes());
    buf.extend_from_slice(&(seeds.len() as u32).to_le_bytes());
    for s in seeds {
        assert!(s.b_pos < 1 << 31, "position {} needs bit 31: reads must be shorter than 2^31 bases", s.b_pos);
        buf.extend_from_slice(&s.a_pos.to_le_bytes());
        buf.extend_from_slice(&(s.b_pos | (s.reverse as u32) << 31).to_le_bytes());
    }
    RECORD_HEADER_BYTES + SEED_BYTES * seeds.len()
}

/// Per-row accumulator: `b → folded seeds`, drained in ascending `b`.
enum Acc {
    Dense { slots: Vec<Vec<SharedSeed>>, touched: Vec<u32> },
    Hash { map: HashMap<u32, Vec<SharedSeed>> },
}

impl Acc {
    fn new(kind: SpgemmAccumulator, csr: &ReadKmerCsr, rows: &Range<usize>, n_reads: usize) -> Self {
        let kind = match kind {
            SpgemmAccumulator::Auto => {
                if csr.block_flops(rows.start, rows.end) >= n_reads as u64 / 4 {
                    SpgemmAccumulator::Dense
                } else {
                    SpgemmAccumulator::Hash
                }
            }
            pinned => pinned,
        };
        match kind {
            SpgemmAccumulator::Dense => Acc::Dense {
                slots: vec![Vec::new(); n_reads],
                touched: Vec::new(),
            },
            _ => Acc::Hash { map: HashMap::new() },
        }
    }

    #[inline]
    fn add(&mut self, fold: SeedFold, b: u32, seed: SharedSeed) {
        match self {
            Acc::Dense { slots, touched } => {
                let slot = &mut slots[b as usize];
                if slot.is_empty() {
                    touched.push(b);
                }
                fold.add(slot, seed);
            }
            Acc::Hash { map } => fold.add(map.entry(b).or_default(), seed),
        }
    }

    /// Emit `(b, seeds)` in ascending `b`, then reset for the next row.
    fn drain(&mut self, mut f: impl FnMut(u32, &[SharedSeed])) {
        match self {
            Acc::Dense { slots, touched } => {
                touched.sort_unstable();
                for &b in touched.iter() {
                    f(b, &slots[b as usize]);
                }
                for &b in touched.iter() {
                    slots[b as usize].clear();
                }
                touched.clear();
            }
            Acc::Hash { map } => {
                let mut keys: Vec<u32> = map.keys().copied().collect();
                keys.sort_unstable();
                for b in keys {
                    f(b, &map[&b]);
                }
                map.clear();
            }
        }
    }
}

/// Expand row range `rows` of the `A·Aᵀ` product into per-destination
/// pair records, each pair's seeds accumulated under `fold` — one executor
/// batch of the SpGEMM engine, also driven directly by the
/// `spgemm_rows_per_sec` bench. Deterministic: identical bytes for every
/// accumulator variant and thread count.
#[allow(clippy::too_many_arguments)]
pub fn pack_row_block(
    csr: &ReadKmerCsr,
    rows: Range<usize>,
    read_part: &ReadPartition,
    placement: TaskPlacement,
    lengths: Option<&[u32]>,
    ranks: usize,
    acc_kind: SpgemmAccumulator,
    fold: SeedFold,
) -> SpgemmBlockOut {
    let mut out = SpgemmBlockOut {
        bufs: vec![Vec::new(); ranks],
        lens: vec![Vec::new(); ranks],
        ..Default::default()
    };
    let mut acc = Acc::new(acc_kind, csr, &rows, read_part.n_reads());
    for r in rows {
        let a = csr.row_read(r);
        for e in csr.row(r) {
            for occ in csr.col(e.col) {
                // Strictly upper triangular: the smaller read's row owns
                // the pair, so each cross-read occurrence pair is produced
                // exactly once (same-read occurrence pairs witness no
                // overlap and are skipped by `occ.read == a`).
                if occ.read > a {
                    out.instances += 1;
                    acc.add(
                        fold,
                        occ.read,
                        SharedSeed { a_pos: e.pos, b_pos: occ.pos, reverse: e.strand != occ.strand },
                    );
                }
            }
        }
        acc.drain(|b, seeds| {
            let dest = read_part.owner_of(placement.home(a, b, lengths));
            let len = write_pair_record(&mut out.bufs[dest], ReadPair { a, b }, seeds);
            out.lens[dest].push(len);
            out.records += 1;
            out.seeds += seeds.len() as u64;
        });
    }
    out
}

/// The seeds one wire record carries, decoded lazily in wire order.
#[derive(Clone, Debug)]
pub struct RecordSeeds<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for RecordSeeds<'_> {
    type Item = SharedSeed;

    fn next(&mut self) -> Option<SharedSeed> {
        let s = self.0.next()?;
        let packed = u32_at(s, 4);
        Some(SharedSeed { a_pos: u32_at(s, 0), b_pos: packed & !(1 << 31), reverse: packed >> 31 == 1 })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for RecordSeeds<'_> {}

fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte field"))
}

/// Decode a buffer of pair records, invoking `f(pair, seeds)` once per
/// record with the seeds it carries, so a consumer pays its per-pair cost
/// per record, not per seed. Returns the record count.
///
/// # Panics
/// Panics if `buf` is not a whole number of records.
pub fn decode_pair_records(buf: &[u8], mut f: impl FnMut(ReadPair, RecordSeeds<'_>)) -> u64 {
    let mut rest = buf;
    let mut records = 0u64;
    while !rest.is_empty() {
        assert!(rest.len() >= RECORD_HEADER_BYTES, "truncated record header");
        let (header, body) = rest.split_at(RECORD_HEADER_BYTES);
        let (a, b, n) = (u32_at(header, 0), u32_at(header, 4), u32_at(header, 8) as usize);
        let seed_bytes = SEED_BYTES
            .checked_mul(n)
            .filter(|&need| need <= body.len())
            .expect("truncated seed list");
        let (seeds, tail) = body.split_at(seed_bytes);
        f(ReadPair { a, b }, RecordSeeds(seeds.chunks_exact(SEED_BYTES)));
        rest = tail;
        records += 1;
    }
    records
}

/// The SpGEMM engine's source half: build the CSR, expand row blocks on
/// the executor, plan the variable-length record stream with
/// [`ByteRounds`] and hand it to the exchange both engines share.
pub(crate) fn spgemm_exchange(
    comm: &Comm,
    table: &KmerHashTable,
    read_part: &ReadPartition,
    cfg: &OverlapConfig,
    lengths: Option<&[u32]>,
    exec: &BatchedExecutor,
    fold: SeedFold,
) -> (PairSeeds, OverlapCounters) {
    let p = comm.size();
    let csr = ReadKmerCsr::from_table(table);
    let block = cfg.spgemm_block.max(1);
    let n_blocks = csr.n_rows().div_ceil(block);

    // Row blocks are the parallel decomposition: fixed-size cuts of the
    // row axis, expanded independently and merged in block order — the
    // record stream is bit-identical at any thread count.
    let parts = exec.map_indexed(n_blocks, |bi| {
        let lo = bi * block;
        let hi = (lo + block).min(csr.n_rows());
        let acc = SpgemmAccumulator::Auto;
        pack_row_block(&csr, lo..hi, read_part, cfg.placement, lengths, p, acc, fold)
    });
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); p];
    let mut lens: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut counters = OverlapCounters::default();
    for part in parts {
        counters.pairs_emitted += part.instances;
        counters.candidate_pairs_emitted += part.records;
        counters.seeds_shipped += part.seeds;
        for (dest, bytes) in bufs.iter_mut().zip(part.bufs) {
            if dest.is_empty() {
                *dest = bytes;
            } else {
                dest.extend_from_slice(&bytes);
            }
        }
        for (dest, l) in lens.iter_mut().zip(part.lens) {
            dest.extend_from_slice(&l);
        }
    }

    let split = ByteRounds::plan(&lens, cfg.max_exchange_bytes_per_round);
    let pairs;
    (pairs, counters.seeds_received, counters.rounds) =
        exchange_records(comm, split.round_plan(), fold, |round| split.pack(round, &bufs));
    (pairs, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_kcount::{KcountConfig, Occurrence};
    use dibella_kmer::{Kmer1, Strand};

    fn kc() -> KcountConfig {
        KcountConfig {
            k: 5,
            max_multiplicity: 16,
            bloom_fp_rate: 0.05,
            expected_distinct: 64,
            max_kmers_per_round: 1 << 16,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: KcountConfig::DEFAULT_EXTRACT_BATCH,
        }
    }

    fn table_with(entries: &[(&[u8], Vec<Occurrence>)]) -> KmerHashTable {
        let c = kc();
        let mut t = KmerHashTable::with_capacity(entries.len());
        for (s, occs) in entries {
            let km = Kmer1::from_ascii(s).unwrap();
            t.insert_key(km);
            for o in occs {
                assert!(t.record_occurrence(&km, *o, &c));
            }
        }
        t
    }

    fn occ(read: u32, pos: u32, strand: Strand) -> Occurrence {
        Occurrence { read, pos, strand }
    }

    /// Shared-seed pairs come out as one record carrying all seeds, and
    /// the decode round-trips the pack exactly.
    #[test]
    fn pack_consolidates_and_roundtrips() {
        // Reads 0 and 1 share two k-mers; read 2 shares one with read 0.
        let t = table_with(&[
            (b"ACGTA", vec![occ(0, 3, Strand::Forward), occ(1, 7, Strand::Forward)]),
            (b"CATCA", vec![occ(0, 9, Strand::Forward), occ(1, 1, Strand::Reverse)]),
            (b"GGGTG", vec![occ(0, 20, Strand::Forward), occ(2, 5, Strand::Forward)]),
        ]);
        let csr = ReadKmerCsr::from_table(&t);
        let part = ReadPartition::from_counts(&[3]);
        let out = pack_row_block(
            &csr,
            0..csr.n_rows(),
            &part,
            TaskPlacement::Parity,
            None,
            1,
            SpgemmAccumulator::Auto,
            SeedFold::All,
        );
        assert_eq!(out.records, 2, "one record per pair");
        assert_eq!(out.seeds, 3, "three seed contributions");
        assert_eq!(out.instances, 3);
        assert_eq!(
            out.bufs[0].len(),
            2 * RECORD_HEADER_BYTES + 3 * SEED_BYTES,
            "12 + 8n bytes per record"
        );
        assert_eq!(out.lens[0].iter().sum::<usize>(), out.bufs[0].len());
        let mut got: Vec<(ReadPair, SharedSeed)> = Vec::new();
        let records = decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s))));
        assert_eq!(records, 2);
        let mut want = vec![
            (ReadPair::new(0, 1), SharedSeed { a_pos: 3, b_pos: 7, reverse: false }),
            (ReadPair::new(0, 1), SharedSeed { a_pos: 9, b_pos: 1, reverse: true }),
            (ReadPair::new(0, 2), SharedSeed { a_pos: 20, b_pos: 5, reverse: false }),
        ];
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// Dense and hash accumulators emit byte-identical streams, and block
    /// size never changes the concatenated bytes.
    #[test]
    fn accumulator_variants_and_blocking_are_byte_identical() {
        let t = table_with(&[
            (
                b"ACGTA",
                vec![occ(0, 0, Strand::Forward), occ(2, 4, Strand::Reverse), occ(5, 9, Strand::Forward)],
            ),
            (
                b"CATCA",
                vec![occ(2, 1, Strand::Forward), occ(5, 3, Strand::Forward), occ(0, 8, Strand::Forward)],
            ),
            (b"TTTCT", vec![occ(1, 2, Strand::Forward), occ(4, 6, Strand::Reverse)]),
            (
                b"GGGTG",
                vec![occ(0, 11, Strand::Forward), occ(1, 13, Strand::Forward), occ(2, 15, Strand::Forward)],
            ),
        ]);
        let csr = ReadKmerCsr::from_table(&t);
        let part = ReadPartition::from_counts(&[3, 3]);
        let run = |acc: SpgemmAccumulator, block: usize, fold: SeedFold| {
            let mut merged: Vec<Vec<u8>> = vec![Vec::new(); 2];
            for lo in (0..csr.n_rows()).step_by(block) {
                let hi = (lo + block).min(csr.n_rows());
                let out =
                    pack_row_block(&csr, lo..hi, &part, TaskPlacement::Parity, None, 2, acc, fold);
                for (d, b) in merged.iter_mut().zip(out.bufs) {
                    d.extend_from_slice(&b);
                }
            }
            merged
        };
        for fold in [SeedFold::All, SeedFold::Smallest(1)] {
            let baseline = run(SpgemmAccumulator::Dense, csr.n_rows(), fold);
            for acc in [SpgemmAccumulator::Hash, SpgemmAccumulator::Auto] {
                for block in [1usize, 2, 3, 64] {
                    assert_eq!(run(acc, block, fold), baseline, "acc={acc:?} block={block} {fold:?}");
                }
            }
        }
    }

    /// Under `Smallest(1)` a pair's record carries its minimum seed only,
    /// and the instances it stood for are still counted.
    #[test]
    fn folded_rows_ship_the_minimum_seed_per_pair() {
        let t = table_with(&[
            (b"ACGTA", vec![occ(0, 9, Strand::Forward), occ(1, 7, Strand::Forward)]),
            (b"CATCA", vec![occ(0, 3, Strand::Forward), occ(1, 1, Strand::Reverse)]),
            (b"GGGTG", vec![occ(0, 3, Strand::Forward), occ(1, 0, Strand::Forward)]),
        ]);
        let csr = ReadKmerCsr::from_table(&t);
        let part = ReadPartition::from_counts(&[2]);
        let out = pack_row_block(
            &csr,
            0..csr.n_rows(),
            &part,
            TaskPlacement::Parity,
            None,
            1,
            SpgemmAccumulator::Auto,
            SeedFold::Smallest(1),
        );
        assert_eq!((out.instances, out.records, out.seeds), (3, 1, 1));
        assert_eq!(out.bufs[0].len(), RECORD_HEADER_BYTES + SEED_BYTES);
        let mut got = Vec::new();
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s))));
        assert_eq!(got, vec![(ReadPair::new(0, 1), SharedSeed { a_pos: 3, b_pos: 0, reverse: false })]);
    }

    /// The orientation bit survives packing next to a large position.
    #[test]
    fn orientation_bit_does_not_corrupt_positions() {
        let t = table_with(&[(
            b"ACGTA",
            vec![occ(0, 123_456, Strand::Forward), occ(1, 654_321, Strand::Reverse)],
        )]);
        let csr = ReadKmerCsr::from_table(&t);
        let part = ReadPartition::from_counts(&[2]);
        let out = pack_row_block(
            &csr,
            0..csr.n_rows(),
            &part,
            TaskPlacement::Parity,
            None,
            1,
            SpgemmAccumulator::Hash,
            SeedFold::All,
        );
        let mut got = Vec::new();
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s))));
        assert_eq!(
            got,
            vec![(
                ReadPair::new(0, 1),
                SharedSeed { a_pos: 123_456, b_pos: 654_321, reverse: true }
            )]
        );
    }

    /// Bit 31 of `b_pos` is the orientation: a position that needs it is
    /// refused in every build profile, not shipped as a flipped strand.
    #[test]
    #[should_panic(expected = "reads must be shorter than 2^31 bases")]
    fn a_position_needing_the_orientation_bit_is_refused() {
        let seed = SharedSeed { a_pos: 0, b_pos: 1 << 31, reverse: false };
        write_pair_record(&mut Vec::new(), ReadPair::new(0, 1), &[seed]);
    }

    /// A well-formed record: pair (3, 9), two seeds.
    fn one_record() -> Vec<u8> {
        [3u32, 9, 2, 10, 20, 30, 40 | 1 << 31].iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn decode_hands_each_record_its_seeds_once() {
        let mut buf = one_record();
        buf.extend_from_slice(&one_record());
        let mut calls = Vec::new();
        let records = decode_pair_records(&buf, |p, seeds| {
            let n = seeds.len();
            calls.push((p, n, seeds.collect::<Vec<_>>()));
        });
        assert_eq!(records, 2);
        let seeds = vec![
            SharedSeed { a_pos: 10, b_pos: 20, reverse: false },
            SharedSeed { a_pos: 30, b_pos: 40, reverse: true },
        ];
        assert_eq!(calls, vec![(ReadPair::new(3, 9), 2, seeds.clone()), (ReadPair::new(3, 9), 2, seeds)]);
    }

    #[test]
    #[should_panic(expected = "truncated record header")]
    fn decode_rejects_a_cut_header() {
        let mut buf = one_record();
        buf.extend_from_slice(&one_record()[..RECORD_HEADER_BYTES - 1]);
        decode_pair_records(&buf, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "truncated seed list")]
    fn decode_rejects_a_cut_seed_list() {
        let buf = one_record();
        decode_pair_records(&buf[..buf.len() - 1], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "truncated seed list")]
    fn decode_rejects_a_seed_count_beyond_the_buffer() {
        let mut buf = one_record();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        decode_pair_records(&buf, |_, _| {});
    }
}
