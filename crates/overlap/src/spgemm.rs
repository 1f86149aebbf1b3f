//! Stage 3's discovery engine: blocked `A·Aᵀ` pair discovery (the BELLA /
//! diBELLA-2D formulation), streamed in two phases, and the **pair
//! record** — stage 3's one wire format.
//!
//! The paper's Algorithm 1 enumerates every occurrence pair of every
//! retained k-mer in table order; [`crate::reference_pairs`] keeps that
//! loop as the oracle the tests compare against. This engine computes the
//! same pair multiset as the sparse matrix product `A·Aᵀ` of the
//! read-by-k-mer matrix ([`dibella_kcount::ReadKmerCsr`]), so that all of
//! a pair's local seeds meet in one row accumulator:
//!
//! 1. each row `i` (a local read) runs a Gustavson accumulation: for every
//!    column `c` of the row, every occurrence `(i, pos, strand)` of `c` in
//!    read `i` (in column order) and every occurrence `(j, pos_j,
//!    strand_j)` of `c` with `j > i`, fold the seed into the list kept
//!    under key `j` with the run's [`SeedFold`] — the semiring "add"
//!    (strictly upper triangular, so each unordered occurrence pair is
//!    produced by exactly one row — the smaller read's);
//! 2. per pair `(a, b)` one variable-length wire record carries the seeds
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
//!    [`SeedFold::Min`]. Bit 31 of `b_pos` is the orientation, so a
//!    position must stay below 2³¹ — [`write_pair_record`] refuses one
//!    that does not, and ingest refuses a read of 2³¹ bases before any
//!    position is taken from it.
//!
//! # Two phases, one round at a time
//!
//! As in the SpGEMM literature the engine runs a *symbolic* pass before
//! the *numeric* one; the fold decides whether the numeric pass runs:
//!
//! * **Symbolic** ([`count_row_block`]): one Gustavson count pass over
//!   every row, with a dense accumulator per global read and a touched
//!   list, yields every record each row will emit, per destination, in
//!   send order.
//!   - Under [`SeedFold::All`] the accumulator is a `u32` counter — no
//!     seed lists, no bytes — and the pass yields each record's length.
//!     [`ByteRounds::plan`] over those lengths cuts the rounds, so the
//!     round count, every round's bytes and each destination's
//!     concatenated stream are exactly those of planning over the fully
//!     packed product (which is what [`pack_row_block`] over all rows,
//!     the test oracle, still produces).
//!   - Under [`SeedFold::Min`] the accumulator keeps the least seed
//!     beside the counter. A record is 20 bytes whatever it folded, so the
//!     pass writes the records themselves: it *is* the product, held at
//!     20 bytes per pair. [`ByteRounds::plan_uniform`] cuts the rounds
//!     `ByteRounds::plan` would from the record counts, and each round is
//!     a slice of the held product ([`ByteRounds::pack`]).
//! * **Numeric** (`All` only): packing round *r* expands only the rows
//!   whose records the round's byte ranges cover, in executor batches
//!   merged in row order. A row whose records straddle a round boundary
//!   is expanded once; what the round does not ship is carried to the
//!   next. A source therefore holds the round in flight, the round being
//!   packed and at most one row's leftover per destination. The plan is
//!   greedy in destination order, so under a cap a source works through
//!   destination 0's stream before destination 1's: a row is walked once
//!   for every round-disjoint group of destinations that needs it (once in
//!   all with a single round or a single rank, at most once per rank) —
//!   the price of holding rounds instead of the product.
//!
//! Both passes index a row's candidates with a dense slot per global
//! read, allocated once per executor worker and reset as each row drains.
//!
//! # Finishing early: the watermark rule
//!
//! Only row `a` produces pair `(a, b)` and every source walks its rows in
//! ascending read order, so each destination's stream is ascending in `a`.
//! From its plan a source knows, for every destination and round, the
//! smallest `a` it may still send afterwards — its *watermark*, `u32::MAX`
//! once the stream is exhausted. The ranks swap these tables in one small
//! collective before round 0 (a few entries per round; the record bytes
//! are untouched, and there is no per-round collective). After round *r*
//! a destination takes the minimum watermark over its sources: no pair
//! with a smaller `a` can receive another seed, so those pairs go through
//! the chain → policy epilogue at once and their seed lists are freed
//! (`exchange_records` in [`crate::stage`]). Watermarks only rise, so the
//! tasks still come out in pair order. What a destination holds
//! unfinished is reported as
//! [`OverlapCounters::peak_seeds_pending`](crate::OverlapCounters):
//! with one rank, at most one round plus the straddling row.
//!
//! Determinism: column order is the CSR's canonical k-mer sort, row order
//! is ascending read ID, executor batches are a pure function of the
//! round's row span, and a row emits its candidate reads in ascending-`b`
//! order with seeds folded in column order — so the wire bytes are
//! bit-identical across thread counts, block sizes and round caps, and
//! the chain/policy epilogue in [`crate::stage`] produces bit-identical
//! alignments.

use crate::policy::SeedFold;
use crate::stage::{exchange_records, OverlapConfig, OverlapCounters, SortedPairs};
use crate::task::{task_home, ReadPair, SharedSeed};
use dibella_comm::{BatchedExecutor, ByteRounds, Comm};
use dibella_io::ReadPartition;
use dibella_kcount::{KmerHashTable, ReadKmerCsr};
use std::ops::Range;
use std::sync::Mutex;

/// Bytes of a pair record's `(a, b, n)` header.
pub const RECORD_HEADER_BYTES: usize = 12;
/// Bytes per seed within a pair record.
pub const SEED_BYTES: usize = 8;

/// One row block's output: the record geometry [`ByteRounds`] plans with,
/// the emission counters, and — from the numeric pass, or the count pass
/// under [`SeedFold::Min`] — the wire bytes.
#[derive(Debug, Default)]
pub struct SpgemmBlockOut {
    /// Per-destination encoded pair records ([`pack_row_block`]; left
    /// empty by [`count_row_block`] under [`SeedFold::All`]).
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

impl SpgemmBlockOut {
    fn for_ranks(ranks: usize) -> Self {
        Self { bufs: vec![Vec::new(); ranks], lens: vec![Vec::new(); ranks], ..Default::default() }
    }

    fn count(&mut self, dest: usize, len: usize) {
        self.lens[dest].push(len);
        self.records += 1;
        self.seeds += ((len - RECORD_HEADER_BYTES) / SEED_BYTES) as u64;
    }
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

/// Where a pair's record goes: the rank that owns the pair's home read.
#[inline]
fn dest(read_part: &ReadPartition, a: u32, b: u32) -> usize {
    read_part.owner_of(task_home(a, b))
}

/// Scratch of the Gustavson row passes. The engine makes one per executor
/// worker and reuses it for every batch of both phases, so neither the
/// O(reads) dense indexes nor the seed lists are allocated per block.
#[derive(Debug, Default)]
struct RowScratch {
    /// Dense index, one slot per global read, all zero between rows: a
    /// candidate's instance count while a row is counted under
    /// [`SeedFold::All`], 1 + its position in `touched` while one is
    /// expanded.
    slot: Vec<u32>,
    /// Dense index of the count pass under [`SeedFold::Min`]: a
    /// candidate's instance count next to its least seed so far.
    least: Vec<Least>,
    /// The current row's candidates with the index of their seed list,
    /// in first-touch order until the row is drained in ascending `b`.
    touched: Vec<(u32, u32)>,
    /// The current row's seed lists; their capacity outlives the row.
    lists: Vec<Vec<SharedSeed>>,
}

impl RowScratch {
    fn with_dense_index(&mut self, n_reads: usize) -> &mut Self {
        if self.slot.len() < n_reads {
            self.slot.resize(n_reads, 0);
        }
        self
    }
}

/// What the count pass keeps per candidate of a row, chosen by the fold:
/// under `All` an instance count and nothing more, under `Min` the least
/// seed beside it — all that fold ever ships.
trait Tally: Copy + Default {
    /// Fold in one more instance.
    fn add(&mut self, seed: SharedSeed);
    /// Instances folded in; zero until the candidate is touched.
    fn instances(self) -> u32;
    /// This tally's dense index in `scratch`, sized to `n_reads`, and the
    /// touched list.
    fn index(scratch: &mut RowScratch, n_reads: usize) -> (&mut [Self], &mut Vec<(u32, u32)>);
}

impl Tally for u32 {
    #[inline]
    fn add(&mut self, _: SharedSeed) {
        *self += 1;
    }

    #[inline]
    fn instances(self) -> u32 {
        self
    }

    fn index(scratch: &mut RowScratch, n_reads: usize) -> (&mut [Self], &mut Vec<(u32, u32)>) {
        let RowScratch { slot, touched, .. } = scratch.with_dense_index(n_reads);
        (slot, touched)
    }
}

/// [`SeedFold::Min`]'s tally: instances and the least seed folded.
#[derive(Clone, Copy, Debug)]
struct Least {
    n: u32,
    seed: SharedSeed,
}

impl Default for Least {
    /// No instance yet, and a seed every real one orders below.
    fn default() -> Self {
        Self { n: 0, seed: SharedSeed { a_pos: u32::MAX, b_pos: u32::MAX, reverse: true } }
    }
}

impl Tally for Least {
    #[inline]
    fn add(&mut self, seed: SharedSeed) {
        self.n += 1;
        self.seed = seed.min(self.seed);
    }

    #[inline]
    fn instances(self) -> u32 {
        self.n
    }

    fn index(scratch: &mut RowScratch, n_reads: usize) -> (&mut [Self], &mut Vec<(u32, u32)>) {
        if scratch.least.len() < n_reads {
            scratch.least.resize(n_reads, Least::default());
        }
        (&mut scratch.least, &mut scratch.touched)
    }
}

/// Every cross-read instance of row `r` as `(b, seed)`: column by column,
/// each of the row's own occurrences of the column (in column order)
/// against every occurrence of a later read.
#[inline]
fn for_each_instance(csr: &ReadKmerCsr<'_>, r: usize, mut f: impl FnMut(u32, SharedSeed)) {
    let a = csr.row_read(r);
    for &c in csr.row(r) {
        let occs = csr.col(c);
        for own in occs.iter().filter(|o| o.read == a) {
            for occ in occs {
                // Strictly upper triangular: the smaller read's row owns
                // the pair, so each cross-read occurrence pair is produced
                // exactly once (same-read occurrence pairs witness no
                // overlap and are skipped too).
                if occ.read > a {
                    f(occ.read, SharedSeed { a_pos: own.pos, b_pos: occ.pos, reverse: own.strand != occ.strand });
                }
            }
        }
    }
}

/// One Gustavson pass over `rows` that keeps a [`Tally`] per candidate:
/// `record(row, dest, b, tally)` for every pair of each row, in ascending
/// `b`. Returns the instances enumerated.
fn tally_rows<T: Tally>(
    csr: &ReadKmerCsr<'_>,
    rows: Range<usize>,
    read_part: &ReadPartition,
    scratch: &mut RowScratch,
    mut record: impl FnMut(usize, usize, u32, T),
) -> u64 {
    let (slot, touched) = T::index(scratch, read_part.n_reads());
    let mut instances = 0u64;
    for r in rows {
        for_each_instance(csr, r, |b, seed| {
            let tally = &mut slot[b as usize];
            if tally.instances() == 0 {
                touched.push((b, 0));
            }
            tally.add(seed);
        });
        touched.sort_unstable();
        for (b, _) in touched.drain(..) {
            let tally = std::mem::take(&mut slot[b as usize]);
            instances += u64::from(tally.instances());
            record(r, dest(read_part, csr.row_read(r), b), b, tally);
        }
    }
    instances
}

/// The symbolic pass over `rows`: `record(row, dest, len)` for every record
/// the numeric pass would write, in its order. Under [`SeedFold::Min`] the
/// count folds each pair's least seed as it goes — everything the numeric
/// pass would do — and appends the records themselves to `bufs`. Returns
/// the instances enumerated.
fn count_rows(
    csr: &ReadKmerCsr<'_>,
    rows: Range<usize>,
    read_part: &ReadPartition,
    fold: SeedFold,
    scratch: &mut RowScratch,
    bufs: &mut [Vec<u8>],
    mut record: impl FnMut(usize, usize, usize),
) -> u64 {
    match fold {
        SeedFold::All => tally_rows(csr, rows, read_part, scratch, |r, dest, _, n: u32| {
            record(r, dest, RECORD_HEADER_BYTES + SEED_BYTES * n as usize)
        }),
        SeedFold::Min => tally_rows(csr, rows, read_part, scratch, |r, dest, b, least: Least| {
            let pair = ReadPair { a: csr.row_read(r), b };
            record(r, dest, write_pair_record(&mut bufs[dest], pair, &[least.seed]))
        }),
    }
}

/// The numeric pass over `rows`: `record(row, pair, seeds)` for every pair
/// of each row in ascending `b`, the seeds accumulated under `fold`.
/// Returns the instances enumerated.
fn expand_rows(
    csr: &ReadKmerCsr<'_>,
    rows: impl Iterator<Item = usize>,
    fold: SeedFold,
    scratch: &mut RowScratch,
    mut record: impl FnMut(usize, ReadPair, &[SharedSeed]),
) -> u64 {
    let RowScratch { slot, touched, lists, .. } = scratch;
    let mut instances = 0u64;
    for r in rows {
        for_each_instance(csr, r, |b, seed| {
            instances += 1;
            let s = &mut slot[b as usize];
            if *s == 0 {
                touched.push((b, touched.len() as u32));
                *s = touched.len() as u32;
            }
            let at = *s as usize - 1;
            if at == lists.len() {
                lists.push(Vec::new());
            }
            fold.add(&mut lists[at], seed);
        });
        touched.sort_unstable();
        for (b, at) in touched.drain(..) {
            let seeds = &mut lists[at as usize];
            record(r, ReadPair { a: csr.row_read(r), b }, seeds);
            seeds.clear();
            slot[b as usize] = 0;
        }
    }
    instances
}

/// Expand row range `rows` of the `A·Aᵀ` product into per-destination
/// pair records, each pair's seeds accumulated under `fold`. Packing every
/// row this way yields the whole product — the oracle the streamed engine
/// is tested against, and what the `spgemm_rows_per_sec` bench drives.
pub fn pack_row_block(
    csr: &ReadKmerCsr<'_>,
    rows: Range<usize>,
    read_part: &ReadPartition,
    ranks: usize,
    fold: SeedFold,
) -> SpgemmBlockOut {
    let mut out = SpgemmBlockOut::for_ranks(ranks);
    let mut scratch = RowScratch::default();
    let scratch = scratch.with_dense_index(read_part.n_reads());
    let instances = expand_rows(csr, rows, fold, scratch, |_, pair, seeds| {
        let dest = dest(read_part, pair.a, pair.b);
        let len = write_pair_record(&mut out.bufs[dest], pair, seeds);
        out.count(dest, len);
    });
    out.instances = instances;
    out
}

/// The symbolic twin of [`pack_row_block`]: the same record lengths and
/// counters from one count pass. Under [`SeedFold::All`] it holds no seed
/// and writes no byte (`bufs` stays empty); under [`SeedFold::Min`] it
/// folds as it counts and writes `pack_row_block`'s bytes as well.
pub fn count_row_block(
    csr: &ReadKmerCsr<'_>,
    rows: Range<usize>,
    read_part: &ReadPartition,
    ranks: usize,
    fold: SeedFold,
) -> SpgemmBlockOut {
    let mut out = SpgemmBlockOut::for_ranks(ranks);
    let mut bufs = std::mem::take(&mut out.bufs);
    let mut scratch = RowScratch::default();
    out.instances =
        count_rows(csr, rows, read_part, fold, &mut scratch, &mut bufs, |_, dest, len| out.count(dest, len));
    out.bufs = bufs;
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

/// Most executor batches one round's row span is cut into (and the whole
/// matrix, for the symbolic pass): when a round is a handful of heavy
/// rows, cutting it by `spgemm_block` alone would leave one batch and one
/// busy worker.
const BATCHES_PER_ROUND: usize = 64;

/// Batches of a round expanded between two merges into the round's
/// buffers. A wave's records exist twice until they are merged, so with
/// [`BATCHES_PER_ROUND`] batches to a round this holds an eighth of a round
/// extra, not a whole one.
const WAVE_BATCHES: usize = 8;

/// Rows per executor batch over a span of `span` rows: at most `block`,
/// fewer once that would leave under [`BATCHES_PER_ROUND`] batches. A pure
/// function of the input — never of the thread count.
fn batch_rows(span: usize, block: usize) -> usize {
    block.min(span.div_ceil(BATCHES_PER_ROUND)).max(1)
}

/// Row scratch checked out by executor batches and returned when they
/// finish: no more are ever made than batches run at once, one per worker.
#[derive(Default)]
struct ScratchPool(Mutex<Vec<RowScratch>>);

impl ScratchPool {
    fn with<R>(&self, f: impl FnOnce(&mut RowScratch) -> R) -> R {
        // The lock is never held while a batch runs, so a panicking batch
        // cannot poison it.
        let mut scratch = self.0.lock().expect("pool lock").pop().unwrap_or_default();
        let out = f(&mut scratch);
        self.0.lock().expect("pool lock").push(scratch);
        out
    }
}

/// What the engine's passes share.
#[derive(Clone, Copy)]
struct Product<'a> {
    csr: &'a ReadKmerCsr<'a>,
    read_part: &'a ReadPartition,
    fold: SeedFold,
    /// `OverlapConfig::spgemm_block`, the most rows per executor batch.
    block: usize,
    exec: &'a BatchedExecutor,
    pool: &'a ScratchPool,
}

/// Bytes of a one-seed record — every record under [`SeedFold::Min`].
const ONE_SEED_RECORD_BYTES: usize = RECORD_HEADER_BYTES + SEED_BYTES;

/// Per destination, what the round planner cuts.
enum Streams {
    /// The length of every record in send order (`All`): the numeric pass
    /// writes the bytes a round at a time.
    Lens(Vec<Vec<usize>>),
    /// The records themselves (`Min`): the count pass folded and wrote
    /// them, so the numeric pass has nothing left to do.
    Held(Vec<Vec<u8>>),
}

/// The symbolic pass's product: everything the numeric pass and the
/// watermarks need to know about the record streams, at a few words per
/// *record* — never per seed.
struct RowPlan {
    streams: Streams,
    /// Per destination, `(row, end)` for each row that sends it anything:
    /// the offset within the destination's stream at which that row's
    /// records end. Ascending in both fields.
    row_ends: Vec<Vec<(usize, usize)>>,
}

impl Product<'_> {
    /// Count the whole product — under [`SeedFold::Min`], write it: the
    /// record geometry and the source-side counters, which the numeric
    /// pass then has no need to keep.
    fn count(&self, ranks: usize) -> (RowPlan, OverlapCounters) {
        let mut streams = match self.fold {
            SeedFold::All => Streams::Lens(vec![Vec::new(); ranks]),
            SeedFold::Min => Streams::Held(vec![Vec::new(); ranks]),
        };
        let mut row_ends: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ranks];
        let mut counters = OverlapCounters::default();
        let n_rows = self.csr.n_rows();
        let batch = batch_rows(n_rows, self.block);
        self.exec.map_indexed_into(
            n_rows.div_ceil(batch),
            |i| {
                let rows = i * batch..((i + 1) * batch).min(n_rows);
                let (mut records, mut bufs) = (Vec::new(), vec![Vec::new(); ranks]);
                let instances = self.pool.with(|scratch| {
                    count_rows(self.csr, rows, self.read_part, self.fold, scratch, &mut bufs, |r, dest, len| {
                        records.push((r, dest, len))
                    })
                });
                (records, bufs, instances)
            },
            |(records, bufs, instances)| {
                counters.pairs_emitted += instances;
                counters.candidate_pairs_emitted += records.len() as u64;
                for (r, dest, len) in records {
                    counters.seeds_shipped += ((len - RECORD_HEADER_BYTES) / SEED_BYTES) as u64;
                    if let Streams::Lens(lens) = &mut streams {
                        lens[dest].push(len);
                    }
                    let ends = &mut row_ends[dest];
                    match ends.last_mut() {
                        Some((row, end)) if *row == r => *end += len,
                        last => {
                            let start = last.map_or(0, |&mut (_, end)| end);
                            ends.push((r, start + len));
                        }
                    }
                }
                if let Streams::Held(held) = &mut streams {
                    for (stream, block) in held.iter_mut().zip(bufs) {
                        stream.extend_from_slice(&block);
                    }
                }
            },
        );
        (RowPlan { streams, row_ends }, counters)
    }
}

/// The record streams, round by round: the planned rounds and either the
/// held one-seed product or, per destination, how far the numeric pass has
/// expanded and shipped the rows.
struct RowStream<'a> {
    product: Product<'a>,
    split: ByteRounds,
    row_ends: Vec<Vec<(usize, usize)>>,
    /// The one-seed product the count pass wrote, sliced round by round;
    /// `None` under [`SeedFold::All`], whose rounds are expanded as they
    /// are packed.
    held: Option<Vec<Vec<u8>>>,
    /// Per destination, the first row not yet expanded for it and the
    /// offset in its stream at which the expanded rows' records end.
    expanded: Vec<(usize, usize)>,
    /// Per destination, bytes expanded but not yet shipped: what the last
    /// expanded row emitted past the end of the last packed round.
    carry: Vec<Vec<u8>>,
}

impl<'a> RowStream<'a> {
    /// Count the product and cut its record streams into rounds of at
    /// most `cap` bytes. Returns the stream, positioned before round 0,
    /// and the source-side counters.
    fn plan(product: Product<'a>, ranks: usize, cap: usize) -> (Self, OverlapCounters) {
        let (RowPlan { streams, row_ends }, counters) = product.count(ranks);
        let (split, held) = match streams {
            Streams::Lens(lens) => (ByteRounds::plan(&lens, cap), None),
            Streams::Held(held) => {
                let counts: Vec<usize> = held.iter().map(|buf| buf.len() / ONE_SEED_RECORD_BYTES).collect();
                (ByteRounds::plan_uniform(&counts, ONE_SEED_RECORD_BYTES, cap), Some(held))
            }
        };
        let stream = Self {
            product,
            split,
            row_ends,
            held,
            expanded: vec![(0, 0); ranks],
            carry: vec![Vec::new(); ranks],
        };
        (stream, counters)
    }

    /// Read ID of the row holding the record at `offset` of `dest`'s
    /// stream — the smallest `a` still to come once everything before
    /// `offset` is shipped; `u32::MAX` (no pair has `a = u32::MAX < b`)
    /// past the end.
    fn read_at(&self, dest: usize, offset: usize) -> u32 {
        let ends = &self.row_ends[dest];
        let at = ends.partition_point(|&(_, end)| end <= offset);
        ends.get(at).map_or(u32::MAX, |&(row, _)| self.product.csr.row_read(row))
    }

    /// Per destination, this source's watermark steps: `(round, a)` says
    /// that every record shipped to it in `round` or later has a first
    /// read `≥ a`. One step at round 0 and one after each round that
    /// ships the destination anything.
    fn watermarks(&self) -> Vec<Vec<(u64, u32)>> {
        let mut steps: Vec<Vec<(u64, u32)>> =
            (0..self.row_ends.len()).map(|dest| vec![(0, self.read_at(dest, 0))]).collect();
        for round in 0..self.split.len() as u64 {
            for (dest, range) in self.split.segments(round) {
                steps[*dest].push((round + 1, self.read_at(*dest, range.end)));
            }
        }
        steps
    }

    /// Pack round `round`: slice it from the held product, or expand the
    /// rows its byte ranges reach past what is carried, ship exactly the
    /// planned bytes and carry the rest.
    fn pack(&mut self, round: u64) -> Vec<Vec<u8>> {
        if let Some(held) = &self.held {
            return self.split.pack(round, held);
        }
        let Product { csr, read_part, fold, block, exec, pool } = self.product;
        let ranks = self.carry.len();
        let segments = self.split.segments(round);

        // Rows each destination needs expanded: from where it stopped
        // through the row in which this round's range ends.
        let mut wants: Vec<Range<usize>> = vec![0..0; ranks];
        for (dest, range) in segments {
            let carry = &mut self.carry[*dest];
            if range.start + carry.len() < range.end {
                let ends = &self.row_ends[*dest];
                let (last, end) = ends[ends.partition_point(|&(_, end)| end < range.end)];
                wants[*dest] = self.expanded[*dest].0..last + 1;
                self.expanded[*dest] = (last + 1, end);
                carry.reserve_exact(end - range.start - carry.len());
            }
        }
        let wanted = |r: &usize| wants.iter().any(|w| w.contains(r));
        let lo = wants.iter().filter(|w| !w.is_empty()).map(|w| w.start).min().unwrap_or(0);
        let hi = wants.iter().map(|w| w.end).max().unwrap_or(0).max(lo);
        let batch = batch_rows(hi - lo, block);
        let n_reads = read_part.n_reads();
        let n_batches = (hi - lo).div_ceil(batch);
        let expand = |i: usize| {
            let rows = lo + i * batch..(lo + (i + 1) * batch).min(hi);
            let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); ranks];
            pool.with(|scratch| {
                let scratch = scratch.with_dense_index(n_reads);
                expand_rows(csr, rows.filter(wanted), fold, scratch, |r, pair, seeds| {
                    let dest = dest(read_part, pair.a, pair.b);
                    if wants[dest].contains(&r) {
                        write_pair_record(&mut bufs[dest], pair, seeds);
                    }
                });
            });
            bufs
        };
        for wave in (0..n_batches).step_by(WAVE_BATCHES) {
            for bufs in exec.map_indexed(WAVE_BATCHES.min(n_batches - wave), |i| expand(wave + i)) {
                for (carry, bytes) in self.carry.iter_mut().zip(bufs) {
                    carry.extend_from_slice(&bytes);
                }
            }
        }

        let mut out: Vec<Vec<u8>> = vec![Vec::new(); ranks];
        for (dest, range) in segments {
            let carry = &mut self.carry[*dest];
            // The plan was cut from counted lengths; the rows must have
            // produced exactly those bytes, in every build profile.
            assert_eq!(
                range.start + carry.len(),
                self.expanded[*dest].1,
                "destination {dest}, round {round}: the expanded rows disagree with the symbolic pass"
            );
            let rest = carry.split_off(range.len());
            out[*dest] = std::mem::replace(carry, rest);
        }
        out
    }
}

/// One source's watermark toward this rank, advanced round by round.
struct Watermark {
    steps: Vec<(u64, u32)>,
    at: usize,
}

impl Watermark {
    /// The smallest `a` the source may still send once `round` is consumed.
    fn after(&mut self, round: u64) -> u32 {
        while self.steps.get(self.at + 1).is_some_and(|&(from, _)| from <= round + 1) {
            self.at += 1;
        }
        self.steps[self.at].1
    }
}

/// Stage 3's discovery and exchange: build the CSR, count the product,
/// plan the rounds, swap watermarks, then stream — expanding a round of
/// rows while the previous one is in flight and finishing every pair below
/// the minimum watermark as soon as the round is consumed. Finished pairs
/// go to `finish` in pair order; the source-side and exchange counters
/// come back.
pub(crate) fn spgemm_exchange(
    comm: &Comm,
    table: &KmerHashTable,
    read_part: &ReadPartition,
    cfg: &OverlapConfig,
    exec: &BatchedExecutor,
    fold: SeedFold,
    finish: &mut dyn FnMut(SortedPairs),
) -> OverlapCounters {
    let ranks = comm.size();
    let csr = ReadKmerCsr::from_table(table);
    let pool = ScratchPool::default();
    let product = Product {
        csr: &csr,
        read_part,
        fold,
        block: cfg.spgemm_block.max(1),
        exec,
        pool: &pool,
    };
    let (mut stream, mut counters) = RowStream::plan(product, ranks, cfg.max_exchange_bytes_per_round);

    // Every source tells every destination, once, how its stream to that
    // destination will advance; nothing more is agreed per round.
    let mut sources: Vec<Watermark> = comm
        .alltoall(stream.watermarks())
        .into_iter()
        .map(|steps| Watermark { steps, at: 0 })
        .collect();
    let plan = stream.split.round_plan();
    let got = exchange_records(
        comm,
        plan,
        fold,
        |round| stream.pack(round),
        |round| sources.iter_mut().map(|s| s.after(round)).min().expect("a world has a rank"),
        finish,
    );
    assert!(stream.carry.iter().all(Vec::is_empty), "rows expanded past the last planned round");
    counters.seeds_received = got.seeds;
    counters.rounds = got.rounds;
    counters.peak_seeds_pending = got.peak_pending;
    counters
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
        let out = pack_row_block(&csr, 0..csr.n_rows(), &part, 1, SeedFold::All);
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

    /// Block size never changes the concatenated bytes.
    #[test]
    fn row_blocking_is_byte_identical() {
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
        let run = |block: usize, fold: SeedFold| {
            let mut merged: Vec<Vec<u8>> = vec![Vec::new(); 2];
            for lo in (0..csr.n_rows()).step_by(block) {
                let hi = (lo + block).min(csr.n_rows());
                let out = pack_row_block(&csr, lo..hi, &part, 2, fold);
                for (d, b) in merged.iter_mut().zip(out.bufs) {
                    d.extend_from_slice(&b);
                }
            }
            merged
        };
        for fold in [SeedFold::All, SeedFold::Min] {
            let baseline = run(csr.n_rows(), fold);
            assert!(baseline.iter().all(|b| !b.is_empty()), "{fold:?}");
            for block in [1usize, 2, 3, 64] {
                assert_eq!(run(block, fold), baseline, "block={block} {fold:?}");
            }
        }
    }

    /// Under `Min` a pair's record carries its minimum seed only, the
    /// instances it stood for are still counted, and the count pass writes
    /// the record the numeric pass writes.
    #[test]
    fn folded_rows_ship_the_minimum_seed_per_pair() {
        let t = table_with(&[
            (b"ACGTA", vec![occ(0, 9, Strand::Forward), occ(1, 7, Strand::Forward)]),
            (b"CATCA", vec![occ(0, 3, Strand::Forward), occ(1, 1, Strand::Reverse)]),
            (b"GGGTG", vec![occ(0, 3, Strand::Forward), occ(1, 0, Strand::Forward)]),
        ]);
        let csr = ReadKmerCsr::from_table(&t);
        let part = ReadPartition::from_counts(&[2]);
        let out = pack_row_block(&csr, 0..csr.n_rows(), &part, 1, SeedFold::Min);
        assert_eq!((out.instances, out.records, out.seeds), (3, 1, 1));
        assert_eq!(out.bufs[0].len(), RECORD_HEADER_BYTES + SEED_BYTES);
        let mut got = Vec::new();
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s))));
        assert_eq!(got, vec![(ReadPair::new(0, 1), SharedSeed { a_pos: 3, b_pos: 0, reverse: false })]);
        let counted = count_row_block(&csr, 0..csr.n_rows(), &part, 1, SeedFold::Min);
        assert_eq!((counted.bufs, counted.lens), (out.bufs, out.lens));
    }

    /// A k-mer repeated inside one read: the row names the column once, and
    /// each of the read's occurrences still pairs with every later read's —
    /// the emitted instances are Algorithm 1's, same-read pairs excluded.
    #[test]
    fn a_kmer_repeated_in_one_read_emits_algorithm_ones_instances() {
        let t = table_with(&[
            (
                b"ACGTA",
                vec![
                    occ(1, 4, Strand::Forward),
                    occ(0, 2, Strand::Forward),
                    occ(1, 30, Strand::Reverse),
                    occ(2, 8, Strand::Forward),
                    occ(0, 17, Strand::Reverse),
                ],
            ),
            (b"CATCA", vec![occ(2, 3, Strand::Forward), occ(2, 11, Strand::Forward), occ(0, 6, Strand::Forward)]),
        ]);
        let csr = ReadKmerCsr::from_table(&t);
        assert_eq!((0..csr.n_rows()).map(|r| csr.row(r).len()).collect::<Vec<_>>(), [2, 1, 2]);
        let part = ReadPartition::from_counts(&[3]);
        let out = pack_row_block(&csr, 0..csr.n_rows(), &part, 1, SeedFold::All);
        let mut got: Vec<(ReadPair, SharedSeed)> = Vec::new();
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s))));
        got.sort_unstable();
        // `reference_pairs` dedups each pair's list; these instances are
        // distinct, so the multiset must equal it as it stands.
        let mut want: Vec<(ReadPair, SharedSeed)> = crate::reference_pairs(&[&t])
            .into_iter()
            .flat_map(|(pair, seeds)| seeds.into_iter().map(move |s| (pair, s)))
            .collect();
        want.sort_unstable();
        assert_eq!(out.instances, 10, "2·2 + 2·1 + 2·1 in ACGTA, 1·2 in CATCA");
        assert_eq!(got, want);
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
        let out = pack_row_block(&csr, 0..csr.n_rows(), &part, 1, SeedFold::All);
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

    /// A table dense enough to stream: `n_kmers` distinct 9-mers, each
    /// at 2–8 pseudo-random (read, position, strand) occurrences.
    fn random_table(n_reads: u32, n_kmers: usize, seed: u64) -> KmerHashTable {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let c = KcountConfig { k: 9, max_multiplicity: 64, ..kc() };
        let mut t = KmerHashTable::with_capacity(n_kmers);
        while t.len() < n_kmers {
            let ascii: Vec<u8> = (0..9).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
            let km = Kmer1::from_ascii(&ascii).unwrap();
            if t.contains(&km) {
                continue;
            }
            t.insert_key(km);
            for _ in 0..2 + rnd() % 7 {
                let strand = if rnd() % 2 == 0 { Strand::Forward } else { Strand::Reverse };
                let o = occ((rnd() % n_reads as u64) as u32, (rnd() % 5_000) as u32, strand);
                assert!(t.record_occurrence(&km, o, &c));
            }
        }
        t
    }

    /// Tentpole invariant, at the source: for every rank count, thread
    /// count, block size, fold and cap — down to one record per round —
    /// the streamed engine's round `r` is byte for byte round `r` of
    /// `ByteRounds::plan` over the fully packed product, its counters are
    /// the product's, and nothing is left over after the last round.
    /// Under `All` the rounds are expanded as they are packed; under `Min`
    /// they are sliced from the product the count pass wrote, which at
    /// the 8-byte cap is one 20-byte record a round.
    #[test]
    fn streamed_rounds_equal_the_rounds_of_the_packed_product() {
        const N_READS: u32 = 60;
        let table = random_table(N_READS, 1_500, 0x5EED_0F57);
        let csr = ReadKmerCsr::from_table(&table);
        let pool = ScratchPool::default();
        for ranks in [1usize, 2, 4] {
            let per = N_READS as usize / ranks;
            let part = ReadPartition::from_counts(&vec![per; ranks]);
            for fold in [SeedFold::All, SeedFold::Min] {
                let oracle = pack_row_block(&csr, 0..csr.n_rows(), &part, ranks, fold);
                assert!(oracle.records > 1_000, "{} records", oracle.records);
                for cap in [usize::MAX, 64 << 10, 4 << 10, 8] {
                    let want = ByteRounds::plan(&oracle.lens, cap);
                    let total: usize = oracle.bufs.iter().map(Vec::len).sum();
                    match cap {
                        usize::MAX => assert_eq!(want.len(), 1),
                        8 => assert_eq!(want.len() as u64, oracle.records, "one record per round"),
                        cap => assert!(want.len() >= total / cap, "{} rounds", want.len()),
                    }
                    for (threads, block) in [(1usize, 64usize), (2, 64), (4, 64), (1, 1), (4, 7)] {
                        let at = format!("ranks={ranks} {fold:?} cap={cap} threads={threads} block={block}");
                        let exec = BatchedExecutor::new(threads);
                        let product = Product {
                            csr: &csr,
                            read_part: &part,
                            fold,
                            block,
                            exec: &exec,
                            pool: &pool,
                        };
                        let (mut stream, counters) = RowStream::plan(product, ranks, cap);
                        assert_eq!(stream.held.is_some(), fold == SeedFold::Min, "{at}");
                        assert_eq!(stream.split.len(), want.len(), "{at}");
                        assert_eq!(
                            (counters.pairs_emitted, counters.candidate_pairs_emitted, counters.seeds_shipped),
                            (oracle.instances, oracle.records, oracle.seeds),
                            "{at}"
                        );
                        // Two rounds past the plan: the tail a rank ships
                        // when the world agreed on more rounds than it needs.
                        for round in 0..want.len() as u64 + 2 {
                            assert_eq!(stream.pack(round), want.pack(round, &oracle.bufs), "round {round} {at}");
                        }
                        assert!(stream.carry.iter().all(Vec::is_empty), "{at}");
                    }
                }
            }
        }
    }

    /// The watermark a source publishes is exact: after every round, to
    /// every destination, it is the `a` of the next record that destination
    /// will be sent (`u32::MAX` when there is none) — so it never falls, no
    /// later record undercuts it, and the straddling row is all that stays
    /// pending.
    #[test]
    fn watermarks_name_the_next_record_of_every_stream() {
        let table = random_table(40, 600, 0xAA7E_12A2);
        let csr = ReadKmerCsr::from_table(&table);
        let (ranks, pool, exec) = (3usize, ScratchPool::default(), BatchedExecutor::sequential());
        let part = ReadPartition::from_counts(&[14, 13, 13]);
        for cap in [usize::MAX, 2 << 10, 8] {
            let product = Product {
                csr: &csr,
                read_part: &part,
                fold: SeedFold::All,
                block: 4,
                exec: &exec,
                pool: &pool,
            };
            let (mut stream, _) = RowStream::plan(product, ranks, cap);
            let rounds = stream.split.len() as u64;
            let mut marks: Vec<Watermark> =
                stream.watermarks().into_iter().map(|steps| Watermark { steps, at: 0 }).collect();
            // first_a[dest][round]: the first read of each record shipped.
            let mut shipped: Vec<Vec<Vec<u32>>> = vec![Vec::new(); ranks];
            for round in 0..rounds {
                for (dest, buf) in stream.pack(round).iter().enumerate() {
                    let mut firsts = Vec::new();
                    decode_pair_records(buf, |pair, _| firsts.push(pair.a));
                    shipped[dest].push(firsts);
                }
            }
            for dest in 0..ranks {
                assert!(shipped[dest].iter().flatten().is_sorted(), "stream {dest} ascends in a");
                let mut last = 0u32;
                for round in 0..rounds {
                    let mark = marks[dest].after(round);
                    assert!(mark >= last, "watermark fell: cap={cap} dest={dest} round={round}");
                    last = mark;
                    let next = shipped[dest][round as usize + 1..].iter().flatten().next();
                    assert_eq!(mark, next.copied().unwrap_or(u32::MAX), "cap={cap} dest={dest} round={round}");
                }
                assert_eq!(marks[dest].after(rounds + 5), u32::MAX);
            }
        }
    }
}
