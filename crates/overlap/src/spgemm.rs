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
//!    the fold kept, raw or coded ([`write_pair_record`]):
//!
//!    ```text
//!    ┌────────┬────────┬──────────────────┬──────────────────────────────────┐
//!    │ a: u32 │ b: u32 │ n: u32 (bit 31:  │ raw:   n × (a_pos: u32,          │
//!    │        │        │  list is coded)  │              b_pos | rev<<31: u32)│
//!    │        │        │                  │ coded: forward count (varint),   │
//!    │        │        │                  │  forward steps, reverse steps    │
//!    └────────┴────────┴──────────────────┴──────────────────────────────────┘
//!        12-byte header                     8 bytes a seed raw, ~2 coded
//!    ```
//!
//!    A coded orientation is sorted by `(a_pos, b_pos)` and written as
//!    steps `(Δa_pos, Δdiagonal)` — varint and zigzag varint, the diagonal
//!    `b − a` forward and `a + b` reverse — with every repeated `(+1, 0)`
//!    step (consecutive shared k-mers) folded into one run token. A record
//!    of one seed, or one coding would not shrink, is raw, so a record is
//!    never longer than `12 + 8n` bytes and a [`SeedFold::Min`] record is
//!    20 bytes whatever it folded. Bit 31 of a raw `b_pos` is the
//!    orientation, so a position must stay below 2³¹ — [`SharedSeed::new`]
//!    refuses one that does not (the in-memory seed keeps its orientation
//!    in a position bit too), and ingest refuses a read of 2³¹ bases
//!    before any position is taken from it. [`decode_pair_records`] is the
//!    one decoder: it checks every record whole and names a malformed one
//!    with a [`PairRecordError`].
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
//!     seed lists, no bytes — and the pass yields each record's seed count
//!     and its *planned* length, the raw `12 + 8n`. [`ByteRounds::plan`]
//!     over those lengths cuts the rounds, so the round count, every
//!     round's records and each destination's concatenated stream are
//!     exactly those of planning over the fully packed product (which is
//!     what [`pack_row_block`] over all rows, the test oracle, still
//!     produces). How well a list codes never moves a round boundary;
//!     only the bytes a round ships shrink.
//!   - Under [`SeedFold::Min`] the accumulator keeps the least seed
//!     beside the counter. A record is 20 bytes whatever it folded, so the
//!     pass writes the records themselves: it *is* the product, held at
//!     20 bytes per pair. [`ByteRounds::plan_uniform`] cuts the rounds
//!     `ByteRounds::plan` would from the record counts, and each round is
//!     a slice of the held product ([`ByteRounds::pack`]).
//! * **Numeric** (`All` only): packing round *r* expands only the rows
//!   whose records the round's planned byte ranges cover, in executor
//!   batches merged in row order. A row whose records straddle a round
//!   boundary is expanded once; what the round does not ship is carried
//!   to the next, with each record's planned and written length. A
//!   source therefore holds the round in flight, the round being packed
//!   and at most one row's leftover per destination. The plan is
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
use dibella_kmer::varint::{self, VarintError};
use std::ops::Range;
use std::sync::Mutex;

/// Bytes of a pair record's `(a, b, n)` header.
pub const RECORD_HEADER_BYTES: usize = 12;
/// Bytes per seed within a raw pair record — the most a seed costs.
pub const SEED_BYTES: usize = 8;

/// Bit 31 of a record's `n`: set when its seed list is coded.
const CODED: u32 = 1 << 31;

/// The bytes a record of `seeds` seeds is planned at: its raw length,
/// which coding never exceeds. Rounds are cut on this, so the round
/// split does not depend on how well a list codes.
#[inline]
fn planned_len(seeds: usize) -> usize {
    RECORD_HEADER_BYTES + SEED_BYTES * seeds
}

/// One row block's output: the record geometry [`ByteRounds`] plans with,
/// the emission counters, and — from the numeric pass, or the count pass
/// under [`SeedFold::Min`] — the wire bytes.
#[derive(Debug, Default)]
pub struct SpgemmBlockOut {
    /// Per-destination encoded pair records ([`pack_row_block`]; left
    /// empty by [`count_row_block`] under [`SeedFold::All`]).
    pub bufs: Vec<Vec<u8>>,
    /// Per-destination planned record lengths (`12 + 8n`), in send order:
    /// what the round planner cuts. A coded record is written shorter.
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

    fn count(&mut self, dest: usize, seeds: usize) {
        self.lens[dest].push(planned_len(seeds));
        self.records += 1;
        self.seeds += seeds as u64;
    }
}

/// A seed's diagonal in its orientation: `b − a` forward, `a + b`
/// reverse — constant along a run of consecutive shared k-mers.
#[inline]
fn diagonal(seed: SharedSeed) -> i64 {
    let (a, b) = (i64::from(seed.a_pos()), i64::from(seed.b_pos()));
    if seed.reverse() {
        a + b
    } else {
        b - a
    }
}

/// One step of a coded list: `Δa_pos` as a varint, `Δdiagonal` as a zigzag
/// varint.
#[inline]
fn put_step(buf: &mut Vec<u8>, da: u64, dd: i64) {
    varint::put(buf, da);
    varint::put(buf, zigzag(dd));
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    (z >> 1) as i64 ^ -((z & 1) as i64)
}

/// Code one orientation's seeds, sorted by `(a_pos, b_pos)`: each a step
/// `(Δa_pos, Δdiagonal)` from the last (from `(0, 0)` for the first), as a
/// varint and a zigzag varint, except that consecutive `(+1, 0)` steps
/// become one run token `(0, −len)` — a step no sorted list otherwise
/// takes, since at equal `a_pos` the diagonal cannot fall.
fn code_orientation(buf: &mut Vec<u8>, seeds: impl Iterator<Item = SharedSeed>) {
    let (mut a, mut d, mut run) = (0i64, 0i64, 0i64);
    for seed in seeds {
        let (sa, sd) = (i64::from(seed.a_pos()), diagonal(seed));
        if (sa - a, sd - d) == (1, 0) {
            run += 1;
        } else {
            if run > 0 {
                put_step(buf, 0, -run);
                run = 0;
            }
            put_step(buf, (sa - a) as u64, sd - d);
        }
        (a, d) = (sa, sd);
    }
    if run > 0 {
        put_step(buf, 0, -run);
    }
}

/// Append one pair record to `buf`; returns its length in bytes, at most
/// `12 + 8n` for `n` seeds.
///
/// A record of two or more seeds is sorted in place and written **coded**
/// when that is shorter: the forward count (a varint), then the forward
/// seeds' steps and the reverse seeds' steps, each orientation by
/// `(a_pos, b_pos)` as `(Δa_pos, Δdiagonal)` with one token per run of
/// consecutive k-mers (see the module docs), with bit 31 of `n` set.
/// Otherwise — one seed, or a list coding would not shrink — it is written
/// **raw**: `n` times `(a_pos, b_pos | rev << 31)` as two little-endian
/// `u32`s. [`SharedSeed::new`] refuses a position that needs bit 31.
pub fn write_pair_record(buf: &mut Vec<u8>, pair: ReadPair, seeds: &mut [SharedSeed]) -> usize {
    let n = u32::try_from(seeds.len())
        .ok()
        .filter(|&n| n < CODED)
        .expect("a pair record holds fewer than 2^31 seeds");
    let start = buf.len();
    buf.extend_from_slice(&pair.a.to_le_bytes());
    buf.extend_from_slice(&pair.b.to_le_bytes());
    buf.extend_from_slice(&n.to_le_bytes());
    let raw = planned_len(seeds.len());
    if seeds.len() > 1 {
        seeds.sort_unstable();
        varint::put(buf, seeds.iter().filter(|s| !s.reverse()).count() as u64);
        for reverse in [false, true] {
            code_orientation(buf, seeds.iter().copied().filter(|s| s.reverse() == reverse));
        }
        if buf.len() - start < raw {
            buf[start + 8..start + RECORD_HEADER_BYTES].copy_from_slice(&(n | CODED).to_le_bytes());
            return buf.len() - start;
        }
        buf.truncate(start + RECORD_HEADER_BYTES);
    }
    for s in seeds.iter() {
        buf.extend_from_slice(&s.a_pos().to_le_bytes());
        buf.extend_from_slice(&(s.b_pos() | (s.reverse() as u32) << 31).to_le_bytes());
    }
    raw
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
        Self { n: 0, seed: SharedSeed::MAX }
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
        for own in occs.iter().filter(|o| o.read() == a) {
            for occ in occs {
                // Strictly upper triangular: the smaller read's row owns
                // the pair, so each cross-read occurrence pair is produced
                // exactly once (same-read occurrence pairs witness no
                // overlap and are skipped too).
                if occ.read() > a {
                    f(occ.read(), SharedSeed::new(own.pos(), occ.pos(), own.strand() != occ.strand()));
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

/// The symbolic pass over `rows`: `record(row, dest, seeds)` for every
/// record the numeric pass would write, in its order, with the seeds it
/// carries. Under [`SeedFold::Min`] the count folds each pair's least seed
/// as it goes — everything the numeric pass would do — and appends the
/// records themselves to `bufs`. Returns the instances enumerated.
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
        SeedFold::All => {
            tally_rows(csr, rows, read_part, scratch, |r, dest, _, n: u32| record(r, dest, n as usize))
        }
        SeedFold::Min => tally_rows(csr, rows, read_part, scratch, |r, dest, b, least: Least| {
            let pair = ReadPair { a: csr.row_read(r), b };
            write_pair_record(&mut bufs[dest], pair, &mut [least.seed]);
            record(r, dest, 1)
        }),
    }
}

/// The numeric pass over `rows`: `record(row, pair, seeds)` for every pair
/// of each row in ascending `b`, the seeds accumulated under `fold` (the
/// list is `record`'s to reorder). Returns the instances enumerated.
fn expand_rows(
    csr: &ReadKmerCsr<'_>,
    rows: impl Iterator<Item = usize>,
    fold: SeedFold,
    scratch: &mut RowScratch,
    mut record: impl FnMut(usize, ReadPair, &mut [SharedSeed]),
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
        write_pair_record(&mut out.bufs[dest], pair, seeds);
        out.count(dest, seeds.len());
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
        count_rows(csr, rows, read_part, fold, &mut scratch, &mut bufs, |_, dest, seeds| out.count(dest, seeds));
    out.bufs = bufs;
    out
}

/// Why a buffer is not a sequence of pair records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairRecordError {
    /// Byte offset of the offending record in the buffer.
    pub offset: usize,
    /// What is wrong with it.
    pub kind: PairRecordErrorKind,
}

/// The ways a pair record can be malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairRecordErrorKind {
    /// Fewer than [`RECORD_HEADER_BYTES`] bytes are left — a cut header,
    /// or trailing bytes after the last record.
    TruncatedHeader,
    /// The seed list runs past the end of the buffer.
    TruncatedSeeds,
    /// A varint of a coded list does not fit 64 bits.
    VarintOverflow,
    /// A coded list names more forward seeds than the record holds, or a
    /// run longer than the seeds its orientation has left.
    SeedCount,
    /// A coded step leads to a position no seed can hold.
    Position,
}

impl std::fmt::Display for PairRecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            PairRecordErrorKind::TruncatedHeader => "header cut short",
            PairRecordErrorKind::TruncatedSeeds => "seed list cut short",
            PairRecordErrorKind::VarintOverflow => "varint over 64 bits",
            PairRecordErrorKind::SeedCount => "coded seeds disagree with the seed count",
            PairRecordErrorKind::Position => "coded seed out of position range",
        };
        write!(f, "pair record at byte {}: {what}", self.offset)
    }
}

impl std::error::Error for PairRecordError {}

#[inline]
fn get_varint(bytes: &mut &[u8]) -> Result<u64, PairRecordErrorKind> {
    varint::get(bytes, 64).map_err(|e| match e {
        VarintError::Truncated => PairRecordErrorKind::TruncatedSeeds,
        VarintError::Overflow => PairRecordErrorKind::VarintOverflow,
    })
}

/// Whether a seed can sit at `(a_pos, diagonal)` in one orientation.
#[inline]
fn fits(a: i64, d: i64, reverse: bool) -> Result<(), PairRecordErrorKind> {
    let b = if reverse { d.checked_sub(a) } else { d.checked_add(a) };
    match b {
        Some(b) if (0..=i64::from(u32::MAX)).contains(&a) && (0..1 << 31).contains(&b) => Ok(()),
        _ => Err(PairRecordErrorKind::Position),
    }
}

/// The seed at `(a_pos, diagonal)`, which [`fits`].
#[inline]
fn seed_at(a: i64, d: i64, reverse: bool) -> SharedSeed {
    SharedSeed::new(a as u32, if reverse { d - a } else { d + a } as u32, reverse)
}

/// Where a coded list's decoder stands: the bytes left, the forward seeds
/// left, and the `(a_pos, diagonal)` of the last seed of the last token.
#[derive(Clone, Debug)]
struct Coded<'a> {
    bytes: &'a [u8],
    forward: usize,
    reverse: bool,
    a: i64,
    d: i64,
}

impl Coded<'_> {
    /// Read the next token and, if `CHECK`, check its first and last seed
    /// — `a_pos` and `b_pos` are monotone along a run, so the seeds between
    /// are good too. `left` counts the seeds still to come. Returns how
    /// many seeds the token stands for. A record is checked whole before
    /// its seeds are handed out, so reading them back needs no checks.
    #[inline]
    fn token<const CHECK: bool>(&mut self, left: usize) -> Result<usize, PairRecordErrorKind> {
        if self.forward == 0 && !self.reverse {
            // Each orientation steps from (0, 0).
            (self.reverse, self.a, self.d) = (true, 0, 0);
        }
        let da = get_varint(&mut self.bytes)?;
        let dd = unzigzag(get_varint(&mut self.bytes)?);
        let len = if da == 0 && dd < 0 {
            let len = usize::try_from(dd.unsigned_abs()).unwrap_or(usize::MAX);
            if CHECK {
                if len > if self.reverse { left } else { self.forward } {
                    return Err(PairRecordErrorKind::SeedCount);
                }
                fits(self.a + 1, self.d, self.reverse)?;
            }
            self.a += len as i64;
            len
        } else if CHECK {
            let a = i64::try_from(da).ok().and_then(|da| self.a.checked_add(da));
            (self.a, self.d) = a.zip(self.d.checked_add(dd)).ok_or(PairRecordErrorKind::Position)?;
            1
        } else {
            (self.a, self.d) = (self.a + da as i64, self.d + dd);
            1
        };
        if CHECK {
            fits(self.a, self.d, self.reverse)?;
        }
        if !self.reverse {
            self.forward -= len;
        }
        Ok(len)
    }
}

#[derive(Clone, Debug)]
enum SeedList<'a> {
    Raw(&'a [u8]),
    /// The cursor, and the seeds of its last token not yet handed out.
    Coded(Coded<'a>, usize),
}

/// The seeds one wire record carries, decoded lazily — raw records in
/// wire order, coded ones forward seeds first, each orientation by
/// `(a_pos, b_pos)`, so a record is at most two sorted runs. Only
/// [`decode_pair_records`] makes one, after it has checked the whole
/// record.
#[derive(Clone, Debug)]
pub struct RecordSeeds<'a> {
    record: &'a [u8],
    left: usize,
    list: SeedList<'a>,
}

impl<'a> RecordSeeds<'a> {
    /// Check the record at the head of `rest`: its pair, its seeds
    /// positioned before the first, and its length in bytes.
    fn parse(rest: &'a [u8]) -> Result<(ReadPair, Self), PairRecordErrorKind> {
        let (header, body) = rest
            .split_first_chunk::<RECORD_HEADER_BYTES>()
            .ok_or(PairRecordErrorKind::TruncatedHeader)?;
        let word = |at: usize| u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]]);
        let pair = ReadPair { a: word(0), b: word(4) };
        let n = (word(8) & !CODED) as usize;
        if word(8) & CODED == 0 {
            let seeds = SEED_BYTES
                .checked_mul(n)
                .and_then(|need| body.get(..need))
                .ok_or(PairRecordErrorKind::TruncatedSeeds)?;
            let record = &rest[..RECORD_HEADER_BYTES + seeds.len()];
            return Ok((pair, Self { record, left: n, list: SeedList::Raw(seeds) }));
        }
        let mut bytes = body;
        let forward = usize::try_from(get_varint(&mut bytes)?)
            .ok()
            .filter(|&forward| forward <= n)
            .ok_or(PairRecordErrorKind::SeedCount)?;
        let start = Coded { bytes, forward, reverse: false, a: 0, d: 0 };
        let (mut check, mut left) = (start.clone(), n);
        while left > 0 {
            left -= check.token::<true>(left)?;
        }
        let record = &rest[..rest.len() - check.bytes.len()];
        Ok((pair, Self { record, left: n, list: SeedList::Coded(start, 0) }))
    }

    /// The whole record as it crossed the wire, header included — a
    /// buffer [`decode_pair_records`] reads back as this one record.
    pub fn record(&self) -> &'a [u8] {
        self.record
    }
}

impl Iterator for RecordSeeds<'_> {
    type Item = SharedSeed;

    fn next(&mut self) -> Option<SharedSeed> {
        if self.left == 0 {
            return None;
        }
        let seed = match &mut self.list {
            SeedList::Raw(bytes) => {
                let (s, rest) = bytes.split_first_chunk::<SEED_BYTES>()?;
                *bytes = rest;
                let packed = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
                SharedSeed::new(u32::from_le_bytes([s[0], s[1], s[2], s[3]]), packed & !(1 << 31), packed >> 31 == 1)
            }
            SeedList::Coded(coded, run) => {
                if *run == 0 {
                    *run = coded.token::<false>(self.left).expect("an unchecked token cannot fail");
                }
                *run -= 1;
                seed_at(coded.a - *run as i64, coded.d, coded.reverse)
            }
        };
        self.left -= 1;
        Some(seed)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RecordSeeds<'_> {}

/// Decode a buffer of pair records, raw or coded, invoking `f(pair,
/// seeds)` once per record with the seeds it carries, so a consumer pays
/// its per-pair cost per record, not per seed. Each record is checked
/// whole before `f` sees it. Returns the record count, or the first
/// malformed record — after `f` has seen every record before it.
pub fn decode_pair_records(
    buf: &[u8],
    mut f: impl FnMut(ReadPair, RecordSeeds<'_>),
) -> Result<u64, PairRecordError> {
    let (mut offset, mut records) = (0usize, 0u64);
    while offset < buf.len() {
        let (pair, seeds) = RecordSeeds::parse(&buf[offset..]).map_err(|kind| PairRecordError { offset, kind })?;
        offset += seeds.record.len();
        f(pair, seeds);
        records += 1;
    }
    Ok(records)
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
    /// The planned length of every record in send order (`All`): the
    /// numeric pass writes the bytes a round at a time.
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
                    count_rows(self.csr, rows, self.read_part, self.fold, scratch, &mut bufs, |r, dest, seeds| {
                        records.push((r, dest, seeds))
                    })
                });
                (records, bufs, instances)
            },
            |(records, bufs, instances)| {
                counters.pairs_emitted += instances;
                counters.candidate_pairs_emitted += records.len() as u64;
                for (r, dest, seeds) in records {
                    counters.seeds_shipped += seeds as u64;
                    let len = planned_len(seeds);
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

/// Records expanded for one destination and not yet shipped: their bytes
/// and, per record, its planned and its written length. Rounds are cut in
/// planned bytes; what ships is the written ones.
#[derive(Debug, Default)]
struct Carry {
    bytes: Vec<u8>,
    lens: Vec<(usize, usize)>,
    planned: usize,
}

impl Carry {
    fn push(&mut self, pair: ReadPair, seeds: &mut [SharedSeed]) {
        let written = write_pair_record(&mut self.bytes, pair, seeds);
        let planned = planned_len(seeds.len());
        self.lens.push((planned, written));
        self.planned += planned;
    }

    fn append(&mut self, other: Carry) {
        self.bytes.extend_from_slice(&other.bytes);
        self.lens.extend(other.lens);
        self.planned += other.planned;
    }

    /// Take the leading records that fill `planned` bytes of the plan.
    fn ship(&mut self, planned: usize) -> Vec<u8> {
        let (mut records, mut taken, mut written) = (0usize, 0usize, 0usize);
        while taken < planned {
            let (p, w) = self.lens[records];
            (records, taken, written) = (records + 1, taken + p, written + w);
        }
        assert_eq!(taken, planned, "a planned round ends inside a record");
        self.lens.drain(..records);
        self.planned -= taken;
        let rest = self.bytes.split_off(written);
        std::mem::replace(&mut self.bytes, rest)
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
    /// planned offset in its stream at which the expanded rows' records
    /// end.
    expanded: Vec<(usize, usize)>,
    /// Per destination, records expanded but not yet shipped: what the
    /// last expanded row emitted past the end of the last packed round.
    carry: Vec<Carry>,
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
            carry: (0..ranks).map(|_| Carry::default()).collect(),
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
    /// rows its planned byte ranges reach past what is carried, ship
    /// exactly the planned records and carry the rest.
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
            if range.start + self.carry[*dest].planned < range.end {
                let ends = &self.row_ends[*dest];
                let (last, end) = ends[ends.partition_point(|&(_, end)| end < range.end)];
                wants[*dest] = self.expanded[*dest].0..last + 1;
                self.expanded[*dest] = (last + 1, end);
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
            let mut got: Vec<Carry> = (0..ranks).map(|_| Carry::default()).collect();
            pool.with(|scratch| {
                let scratch = scratch.with_dense_index(n_reads);
                expand_rows(csr, rows.filter(wanted), fold, scratch, |r, pair, seeds| {
                    let dest = dest(read_part, pair.a, pair.b);
                    if wants[dest].contains(&r) {
                        got[dest].push(pair, seeds);
                    }
                });
            });
            got
        };
        for wave in (0..n_batches).step_by(WAVE_BATCHES) {
            for got in exec.map_indexed(WAVE_BATCHES.min(n_batches - wave), |i| expand(wave + i)) {
                for (carry, got) in self.carry.iter_mut().zip(got) {
                    carry.append(got);
                }
            }
        }

        let mut out: Vec<Vec<u8>> = vec![Vec::new(); ranks];
        for (dest, range) in segments {
            let carry = &mut self.carry[*dest];
            // The plan was cut from counted lengths; the rows must have
            // produced exactly those records, in every build profile.
            assert_eq!(
                range.start + carry.planned,
                self.expanded[*dest].1,
                "destination {dest}, round {round}: the expanded rows disagree with the symbolic pass"
            );
            out[*dest] = carry.ship(range.len());
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
    assert!(stream.carry.iter().all(|c| c.lens.is_empty()), "rows expanded past the last planned round");
    counters.seeds_received = got.seeds;
    counters.rounds = got.rounds;
    counters.peak_seeds_pending = got.peak_pending;
    counters
}

#[cfg(test)]
/// Each of `plan`'s rounds as it ships: per destination, the written
/// bytes of the records whose planned bytes the round covers.
pub(crate) fn coded_rounds(plan: &ByteRounds, product: &SpgemmBlockOut) -> Vec<Vec<Vec<u8>>> {
    // Per destination, each record's planned and written end offsets.
    let ends: Vec<Vec<(usize, usize)>> = product
        .lens
        .iter()
        .zip(&product.bufs)
        .map(|(lens, buf)| {
            let mut written = Vec::new();
            decode_pair_records(buf, |_, seeds| written.push(seeds.record().len())).unwrap();
            assert_eq!(written.len(), lens.len());
            let (mut p, mut w) = (0, 0);
            lens.iter().zip(written).map(|(lp, lw)| {
                (p, w) = (p + lp, w + lw);
                (p, w)
            }).collect()
        })
        .collect();
    let written_at = |dest: usize, planned: usize| match planned {
        0 => 0,
        planned => {
            let at = ends[dest].partition_point(|&(p, _)| p < planned);
            assert_eq!(ends[dest][at].0, planned, "a planned round ends inside a record");
            ends[dest][at].1
        }
    };
    (0..plan.len() as u64)
        .map(|round| {
            let mut bufs = vec![Vec::new(); product.bufs.len()];
            for (dest, range) in plan.segments(round) {
                let bytes = written_at(*dest, range.start)..written_at(*dest, range.end);
                bufs[*dest] = product.bufs[*dest][bytes].to_vec();
            }
            bufs
        })
        .collect()
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
            t.promote(km);
            for o in occs {
                assert!(t.record_occurrence(&km, *o, &c));
            }
        }
        t
    }

    fn occ(read: u32, pos: u32, strand: Strand) -> Occurrence {
        Occurrence::new(read, pos, strand)
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
        let planned = [RECORD_HEADER_BYTES + 2 * SEED_BYTES, RECORD_HEADER_BYTES + SEED_BYTES];
        assert_eq!(out.lens[0], planned, "planned at 12 + 8n");
        // The two-seed record codes to 17 bytes; the one-seed record is raw.
        assert_eq!(out.bufs[0].len(), 17 + 20);
        let mut got: Vec<(ReadPair, SharedSeed)> = Vec::new();
        let records = decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s))));
        assert_eq!(records, Ok(2));
        let mut want = vec![
            (ReadPair::new(0, 1), SharedSeed::new(3, 7, false)),
            (ReadPair::new(0, 1), SharedSeed::new(9, 1, true)),
            (ReadPair::new(0, 2), SharedSeed::new(20, 5, false)),
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
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s)))).unwrap();
        assert_eq!(got, vec![(ReadPair::new(0, 1), SharedSeed::new(3, 0, false))]);
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
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s)))).unwrap();
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
        decode_pair_records(&out.bufs[0], |p, seeds| got.extend(seeds.map(|s| (p, s)))).unwrap();
        assert_eq!(
            got,
            vec![(
                ReadPair::new(0, 1),
                SharedSeed::new(123_456, 654_321, true)
            )]
        );
    }

    /// Bit 31 of `b_pos` is the orientation: a position that needs it is
    /// refused in every build profile when the seed is made, so no record
    /// can ship it as a flipped strand.
    #[test]
    #[should_panic(expected = "reads must be shorter than 2^31 bases")]
    fn a_position_needing_the_orientation_bit_is_refused() {
        let _ = SharedSeed::new(0, 1 << 31, false);
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
        assert_eq!(records, Ok(2));
        let seeds = vec![
            SharedSeed::new(10, 20, false),
            SharedSeed::new(30, 40, true),
        ];
        assert_eq!(calls, vec![(ReadPair::new(3, 9), 2, seeds.clone()), (ReadPair::new(3, 9), 2, seeds)]);
    }

    /// Each record handed over: its pair and seeds.
    type Seen = Vec<(ReadPair, Vec<SharedSeed>)>;

    /// Decode `buf`: the records handed over, and the result.
    fn decode_all(buf: &[u8]) -> (Seen, Result<u64, PairRecordError>) {
        let mut seen = Vec::new();
        let res = decode_pair_records(buf, |p, seeds| seen.push((p, seeds.collect())));
        (seen, res)
    }

    fn error(offset: usize, kind: PairRecordErrorKind) -> Result<u64, PairRecordError> {
        Err(PairRecordError { offset, kind })
    }

    #[test]
    fn decode_rejects_a_cut_header() {
        let mut buf = one_record();
        buf.extend_from_slice(&one_record()[..RECORD_HEADER_BYTES - 1]);
        let (seen, res) = decode_all(&buf);
        assert_eq!(res, error(one_record().len(), PairRecordErrorKind::TruncatedHeader));
        assert_eq!(seen.len(), 1, "the whole record before the cut is handed over");
        assert_eq!(res.unwrap_err().to_string(), "pair record at byte 28: header cut short");
    }

    #[test]
    fn decode_rejects_a_cut_seed_list() {
        let buf = one_record();
        let (seen, res) = decode_all(&buf[..buf.len() - 1]);
        assert_eq!((seen, res), (vec![], error(0, PairRecordErrorKind::TruncatedSeeds)));
    }

    #[test]
    fn decode_rejects_a_seed_count_beyond_the_buffer() {
        let mut buf = one_record();
        buf[8..12].copy_from_slice(&(u32::MAX >> 1).to_le_bytes());
        assert_eq!(decode_all(&buf).1, error(0, PairRecordErrorKind::TruncatedSeeds));
        // The same count, coded: the list runs out long before it.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_all(&buf).1, error(0, PairRecordErrorKind::TruncatedSeeds));
    }

    /// Coded lists that lie: more forward seeds than the record holds, a
    /// run past its orientation's seeds, a step off the position range and
    /// a varint over 64 bits are each named, never a panic.
    #[test]
    fn decode_rejects_coded_lists_that_disagree_with_their_header() {
        let coded = |n: u32, body: &[u8]| -> Vec<u8> {
            let mut buf = [3u32, 9, n | CODED].iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();
            buf.extend_from_slice(body);
            buf
        };
        use PairRecordErrorKind::*;
        // Two forward seeds at (5, 5) and (6, 6): coded, then decoded back.
        let good = coded(2, &[2, 5, 0, 0, 1]);
        let (seen, res) = decode_all(&good);
        assert_eq!(res, Ok(1));
        assert_eq!(seen[0].1, [SharedSeed::new(5, 5, false), SharedSeed::new(6, 6, false)]);
        for (body, kind) in [
            (&[3u8, 5, 0][..], SeedCount),             // three forward seeds of two
            (&[2, 5, 0, 0, 3][..], SeedCount),         // a run of two with one seed left
            (&[0, 0, 0, 0, 3][..], SeedCount),         // a reverse run past the end
            (&[2, 1, 3, 0, 0][..], Position),          // b = −1
            (&[2, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 0][..], Position), // a_pos past u32
            (&[2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02][..], VarintOverflow),
            (&[2, 5, 0][..], TruncatedSeeds),
        ] {
            assert_eq!(decode_all(&coded(2, body)).1, error(0, kind), "{body:?}");
        }
    }

    /// A small xorshift stream for the seeded codec tests.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A seed list of one of the shapes the codec must get right: runs of
    /// consecutive k-mers on a diagonal in either orientation, scattered
    /// seeds, seeds sharing an `a_pos`, positions near 2³¹ − 1, duplicates.
    fn seed_list(rnd: &mut impl FnMut() -> u64) -> Vec<SharedSeed> {
        const TOP: u64 = (1 << 31) - 1;
        let n = 1 + (rnd() % 40) as usize;
        let shape = rnd() % 5;
        let mut seeds = Vec::with_capacity(n);
        let (mut a, mut b) = (rnd() % 20_000, rnd() % 20_000);
        for i in 0..n as u64 {
            let reverse = rnd().is_multiple_of(3);
            let seed = match shape {
                // Diagonal runs with the odd indel.
                0 => {
                    a += 1 + rnd().is_multiple_of(8) as u64;
                    b = if reverse { b.saturating_sub(1) } else { b + 1 + rnd().is_multiple_of(9) as u64 };
                    (a, b)
                }
                // Anywhere: coding may not pay, and the raw form must.
                1 => (rnd() % (TOP + 1), rnd() % (TOP + 1)),
                // One `a_pos`, many `b_pos`.
                2 => (a, rnd() % 5_000),
                // At the top of the position range.
                3 => (TOP - rnd() % 4, TOP - i % 3),
                // Duplicates.
                _ => (a + rnd() % 2, b + rnd() % 2),
            };
            seeds.push(SharedSeed::new(seed.0 as u32, seed.1 as u32, reverse));
        }
        seeds
    }

    /// Encode → decode returns the list written, as a multiset, in every
    /// shape, and no record is longer than its raw `12 + 8n` bytes.
    #[test]
    fn coded_records_round_trip_and_never_outgrow_raw() {
        let mut rnd = xorshift(0xC0DE_5EED);
        let (mut coded, mut raw) = (0usize, 0usize);
        for case in 0..4_000 {
            let seeds = seed_list(&mut rnd);
            let pair = ReadPair::new(case, case + 1 + (rnd() % 9) as u32);
            let mut buf = vec![0xAB];
            let len = write_pair_record(&mut buf, pair, &mut seeds.clone());
            assert_eq!(len, buf.len() - 1);
            assert!(len <= planned_len(seeds.len()), "case {case}: {len} bytes for {} seeds", seeds.len());
            let n = u32::from_le_bytes(buf[9..13].try_into().unwrap());
            if n & CODED != 0 {
                coded += 1;
            } else {
                assert_eq!(len, planned_len(seeds.len()));
                raw += 1;
            }
            let (seen, res) = decode_all(&buf[1..]);
            assert_eq!(res, Ok(1), "case {case}");
            let (mut got, mut want) = (seen[0].1.clone(), seeds);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!((seen[0].0, got), (pair, want), "case {case}");
        }
        assert!(coded > 1_000 && raw > 500, "{coded} coded, {raw} raw");
    }

    /// Consecutive k-mers on one diagonal cost one run token per
    /// orientation: a few bytes for the whole list.
    #[test]
    fn a_diagonal_of_consecutive_kmers_is_one_run_token() {
        let mut seeds: Vec<SharedSeed> = (0..500).map(|i| SharedSeed::new(100 + i, 7 + i, false)).collect();
        seeds.extend((0..300).map(|i| SharedSeed::new(40 + i, 900 - i, true)));
        let mut buf = Vec::new();
        let len = write_pair_record(&mut buf, ReadPair::new(1, 2), &mut seeds.clone());
        // Header, forward count, then per orientation one step from (0, 0)
        // and one run token, each a one-byte Δa_pos and a two-byte varint.
        assert_eq!(len, RECORD_HEADER_BYTES + 2 + 2 * (3 + 3), "{:?}", &buf[12..]);
        let (seen, res) = decode_all(&buf);
        assert_eq!(res, Ok(1));
        seeds.sort_unstable_by_key(|s| (s.reverse(), *s));
        assert_eq!(seen[0].1, seeds);
    }

    /// A buffer of coded and raw records cut at every byte decodes to the
    /// whole records before the cut and, unless the cut falls between two
    /// records, an error at the cut record — never a panic. Every byte
    /// flipped in turn decodes or is refused, never a panic either.
    #[test]
    fn cut_or_damaged_records_are_refused_not_panicked_on() {
        let mut rnd = xorshift(0x0C07_5EED);
        let (mut buf, mut starts, mut records) = (Vec::new(), Vec::new(), Vec::new());
        for case in 0..24u32 {
            starts.push(buf.len());
            let seeds = seed_list(&mut rnd);
            let pair = ReadPair::new(case, case + 1);
            write_pair_record(&mut buf, pair, &mut seeds.clone());
            records.push(pair);
        }
        starts.push(buf.len());
        for cut in 0..=buf.len() {
            let (seen, res) = decode_all(&buf[..cut]);
            let whole = starts.partition_point(|&s| s <= cut) - 1;
            let pairs: Vec<ReadPair> = seen.iter().map(|(p, _)| *p).collect();
            assert_eq!(pairs, records[..whole], "cut at {cut}");
            match res {
                Ok(n) => assert_eq!((n as usize, cut), (whole, starts[whole]), "cut at {cut}"),
                Err(e) => assert_eq!(e.offset, starts[whole], "cut at {cut}"),
            }
        }
        for at in 0..buf.len() {
            let mut bad = buf.clone();
            bad[at] ^= 1 << (at % 8);
            let _ = decode_all(&bad);
        }
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
            if !t.promote(km) {
                continue;
            }
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
                    let coded = coded_rounds(&want, &oracle);
                    let total: usize = oracle.lens.iter().flatten().sum();
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
                        for round in 0..want.len() + 2 {
                            let want = coded.get(round).cloned().unwrap_or_else(|| vec![Vec::new(); ranks]);
                            assert_eq!(stream.pack(round as u64), want, "round {round} {at}");
                        }
                        assert!(stream.carry.iter().all(|c| c.lens.is_empty()), "{at}");
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
                    decode_pair_records(buf, |pair, _| firsts.push(pair.a)).unwrap();
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
