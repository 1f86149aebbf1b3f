//! The distributed k-mer passes (paper §6 and §7).
//!
//! **Reliable front end.** The Bloom pass streams the local reads in
//! bounded *rounds* (paper §4: "diBELLA executes in a streaming fashion
//! with a subset of input data at a time to limit the memory
//! consumption") through one [`dibella_comm::RoundExchange`] drive, and it
//! is the only exchange of the two passes: what travels is not one record
//! per k-mer but **owner-run records** ([`dibella_kmer::supermer`]) — a
//! k-mer is owned by the rank its minimizer hashes to, so neighbouring
//! k-mers mostly share an owner, and a maximal run of them ships as
//! `read id | start | n | 2-bit bases`, about 1.4 B per input base at
//! P = 2 and 2.6 B at P = 64 instead of 8 B + 20 B per k-mer. The owner
//! rolls each arriving run back into canonical k-mers for its Bloom
//! partition and **keeps the received buffers** ([`RetainedRuns`], moved
//! out of the exchange, never copied). The hash pass is then a local sweep
//! over what the rank already holds — roll again, record occurrences for
//! resident keys, free each buffer as it is consumed — with no second
//! parse of the reads and no second exchange. That departs from the
//! paper's §7, which re-parses and re-sends every k-mer with its
//! location: it trades the whole second exchange (2.5× the first one's
//! volume there) for holding a rank's share of the records between the
//! two passes — the counter [`KmerStageCounters::retained_bytes`], in
//! total exactly the bytes the Bloom pass put on the wire.
//!
//! **Minimizer front end.** [`minimizer_stage`] is one streamed pass of
//! fixed 20-byte `(k-mer, read, position, strand)` records for the
//! selected (w, k) minimizers only.
//!
//! Packing is *threaded* through the shared [`BatchedExecutor`] the same
//! way for both: a round's window range (a cut of the rank-global
//! [`WindowIndex`] space) is sharded into fixed `extract_batch`-window
//! batches, each batch packs into its own per-destination byte buffers,
//! and buffers are concatenated in batch order — wire bytes are a pure
//! function of the input, `extract_batch` and the round cap, never of the
//! thread count. A batch or round boundary inside a read cuts an
//! owner-run in two (so a tighter cap ships a few more header bytes); it
//! never changes which rank a k-mer goes to or what the owner decodes.

use crate::config::KcountConfig;
use crate::table::{KmerHashTable, Occurrence};
use dibella_comm::{
    decode_iter, records_per_round, BatchedExecutor, Comm, RoundExchange, RoundPlan, Wire,
};
use dibella_io::Read;
use dibella_kmer::supermer::{self, supermers};
use dibella_kmer::{minimizer_window_hits, Kmer1, KmerHit, Strand, WindowIndex};
use dibella_sketch::BloomFilter;
use std::cell::RefCell;

/// Minimizer-pass record: `(kmer word, read id, position, strand)`.
type HashMsg = (u64, u32, u32, u32);

/// Work counters shared by the k-mer passes, consumed by the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KmerStageCounters {
    /// k-mers parsed and packed on the sending side.
    pub kmers_parsed: u64,
    /// k-mers processed on the owning side.
    pub kmers_received: u64,
    /// Bulk-synchronous exchange rounds executed.
    pub rounds: u64,
    /// Bloom pass: keys promoted into the hash table (second sightings).
    pub promoted_keys: u64,
    /// Hash pass: occurrences recorded into resident keys.
    pub recorded_occurrences: u64,
    /// Hash pass: k-mers the screen of resident keys let through to a
    /// table probe — `recorded_occurrences` plus the screen's false
    /// positives.
    pub screen_passes: u64,
    /// Bloom pass: bytes of received owner-run records this rank holds
    /// when the pass returns, for the hash pass to sweep and free — the
    /// memory price of not exchanging twice. Zero for every other pass.
    pub retained_bytes: u64,
}

/// Result of the Bloom-filter pass.
#[derive(Debug)]
pub struct BloomOutput {
    /// Hash-table partition initialized with the keys of (probable)
    /// non-singleton k-mers.
    pub table: KmerHashTable,
    /// Peak Bloom filter memory (freed on return, as in the paper).
    pub bloom_bytes: usize,
    /// Bloom filter fill ratio at the end of the pass (diagnostic).
    pub bloom_fill: f64,
    /// Work counters.
    pub counters: KmerStageCounters,
}

/// The batching skeleton both packers share: shard the global window
/// range `[lo, hi)` into fixed `batch_windows`-window executor batches,
/// let `pack_piece(read index, pos_lo, pos_hi, bufs)` append each
/// [`WindowIndex`] piece of a batch to that batch's per-destination
/// buffers (returning the k-mers it packed), and append the batch buffers
/// to the round's in batch order
/// ([`BatchedExecutor::map_indexed_into`]) — the order a sequential
/// single-pass pack writes them in, so the result is byte-identical at any
/// thread count — freeing each at once, so a round is never held twice.
///
/// `reserve(windows)` is one destination's expected bytes for that many
/// windows. Reserving it up front, a buffer is allocated once instead of
/// grown: no thousands of small reallocations per round for the batches,
/// no doubling — which holds a touched copy of the buffer while it
/// moves — for the round. `spare` holds buffers the caller is done with;
/// the round is written into those that are large enough.
#[allow(clippy::too_many_arguments)]
fn pack_batched(
    idx: &WindowIndex,
    lo: u64,
    hi: u64,
    ranks: usize,
    batch_windows: usize,
    exec: &BatchedExecutor,
    reserve: impl Fn(u64) -> usize + Sync,
    spare: &mut Vec<Vec<u8>>,
    pack_piece: impl Fn(usize, usize, usize, &mut [Vec<u8>]) -> u64 + Sync,
) -> (Vec<Vec<u8>>, u64) {
    let hi = hi.max(lo);
    let batch_windows = batch_windows.max(1) as u64;
    let n_batches = (hi - lo).div_ceil(batch_windows) as usize;
    let mut round: Vec<Vec<u8>> = (0..ranks)
        .map(|_| match spare.pop() {
            Some(mut buf) if buf.capacity() >= reserve(hi - lo) => {
                buf.clear();
                buf
            }
            _ => Vec::with_capacity(reserve(hi - lo)),
        })
        .collect();
    let mut parsed = 0u64;
    exec.map_indexed_into(
        n_batches,
        |b| {
            let blo = lo + b as u64 * batch_windows;
            let bhi = (blo + batch_windows).min(hi);
            let mut bufs: Vec<Vec<u8>> =
                (0..ranks).map(|_| Vec::with_capacity(reserve(bhi - blo))).collect();
            let mut hits = 0u64;
            for (ri, plo, phi) in idx.pieces(blo, bhi) {
                hits += pack_piece(ri, plo, phi, &mut bufs);
            }
            (bufs, hits)
        },
        |(bufs, hits)| {
            parsed += hits;
            for (dest, batch) in round.iter_mut().zip(bufs) {
                dest.extend_from_slice(&batch);
            }
        },
    );
    (round, parsed)
}

/// Pack the (w, k) minimizers of the global window range `[lo, hi)` as
/// 20-byte records routed by canonical k-mer hash — the minimizer front
/// end's packer. Batched like [`pack_supermers`] (fixed
/// `batch_windows`-window executor batches, merged in batch order, so the
/// bytes are the same at any thread count); a piece is selected by
/// [`minimizer_window_hits`], which re-derives it with `w − 1` windows of
/// context on each side, so a cut never changes which k-mers are
/// selected. `spare` holds buffers the caller is done with; the round is
/// written into those that are large enough. Returns the round's
/// per-destination buffers and the number of minimizers packed.
#[allow(clippy::too_many_arguments)]
pub fn pack_windows(
    reads: &[Read],
    idx: &WindowIndex,
    lo: u64,
    hi: u64,
    ranks: usize,
    w: usize,
    batch_windows: usize,
    exec: &BatchedExecutor,
    spare: &mut Vec<Vec<u8>>,
) -> (Vec<Vec<u8>>, u64) {
    let k = idx.k();
    // Uniform owner hash; minimizers keep ~2/(w + 1) of the windows.
    let reserve = |windows: u64| {
        let share = (2 * windows / (w as u64 + 1) / ranks as u64) as usize;
        (share + share / 8 + 16) * <HashMsg as Wire>::SIZE
    };
    pack_batched(idx, lo, hi, ranks, batch_windows, exec, reserve, spare, |ri, plo, phi, bufs| {
        let read = &reads[ri];
        let hits = minimizer_window_hits(&read.seq, k, w, plo, phi);
        for hit in &hits {
            let msg: HashMsg = (hit.kmer.words()[0], read.id, hit.pos, hit.strand.as_u8() as u32);
            msg.write(&mut bufs[hit.kmer.owner(ranks)]);
        }
        hits.len() as u64
    })
}

/// Pack every k-mer of the global window range `[lo, hi)` as owner-run
/// records routed by minimizer ([`supermer::pack_runs`]) — the reliable
/// front end's packer. The range is sharded into fixed
/// `batch_windows`-window executor batches, each batch packs its
/// [`WindowIndex`] pieces into its own per-destination buffers, and those
/// are appended to the round's in batch order: bytes are a pure function
/// of the input and `batch_windows` (a batch boundary inside a read cuts
/// a run in two), never of the thread count. Returns the round's
/// per-destination buffers and the number of k-mers packed (ambiguous
/// bases make that fewer than windows). Takes no spare buffers: the
/// owners keep what they receive, so none come back.
pub fn pack_supermers(
    reads: &[Read],
    idx: &WindowIndex,
    lo: u64,
    hi: u64,
    ranks: usize,
    batch_windows: usize,
    exec: &BatchedExecutor,
) -> (Vec<Vec<u8>>, u64) {
    let k = idx.k();
    let per_kmer = supermer::expected_bytes_per_kmer(k, ranks);
    let reserve = |windows: u64| {
        let share = (windows as f64 * per_kmer / ranks as f64) as usize;
        share + share / 8 + supermer::record_bytes(supermer::MAX_RUN, k)
    };
    pack_batched(
        idx,
        lo,
        hi,
        ranks,
        batch_windows,
        exec,
        reserve,
        &mut Vec::new(),
        |ri, plo, phi, bufs| supermer::pack_runs(&reads[ri].seq, reads[ri].id, k, plo, phi, bufs),
    )
}

/// Whether the buffers a pass receives in `round` are worth keeping for
/// its packer: they come back after round `round + 1` is packed, so the
/// first pack that can fill them is number `round + 2` — if the rank has
/// that many. Otherwise each is freed as soon as it is consumed.
fn reusable(round: u64, local_packs: u64) -> bool {
    round + 2 < local_packs
}

/// The owner-run records a rank received in the Bloom pass, held for the
/// hash pass: returned by [`bloom_stage_overlapping`], swept and freed by
/// [`hash_stage_prepacked`]. Opaque — the buffers are the exchange's
/// receive buffers themselves, in arrival order.
#[derive(Debug)]
pub struct RetainedRuns {
    /// `(round, source rank, records)` per non-empty received buffer.
    bufs: Vec<(u64, usize, Vec<u8>)>,
    /// k the records were packed for.
    k: usize,
}

impl RetainedRuns {
    /// Bytes of records held.
    pub fn bytes(&self) -> u64 {
        self.bufs.iter().map(|(_, _, buf)| buf.len() as u64).sum()
    }
}

/// Where a received buffer came from, for error messages.
#[derive(Clone, Copy)]
struct Arrival<'a> {
    pass: &'a str,
    rank: usize,
    round: u64,
    source: usize,
}

/// Roll every k-mer of one received buffer through `f(read id, hit)` and
/// return how many there were.
///
/// # Panics
/// Panics, naming the rank, pass, round, source and byte offset, if the
/// buffer is not a sequence of owner-run records. The stages have no error
/// channel (a rank that stopped would deadlock the world's next
/// collective); on a hardened transport damaged bytes never get here —
/// the frame CRC rejects and retransmits them.
fn roll_buffer(at: Arrival<'_>, buf: &[u8], k: usize, mut f: impl FnMut(u32, KmerHit<1>)) -> u64 {
    let mut kmers = 0u64;
    for record in supermers(buf, k) {
        let record = record.unwrap_or_else(|e| {
            let Arrival { pass, rank, round, source } = at;
            panic!("rank {rank}: {pass} pass, round {round}, buffer from rank {source}: {e}")
        });
        kmers += record.len() as u64;
        for hit in record.hits::<1>() {
            f(record.read, hit);
        }
    }
    kmers
}

/// The one exchange of the reliable front end: pack the local reads into
/// owner-run records round by round, ship them, hand every received
/// buffer to `on_arrival(round, source, records)` and keep it. Returns the
/// kept buffers, the k-mers packed here and the rounds executed.
fn exchange_runs(
    comm: &Comm,
    reads: &[Read],
    cfg: &KcountConfig,
    exec: &BatchedExecutor,
    mut on_arrival: impl FnMut(u64, usize, &[u8]),
) -> (RetainedRuns, u64, u64) {
    let p = comm.size();
    let idx = WindowIndex::new(reads.iter().map(|r| r.len()), cfg.k);
    let total = idx.total_windows();
    // Planned on the most one window can cost — a record of its own — so
    // the byte cap stays an upper bound on a round.
    let per_round = records_per_round(
        supermer::record_bytes(1, cfg.k),
        cfg.max_kmers_per_round,
        cfg.max_exchange_bytes_per_round,
    ) as u64;
    let mut parsed = 0u64;
    let mut kept = RetainedRuns { bufs: Vec::new(), k: cfg.k };
    let rounds = RoundExchange::run(
        comm,
        RoundPlan::for_records(total, per_round as usize),
        |round| {
            let lo = (round * per_round).min(total);
            let hi = ((round + 1) * per_round).min(total);
            let (bufs, n) = pack_supermers(reads, &idx, lo, hi, p, cfg.extract_batch, exec);
            parsed += n;
            bufs
        },
        |round, recv| {
            for (source, buf) in recv.into_iter().enumerate() {
                if !buf.is_empty() {
                    on_arrival(round, source, &buf);
                    kept.bufs.push((round, source, buf));
                }
            }
        },
    );
    (kept, parsed, rounds)
}

/// Stage 1 — distributed Bloom filter construction (paper §6).
///
/// Every rank packs its reads' canonical k-mers into owner-run records
/// (threaded through `exec`, deterministically — see [`pack_supermers`])
/// routed by minimizer; the owner rolls each arriving run back into
/// k-mers and inserts them into its Bloom partition, and a k-mer already
/// present is promoted into the hash-table partition. The filter is
/// dropped on return ("After the hash table is initialized with k-mer
/// keys, the Bloom filter is freed").
///
/// The received records are *not* dropped: they come back as
/// [`RetainedRuns`] for [`hash_stage_prepacked`] to sweep, so the hash
/// pass needs no exchange of its own.
/// [`KmerStageCounters::retained_bytes`] reports what that holds.
pub fn bloom_stage_overlapping(
    comm: &Comm,
    reads: &[Read],
    cfg: &KcountConfig,
    exec: &BatchedExecutor,
) -> (BloomOutput, RetainedRuns) {
    let p = comm.size();
    let rank = comm.rank();
    let mut bloom = BloomFilter::for_items(
        cfg.expected_distinct_per_rank(p),
        cfg.bloom_fp_rate,
    );
    let mut table = KmerHashTable::with_capacity(1024);
    let mut received = 0u64;
    let mut promoted = 0u64;

    let (retained, parsed, rounds) = exchange_runs(comm, reads, cfg, exec, |round, source, buf| {
        let at = Arrival { pass: "Bloom", rank, round, source };
        received += roll_buffer(at, buf, cfg.k, |_, hit| {
            debug_assert_eq!(supermer::owner(&hit.kmer, p), rank, "misrouted k-mer");
            if bloom.insert(hit.kmer.hash64()) && !table.contains(&hit.kmer) {
                // Second (apparent) sighting → promote to hash table.
                promoted += 1;
                table.insert_key(hit.kmer);
            }
        });
    });
    let counters = KmerStageCounters {
        kmers_parsed: parsed,
        kmers_received: received,
        rounds,
        promoted_keys: promoted,
        retained_bytes: retained.bytes(),
        ..Default::default()
    };

    let bloom_bytes = bloom.memory_bytes();
    let bloom_fill = bloom.fill_ratio();
    bloom.clear_and_shrink();
    (BloomOutput { table, bloom_bytes, bloom_fill, counters }, retained)
}

/// Result of the hash-table pass.
#[derive(Debug)]
pub struct HashOutput {
    /// Reliable-k-mer filter statistics (singletons / high-frequency
    /// removals, retained count).
    pub filter: crate::table::FilterStats,
    /// Work counters.
    pub counters: KmerStageCounters,
}

/// Stage 2 — hash table construction (paper §7).
///
/// A local sweep over `retained`, the owner-run records this rank
/// received in [`bloom_stage_overlapping`]: each run is rolled into its
/// k-mer instances again — this time for their (read, position, strand) —
/// occurrences are recorded for resident keys only, and each buffer is
/// freed as soon as it is consumed. Then the partition is scanned to drop
/// false-positive singletons and k-mers over the threshold `m`. Nothing
/// is parsed (`kmers_parsed = 0`) and nothing is exchanged.
///
/// Most rolled k-mers are not resident (98 % at 1× coverage), so a k-mer
/// probes the table only if a screen of the resident keys, built before
/// the sweep and dropped after it, lets it through
/// ([`KmerStageCounters::screen_passes`]). The screen has no false
/// negatives: the table records what probing every k-mer records.
///
/// `None` rebuilds the records by running the Bloom pass's exchange again
/// (the paper's resend; `reads` and `exec` are used only then) — the
/// tables are identical either way, which is what the tests use it for.
pub fn hash_stage_prepacked(
    comm: &Comm,
    reads: &[Read],
    table: &mut KmerHashTable,
    cfg: &KcountConfig,
    exec: &BatchedExecutor,
    retained: Option<RetainedRuns>,
) -> HashOutput {
    let rank = comm.rank();
    let (retained, parsed, rounds) = match retained {
        Some(runs) => (runs, 0, 0),
        None => exchange_runs(comm, reads, cfg, exec, |_, _, _| {}),
    };
    assert_eq!(retained.k, cfg.k, "records retained for a different k");
    let screen = table.screen();
    let mut received = 0u64;
    let mut passes = 0u64;
    let mut recorded = 0u64;
    for (round, source, buf) in retained.bufs {
        let at = Arrival { pass: "hash", rank, round, source };
        received += roll_buffer(at, &buf, cfg.k, |read, hit| {
            if !screen.admits(hit.kmer.hash64()) {
                return;
            }
            passes += 1;
            let occ = Occurrence { read, pos: hit.pos, strand: hit.strand };
            if table.record_occurrence(&hit.kmer, occ, cfg) {
                recorded += 1;
            }
        });
    }
    drop(screen);
    let counters = KmerStageCounters {
        kmers_parsed: parsed,
        kmers_received: received,
        rounds,
        recorded_occurrences: recorded,
        screen_passes: passes,
        ..Default::default()
    };

    let filter = table.retain_reliable(cfg.max_multiplicity);
    HashOutput { filter, counters }
}

/// Result of the single-pass minimizer-sketch stage.
#[derive(Debug)]
pub struct MinimizerOutput {
    /// Hash-table partition keyed by the retained minimizer k-mers, with
    /// full (read, position, strand) occurrence lists — the same shape
    /// the reliable path hands to the overlap stage.
    pub table: KmerHashTable,
    /// Reliable filter statistics over the minimizer key set.
    pub filter: crate::table::FilterStats,
    /// Work counters (`kmers_parsed` counts *selected* minimizers, not
    /// windows; `promoted_keys` counts keys created on first sighting).
    pub counters: KmerStageCounters,
}

/// Single-pass distributed minimizer index construction — the sketch
/// front end that replaces stages 1 + 2 under `--seed-mode minimizer`.
///
/// Each rank extracts the (w, k) minimizers of its reads
/// ([`pack_windows`], threaded over `exec` with the same fixed-batch
/// window sharding as the reliable pass) and routes each selected k-mer,
/// with its occurrence metadata, to its owner by canonical hash as one
/// 20-byte record. Owners insert-or-record (no Bloom pre-pass: the
/// sketch keeps only ~`2/(w+1)` of k-mer instances, so the key set is
/// already bounded), then apply the same reliable filter — singletons
/// witness no read pairs, and keys over `m` occurrences are
/// repeat-masked exactly as in the reliable path.
///
/// Rounds are planned over the full window index space (selected
/// minimizers are a subset of windows), so the per-round record and
/// byte caps hold as upper bounds and the round structure is a pure
/// function of the input — bit-identical wire bytes at any thread
/// count, transport, or `--round-mb` cap.
pub fn minimizer_stage(
    comm: &Comm,
    reads: &[Read],
    w: usize,
    cfg: &KcountConfig,
    exec: &BatchedExecutor,
) -> MinimizerOutput {
    let p = comm.size();
    let mut table = KmerHashTable::with_capacity(1024);
    let mut counters = KmerStageCounters::default();

    let idx = WindowIndex::new(reads.iter().map(|r| r.len()), cfg.k);
    let total = idx.total_windows();
    let per_round = records_per_round(
        <HashMsg as Wire>::SIZE,
        cfg.max_kmers_per_round,
        cfg.max_exchange_bytes_per_round,
    ) as u64;
    let mut parsed = 0u64;
    let mut received = 0u64;
    let mut promoted = 0u64;
    let mut recorded = 0u64;
    // Consumed receive buffers, handed back to the packer.
    let spare: RefCell<Vec<Vec<u8>>> = RefCell::new(Vec::new());

    let plan = RoundPlan::for_records(total, per_round as usize);
    let rounds = RoundExchange::run(
        comm,
        plan,
        |round| {
            let lo = (round * per_round).min(total);
            let hi = ((round + 1) * per_round).min(total);
            let (bufs, n) = pack_windows(
                reads,
                &idx,
                lo,
                hi,
                p,
                w,
                cfg.extract_batch,
                exec,
                &mut spare.borrow_mut(),
            );
            parsed += n;
            bufs
        },
        |round, recv| {
            for buf in recv {
                for (word, rid, pos, strand) in decode_iter::<HashMsg>(&buf) {
                    received += 1;
                    let kmer = Kmer1::from_words([word], cfg.k as u16);
                    debug_assert_eq!(kmer.owner(p), comm.rank(), "misrouted minimizer");
                    let occ = Occurrence {
                        read: rid,
                        pos,
                        strand: Strand::from_u8(strand as u8),
                    };
                    if table.record_or_insert(kmer, occ, cfg) {
                        promoted += 1;
                    }
                    recorded += 1;
                }
                if reusable(round, plan.local_rounds()) {
                    spare.borrow_mut().push(buf);
                }
            }
        },
    );
    counters.kmers_parsed = parsed;
    counters.kmers_received = received;
    counters.promoted_keys = promoted;
    counters.recorded_occurrences = recorded;
    counters.rounds = rounds;

    let filter = table.retain_reliable(cfg.max_multiplicity);
    MinimizerOutput { table, filter, counters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_comm::CommWorld;
    use dibella_io::partition_reads;
    use dibella_io::ReadSet;
    use dibella_kmer::{kmer_count, window_hits, KmerIter};
    use std::collections::{BTreeMap, HashMap};

    fn test_cfg(k: usize, m: u32) -> KcountConfig {
        KcountConfig {
            k,
            max_multiplicity: m,
            bloom_fp_rate: 0.01,
            expected_distinct: 10_000,
            max_kmers_per_round: 64, // tiny cap → exercises multi-round path
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: 16, // tiny batch → many executor batches per round
        }
    }

    fn make_reads(n: usize, len: usize, seed: u64) -> ReadSet {
        // Deterministic pseudo-random reads with some shared content:
        // half the reads share a common 40-base core to create reliable
        // k-mers.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let core: Vec<u8> = (0..40).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        (0..n as u32)
            .map(|i| {
                let mut seq: Vec<u8> = (0..len).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
                if i % 2 == 0 {
                    let at = (next() as usize) % (len - core.len());
                    seq[at..at + core.len()].copy_from_slice(&core);
                }
                dibella_io::Read::new(i, format!("r{i}"), seq)
            })
            .collect()
    }

    /// [`make_reads`] with an `N` every 17–21 bases (the step varies by
    /// read), so hits < windows and windows break mid-batch.
    fn make_dirty_reads(n: usize, len: usize, seed: u64) -> ReadSet {
        make_reads(n, len, seed)
            .iter()
            .map(|r| {
                let mut seq = r.seq.clone();
                let step = 17 + (r.id as usize % 5);
                let mut i = step;
                while i < seq.len() {
                    seq[i] = b'N';
                    i += step;
                }
                dibella_io::Read::new(r.id, r.name.clone(), seq)
            })
            .collect()
    }

    /// Run both passes on `p` ranks and merge the resulting partitions.
    fn run_distributed(
        reads: &ReadSet,
        p: usize,
        cfg: &KcountConfig,
    ) -> HashMap<Kmer1, Vec<Occurrence>> {
        let (_, chunks) = partition_reads(reads, p);
        let results = CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, retained) = bloom_stage_overlapping(comm, local, cfg, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, cfg, &exec, Some(retained));
            table
                .iter()
                .map(|(k, e)| (*k, e.occurrences.clone()))
                .collect::<Vec<_>>()
        });
        let mut merged = HashMap::new();
        for part in results {
            for (k, occs) in part {
                assert!(merged.insert(k, occs).is_none(), "key on two ranks");
            }
        }
        merged
    }

    /// Serial reference of the retained table: canonical k-mer → sorted
    /// `(read, pos, strand)` set, for k-mers seen 2..=m times.
    fn reference_table(reads: &ReadSet, k: usize, m: u32) -> BTreeMap<Kmer1, Vec<Occurrence>> {
        let mut all: BTreeMap<Kmer1, Vec<Occurrence>> = BTreeMap::new();
        for r in reads {
            for h in KmerIter::<1>::new(&r.seq, k) {
                all.entry(h.kmer).or_default().push(Occurrence {
                    read: r.id,
                    pos: h.pos,
                    strand: h.strand,
                });
            }
        }
        all.retain(|_, occs| (2..=m as usize).contains(&occs.len()));
        all
    }

    #[test]
    fn retained_set_matches_serial_reference() {
        // The contract: keys and occurrence *sets*, unioned over ranks,
        // whatever the rank count, thread count or round cap. (Bloom false
        // positives land on different ranks at different P; the reliable
        // filter removes them wherever they land.)
        let reads = make_reads(24, 120, 99);
        let reference = reference_table(&reads, 9, 20);
        assert!(reference.len() > 20, "weak test: {} reliable k-mers", reference.len());
        for p in [1usize, 2, 4, 7] {
            for threads in [1usize, 2, 4] {
                for cap in [usize::MAX, 64] {
                    let mut cfg = test_cfg(9, 20);
                    cfg.max_kmers_per_round = cap;
                    let mut merged = BTreeMap::new();
                    for (entries, _, _) in run_for_identity(&reads, p, &cfg, threads, false) {
                        for (kmer, mut occs) in entries {
                            occs.sort_unstable_by_key(|o| (o.read, o.pos));
                            assert!(merged.insert(kmer, occs).is_none(), "key on two ranks");
                        }
                    }
                    assert_eq!(merged, reference, "p={p} threads={threads} cap={cap}");
                }
            }
        }
    }

    #[test]
    fn occurrences_point_back_into_reads() {
        let reads = make_reads(10, 80, 5);
        let cfg = test_cfg(7, 30);
        let dist = run_distributed(&reads, 3, &cfg);
        assert!(!dist.is_empty());
        for (kmer, occs) in &dist {
            for o in occs {
                let read = &reads.reads()[o.read as usize];
                let window = &read.seq[o.pos as usize..o.pos as usize + 7];
                let (canon, strand) = Kmer1::from_ascii(window).unwrap().canonical();
                assert_eq!(&canon, kmer, "occurrence does not spell the k-mer");
                assert_eq!(strand, o.strand);
            }
        }
    }

    #[test]
    fn high_frequency_kmers_filtered() {
        // Every read contains the same 12-base core → its k-mers recur in
        // all 30 reads; with m = 5 those must be filtered out.
        let core = b"ACGTACGTACGT";
        let reads: ReadSet = (0..30u32)
            .map(|i| {
                let mut seq = vec![b"ACGT"[(i as usize) % 4]; 10];
                seq.extend_from_slice(core);
                seq.extend(vec![b"ACGT"[(i as usize + 1) % 4]; 10]);
                dibella_io::Read::new(i, format!("r{i}"), seq)
            })
            .collect();
        let cfg = test_cfg(9, 5);
        let dist = run_distributed(&reads, 4, &cfg);
        let core_kmer = Kmer1::from_ascii(&core[..9]).unwrap().canonical().0;
        assert!(!dist.contains_key(&core_kmer), "repeat k-mer not filtered");
    }

    #[test]
    fn counters_are_consistent() {
        // The ledger of the reliable front end: every clean window is
        // packed once, arrives once and is swept once; the hash pass
        // parses and exchanges nothing; what the owners hold between the
        // passes is exactly what the Bloom pass put on the wire.
        let reads = make_dirty_reads(12, 100, 3);
        let cfg = test_cfg(9, 20);
        let (_, chunks) = partition_reads(&reads, 3);
        let outs = CommWorld::run(3, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            comm.take_stats();
            let (b, retained) = bloom_stage_overlapping(comm, local, &cfg, &exec);
            let bloom_comm = comm.take_stats();
            assert_eq!(retained.bytes(), b.counters.retained_bytes);
            let mut table = b.table;
            let h = hash_stage_prepacked(comm, local, &mut table, &cfg, &exec, Some(retained));
            (b.counters, bloom_comm, h.counters, comm.take_stats())
        });
        let clean_windows: u64 = reads
            .iter()
            .map(|r| KmerIter::<1>::new(&r.seq, 9).count() as u64)
            .sum();
        let windows: u64 = reads.iter().map(|r| kmer_count(r.len(), 9) as u64).sum();
        assert!(clean_windows > 0 && clean_windows < windows, "want dirty reads");
        let sum = |f: &dyn Fn(&(KmerStageCounters, _, KmerStageCounters, _)) -> u64| {
            outs.iter().map(f).sum::<u64>()
        };
        assert_eq!(sum(&|o| o.0.kmers_parsed), clean_windows);
        assert_eq!(sum(&|o| o.0.kmers_received), clean_windows, "k-mers lost in the exchange");
        assert_eq!(sum(&|o| o.2.kmers_received), clean_windows, "k-mers lost between the passes");
        assert_eq!(sum(&|o| o.0.retained_bytes), sum(&|o| o.1.total_bytes()));
        for (bloom, _, hash, hash_comm) in &outs {
            // Multi-round: the tiny cap forces > 1 round for these sizes.
            assert!(bloom.rounds > 1);
            assert_eq!((hash.kmers_parsed, hash.rounds, hash.retained_bytes), (0, 0, 0));
            assert_eq!((hash_comm.total_bytes(), hash_comm.alltoallv_calls), (0, 0));
        }
    }

    /// Full distributed run of both passes returning everything
    /// comparable: per-rank sorted table contents and both counter blocks.
    #[allow(clippy::type_complexity)]
    fn run_for_identity(
        reads: &ReadSet,
        p: usize,
        cfg: &KcountConfig,
        threads: usize,
        resend: bool,
    ) -> Vec<(Vec<(Kmer1, Vec<Occurrence>)>, KmerStageCounters, KmerStageCounters)> {
        let (_, chunks) = partition_reads(reads, p);
        CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::new(threads);
            let local = chunks[comm.rank()].reads();
            let (b, retained) = bloom_stage_overlapping(comm, local, cfg, &exec);
            let mut table = b.table;
            // Dropping the token makes the hash pass run the exchange again.
            let retained = (!resend).then_some(retained);
            let h = hash_stage_prepacked(comm, local, &mut table, cfg, &exec, retained);
            let mut entries: Vec<(Kmer1, Vec<Occurrence>)> = table
                .iter()
                .map(|(k, e)| (*k, e.occurrences.clone()))
                .collect();
            entries.sort_unstable_by_key(|(k, _)| *k);
            (entries, b.counters, h.counters)
        })
    }

    #[test]
    fn threaded_extraction_is_bit_identical_to_sequential() {
        // The tiny extract_batch (16) and round cap (64) force many
        // executor batches per round and several rounds — every thread
        // count must reproduce the sequential tables AND counters exactly,
        // on every rank.
        let reads = make_reads(24, 120, 77);
        let cfg = test_cfg(9, 20);
        let baseline = run_for_identity(&reads, 4, &cfg, 1, false);
        for threads in [2usize, 4] {
            let got = run_for_identity(&reads, 4, &cfg, threads, false);
            assert_eq!(got, baseline, "threads = {threads}");
        }
    }

    /// The dirty fixture of the two packer tests, with a window range cut
    /// mid-read at both ends next to the full one.
    fn packer_fixture(k: usize) -> (ReadSet, WindowIndex, [(u64, u64); 2]) {
        let reads = make_dirty_reads(16, 130, 2024);
        let idx = WindowIndex::new(reads.iter().map(|r| r.len()), k);
        let per_read = kmer_count(130, k) as u64;
        let cut = (3 * per_read + per_read / 2, 11 * per_read + 7);
        assert!(
            !cut.0.is_multiple_of(per_read) && !cut.1.is_multiple_of(per_read),
            "cut must fall inside reads"
        );
        let full = (0, idx.total_windows());
        (reads, idx, [full, cut])
    }

    /// The route [`pack_windows`] replaced, kept as its oracle: one
    /// sequential pass over the whole range (no batches) that stages each
    /// destination's records as a `Vec<HashMsg>` and encodes them afterwards.
    fn oracle_pack_minimizers(
        reads: &[Read],
        idx: &WindowIndex,
        (lo, hi): (u64, u64),
        ranks: usize,
        w: usize,
    ) -> (Vec<Vec<u8>>, u64) {
        let mut staged: Vec<Vec<HashMsg>> = (0..ranks).map(|_| Vec::new()).collect();
        let mut parsed = 0u64;
        for (ri, plo, phi) in idx.pieces(lo, hi) {
            let read = &reads[ri];
            for hit in minimizer_window_hits(&read.seq, idx.k(), w, plo, phi) {
                parsed += 1;
                staged[hit.kmer.owner(ranks)].push((
                    hit.kmer.words()[0],
                    read.id,
                    hit.pos,
                    hit.strand.as_u8() as u32,
                ));
            }
        }
        (staged.iter().map(|m| dibella_comm::encode_slice(m)).collect(), parsed)
    }

    #[test]
    fn packer_bytes_equal_the_staged_encode_oracle() {
        // Dirty reads, so hits < windows; every rank count, thread count
        // and batch size must write the bytes of the sequential staged
        // pack, over the full range and over a range cut mid-read at both
        // ends — the selection's cut context makes batches invisible.
        let (reads, idx, ranges) = packer_fixture(9);
        let reads = reads.reads();
        let mut spare: Vec<Vec<u8>> = Vec::new();
        for ranks in [1usize, 2, 3, 7] {
            for (lo, hi) in ranges {
                let mini = oracle_pack_minimizers(reads, &idx, (lo, hi), ranks, 4);
                assert!(mini.1 > 0 && mini.1 < (hi - lo) / 2);
                assert_eq!(mini.0.iter().map(Vec::len).sum::<usize>() as u64, 20 * mini.1);
                for threads in [1usize, 2, 4] {
                    let exec = BatchedExecutor::new(threads);
                    for batch in [1usize, 16, 1024] {
                        // Every pack is handed the previous pack's buffers
                        // (other sizes, other contents) to write into.
                        let got = pack_windows(reads, &idx, lo, hi, ranks, 4, batch, &exec, &mut spare);
                        assert_eq!(got, mini, "ranks={ranks} range={lo}..{hi} threads={threads} batch={batch}");
                        spare.extend(got.0);
                    }
                }
            }
        }
    }

    #[test]
    fn supermer_packer_bytes_equal_the_sequential_oracle() {
        // The owner-run packer against a sequential pack with no executor
        // and no per-batch buffers: every batch range in order, every
        // piece of it straight into the round's buffers. Bytes depend on
        // the batch size (a batch boundary cuts a run in two) and on
        // nothing else; what the buffers *decode to* does not even depend
        // on that — it is the plain extractor's stream.
        let k = 9usize;
        let (reads, idx, ranges) = packer_fixture(k);
        let reads = reads.reads();
        for ranks in [1usize, 2, 3, 7] {
            for (lo, hi) in ranges {
                let mut instances: Vec<(u32, KmerHit<1>)> = idx
                    .pieces(lo, hi)
                    .flat_map(|(ri, plo, phi)| {
                        window_hits::<1>(&reads[ri].seq, k, plo, phi).map(move |h| (reads[ri].id, h))
                    })
                    .collect();
                instances.sort_unstable_by_key(|&(read, h)| (read, h.pos));
                assert!(
                    !instances.is_empty() && (instances.len() as u64) < hi - lo,
                    "want dirty, non-empty input"
                );
                for batch in [1usize, 16, 1024] {
                    let mut oracle = (vec![Vec::new(); ranks], 0u64);
                    let mut blo = lo;
                    while blo < hi {
                        let bhi = (blo + batch as u64).min(hi);
                        for (ri, plo, phi) in idx.pieces(blo, bhi) {
                            oracle.1 +=
                                supermer::pack_runs(&reads[ri].seq, reads[ri].id, k, plo, phi, &mut oracle.0);
                        }
                        blo = bhi;
                    }
                    assert_eq!(oracle.1, instances.len() as u64);
                    let mut decoded: Vec<(u32, KmerHit<1>)> = Vec::new();
                    for (dest, buf) in oracle.0.iter().enumerate() {
                        let at = Arrival { pass: "test", rank: dest, round: 0, source: 0 };
                        roll_buffer(at, buf, k, |read, hit| {
                            assert_eq!(supermer::owner(&hit.kmer, ranks), dest);
                            decoded.push((read, hit));
                        });
                    }
                    decoded.sort_unstable_by_key(|&(read, h)| (read, h.pos));
                    assert_eq!(decoded, instances, "ranks={ranks} batch={batch}");
                    for threads in [1usize, 2, 4] {
                        let exec = BatchedExecutor::new(threads);
                        let got = pack_supermers(reads, &idx, lo, hi, ranks, batch, &exec);
                        assert_eq!(got, oracle, "ranks={ranks} range={lo}..{hi} threads={threads} batch={batch}");
                    }
                }
            }
        }
    }

    #[test]
    fn retained_path_matches_resend_path() {
        // Sweeping the records kept from the Bloom pass must build the
        // table a second exchange of the same records builds: entries and
        // the owner-side counters equal; only the resend parses and
        // exchanges anything in the hash pass.
        let reads = make_reads(20, 110, 123);
        let cfg = test_cfg(9, 20);
        for threads in [1usize, 4] {
            let resent = run_for_identity(&reads, 3, &cfg, threads, true);
            let kept = run_for_identity(&reads, 3, &cfg, threads, false);
            for ((kept_table, kept_bloom, kept_hash), (table, bloom, hash)) in kept.iter().zip(&resent) {
                assert_eq!(kept_table, table, "threads = {threads}");
                assert_eq!(kept_bloom, bloom);
                assert_eq!(
                    (kept_hash.kmers_received, kept_hash.recorded_occurrences),
                    (hash.kmers_received, hash.recorded_occurrences)
                );
                assert_eq!((kept_hash.kmers_parsed, kept_hash.rounds), (0, 0));
                assert_eq!((hash.kmers_parsed, hash.rounds), (bloom.kmers_parsed, bloom.rounds));
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank 3: hash pass, round 2, buffer from rank 1: record at byte 12: run of 0 k-mers")]
    fn a_malformed_record_is_named_where_it_arrived() {
        let mut bufs = vec![Vec::new()];
        supermer::pack_runs(b"ACGTTGCAGGTA", 0, 9, 0, 4, &mut bufs);
        let mut buf = bufs.pop().unwrap();
        assert_eq!(buf.len(), 12);
        buf.extend_from_slice(&[0; 12]);
        let at = Arrival { pass: "hash", rank: 3, round: 2, source: 1 };
        roll_buffer(at, &buf, 9, |_, _| {});
    }

    #[test]
    fn dirty_reads_shard_identically() {
        // Ambiguous bases make hits < windows; window-range sharding must
        // still agree with the serial reference at any thread count.
        let reads = make_dirty_reads(12, 90, 9);
        let cfg = test_cfg(7, 30);
        let baseline = run_for_identity(&reads, 3, &cfg, 1, false);
        let total_hits: u64 = reads
            .iter()
            .flat_map(|r| KmerIter::<1>::new(&r.seq, 7))
            .count() as u64;
        let parsed: u64 = baseline.iter().map(|(_, b, _)| b.kmers_parsed).sum();
        assert_eq!(parsed, total_hits, "parsed must count hits, not windows");
        for threads in [2usize, 4] {
            assert_eq!(run_for_identity(&reads, 3, &cfg, threads, false), baseline);
        }
    }

    /// Serial minimizer reference: canonical k-mer → occurrence list over
    /// all reads, filtered to counts in `[2, m]`.
    fn reference_minimizer_index(
        reads: &ReadSet,
        k: usize,
        w: usize,
        m: u32,
    ) -> HashMap<Kmer1, Vec<Occurrence>> {
        let mut all: HashMap<Kmer1, Vec<Occurrence>> = HashMap::new();
        for r in reads {
            for h in dibella_kmer::minimizers(&r.seq, k, w) {
                all.entry(h.kmer).or_default().push(Occurrence {
                    read: r.id,
                    pos: h.pos,
                    strand: h.strand,
                });
            }
        }
        all.retain(|_, occs| (2..=m as usize).contains(&occs.len()));
        all
    }

    #[allow(clippy::type_complexity)]
    fn run_minimizer(
        reads: &ReadSet,
        p: usize,
        w: usize,
        cfg: &KcountConfig,
        threads: usize,
    ) -> Vec<(Vec<(Kmer1, Vec<Occurrence>)>, KmerStageCounters)> {
        let (_, chunks) = partition_reads(reads, p);
        CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::new(threads);
            let out = minimizer_stage(comm, chunks[comm.rank()].reads(), w, cfg, &exec);
            let mut entries: Vec<(Kmer1, Vec<Occurrence>)> = out
                .table
                .iter()
                .map(|(k, e)| (*k, e.occurrences.clone()))
                .collect();
            entries.sort_unstable_by_key(|(k, _)| *k);
            (entries, out.counters)
        })
    }

    #[test]
    fn minimizer_index_matches_serial_reference() {
        let reads = make_reads(24, 120, 42);
        let (k, w, m) = (9usize, 4usize, 20u32);
        let cfg = test_cfg(k, m);
        let reference = reference_minimizer_index(&reads, k, w, m);
        assert!(!reference.is_empty(), "weak test: no shared minimizers");
        for p in [1usize, 2, 4, 7] {
            let parts = run_minimizer(&reads, p, w, &cfg, 1);
            let mut merged: HashMap<Kmer1, Vec<Occurrence>> = HashMap::new();
            for (entries, _) in &parts {
                for (kmer, occs) in entries {
                    assert!(
                        merged.insert(*kmer, occs.clone()).is_none(),
                        "key on two ranks"
                    );
                }
            }
            assert_eq!(merged.len(), reference.len(), "p={p}");
            for (kmer, occs) in &merged {
                let mut want = reference.get(kmer).cloned().unwrap_or_default();
                let mut got = occs.clone();
                let sort_key = |o: &Occurrence| (o.read, o.pos);
                want.sort_unstable_by_key(sort_key);
                got.sort_unstable_by_key(sort_key);
                assert_eq!(got, want, "p={p} kmer={kmer}");
            }
        }
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn minimizer_stage_is_bit_identical_across_threads() {
        // Tiny round cap (64 records) and extract batch (16) force many
        // batch cuts through read interiors — selection context must
        // make every cut invisible.
        let reads = make_reads(24, 120, 314);
        let cfg = test_cfg(9, 20);
        let baseline = run_minimizer(&reads, 4, 5, &cfg, 1);
        assert!(baseline.iter().all(|(_, c)| c.rounds > 1), "want multi-round");
        for threads in [2usize, 4] {
            assert_eq!(run_minimizer(&reads, 4, 5, &cfg, threads), baseline, "threads={threads}");
        }
        // A different round cap regroups arrivals (occurrence-list order
        // is round-interleaved, as in the reliable path — downstream
        // sorts seeds) but must select the exact same occurrence *sets*.
        let mut wide = test_cfg(9, 20);
        wide.max_kmers_per_round = 1 << 20;
        let wide_run = run_minimizer(&reads, 4, 5, &wide, 4);
        let strip = |v: &[(Vec<(Kmer1, Vec<Occurrence>)>, KmerStageCounters)]| {
            v.iter()
                .map(|(e, _)| {
                    e.iter()
                        .map(|(k, occs)| {
                            let mut occs = occs.clone();
                            occs.sort_unstable_by_key(|o| (o.read, o.pos));
                            (*k, occs)
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&wide_run), strip(&baseline));
    }

    #[test]
    fn minimizer_stage_parses_fewer_kmers_than_windows() {
        let reads = make_reads(16, 200, 8);
        let cfg = test_cfg(11, 30);
        let w = 8usize;
        let parts = run_minimizer(&reads, 3, w, &cfg, 1);
        let parsed: u64 = parts.iter().map(|(_, c)| c.kmers_parsed).sum();
        let received: u64 = parts.iter().map(|(_, c)| c.kmers_received).sum();
        let windows: u64 = reads.iter().map(|r| kmer_count(r.len(), 11) as u64).sum();
        let serial: u64 = reads
            .iter()
            .map(|r| dibella_kmer::minimizers(&r.seq, 11, w).len() as u64)
            .sum();
        assert_eq!(parsed, serial, "distributed selection != serial selection");
        assert_eq!(received, parsed, "minimizers lost in the exchange");
        assert!(
            (parsed as f64) < 0.4 * windows as f64,
            "sketch too dense: {parsed} of {windows} windows"
        );
    }

    #[test]
    fn screened_sweep_records_every_instance_of_a_resident_key() {
        // 1x coverage of a 30 kb genome at 15 % substitutions: nearly every
        // k-mer is a singleton, so nearly every swept k-mer is screened
        // out. The table must still record each instance whose key the
        // Bloom pass made resident, and the retained table must be the
        // brute-force count of those instances.
        let mut state = 0xC0FF_EE15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let genome: Vec<u8> = (0..30_000).map(|_| b"ACGT"[(next() % 4) as usize]).collect();
        let reads: ReadSet = (0..30u32)
            .map(|i| {
                let at = (next() % (genome.len() as u64 - 1_000)) as usize;
                let seq: Vec<u8> = genome[at..at + 1_000]
                    .iter()
                    .map(|&b| if next() % 100 < 15 { b"ACGT"[(next() % 4) as usize] } else { b })
                    .collect();
                dibella_io::Read::new(i, format!("r{i}"), seq)
            })
            .collect();
        let (k, m) = (15usize, 8u32);
        let cfg = test_cfg(k, m);
        let (_, chunks) = partition_reads(&reads, 2);
        let outs = CommWorld::run(2, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (b, retained) = bloom_stage_overlapping(comm, local, &cfg, &exec);
            let mut table = b.table;
            let resident: Vec<Kmer1> = table.iter().map(|(key, _)| *key).collect();
            let h = hash_stage_prepacked(comm, local, &mut table, &cfg, &exec, Some(retained));
            let mut entries: BTreeMap<Kmer1, Vec<Occurrence>> =
                table.iter().map(|(key, e)| (*key, e.occurrences.clone())).collect();
            entries.values_mut().for_each(|occs| occs.sort_unstable_by_key(|o| (o.read, o.pos)));
            (resident, h.counters, entries)
        });
        let mut swept = 0u64;
        for (resident, counters, entries) in outs {
            let mut brute: BTreeMap<Kmer1, Vec<Occurrence>> =
                resident.iter().map(|&key| (key, Vec::new())).collect();
            for r in &reads {
                for hit in KmerIter::<1>::new(&r.seq, k) {
                    if let Some(occs) = brute.get_mut(&hit.kmer) {
                        occs.push(Occurrence { read: r.id, pos: hit.pos, strand: hit.strand });
                    }
                }
            }
            let instances: usize = brute.values().map(Vec::len).sum();
            assert_eq!(counters.recorded_occurrences, instances as u64);
            assert!(counters.recorded_occurrences <= counters.screen_passes);
            assert!(counters.screen_passes < counters.kmers_received / 10, "{counters:?}");
            brute.retain(|_, occs| (2..=m as usize).contains(&occs.len()));
            assert!(!brute.is_empty(), "weak test: nothing retained");
            assert_eq!(entries, brute);
            swept += counters.kmers_received;
        }
        assert_eq!(swept, reads.iter().map(|r| kmer_count(r.len(), k) as u64).sum::<u64>());
    }

    #[test]
    fn bloom_memory_reported_and_freed() {
        let reads = make_reads(6, 60, 1);
        let cfg = test_cfg(7, 10);
        let (_, chunks) = partition_reads(&reads, 2);
        let outs = CommWorld::run(2, |comm| {
            bloom_stage_overlapping(
                comm,
                chunks[comm.rank()].reads(),
                &cfg,
                &BatchedExecutor::sequential(),
            )
        });
        for (o, _retained) in outs {
            assert!(o.bloom_bytes > 0);
            assert!(o.bloom_fill > 0.0 && o.bloom_fill < 0.9);
        }
    }
}
