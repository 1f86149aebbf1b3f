//! The two distributed k-mer passes (paper §6 and §7).
//!
//! Both passes stream the local reads in bounded *rounds* so that no rank
//! ever materializes its whole k-mer bag (paper §4: "diBELLA executes in a
//! streaming fashion with a subset of input data at a time to limit the
//! memory consumption"). Each pass is one
//! [`dibella_comm::RoundExchange`] drive: a shared packer
//! ([`pack_windows`]) extracts and routes the rank's k-mers to their
//! owners, the engine agrees the world-wide round count and overlaps each
//! round's exchange with the packing of the next, and the pass's consumer
//! folds received records into its Bloom/hash partition.
//!
//! Extraction is *threaded* through the shared
//! [`BatchedExecutor`]: a round's window range (a cut of the rank-global
//! [`WindowIndex`] space) is sharded into fixed `extract_batch`-window
//! batches, each batch extracts and routes into its own per-destination
//! byte buffers (hashed once, written once), and buffers are concatenated
//! in batch order — wire bytes are bit-identical at any thread count.
//! Cross-stage overlap: while the Bloom pass's **last** round is in
//! flight, [`bloom_stage_overlapping`] pre-packs the hash pass's first
//! round (the reads are local, so it depends on nothing in flight), which
//! [`hash_stage_prepacked`] then ships as its round 0.
//!
//! Wire sizes mirror the paper's volumes: a Bloom-pass record is the
//! 8-byte packed k-mer, a hash-pass record adds read ID, position and
//! strand for 20 bytes — the 2.5× volume ratio called out in §7.

use crate::config::KcountConfig;
use crate::table::{KmerHashTable, Occurrence};
use dibella_comm::{
    decode_iter, records_per_round, BatchedExecutor, Comm, RoundExchange, RoundPlan, Wire,
};
use dibella_io::Read;
use dibella_kmer::{minimizer_window_hits, window_hits, Kmer1, KmerHit, Strand, WindowIndex};
use dibella_sketch::BloomFilter;
use std::cell::RefCell;
use std::time::Instant;

/// Bloom-pass record: the packed canonical k-mer word.
type BloomMsg = u64;

/// Hash-pass record: `(kmer word, read id, position, strand)`.
type HashMsg = (u64, u32, u32, u32);

/// Work counters shared by both passes, consumed by the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KmerStageCounters {
    /// k-mers parsed and packed on the sending side.
    pub kmers_parsed: u64,
    /// k-mer records processed on the owning side.
    pub kmers_received: u64,
    /// Bulk-synchronous exchange rounds executed.
    pub rounds: u64,
    /// Bloom pass: keys promoted into the hash table (second sightings).
    pub promoted_keys: u64,
    /// Hash pass: occurrences recorded into resident keys.
    pub recorded_occurrences: u64,
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

/// The Bloom-pass record for one k-mer hit.
fn bloom_msg(_read: &Read, hit: &KmerHit<1>) -> BloomMsg {
    hit.kmer.words()[0]
}

/// The hash-pass record for one k-mer hit.
fn hash_msg(read: &Read, hit: &KmerHit<1>) -> HashMsg {
    (
        hit.kmer.words()[0],
        read.id,
        hit.pos,
        hit.strand.as_u8() as u32,
    )
}

/// Pack the global window range `[lo, hi)` of a k-mer pass — the one
/// packer behind the Bloom, hash and minimizer passes. The range is
/// sharded into fixed `batch_windows`-window executor batches; each batch
/// walks its [`WindowIndex`] pieces with the rolling extractor
/// ([`window_hits`], or [`minimizer_window_hits`] when `minimizer_w` is
/// set — that re-derives a piece with `w − 1` windows of context on each
/// side, so a cut never changes which k-mers are selected), hashes every
/// hit once for its owner rank and appends the record's wire bytes
/// straight to that destination's batch buffer. Batch buffers are appended
/// to the round's in batch order
/// ([`BatchedExecutor::map_indexed_into`]) — the order a sequential
/// single-pass pack writes them in, so the result is byte-identical at any
/// thread count — and freed at once, so a round is never held twice.
/// Returns the round's buffers and the number of hits packed (ambiguous
/// bases and minimizer selection make hits < windows).
///
/// `to_msg` is what differs between the passes — the bare packed word for
/// the Bloom pass, the word plus `(read, position, strand)` for the hash
/// and minimizer passes. `spare` holds buffers the caller is done with
/// (a consumed round's receive buffers); the round is written into those
/// that are large enough, so a streamed pass stops allocating — and
/// page-faulting — its rounds afresh after the first two.
#[allow(clippy::too_many_arguments)]
pub fn pack_windows<M, F>(
    reads: &[Read],
    idx: &WindowIndex,
    lo: u64,
    hi: u64,
    ranks: usize,
    minimizer_w: Option<usize>,
    batch_windows: usize,
    exec: &BatchedExecutor,
    to_msg: &F,
    spare: &mut Vec<Vec<u8>>,
) -> (Vec<Vec<u8>>, u64)
where
    M: Wire,
    F: Fn(&Read, &KmerHit<1>) -> M + Sync,
{
    let k = idx.k();
    let hi = hi.max(lo);
    let batch_windows = batch_windows.max(1) as u64;
    let n_batches = (hi - lo).div_ceil(batch_windows) as usize;
    // One destination's expected bytes for `windows` windows (uniform
    // owner hash; minimizers keep ~2/(w + 1) of the windows) plus an
    // eighth. Reserving that up front, a buffer is allocated once instead
    // of grown: no thousands of small reallocations per round for the
    // batches, no doubling — which holds a touched copy of the buffer
    // while it moves — for the round.
    let reserve = |windows: u64| {
        let hits = minimizer_w.map_or(windows, |w| 2 * windows / (w as u64 + 1));
        let share = (hits / ranks as u64) as usize;
        (share + share / 8 + 16) * M::SIZE
    };
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
                let read = &reads[ri];
                let mut route = |hit: KmerHit<1>| {
                    hits += 1;
                    to_msg(read, &hit).write(&mut bufs[hit.kmer.owner(ranks)]);
                };
                match minimizer_w {
                    None => window_hits::<1>(&read.seq, k, plo, phi).for_each(&mut route),
                    Some(w) => minimizer_window_hits(&read.seq, k, w, plo, phi)
                        .into_iter()
                        .for_each(&mut route),
                }
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

/// The per-round k-mer budget of a pass: the record cap and the byte cap,
/// whichever is tighter.
fn kmers_per_round<M: Wire>(cfg: &KcountConfig) -> usize {
    records_per_round(
        <M as Wire>::SIZE,
        cfg.max_kmers_per_round,
        cfg.max_exchange_bytes_per_round,
    )
}

/// Whether the buffers a pass receives in `round` are worth keeping for
/// its packer: they come back after round `round + 1` is packed, so the
/// first pack that can fill them is number `round + 2` — if the rank has
/// that many. Otherwise each is freed as soon as it is consumed.
fn reusable(round: u64, local_packs: u64) -> bool {
    round + 2 < local_packs
}

/// The hash pass's first round, packed ahead of time by
/// [`bloom_stage_overlapping`] while the Bloom pass's last exchange is in
/// flight, and shipped by [`hash_stage_prepacked`] as its round 0. Opaque:
/// its buffers are byte-identical to what the hash pass would pack itself,
/// it just packs them under communication the rank is waiting on anyway.
#[derive(Debug)]
pub struct PrepackedKmerRound {
    /// Per-destination wire buffers of hash-pass records.
    bufs: Vec<Vec<u8>>,
    /// Hits parsed while packing (the hash pass's round-0 `kmers_parsed`).
    parsed: u64,
    /// Window range covered, for cross-checking against the hash plan.
    windows: u64,
    /// k it was packed for.
    k: usize,
}

/// Stage 1 — distributed Bloom filter construction (paper §6).
///
/// Every rank parses its reads into canonical k-mers (threaded through
/// `exec`, deterministically — see [`pack_windows`]), routes each to
/// its owner by hash, and the owner inserts it into its Bloom partition; a
/// k-mer already present is promoted into the hash-table partition. The
/// filter is dropped on return ("After the hash table is initialized with
/// k-mer keys, the Bloom filter is freed").
///
/// Cross-stage overlap: while the pass's final exchange round is in
/// flight, the rank thread pre-packs the **hash** pass's first round from
/// its local reads (which depend on nothing in flight). Feed the token to
/// [`hash_stage_prepacked`]; the table it builds is bit-identical to the
/// one it builds when it packs that round itself.
pub fn bloom_stage_overlapping(
    comm: &Comm,
    reads: &[Read],
    cfg: &KcountConfig,
    exec: &BatchedExecutor,
) -> (BloomOutput, PrepackedKmerRound) {
    let p = comm.size();
    let mut bloom = BloomFilter::for_items(
        cfg.expected_distinct_per_rank(p),
        cfg.bloom_fp_rate,
    );
    let mut table = KmerHashTable::with_capacity(1024);
    let mut counters = KmerStageCounters::default();

    let idx = WindowIndex::new(reads.iter().map(|r| r.len()), cfg.k);
    let total = idx.total_windows();
    let per_round = kmers_per_round::<BloomMsg>(cfg) as u64;
    let mut parsed = 0u64;
    let mut received = 0u64;
    let mut promoted = 0u64;
    // Consumed receive buffers, handed back to the packer (see `pack_windows`).
    let spare: RefCell<Vec<Vec<u8>>> = RefCell::new(Vec::new());

    let plan = RoundPlan::for_records(total, per_round as usize);
    // The pre-packed hash round is one more pack for the buffers to serve.
    let packs = plan.local_rounds() + 1;
    let (rounds, prepacked) = RoundExchange::run_with_tail(
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
                None,
                cfg.extract_batch,
                exec,
                &bloom_msg,
                &mut spare.borrow_mut(),
            );
            parsed += n;
            bufs
        },
        |round, recv| {
            for buf in recv {
                for word in decode_iter::<BloomMsg>(&buf) {
                    received += 1;
                    let kmer = Kmer1::from_words([word], cfg.k as u16);
                    debug_assert_eq!(kmer.owner(p), comm.rank(), "misrouted k-mer");
                    if bloom.insert(kmer.hash64()) {
                        // Second (apparent) sighting → promote to hash table.
                        if !table.contains(&kmer) {
                            promoted += 1;
                            table.insert_key(kmer);
                        }
                    }
                }
                if reusable(round, packs) {
                    spare.borrow_mut().push(buf);
                }
            }
        },
        || {
            // The pack's wall elapses inside this stage's `total`, so it
            // is this stage's stats window that must carry it — crediting
            // it to the stage that ships the bytes reported a hash pass
            // with more pack time than wall time.
            let t = Instant::now();
            let round0 = prepack_hash_round0(reads, &idx, cfg, p, exec, &mut spare.borrow_mut());
            comm.add_pack_wall(t.elapsed());
            round0
        },
    );
    counters.kmers_parsed = parsed;
    counters.kmers_received = received;
    counters.promoted_keys = promoted;
    counters.rounds = rounds;

    let bloom_bytes = bloom.memory_bytes();
    let bloom_fill = bloom.fill_ratio();
    bloom.clear_and_shrink();
    (BloomOutput { table, bloom_bytes, bloom_fill, counters }, prepacked)
}

/// Pack the hash pass's round 0 — byte-identical to what
/// [`hash_stage_prepacked`] would pack itself on its first round.
fn prepack_hash_round0(
    reads: &[Read],
    idx: &WindowIndex,
    cfg: &KcountConfig,
    ranks: usize,
    exec: &BatchedExecutor,
    spare: &mut Vec<Vec<u8>>,
) -> PrepackedKmerRound {
    let per_round = kmers_per_round::<HashMsg>(cfg) as u64;
    let hi = per_round.min(idx.total_windows());
    let (bufs, parsed) =
        pack_windows(reads, idx, 0, hi, ranks, None, cfg.extract_batch, exec, &hash_msg, spare);
    PrepackedKmerRound { bufs, parsed, windows: hi, k: cfg.k }
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
/// The reads are parsed *again* (threaded through `exec`); this time each
/// k-mer instance carries its (read, position, strand) metadata. Owners
/// record occurrences only for resident keys, then scan their partition to
/// drop false-positive singletons and k-mers over the threshold `m`.
///
/// `prepacked` is the round 0 that [`bloom_stage_overlapping`] packed
/// under the Bloom pass's last exchange, shipped instead of packing it
/// afresh. `None` packs it here; results are identical either way.
pub fn hash_stage_prepacked(
    comm: &Comm,
    reads: &[Read],
    table: &mut KmerHashTable,
    cfg: &KcountConfig,
    exec: &BatchedExecutor,
    prepacked: Option<PrepackedKmerRound>,
) -> HashOutput {
    let p = comm.size();
    let mut counters = KmerStageCounters::default();

    let idx = WindowIndex::new(reads.iter().map(|r| r.len()), cfg.k);
    let total = idx.total_windows();
    let per_round = kmers_per_round::<HashMsg>(cfg) as u64;
    debug_assert_eq!(<HashMsg as Wire>::SIZE, 20, "2.5x the 8-byte Bloom record");
    let mut prepacked = prepacked;
    let mut parsed = 0u64;
    let mut received = 0u64;
    let mut recorded = 0u64;
    let spare: RefCell<Vec<Vec<u8>>> = RefCell::new(Vec::new());

    let plan = RoundPlan::for_records(total, per_round as usize);
    let rounds = RoundExchange::run(
        comm,
        plan,
        |round| {
            let lo = (round * per_round).min(total);
            let hi = ((round + 1) * per_round).min(total);
            if round == 0 {
                if let Some(pp) = prepacked.take() {
                    debug_assert_eq!(pp.k, cfg.k, "prepacked round for a different k");
                    debug_assert_eq!(pp.windows, hi, "prepacked round for a different cap");
                    parsed += pp.parsed;
                    return pp.bufs;
                }
            }
            let (bufs, n) = pack_windows(
                reads,
                &idx,
                lo,
                hi,
                p,
                None,
                cfg.extract_batch,
                exec,
                &hash_msg,
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
                    let occ = Occurrence {
                        read: rid,
                        pos,
                        strand: Strand::from_u8(strand as u8),
                    };
                    if table.record_occurrence(&kmer, occ, cfg) {
                        recorded += 1;
                    }
                }
                if reusable(round, plan.local_rounds()) {
                    spare.borrow_mut().push(buf);
                }
            }
        },
    );
    counters.kmers_parsed = parsed;
    counters.kmers_received = received;
    counters.recorded_occurrences = recorded;
    counters.rounds = rounds;

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
/// ([`minimizer_window_hits`], threaded over `exec` with the same
/// fixed-batch window sharding as the reliable passes) and routes each
/// selected k-mer, with its occurrence metadata, to its owner by
/// canonical hash — the identical 20-byte wire record and
/// [`RoundExchange`] drive as the hash pass. Owners insert-or-record
/// (no Bloom pre-pass: the sketch keeps only ~`2/(w+1)` of k-mer
/// instances, so the key set is already bounded), then apply the same
/// reliable filter — singletons witness no read pairs, and keys over
/// `m` occurrences are repeat-masked exactly as in the reliable path.
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
    let per_round = kmers_per_round::<HashMsg>(cfg) as u64;
    let mut parsed = 0u64;
    let mut received = 0u64;
    let mut promoted = 0u64;
    let mut recorded = 0u64;
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
                Some(w),
                cfg.extract_batch,
                exec,
                &hash_msg,
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
    use dibella_kmer::{kmer_count, KmerIter};
    use std::collections::HashMap;

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

    /// Serial reference: canonical k-mer → (count, occurrences).
    fn reference_counts(reads: &ReadSet, k: usize) -> HashMap<Kmer1, u32> {
        let mut out: HashMap<Kmer1, u32> = HashMap::new();
        for r in reads {
            for h in KmerIter::<1>::new(&r.seq, k) {
                *out.entry(h.kmer).or_default() += 1;
            }
        }
        out
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
            let (bloom, round0) = bloom_stage_overlapping(comm, local, cfg, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, cfg, &exec, Some(round0));
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

    #[test]
    fn retained_set_matches_serial_reference() {
        let reads = make_reads(24, 120, 99);
        let cfg = test_cfg(9, 20);
        let reference: HashMap<Kmer1, u32> = reference_counts(&reads, 9)
            .into_iter()
            .filter(|&(_, c)| (2..=20).contains(&c))
            .collect();
        for p in [1usize, 2, 4, 7] {
            let dist = run_distributed(&reads, p, &cfg);
            assert_eq!(dist.len(), reference.len(), "p={p}");
            for (k, occs) in &dist {
                let want = reference.get(k).copied().unwrap_or(0);
                assert_eq!(occs.len() as u32, want, "p={p} kmer={k}");
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
        let reads = make_reads(12, 100, 3);
        let cfg = test_cfg(9, 20);
        let (_, chunks) = partition_reads(&reads, 3);
        let outs = CommWorld::run(3, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (b, round0) = bloom_stage_overlapping(comm, local, &cfg, &exec);
            let mut table = b.table;
            let h = hash_stage_prepacked(comm, local, &mut table, &cfg, &exec, Some(round0));
            (b.counters, h.counters)
        });
        let total_kmers: u64 = reads
            .iter()
            .map(|r| kmer_count(r.len(), 9) as u64)
            .sum();
        let parsed_b: u64 = outs.iter().map(|(b, _)| b.kmers_parsed).sum();
        let recv_b: u64 = outs.iter().map(|(b, _)| b.kmers_received).sum();
        let parsed_h: u64 = outs.iter().map(|(_, h)| h.kmers_parsed).sum();
        assert_eq!(parsed_b, total_kmers);
        assert_eq!(recv_b, total_kmers, "k-mers lost in the exchange");
        assert_eq!(parsed_h, total_kmers);
        // Multi-round: the tiny cap forces > 1 round for these sizes.
        assert!(outs.iter().all(|(b, _)| b.rounds > 1));
    }

    /// Full distributed run of both passes returning everything
    /// comparable: per-rank sorted table contents and both counter blocks.
    #[allow(clippy::type_complexity)]
    fn run_for_identity(
        reads: &ReadSet,
        p: usize,
        cfg: &KcountConfig,
        threads: usize,
        ship_prepacked: bool,
    ) -> Vec<(Vec<(Kmer1, Vec<Occurrence>)>, KmerStageCounters, KmerStageCounters)> {
        let (_, chunks) = partition_reads(reads, p);
        CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::new(threads);
            let local = chunks[comm.rank()].reads();
            let (b, round0) = bloom_stage_overlapping(comm, local, cfg, &exec);
            let mut table = b.table;
            // Dropping the token makes the hash pass pack its own round 0.
            let round0 = ship_prepacked.then_some(round0);
            let h = hash_stage_prepacked(comm, local, &mut table, cfg, &exec, round0);
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
        let baseline = run_for_identity(&reads, 4, &cfg, 1, true);
        for threads in [2usize, 4] {
            let got = run_for_identity(&reads, 4, &cfg, threads, true);
            assert_eq!(got, baseline, "threads = {threads}");
        }
    }

    /// The route [`pack_windows`] replaced, kept as its oracle: one
    /// sequential pass over the whole range (no batches) that stages each
    /// destination's records as a `Vec<M>` and encodes them afterwards.
    fn oracle_pack<M: Wire>(
        reads: &[Read],
        idx: &WindowIndex,
        lo: u64,
        hi: u64,
        ranks: usize,
        minimizer_w: Option<usize>,
        to_msg: impl Fn(&Read, &KmerHit<1>) -> M,
    ) -> (Vec<Vec<u8>>, u64) {
        let k = idx.k();
        let mut staged: Vec<Vec<M>> = (0..ranks).map(|_| Vec::new()).collect();
        let mut parsed = 0u64;
        for (ri, plo, phi) in idx.pieces(lo, hi) {
            let read = &reads[ri];
            let hits: Vec<KmerHit<1>> = match minimizer_w {
                None => window_hits::<1>(&read.seq, k, plo, phi).collect(),
                Some(w) => minimizer_window_hits(&read.seq, k, w, plo, phi),
            };
            for hit in &hits {
                parsed += 1;
                staged[hit.kmer.owner(ranks)].push(to_msg(read, hit));
            }
        }
        (staged.iter().map(|m| dibella_comm::encode_slice(m)).collect(), parsed)
    }

    #[test]
    fn packer_bytes_equal_the_staged_encode_oracle() {
        // Dirty reads, so hits < windows; every rank count, thread count
        // and batch size must write the bytes of the sequential staged
        // pack, over the full range and over a range cut mid-read at both
        // ends.
        let reads = make_dirty_reads(16, 130, 2024);
        let reads = reads.reads();
        let k = 9usize;
        let idx = WindowIndex::new(reads.iter().map(|r| r.len()), k);
        let total = idx.total_windows();
        let per_read = kmer_count(130, k) as u64;
        let cut = (3 * per_read + per_read / 2, 11 * per_read + 7);
        assert!(
            !cut.0.is_multiple_of(per_read) && !cut.1.is_multiple_of(per_read),
            "cut must fall inside reads"
        );
        let mut spare: Vec<Vec<u8>> = Vec::new();
        for ranks in [1usize, 2, 3, 7] {
            for (lo, hi) in [(0, total), cut] {
                let bloom = oracle_pack(reads, &idx, lo, hi, ranks, None, bloom_msg);
                let hash = oracle_pack(reads, &idx, lo, hi, ranks, None, hash_msg);
                let mini = oracle_pack(reads, &idx, lo, hi, ranks, Some(4), hash_msg);
                assert!(bloom.1 > 0 && bloom.1 < hi - lo, "want dirty, non-empty input");
                assert!(mini.1 > 0 && mini.1 < bloom.1);
                assert_eq!(bloom.0.iter().map(Vec::len).sum::<usize>() as u64, 8 * bloom.1);
                assert_eq!(hash.0.iter().map(Vec::len).sum::<usize>() as u64, 20 * hash.1);
                for threads in [1usize, 2, 4] {
                    let exec = BatchedExecutor::new(threads);
                    for batch in [1usize, 16, 1024] {
                        let at = format!("ranks={ranks} range={lo}..{hi} threads={threads} batch={batch}");
                        // Every pack is handed the previous pack's buffers
                        // (other sizes, other contents) to write into.
                        let got = pack_windows(reads, &idx, lo, hi, ranks, None, batch, &exec, &bloom_msg, &mut spare);
                        assert_eq!(got, bloom, "bloom record, {at}");
                        spare.extend(got.0);
                        let got = pack_windows(reads, &idx, lo, hi, ranks, None, batch, &exec, &hash_msg, &mut spare);
                        assert_eq!(got, hash, "hash record, {at}");
                        spare.extend(got.0);
                        let got = pack_windows(reads, &idx, lo, hi, ranks, Some(4), batch, &exec, &hash_msg, &mut spare);
                        assert_eq!(got, mini, "minimizer selection, {at}");
                        spare.extend(got.0);
                    }
                }
            }
        }
    }

    #[test]
    fn overlapped_bloom_to_hash_path_matches_plain_path() {
        // Shipping the hash round 0 packed under the Bloom pass's last
        // exchange must change nothing observable: tables, counters, and
        // (via the engine's invariants) rounds all equal those of a hash
        // pass that packs its round 0 itself.
        let reads = make_reads(20, 110, 123);
        let cfg = test_cfg(9, 20);
        for threads in [1usize, 4] {
            let plain = run_for_identity(&reads, 3, &cfg, threads, false);
            let overlapped = run_for_identity(&reads, 3, &cfg, threads, true);
            assert_eq!(overlapped, plain, "threads = {threads}");
        }
    }

    #[test]
    fn dirty_reads_shard_identically() {
        // Ambiguous bases make hits < windows; window-range sharding must
        // still agree with the serial reference at any thread count.
        let reads = make_dirty_reads(12, 90, 9);
        let cfg = test_cfg(7, 30);
        let baseline = run_for_identity(&reads, 3, &cfg, 1, true);
        let total_hits: u64 = reads
            .iter()
            .flat_map(|r| KmerIter::<1>::new(&r.seq, 7))
            .count() as u64;
        let parsed: u64 = baseline.iter().map(|(_, b, _)| b.kmers_parsed).sum();
        assert_eq!(parsed, total_hits, "parsed must count hits, not windows");
        for threads in [2usize, 4] {
            assert_eq!(run_for_identity(&reads, 3, &cfg, threads, true), baseline);
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
        for (o, _round0) in outs {
            assert!(o.bloom_bytes > 0);
            assert!(o.bloom_fill > 0.0 && o.bloom_fill < 0.9);
        }
    }
}
