//! Stage 3 — distributed overlap detection (paper §8, Algorithm 1).
//!
//! Each rank walks its hash-table partition, forms every pair of reads
//! sharing a retained k-mer, routes the task to the home of one of its
//! reads via the odd/even heuristic, streams the tasks out in
//! byte-bounded [`dibella_comm::RoundExchange`] rounds
//! (packing each round while the previous one is in flight), and
//! consolidates per-pair seed lists, which are then filtered by the run's
//! [`SeedPolicy`]. With the round cap unbounded this degenerates to the
//! single monolithic all-to-all of the paper's Algorithm 1; the results
//! are bit-identical either way.
//!
//! Two interchangeable **engines** implement the exchange half
//! ([`OverlapEngine`], `--overlap-engine`): the default `pairs` engine
//! below is the paper's Algorithm 1 — one fixed-size task record per
//! shared-seed instance, consolidated at the destination — while the
//! `spgemm` engine ([`crate::spgemm`]) reformulates the enumeration as
//! the sparse matrix product `A·Aᵀ` and consolidates *at the source*,
//! shipping one variable-length record per (pair, source rank). Both feed
//! the identical consolidate → chain → policy epilogue here, and both
//! produce bit-identical alignments; only wire bytes, pack time, and the
//! physical `rounds` count differ.
//!
//! Pair enumeration is threaded through the shared
//! [`BatchedExecutor`]: prefix sums over each entry's occurrence-pair
//! bound `n(n−1)/2` form a global *pair-index* space, a round is a cut of
//! that space, each round is sharded into fixed `pair_batch` batches
//! enumerated in parallel, and per-destination buffers are concatenated
//! in batch order — so the task stream is bit-identical at any thread
//! count (and downstream sort/dedup makes the *output* independent even
//! of the table's iteration order). The shared epilogue runs on the same
//! executor: the consolidated pairs, sorted by [`ReadPair`], are cut into
//! fixed batches whose seed lists are canonicalized, chained and
//! policy-filtered in place, and tasks and counters merge in batch order.

use crate::chain::{chain_seeds, ChainConfig};
use crate::policy::SeedPolicy;
use crate::spgemm::spgemm_exchange;
use crate::task::{OverlapTask, ReadPair, SharedSeed, TaskPlacement};
use dibella_comm::{
    decode_iter, encode_slice, records_per_round, BatchedExecutor, Comm, MultisetUnion,
    RoundExchange, RoundPlan, Wire,
};
use dibella_io::{ReadId, ReadPartition};
use dibella_kcount::{KmerHashTable, Occurrence};
use dibella_kmer::Strand;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Which exchange engine the overlap stage runs (`--overlap-engine`).
/// Final alignments are bit-identical across engines; the choice trades
/// pack time and wire bytes (see [`crate::spgemm`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverlapEngine {
    /// Algorithm 1 verbatim: one 20-byte task record per shared-seed
    /// instance, consolidated at the destination rank.
    #[default]
    Pairs,
    /// Blocked `A·Aᵀ` SpGEMM with source-side per-pair consolidation.
    Spgemm,
}

impl FromStr for OverlapEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pairs" => Ok(Self::Pairs),
            "spgemm" => Ok(Self::Spgemm),
            other => Err(format!("unknown overlap engine '{other}' (expected pairs|spgemm)")),
        }
    }
}

impl fmt::Display for OverlapEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Pairs => "pairs",
            Self::Spgemm => "spgemm",
        })
    }
}

/// Overlap-stage configuration.
#[derive(Clone, Copy, Debug)]
pub struct OverlapConfig {
    /// Seed exploration policy.
    pub policy: SeedPolicy,
    /// Hard cap on seeds explored per pair ("maximum number of seeds to
    /// explore per overlap", §8).
    pub max_seeds_per_pair: usize,
    /// Task placement strategy (parity heuristic, or the §9 future-work
    /// longer-read placement).
    pub placement: TaskPlacement,
    /// Byte cap per rank and exchange round (`usize::MAX` = unbounded,
    /// i.e. one monolithic exchange). The pipeline plumbs `--round-mb`
    /// through here.
    pub max_exchange_bytes_per_round: usize,
    /// Pair indices per executor batch when enumeration is threaded. Pure
    /// function of the input — never of the thread count — so any value
    /// is deterministic; tests shrink it to force many batches.
    pub pair_batch: usize,
    /// Colinear chain filter applied between consolidation and the seed
    /// policy (`None` = off). The minimizer seed mode turns it on: sparse
    /// sketch hits need a consistency check that dense reliable k-mers
    /// get for free from their sheer count.
    pub chain: Option<ChainConfig>,
    /// Which exchange engine runs the discovery half (`--overlap-engine`).
    pub engine: OverlapEngine,
    /// Rows per SpGEMM block when `engine == Spgemm` — the executor batch
    /// unit (`--spgemm-block`). Pure function of the input, so any value
    /// is deterministic; tests shrink it to force many blocks.
    pub spgemm_block: usize,
}

impl OverlapConfig {
    /// Default executor batch size for threaded pair enumeration.
    pub const DEFAULT_PAIR_BATCH: usize = 1024;
    /// Default rows per SpGEMM row block.
    pub const DEFAULT_SPGEMM_BLOCK: usize = 64;
}

impl Default for OverlapConfig {
    fn default() -> Self {
        Self {
            policy: SeedPolicy::Single,
            max_seeds_per_pair: 16,
            placement: TaskPlacement::Parity,
            max_exchange_bytes_per_round: usize::MAX,
            pair_batch: Self::DEFAULT_PAIR_BATCH,
            chain: None,
            engine: OverlapEngine::Pairs,
            spgemm_block: Self::DEFAULT_SPGEMM_BLOCK,
        }
    }
}

/// `(i, j)` of the `t`-th pair in the nested-loop order over `n`
/// occurrences (`i < j`, row-major: all `(0, _)` pairs, then `(1, _)`, …).
/// Rows shrink by one each step, so a short walk recovers the row; batch
/// starts pay O(n), every following pair is O(1) via the `j += 1` advance
/// in the caller.
fn pair_at(n: usize, mut t: u64) -> (usize, usize) {
    let mut i = 0usize;
    loop {
        let row = (n - 1 - i) as u64;
        if t < row {
            return (i, i + 1 + t as usize);
        }
        t -= row;
        i += 1;
    }
}

/// Enumerate the global pair-index range `[lo, hi)` of Algorithm 1's
/// nested loop, routing each cross-read pair to its home rank's buffer.
/// Same-read pairs (a k-mer repeated within one read witnesses no
/// overlap) occupy indices but emit nothing. Returns the per-destination
/// wire bytes and the emitted-record count — one executor batch.
#[allow(clippy::too_many_arguments)]
fn pack_pair_range(
    entries: &[&[Occurrence]],
    prefix: &[u64],
    lo: u64,
    hi: u64,
    read_part: &ReadPartition,
    cfg: &OverlapConfig,
    lengths: Option<&[u32]>,
    ranks: usize,
) -> (Vec<Vec<u8>>, u64) {
    let mut bufs: Vec<Vec<TaskMsg>> = vec![Vec::new(); ranks];
    let mut emitted = 0u64;
    // First entry whose pair-index interval contains `lo`.
    let mut e = prefix.partition_point(|&start| start <= lo).saturating_sub(1);
    let mut cursor = lo;
    while cursor < hi {
        let end = prefix[e + 1];
        if end <= cursor {
            // Zero-pair entry (or one fully before the range) — skip.
            e += 1;
            continue;
        }
        let occs = entries[e];
        let stop = end.min(hi);
        let (mut i, mut j) = pair_at(occs.len(), cursor - prefix[e]);
        for _ in cursor..stop {
            let (oi, oj) = (&occs[i], &occs[j]);
            if oi.read != oj.read {
                emitted += 1;
                let home: ReadId = cfg.placement.home(oi.read, oj.read, lengths);
                // Normalize so the receiving side sees a < b.
                let (pair, a_pos, b_pos) = if oi.read < oj.read {
                    (ReadPair::new(oi.read, oj.read), oi.pos, oj.pos)
                } else {
                    (ReadPair::new(oj.read, oi.read), oj.pos, oi.pos)
                };
                let reverse = oi.strand != oj.strand;
                bufs[read_part.owner_of(home)].push((
                    pair.a,
                    pair.b,
                    (a_pos, b_pos, reverse as u32),
                ));
            }
            j += 1;
            if j >= occs.len() {
                i += 1;
                j = i + 1;
            }
        }
        cursor = stop;
        e += 1;
    }
    (bufs.into_iter().map(|b| encode_slice(&b)).collect(), emitted)
}

/// Work counters for the cost model and the figure harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverlapCounters {
    /// Retained k-mers traversed in this rank's partition (the rate unit
    /// of Figure 6).
    pub retained_kmers: u64,
    /// Shared-seed instances emitted into the exchange (before any
    /// consolidation) — engine-invariant: the `spgemm` engine counts every
    /// seed its consolidated records carry.
    pub pairs_emitted: u64,
    /// Wire records emitted. Equals `pairs_emitted` for the `pairs`
    /// engine (one record per seed); for `spgemm` it is the number of
    /// source-consolidated `(pair, source rank)` records.
    pub candidate_pairs_emitted: u64,
    /// Seed instances the `spgemm` engine merged away at the source
    /// (`pairs_emitted − candidate_pairs_emitted`; 0 for `pairs`).
    pub pairs_deduped_at_source: u64,
    /// Shared-seed instances received in the exchange (engine-invariant;
    /// world-summed it always equals `pairs_emitted`).
    pub tasks_received: u64,
    /// Distinct pairs after consolidation on this rank.
    pub pairs_consolidated: u64,
    /// Seeds kept after policy filtering.
    pub seeds_kept: u64,
    /// Seeds dropped by the policy (and, when chaining is on, by the
    /// chain filter — off-chain seeds of kept pairs and all seeds of
    /// dropped pairs).
    pub seeds_dropped: u64,
    /// Pairs dropped because their best colinear chain was below
    /// `ChainConfig::min_chain_seeds` (0 when chaining is off).
    pub pairs_chain_dropped: u64,
    /// Bulk-synchronous exchange rounds executed (equals the stage's
    /// `alltoallv` call count; 1 unless a round cap forces streaming).
    /// Physical, not logical: the two engines plan rounds over different
    /// record streams, so this counter may legitimately differ between
    /// them under a byte cap.
    pub rounds: u64,
}

/// Result of the overlap stage on one rank.
#[derive(Debug, Default)]
pub struct OverlapOutput {
    /// Alignment tasks homed on this rank, sorted by pair, seeds sorted by
    /// `a_pos` — deterministic across world sizes.
    pub tasks: Vec<OverlapTask>,
    /// Work counters.
    pub counters: OverlapCounters,
}

/// Task wire record: `(ra, rb, (a_pos, b_pos, reverse))` — 20 bytes.
type TaskMsg = (u32, u32, (u32, u32, u32));

/// What an engine's exchange half hands to the shared epilogue: the
/// consolidated per-pair seed multisets plus the emission counters. Both
/// engines produce the same logical multiset; only the record geometry
/// (and hence `emitted_records` and the physical round count) differs.
pub(crate) struct ExchangeOut {
    /// Per-pair seed lists as received (pre-canonicalization).
    pub pairs: MultisetUnion<ReadPair, SharedSeed>,
    /// Shared-seed instances emitted (engine-invariant).
    pub emitted_seeds: u64,
    /// Shared-seed instances received (engine-invariant).
    pub received_seeds: u64,
    /// Wire records emitted (engine-dependent; = `emitted_seeds` for the
    /// pairs engine).
    pub emitted_records: u64,
    /// Executed exchange rounds.
    pub rounds: u64,
}

/// Run the overlap stage.
///
/// `table` is this rank's reliable-k-mer partition (after
/// `retain_reliable`); `read_part` maps read IDs to their owning ranks;
/// `lengths`, when given, are the global read lengths that length-aware
/// task placement (`TaskPlacement::LongerRead`) needs.
pub fn overlap_stage_with_lengths(
    comm: &Comm,
    table: &KmerHashTable,
    read_part: &ReadPartition,
    cfg: &OverlapConfig,
    lengths: Option<&[u32]>,
    exec: &BatchedExecutor,
) -> OverlapOutput {
    let exch = match cfg.engine {
        OverlapEngine::Pairs => pairs_exchange(comm, table, read_part, cfg, lengths, exec),
        OverlapEngine::Spgemm => spgemm_exchange(comm, table, read_part, cfg, lengths, exec),
    };
    let mut counters = OverlapCounters {
        retained_kmers: table.len() as u64,
        pairs_emitted: exch.emitted_seeds,
        candidate_pairs_emitted: exch.emitted_records,
        pairs_deduped_at_source: exch.emitted_seeds - exch.emitted_records,
        tasks_received: exch.received_seeds,
        rounds: exch.rounds,
        ..Default::default()
    };

    // ---- chain, filter seeds, emit deterministic task list ---------------
    // Shared epilogue: both engines deliver the same per-pair seed
    // multisets, so everything from here on is engine-independent. Sorting
    // the pairs first makes the batches — fixed cuts of the sorted list —
    // a pure function of the input, and concatenating batch results in
    // batch order leaves the tasks sorted by pair.
    let mut pairs: Vec<(ReadPair, Vec<SharedSeed>)> = exch.pairs.into_map().into_iter().collect();
    pairs.sort_unstable_by_key(|&(pair, _)| pair);
    let parts =
        exec.map_batches_mut(&mut pairs, EPILOGUE_BATCH_PAIRS, |batch| finish_pairs(batch, cfg));
    let mut tasks: Vec<OverlapTask> = Vec::with_capacity(pairs.len());
    for (batch_tasks, c) in parts {
        tasks.extend(batch_tasks);
        counters.pairs_chain_dropped += c.pairs_chain_dropped;
        counters.seeds_dropped += c.seeds_dropped;
        counters.pairs_consolidated += c.pairs_consolidated;
        counters.seeds_kept += c.seeds_kept;
    }

    OverlapOutput { tasks, counters }
}

/// Consolidated pairs per executor batch of the shared epilogue. A pure
/// function of the input — never of the thread count.
const EPILOGUE_BATCH_PAIRS: usize = 64;

/// One epilogue batch: canonicalize, chain and policy-filter each pair's
/// seed list, taking the lists out of `batch` rather than copying them.
/// Returns the surviving tasks in `batch` order and the four counters the
/// epilogue owns (every other field stays zero).
fn finish_pairs(
    batch: &mut [(ReadPair, Vec<SharedSeed>)],
    cfg: &OverlapConfig,
) -> (Vec<OverlapTask>, OverlapCounters) {
    let mut counters = OverlapCounters::default();
    let mut tasks = Vec::with_capacity(batch.len());
    for (pair, seeds) in batch {
        let mut seeds = std::mem::take(seeds);
        seeds.sort_unstable();
        seeds.dedup();
        if let Some(chain_cfg) = &cfg.chain {
            let before = seeds.len() as u64;
            if !chain_seeds(&mut seeds, chain_cfg) {
                counters.pairs_chain_dropped += 1;
                counters.seeds_dropped += before;
                continue;
            }
            counters.seeds_dropped += before - seeds.len() as u64;
        }
        counters.pairs_consolidated += 1;
        let dropped = cfg.policy.apply(&mut seeds, cfg.max_seeds_per_pair);
        counters.seeds_dropped += dropped as u64;
        counters.seeds_kept += seeds.len() as u64;
        tasks.push(OverlapTask { pair: *pair, seeds });
    }
    (tasks, counters)
}

/// The `pairs` engine's exchange half — Algorithm 1 verbatim.
fn pairs_exchange(
    comm: &Comm,
    table: &KmerHashTable,
    read_part: &ReadPartition,
    cfg: &OverlapConfig,
    lengths: Option<&[u32]>,
    exec: &BatchedExecutor,
) -> ExchangeOut {
    let p = comm.size();

    // ---- Algorithm 1, batched over the pair-index space ------------------
    // Prefix sums over each entry's occurrence-pair bound `n(n−1)/2` give
    // every pair of Algorithm 1's nested loop a global index. Rounds and
    // executor batches are cuts of that index space, so the decomposition
    // is a pure function of the table — identical at any thread count. The
    // round budget counts the same-read pairs the enumeration skips, so a
    // rank whose entries yield nothing simply ships lighter (or empty)
    // rounds.
    let entries: Vec<&[Occurrence]> = table.iter().map(|(_, e)| e.occurrences.as_slice()).collect();
    let mut prefix: Vec<u64> = Vec::with_capacity(entries.len() + 1);
    prefix.push(0);
    for occs in &entries {
        let n = occs.len() as u64;
        prefix.push(prefix.last().unwrap() + n * n.saturating_sub(1) / 2);
    }
    let pair_bound = *prefix.last().unwrap();
    let per_round = records_per_round(
        <TaskMsg as Wire>::SIZE,
        usize::MAX,
        cfg.max_exchange_bytes_per_round,
    );
    let batch = cfg.pair_batch.max(1) as u64;
    let mut emitted = 0u64;
    let mut received = 0u64;
    let mut pairs: MultisetUnion<ReadPair, SharedSeed> = MultisetUnion::new();

    let rounds = RoundExchange::run(
        comm,
        RoundPlan::for_records(pair_bound, per_round),
        |round| {
            let lo = (round * per_round as u64).min(pair_bound);
            let hi = lo.saturating_add(per_round as u64).min(pair_bound);
            let n_batches = (hi - lo).div_ceil(batch) as usize;
            let parts = exec.map_indexed(n_batches, |b| {
                let blo = lo + b as u64 * batch;
                let bhi = blo.saturating_add(batch).min(hi);
                pack_pair_range(&entries, &prefix, blo, bhi, read_part, cfg, lengths, p)
            });
            // Merge in batch order: concatenating each destination's encoded
            // slices equals encoding the concatenated record stream, so the
            // wire bytes match the sequential enumeration exactly.
            let mut merged: Vec<Vec<u8>> = vec![Vec::new(); p];
            for (wire, n) in parts {
                emitted += n;
                for (dest, bytes) in merged.iter_mut().zip(wire) {
                    if dest.is_empty() {
                        *dest = bytes;
                    } else {
                        dest.extend_from_slice(&bytes);
                    }
                }
            }
            merged
        },
        // ---- consolidate per-pair seed lists, as rounds arrive ----------
        |_round, recv| {
            for buf in recv {
                for (a, b, (a_pos, b_pos, rev)) in decode_iter::<TaskMsg>(&buf) {
                    received += 1;
                    pairs.push(ReadPair { a, b }, SharedSeed { a_pos, b_pos, reverse: rev != 0 });
                }
            }
        },
    );
    ExchangeOut {
        pairs,
        emitted_seeds: emitted,
        received_seeds: received,
        // One wire record per seed instance: nothing dedups at the source.
        emitted_records: emitted,
        rounds,
    }
}

/// Serial reference for tests and the single-node baseline: all pairs of
/// reads sharing a retained k-mer, with unfiltered seed lists, computed
/// from merged table partitions.
pub fn reference_pairs(tables: &[&KmerHashTable]) -> HashMap<ReadPair, Vec<SharedSeed>> {
    let mut out: HashMap<ReadPair, Vec<SharedSeed>> = HashMap::new();
    for table in tables {
        for (_kmer, entry) in table.iter() {
            let occs = &entry.occurrences;
            for i in 0..occs.len() {
                for j in (i + 1)..occs.len() {
                    let (oi, oj) = (&occs[i], &occs[j]);
                    if oi.read == oj.read {
                        continue;
                    }
                    let (pair, a_pos, b_pos) = if oi.read < oj.read {
                        (ReadPair::new(oi.read, oj.read), oi.pos, oj.pos)
                    } else {
                        (ReadPair::new(oj.read, oi.read), oj.pos, oi.pos)
                    };
                    out.entry(pair).or_default().push(SharedSeed {
                        a_pos,
                        b_pos,
                        reverse: oi.strand != oj.strand,
                    });
                }
            }
        }
    }
    for seeds in out.values_mut() {
        seeds.sort_unstable();
        seeds.dedup();
    }
    out
}

/// Convenience for tests: was this occurrence pair orientation-flipped?
pub fn relative_orientation(a: Strand, b: Strand) -> bool {
    a != b
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_comm::CommWorld;
    use dibella_io::{partition_reads, Read, ReadSet};
    use dibella_kcount::{bloom_stage_overlapping, hash_stage_prepacked, KcountConfig};

    fn kc_cfg(k: usize, m: u32) -> KcountConfig {
        KcountConfig {
            k,
            max_multiplicity: m,
            bloom_fp_rate: 0.01,
            expected_distinct: 10_000,
            max_kmers_per_round: 1 << 14,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: 16,
        }
    }

    /// Reads sampled from one synthetic "genome" string so that genuine
    /// overlaps exist. (The genome must be non-periodic or every k-mer
    /// becomes a high-frequency repeat and gets filtered.)
    fn overlapping_reads(n: usize, read_len: usize, stride: usize) -> ReadSet {
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let genome: Vec<u8> = (0..(n * stride + read_len))
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect();
        (0..n as u32)
            .map(|i| {
                let s = i as usize * stride;
                Read::new(i, format!("r{i}"), genome[s..s + read_len].to_vec())
            })
            .collect()
    }

    /// Run stages 1–3 on `p` ranks; return every rank's tasks merged,
    /// sorted by pair.
    fn run_pipeline_to_overlap(
        reads: &ReadSet,
        p: usize,
        kc: &KcountConfig,
        oc: &OverlapConfig,
    ) -> Vec<OverlapTask> {
        let (part, chunks) = partition_reads(reads, p);
        let results = CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, round0) = bloom_stage_overlapping(comm, local, kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, kc, &exec, Some(round0));
            overlap_stage_with_lengths(comm, &table, &part, oc, None, &exec)
        });
        let mut all: Vec<OverlapTask> = results.into_iter().flat_map(|o| o.tasks).collect();
        all.sort_unstable_by_key(|t| t.pair);
        all
    }

    #[test]
    fn neighbours_share_overlaps() {
        let reads = overlapping_reads(8, 60, 20);
        let kc = kc_cfg(9, 16);
        let oc = OverlapConfig { policy: SeedPolicy::MinDistance(9), max_seeds_per_pair: 64, ..Default::default() };
        let tasks = run_pipeline_to_overlap(&reads, 3, &kc, &oc);
        // Adjacent reads overlap by 40 bases → must be found.
        for i in 0..7u32 {
            assert!(
                tasks.iter().any(|t| t.pair == ReadPair::new(i, i + 1)),
                "missing pair ({i},{})",
                i + 1
            );
        }
        // Every task has at least one seed.
        assert!(tasks.iter().all(|t| !t.seeds.is_empty()));
    }

    #[test]
    fn distributed_matches_serial_world() {
        let reads = overlapping_reads(10, 50, 15);
        let kc = kc_cfg(9, 16);
        let oc = OverlapConfig { policy: SeedPolicy::MinDistance(9), max_seeds_per_pair: 64, ..Default::default() };
        let serial = run_pipeline_to_overlap(&reads, 1, &kc, &oc);
        for p in [2usize, 3, 5] {
            let dist = run_pipeline_to_overlap(&reads, p, &kc, &oc);
            assert_eq!(dist, serial, "p={p}");
        }
    }

    #[test]
    fn each_pair_appears_on_exactly_one_rank() {
        let reads = overlapping_reads(12, 50, 10);
        let kc = kc_cfg(9, 24);
        let oc = OverlapConfig::default();
        let (part, chunks) = partition_reads(&reads, 4);
        let results = CommWorld::run(4, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
            overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec)
        });
        let mut seen = std::collections::HashSet::new();
        for out in &results {
            for t in &out.tasks {
                assert!(seen.insert(t.pair), "pair {:?} duplicated", t.pair);
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn tasks_land_on_the_home_reads_owner() {
        let reads = overlapping_reads(12, 50, 10);
        let kc = kc_cfg(9, 24);
        let oc = OverlapConfig::default();
        let (part, chunks) = partition_reads(&reads, 4);
        let results = CommWorld::run(4, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
            (comm.rank(), overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec))
        });
        for (rank, out) in &results {
            for t in &out.tasks {
                // The task's home read must be owned by this rank. The
                // home is one of the two endpoints (heuristic could have
                // been evaluated in either discovery order).
                let owners = [part.owner_of(t.pair.a), part.owner_of(t.pair.b)];
                assert!(owners.contains(rank), "task {:?} on rank {rank}", t.pair);
            }
        }
    }

    #[test]
    fn single_policy_yields_single_seed() {
        let reads = overlapping_reads(6, 60, 12);
        let kc = kc_cfg(9, 24);
        let oc = OverlapConfig { policy: SeedPolicy::Single, max_seeds_per_pair: 1, ..Default::default() };
        let tasks = run_pipeline_to_overlap(&reads, 2, &kc, &oc);
        assert!(!tasks.is_empty());
        assert!(tasks.iter().all(|t| t.seeds.len() == 1));
    }

    #[test]
    fn counters_add_up() {
        let reads = overlapping_reads(10, 50, 10);
        let kc = kc_cfg(9, 24);
        let oc = OverlapConfig { policy: SeedPolicy::MinDistance(9), max_seeds_per_pair: 64, ..Default::default() };
        let (part, chunks) = partition_reads(&reads, 3);
        let outs = CommWorld::run(3, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
            overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec).counters
        });
        let emitted: u64 = outs.iter().map(|c| c.pairs_emitted).sum();
        let received: u64 = outs.iter().map(|c| c.tasks_received).sum();
        assert_eq!(emitted, received, "task records lost in exchange");
        let kept: u64 = outs.iter().map(|c| c.seeds_kept).sum();
        let dropped: u64 = outs.iter().map(|c| c.seeds_dropped).sum();
        // kept + dropped ≤ received (dedup may shrink before filtering).
        assert!(kept + dropped <= received);
        assert!(kept > 0);
    }

    #[test]
    fn reverse_orientation_detected() {
        // One read and (a copy whose middle is) its reverse complement
        // share canonical k-mers with opposite strands.
        let mut state = 0xFEED_F00Du64;
        let fwd: Vec<u8> = (0..80)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect();
        let rc = dibella_kmer::base::reverse_complement_ascii(&fwd);
        let reads: ReadSet = vec![
            Read::new(0, "fwd", fwd),
            Read::new(1, "rc", rc),
        ]
        .into_iter()
        .collect();
        let kc = kc_cfg(9, 8);
        let oc = OverlapConfig { policy: SeedPolicy::MinDistance(9), max_seeds_per_pair: 64, ..Default::default() };
        let tasks = run_pipeline_to_overlap(&reads, 2, &kc, &oc);
        let t = tasks
            .iter()
            .find(|t| t.pair == ReadPair::new(0, 1))
            .expect("rc pair not found");
        assert!(t.seeds.iter().all(|s| s.reverse), "strand flags wrong");
    }

    #[test]
    fn chain_filter_prunes_seeds_but_keeps_true_pairs() {
        let reads = overlapping_reads(8, 60, 20);
        let kc = kc_cfg(9, 16);
        let base = OverlapConfig {
            policy: SeedPolicy::MinDistance(9),
            max_seeds_per_pair: 64,
            ..Default::default()
        };
        let plain = run_pipeline_to_overlap(&reads, 3, &kc, &base);
        // min_chain_seeds = 1 never drops a pair — it only reduces each
        // seed list to its best colinear chain.
        let chained_cfg = OverlapConfig { chain: Some(ChainConfig { min_chain_seeds: 1 }), ..base };
        let chained = run_pipeline_to_overlap(&reads, 3, &kc, &chained_cfg);
        let pairs = |ts: &[OverlapTask]| ts.iter().map(|t| t.pair).collect::<Vec<_>>();
        assert_eq!(pairs(&plain), pairs(&chained));
        let total = |ts: &[OverlapTask]| ts.iter().map(|t| t.seeds.len()).sum::<usize>();
        assert!(total(&chained) <= total(&plain));
        assert!(chained.iter().all(|t| !t.seeds.is_empty()));
        // Chain output stays sorted for the policy's contract.
        for t in &chained {
            assert!(t.seeds.windows(2).all(|w| w[0].a_pos <= w[1].a_pos));
        }
        // An unsatisfiable chain requirement drops every pair — counted,
        // and nothing reaches the task list.
        let strict = OverlapConfig { chain: Some(ChainConfig { min_chain_seeds: 1000 }), ..base };
        let (part, chunks) = partition_reads(&reads, 3);
        let outs = CommWorld::run(3, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
            overlap_stage_with_lengths(comm, &table, &part, &strict, None, &exec)
        });
        let dropped: u64 = outs.iter().map(|o| o.counters.pairs_chain_dropped).sum();
        assert!(dropped > 0);
        assert!(outs.iter().all(|o| o.tasks.is_empty()));
        assert!(outs.iter().all(|o| o.counters.seeds_kept == 0));
    }

    #[test]
    fn pair_at_matches_nested_loop_order() {
        for n in 2..=7usize {
            let mut t = 0u64;
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(pair_at(n, t), (i, j), "n={n} t={t}");
                    t += 1;
                }
            }
        }
    }

    #[test]
    fn engine_flag_parses_and_displays() {
        assert_eq!("pairs".parse::<OverlapEngine>().unwrap(), OverlapEngine::Pairs);
        assert_eq!("spgemm".parse::<OverlapEngine>().unwrap(), OverlapEngine::Spgemm);
        assert_eq!(OverlapEngine::Pairs.to_string(), "pairs");
        assert_eq!(OverlapEngine::Spgemm.to_string(), "spgemm");
        assert!("bella".parse::<OverlapEngine>().is_err());
        assert_eq!(OverlapEngine::default(), OverlapEngine::Pairs);
    }

    /// The SpGEMM engine produces the pairs engine's exact tasks and
    /// logical counters, per rank, and dedups shipped records at the
    /// source whenever pairs share seeds.
    #[test]
    fn spgemm_engine_is_bit_identical_and_dedups_at_source() {
        let reads = overlapping_reads(12, 60, 12);
        let kc = kc_cfg(9, 24);
        let base = OverlapConfig {
            policy: SeedPolicy::MinDistance(9),
            max_seeds_per_pair: 64,
            ..Default::default()
        };
        let (part, chunks) = partition_reads(&reads, 3);
        let run = |oc: OverlapConfig| {
            CommWorld::run(3, |comm| {
                let exec = BatchedExecutor::sequential();
                let local = chunks[comm.rank()].reads();
                let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
                let mut table = bloom.table;
                let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
                overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec)
            })
        };
        let pairs_out = run(base);
        let spgemm_out = run(OverlapConfig {
            engine: OverlapEngine::Spgemm,
            spgemm_block: 2, // force several row blocks
            ..base
        });
        for (p_rank, s_rank) in pairs_out.iter().zip(&spgemm_out) {
            assert_eq!(p_rank.tasks, s_rank.tasks, "tasks diverge between engines");
            // Logical counters are engine-invariant...
            let (p, s) = (p_rank.counters, s_rank.counters);
            assert_eq!(p.retained_kmers, s.retained_kmers);
            assert_eq!(p.pairs_emitted, s.pairs_emitted);
            assert_eq!(p.pairs_consolidated, s.pairs_consolidated);
            assert_eq!(p.seeds_kept, s.seeds_kept);
            assert_eq!(p.seeds_dropped, s.seeds_dropped);
            // ...and the pairs engine never dedups at the source.
            assert_eq!(p.candidate_pairs_emitted, p.pairs_emitted);
            assert_eq!(p.pairs_deduped_at_source, 0);
            assert_eq!(
                s.pairs_deduped_at_source,
                s.pairs_emitted - s.candidate_pairs_emitted
            );
        }
        // Overlapping synthetic reads share many k-mers per pair, so the
        // SpGEMM engine must merge records at the source.
        let deduped: u64 = spgemm_out.iter().map(|o| o.counters.pairs_deduped_at_source).sum();
        assert!(deduped > 0, "expected source-side dedup on seed-rich pairs");
        // Received seeds balance across the world for both engines.
        for outs in [&pairs_out, &spgemm_out] {
            let emitted: u64 = outs.iter().map(|o| o.counters.pairs_emitted).sum();
            let received: u64 = outs.iter().map(|o| o.counters.tasks_received).sum();
            assert_eq!(emitted, received);
        }
    }

    /// Tentpole invariant: threaded pair enumeration with a tiny batch size
    /// (forcing many batches per round) produces the exact tasks and
    /// counters of the sequential run, per rank, with and without a round
    /// cap.
    #[test]
    fn threaded_enumeration_is_bit_identical_to_sequential() {
        let reads = overlapping_reads(14, 60, 12);
        let kc = kc_cfg(9, 24);
        for cap in [usize::MAX, 600] {
            let oc_seq = OverlapConfig {
                policy: SeedPolicy::MinDistance(9),
                max_seeds_per_pair: 64,
                max_exchange_bytes_per_round: cap,
                ..Default::default()
            };
            let (part, chunks) = partition_reads(&reads, 3);
            let run = |threads: usize, oc: OverlapConfig| {
                CommWorld::run(3, |comm| {
                    let exec = BatchedExecutor::new(threads);
                    let local = chunks[comm.rank()].reads();
                    let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
                    let mut table = bloom.table;
                    let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
                    let out = overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec);
                    (out.tasks, out.counters)
                })
            };
            let baseline = run(1, oc_seq);
            for threads in [2usize, 4] {
                let oc_par = OverlapConfig { pair_batch: 7, ..oc_seq };
                let got = run(threads, oc_par);
                assert_eq!(got, baseline, "threads={threads} cap={cap}");
            }
        }
    }

    /// The shared epilogue cut into executor batches produces, per rank,
    /// the sequential run's exact tasks and its *whole* counter set — for
    /// both engines, with the chain filter on and off, capped and not.
    #[test]
    fn threaded_epilogue_is_bit_identical_to_sequential() {
        // Stride 4 under 60-base reads: every read overlaps a dozen
        // neighbours each side, so each of the 3 ranks homes well over
        // ten epilogue batches of pairs.
        let reads = overlapping_reads(240, 60, 4);
        let kc = kc_cfg(9, 32);
        let (part, chunks) = partition_reads(&reads, 3);
        let run = |threads: usize, oc: OverlapConfig| {
            CommWorld::run(3, |comm| {
                let exec = BatchedExecutor::new(threads);
                let local = chunks[comm.rank()].reads();
                let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
                let mut table = bloom.table;
                let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
                let out = overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec);
                (out.tasks, out.counters)
            })
        };
        for chain in [None, Some(ChainConfig { min_chain_seeds: 2 })] {
            for engine in [OverlapEngine::Pairs, OverlapEngine::Spgemm] {
                for cap in [usize::MAX, 600] {
                    let oc = OverlapConfig {
                        policy: SeedPolicy::MinDistance(9),
                        max_seeds_per_pair: 64,
                        max_exchange_bytes_per_round: cap,
                        chain,
                        engine,
                        ..Default::default()
                    };
                    let baseline = run(1, oc);
                    for (tasks, c) in &baseline {
                        let pairs = (c.pairs_consolidated + c.pairs_chain_dropped) as usize;
                        assert!(pairs >= 10 * EPILOGUE_BATCH_PAIRS, "only {pairs} pairs on a rank");
                        assert!(tasks.windows(2).all(|w| w[0].pair < w[1].pair));
                        assert_eq!(c.pairs_chain_dropped > 0, chain.is_some());
                    }
                    for threads in [2usize, 4] {
                        assert_eq!(
                            run(threads, oc),
                            baseline,
                            "threads={threads} engine={engine} cap={cap} chain={chain:?}"
                        );
                    }
                }
            }
        }
    }
}
