//! Stage 3 — distributed overlap detection (paper §8, Algorithm 1).
//!
//! Each rank finds every pair of reads sharing a retained k-mer in its
//! hash-table partition as the sparse product `A·Aᵀ` of the read-by-k-mer
//! matrix ([`crate::spgemm`]; the paper's Algorithm 1 enumerates the same
//! pair multiset in table order and stays as the oracle
//! [`reference_pairs`]), **folds** each pair's seeds as they meet in the
//! row accumulator (the semiring "add": [`SeedPolicy::source_keep`] says
//! what the run's seed policy lets a partial list forget), routes one
//! *pair record* per pair to the home of one of its reads via the
//! odd/even heuristic, streams the records out in byte-bounded
//! [`dibella_comm::RoundExchange`] rounds (packing each round while the
//! previous one is in flight), and folds arrivals into per-pair seed lists
//! with the same rule; the lists are then chained and filtered by the
//! run's [`SeedPolicy`]. With the round cap unbounded this degenerates to
//! the single monolithic all-to-all of the paper's Algorithm 1; the
//! results are bit-identical either way.
//!
//! The record ([`write_pair_record`], at most
//! `12 + 8n` bytes for a pair's `n` kept seeds, a seed list of two or more
//! delta-coded when that is shorter) leaves every source in ascending `a`,
//! because rows of `A·Aᵀ` do. `exchange_records` checks each round's
//! arrivals and folds them into per-pair held records — under `All` the
//! records as they arrived, still coded, under `Min` one record of the
//! least seed — and, after every round, asks the engine which `a` every
//! later record's pair `(a, b)` is guaranteed to start (its watermark
//! rule, [`crate::spgemm`]); pairs under that bound are complete, go
//! through the epilogue at once — in pair order, because the bound only
//! rises — and their records are freed, so a destination holds about one
//! round of seeds per source ([`OverlapCounters::peak_seeds_pending`]).
//! The epilogue decodes a pair's records only in its own batch.
//!
//! | policy | chain filter | fold | a pair sharing *m* k-mers leaves a source as |
//! |---|---|---|---|
//! | `Single` | off | `Min` | one raw 20-byte record |
//! | `Single` | on | `All` | one record planned at `12 + 8m` bytes: raw for m = 1, else coded — about 2 bytes a minimizer seed, a few bytes for a run of consecutive k-mers — unless coding would not shrink it |
//! | `MinDistance` | either | `All` | the same |
//!
//! **Counter ledger** ([`OverlapCounters`]): every enumerated instance is
//! counted exactly once per rank — `pairs_emitted = seeds_shipped +
//! seeds_folded_at_source()`; over the world `Σ seeds_shipped =
//! Σ seeds_received`; and `seeds_received = seeds_kept +
//! seeds_dropped()`.
//!
//! Both halves are threaded through the shared [`BatchedExecutor`]: the
//! product's rows are expanded in executor batches that are a pure
//! function of the input and merged in row order, so the record stream is
//! the same at any thread count. The epilogue runs on the same executor:
//! each run of completed pairs, sorted by [`ReadPair`], is cut into fixed
//! batches whose seed lists are canonicalized, chained and
//! policy-filtered in place, and tasks and counters merge in batch order —
//! every pair is finished on its own, so how the pairs were split into
//! runs changes nothing.

use crate::chain::{chain_seeds, ChainConfig};
use crate::policy::{SeedFold, SeedPolicy};
use crate::spgemm::{decode_pair_records, spgemm_exchange, write_pair_record, RecordSeeds};
use crate::task::{OverlapTask, ReadPair, SharedSeed};
use dibella_comm::{BatchedExecutor, Comm, RoundExchange, RoundPlan};
use dibella_io::ReadPartition;
use dibella_kcount::{KmerHashTable, KmerKeyHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The spelling of a stage-3 engine choice that no longer exists: stage 3
/// has one engine ([`crate::spgemm`]). `PipelineConfig::overlap_engine`
/// still accepts either variant and ignores it, so configurations written
/// against the two-engine API keep compiling; the field and this enum are
/// deleted together with the benchmark's copy of the stage sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlapEngine {
    /// Formerly Algorithm 1's table-order enumeration. Ignored.
    Pairs,
    /// Formerly the `A·Aᵀ` enumeration, now the only one. Ignored.
    Spgemm,
}

/// Overlap-stage configuration.
#[derive(Clone, Copy, Debug)]
pub struct OverlapConfig {
    /// Seed exploration policy.
    pub policy: SeedPolicy,
    /// Hard cap on seeds explored per pair ("maximum number of seeds to
    /// explore per overlap", §8).
    pub max_seeds_per_pair: usize,
    /// Byte cap per rank and exchange round (`usize::MAX` = unbounded,
    /// i.e. one monolithic exchange). The pipeline plumbs `--round-mb`
    /// through here.
    pub max_exchange_bytes_per_round: usize,
    /// Colinear chain filter applied between consolidation and the seed
    /// policy (`None` = off). The minimizer seed mode turns it on: sparse
    /// sketch hits need a consistency check that dense reliable k-mers
    /// get for free from their sheer count.
    pub chain: Option<ChainConfig>,
    /// Most rows of `A·Aᵀ` per executor batch. Batches are a pure
    /// function of the input — never of the thread count — so any value
    /// is deterministic; tests shrink it to force many blocks.
    pub spgemm_block: usize,
}

impl OverlapConfig {
    /// Default rows per SpGEMM row block — the only value the pipeline
    /// runs with; tests set others.
    pub const DEFAULT_BLOCK_ROWS: usize = 64;
}

impl Default for OverlapConfig {
    fn default() -> Self {
        Self {
            policy: SeedPolicy::Single,
            max_seeds_per_pair: 16,
            max_exchange_bytes_per_round: usize::MAX,
            chain: None,
            spgemm_block: Self::DEFAULT_BLOCK_ROWS,
        }
    }
}

/// `pair → pending records`: a destination's accumulator of the pairs it
/// was sent, each pair's seeds held as pair records. Under
/// [`SeedFold::All`] a record is appended as it crossed the wire, so a
/// coded list stays coded until the epilogue decodes it; under
/// [`SeedFold::Min`] a pair holds one record of its least seed so far.
///
/// The map hashes with the k-mer table's splitmix64 word folder rather
/// than SipHash: read IDs are dense integers the pipeline assigns itself,
/// so there is no crafted-collision exposure to pay for on an operation
/// made once per arriving record.
#[derive(Debug)]
pub(crate) struct PairSeeds {
    fold: SeedFold,
    map: HashMap<ReadPair, Pending, BuildHasherDefault<KmerKeyHasher>>,
    /// Seeds the held records carry.
    pending: u64,
}

/// One pair's held records and the seeds they carry.
#[derive(Debug, Default)]
struct Pending {
    seeds: u64,
    records: Vec<u8>,
}

impl PairSeeds {
    /// Empty accumulator folding with `fold`.
    pub fn new(fold: SeedFold) -> Self {
        Self { fold, map: HashMap::default(), pending: 0 }
    }

    /// Fold one arrived record into `pair`'s held records. Returns how much
    /// the pair's seed count grew — a fold never shrinks one.
    pub fn extend(&mut self, pair: ReadPair, record: RecordSeeds<'_>) -> usize {
        let held = self.map.entry(pair).or_default();
        let grew = match self.fold {
            SeedFold::All => {
                held.records.extend_from_slice(record.record());
                record.len()
            }
            SeedFold::Min => {
                let mut kept = Vec::with_capacity(1);
                decode_pair_records(&held.records, |_, seeds| kept.extend(seeds))
                    .expect("held records are well formed");
                let before = kept.len();
                self.fold.extend(&mut kept, record);
                held.records.clear();
                write_pair_record(&mut held.records, pair, &mut kept);
                kept.len() - before
            }
        };
        held.seeds += grew as u64;
        self.pending += grew as u64;
        grew
    }

    /// Seeds held for unfinished pairs.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Remove the records of every pair with `a < bound`; sorted by pair.
    /// One pass over the whole map, so callers ask only when `bound` moved.
    pub fn take_below(&mut self, bound: u32) -> SortedPairs {
        let Self { map, pending, .. } = self;
        sorted(
            map.extract_if(|pair, _| pair.a < bound)
                .map(|(pair, held)| {
                    *pending -= held.seeds;
                    (pair, held.records)
                })
                .collect(),
        )
    }

    /// The held records, sorted by pair.
    pub fn into_sorted(self) -> SortedPairs {
        sorted(self.map.into_iter().map(|(pair, held)| (pair, held.records)).collect())
    }
}

/// Pairs with their held records, ascending by pair — what the epilogue
/// consumes.
pub(crate) type SortedPairs = Vec<(ReadPair, Vec<u8>)>;

fn sorted(mut pairs: SortedPairs) -> SortedPairs {
    pairs.sort_unstable_by_key(|&(pair, _)| pair);
    pairs
}

/// Work counters for the cost model and the figure harness. The module
/// docs state the ledger that ties them together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverlapCounters {
    /// Retained k-mers traversed in this rank's partition (the rate unit
    /// of Figure 6).
    pub retained_kmers: u64,
    /// Shared-seed instances enumerated — every cross-read occurrence
    /// pair of every retained k-mer, before any fold.
    pub pairs_emitted: u64,
    /// Wire records emitted: one per pair this rank found.
    pub candidate_pairs_emitted: u64,
    /// Seeds those records carry — what the source fold kept.
    pub seeds_shipped: u64,
    /// Seeds received in the exchange (world-summed it equals
    /// `seeds_shipped`).
    pub seeds_received: u64,
    /// Distinct pairs after consolidation on this rank.
    pub pairs_consolidated: u64,
    /// Seeds kept after policy filtering.
    pub seeds_kept: u64,
    /// Pairs dropped because their best colinear chain was below
    /// `ChainConfig::min_chain_seeds` (0 when chaining is off).
    pub pairs_chain_dropped: u64,
    /// Bulk-synchronous exchange rounds executed (equals the stage's
    /// `alltoallv` call count; 1 unless a round cap forces streaming).
    /// Physical, not logical: the cap moves it, the tasks stay the same.
    pub rounds: u64,
    /// Most seeds this rank held in unfinished per-pair lists, measured
    /// after each round's arrivals are folded and before the pairs that
    /// round completed are finished. Pairs finish round by round (the
    /// watermark rule of [`crate::spgemm`]), so under a cap this is about
    /// one round of seeds per source. Physical, like `rounds`: with one
    /// round it is every seed the arrivals' fold kept.
    pub peak_seeds_pending: u64,
}

impl OverlapCounters {
    /// Instances the source fold absorbed instead of shipping.
    pub fn seeds_folded_at_source(&self) -> u64 {
        self.pairs_emitted - self.seeds_shipped
    }

    /// Received seeds that did not reach a task: folded away on arrival,
    /// duplicates, off-chain seeds, all seeds of chain-dropped pairs, and
    /// what the policy cut.
    pub fn seeds_dropped(&self) -> u64 {
        self.seeds_received - self.seeds_kept
    }

    /// Seeds this rank merged into a per-pair list, at either end of the
    /// exchange — the unit of the cost model's merge term. World-summed it
    /// equals `pairs_emitted`.
    pub fn seeds_merged(&self) -> u64 {
        self.seeds_folded_at_source() + self.seeds_received
    }
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

/// Run the overlap stage.
///
/// `table` is this rank's reliable-k-mer partition (after
/// `retain_reliable`); `read_part` maps read IDs to their owning ranks.
/// Every pair goes to the owner of its [`task_home`](crate::task_home).
///
/// `lengths` is an inert spelling: it once fed longer-read task
/// placement, which is gone. It stays only because the repo benchmark
/// calls this function with `None`, and goes with that copy of the stage
/// sequence (ROADMAP 4(ii)).
///
/// # Panics
/// Panics if `lengths` is `Some`: the placement that read them no longer
/// exists, and ignoring them would run a different configuration than
/// the one asked for.
pub fn overlap_stage_with_lengths(
    comm: &Comm,
    table: &KmerHashTable,
    read_part: &ReadPartition,
    cfg: &OverlapConfig,
    lengths: Option<&[u32]>,
    exec: &BatchedExecutor,
) -> OverlapOutput {
    assert!(lengths.is_none(), "read lengths fed longer-read task placement, which was removed; pass None");
    let fold = cfg.policy.source_keep(cfg.chain.is_some());
    // The exchange delivers per-pair lists in pair order, round by round,
    // as they complete; the epilogue finishes them as they come.
    let mut epilogue = Epilogue { cfg, exec, tasks: Vec::new(), counters: OverlapCounters::default() };
    let finish = &mut |pairs: SortedPairs| epilogue.finish(pairs);
    let source = spgemm_exchange(comm, table, read_part, cfg, exec, fold, finish);
    let Epilogue { tasks, counters: finished, .. } = epilogue;
    let counters = OverlapCounters {
        retained_kmers: table.len() as u64,
        pairs_consolidated: finished.pairs_consolidated,
        seeds_kept: finished.seeds_kept,
        pairs_chain_dropped: finished.pairs_chain_dropped,
        ..source
    };
    OverlapOutput { tasks, counters }
}

/// Consolidated pairs per executor batch of the shared epilogue. A pure
/// function of the input — never of the thread count.
const EPILOGUE_BATCH_PAIRS: usize = 64;

/// The chain → policy epilogue, fed completed pairs in pair order — in one
/// call or many — and accumulating the task list and its three counters.
struct Epilogue<'a> {
    cfg: &'a OverlapConfig,
    exec: &'a BatchedExecutor,
    tasks: Vec<OverlapTask>,
    counters: OverlapCounters,
}

impl Epilogue<'_> {
    /// Finish `pairs` — each one's seed list is complete — on the
    /// executor. The batches are fixed cuts of the sorted pairs and every
    /// pair is finished on its own, so concatenating batch results in
    /// batch order leaves the tasks sorted by pair however the pairs were
    /// split over calls.
    fn finish(&mut self, mut pairs: SortedPairs) {
        let parts = self
            .exec
            .map_batches_mut(&mut pairs, EPILOGUE_BATCH_PAIRS, |batch| finish_pairs(batch, self.cfg));
        for (batch_tasks, chain_dropped) in parts {
            self.counters.pairs_consolidated += batch_tasks.len() as u64;
            self.counters.seeds_kept += batch_tasks.iter().map(|t| t.seeds.len() as u64).sum::<u64>();
            self.counters.pairs_chain_dropped += chain_dropped;
            self.tasks.extend(batch_tasks);
        }
    }
}

/// One epilogue batch: decode each pair's held records — freeing them —
/// then canonicalize, chain and policy-filter its seed list. Returns the
/// surviving tasks in `batch` order and the number of pairs the chain
/// filter dropped.
fn finish_pairs(batch: &mut [(ReadPair, Vec<u8>)], cfg: &OverlapConfig) -> (Vec<OverlapTask>, u64) {
    let mut chain_dropped = 0u64;
    let mut tasks = Vec::with_capacity(batch.len());
    let mut seeds = Vec::new();
    for (pair, records) in batch {
        seeds.clear();
        decode_pair_records(&std::mem::take(records), |_, got| seeds.extend(got))
            .expect("held records were checked when they arrived");
        // A record decodes as at most two sorted runs: the stable sort
        // merges runs where an unstable one would sort them again. Equal
        // seeds are identical, so the order is the unstable sort's.
        seeds.sort();
        seeds.dedup();
        if let Some(chain_cfg) = &cfg.chain {
            if !chain_seeds(&mut seeds, chain_cfg) {
                chain_dropped += 1;
                continue;
            }
        }
        cfg.policy.apply(&mut seeds, cfg.max_seeds_per_pair);
        // A task outlives the stage; the list it was cut from is reused.
        tasks.push(OverlapTask { pair: *pair, seeds: seeds.as_slice().into() });
    }
    (tasks, chain_dropped)
}

/// What the destination half of an exchange counted.
pub(crate) struct Received {
    /// Seeds received.
    pub seeds: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// See [`OverlapCounters::peak_seeds_pending`].
    pub peak_pending: u64,
}

/// The destination half of the exchange: ship `pack`'s pair records
/// through [`RoundExchange`], fold each round's arrivals, per pair, with
/// the fold the sources used, and hand pairs to `finish` in pair order as
/// soon as they are complete. `complete_below(round)` is the sources'
/// promise, once `round` is consumed, that no record of a later round
/// names a pair with `a` below the value it returns (never falling).
/// Whatever is left after the last round is complete by definition.
///
/// # Panics
/// Panics, naming the rank, round, source and byte offset, if a received
/// buffer is not a sequence of pair records. The stage has no error
/// channel (a rank that stopped would deadlock the world's next
/// collective); on a hardened transport damaged bytes never get here —
/// the frame CRC rejects and retransmits them.
pub(crate) fn exchange_records(
    comm: &Comm,
    plan: RoundPlan,
    fold: SeedFold,
    pack: impl FnMut(u64) -> Vec<Vec<u8>>,
    mut complete_below: impl FnMut(u64) -> u32,
    finish: &mut dyn FnMut(SortedPairs),
) -> Received {
    let rank = comm.rank();
    let mut pairs = PairSeeds::new(fold);
    let (mut seeds, mut peak_pending) = (0u64, 0u64);
    let mut finished_below = 0u32;
    let rounds = RoundExchange::run(comm, plan, pack, |round, recv| {
        for (source, buf) in recv.into_iter().enumerate() {
            decode_pair_records(&buf, |pair, record| {
                seeds += record.len() as u64;
                pairs.extend(pair, record);
            })
            .unwrap_or_else(|e| panic!("rank {rank}: overlap exchange, round {round}, buffer from rank {source}: {e}"));
        }
        peak_pending = peak_pending.max(pairs.pending());
        let bound = complete_below(round);
        if bound > finished_below {
            finished_below = bound;
            finish(pairs.take_below(bound));
        }
    });
    finish(pairs.into_sorted());
    Received { seeds, rounds, peak_pending }
}

/// Algorithm 1 as a serial reference for tests and the single-node
/// baseline: all pairs of reads sharing a retained k-mer, with unfiltered
/// seed lists, computed from merged table partitions by the paper's
/// nested loop over each k-mer's occurrence list.
pub fn reference_pairs(tables: &[&KmerHashTable]) -> HashMap<ReadPair, Vec<SharedSeed>> {
    let mut out: HashMap<ReadPair, Vec<SharedSeed>> = HashMap::new();
    for table in tables {
        for (_kmer, entry) in table.iter() {
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
                    out.entry(pair).or_default().push(SharedSeed::new(a_pos, b_pos, oi.strand() != oj.strand()));
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
            let (bloom, retained) = bloom_stage_overlapping(comm, local, kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, kc, &exec, Some(retained));
            overlap_stage_with_lengths(comm, &table, &part, oc, None, &exec)
        });
        let mut all: Vec<OverlapTask> = results.into_iter().flat_map(|o| o.tasks).collect();
        all.sort_unstable_by_key(|t| t.pair);
        all
    }

    #[test]
    #[should_panic(expected = "longer-read task placement, which was removed")]
    fn read_lengths_are_refused_not_ignored() {
        let part = ReadPartition::from_counts(&[2]);
        CommWorld::run(1, |comm| {
            let (table, oc, exec) = (KmerHashTable::default(), OverlapConfig::default(), BatchedExecutor::sequential());
            overlap_stage_with_lengths(comm, &table, &part, &oc, Some(&[10, 20]), &exec)
        });
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
            let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
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
            let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
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

    /// The counter ledger: every enumerated instance is either shipped or
    /// folded at its source, what is shipped arrives, and what arrives is
    /// kept or dropped — under both folds, capped and not.
    #[test]
    fn counters_add_up() {
        let reads = overlapping_reads(10, 50, 10);
        let kc = kc_cfg(9, 24);
        let (part, chunks) = partition_reads(&reads, 3);
        for policy in [SeedPolicy::Single, SeedPolicy::MinDistance(9)] {
            for cap in [usize::MAX, 600] {
                let oc = OverlapConfig {
                    policy,
                    max_seeds_per_pair: 64,
                    max_exchange_bytes_per_round: cap,
                    ..Default::default()
                };
                let outs = CommWorld::run(3, |comm| {
                    let exec = BatchedExecutor::sequential();
                    let local = chunks[comm.rank()].reads();
                    let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
                    let mut table = bloom.table;
                    let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
                    overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec)
                });
                let at = format!("{policy:?} cap={cap}");
                let sum = |f: fn(&OverlapCounters) -> u64| -> u64 {
                    outs.iter().map(|o| f(&o.counters)).sum()
                };
                let emitted = sum(|c| c.pairs_emitted);
                assert_eq!(sum(|c| c.seeds_shipped), sum(|c| c.seeds_received), "{at}");
                assert_eq!(sum(|c| c.seeds_merged()), emitted, "{at}");
                for o in &outs {
                    let c = o.counters;
                    assert!(c.seeds_shipped <= c.pairs_emitted, "{at}");
                    let kept: usize = o.tasks.iter().map(|t| t.seeds.len()).sum();
                    assert_eq!(c.seeds_kept, kept as u64, "{at}");
                    assert!(c.seeds_kept <= c.seeds_received, "{at}");
                    match policy {
                        // One seed per record; the rest folded at the source.
                        SeedPolicy::Single => {
                            assert_eq!(c.seeds_shipped, c.candidate_pairs_emitted, "{at}")
                        }
                        SeedPolicy::MinDistance(_) => {
                            assert_eq!(c.seeds_folded_at_source(), 0, "{at}")
                        }
                    }
                }
                assert!(sum(|c| c.seeds_kept) > 0, "{at}");
                if policy == SeedPolicy::Single {
                    assert!(sum(|c| c.seeds_folded_at_source()) > 0, "{at}");
                    assert!(sum(|c| c.seeds_dropped()) > 0, "a pair found on two ranks: {at}");
                }
            }
        }
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
        assert!(t.seeds.iter().all(|s| s.reverse()), "strand flags wrong");
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
            assert!(t.seeds.windows(2).all(|w| w[0].a_pos() <= w[1].a_pos()));
        }
        // An unsatisfiable chain requirement drops every pair — counted,
        // and nothing reaches the task list.
        let strict = OverlapConfig { chain: Some(ChainConfig { min_chain_seeds: 1000 }), ..base };
        let (part, chunks) = partition_reads(&reads, 3);
        let outs = CommWorld::run(3, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
            overlap_stage_with_lengths(comm, &table, &part, &strict, None, &exec)
        });
        let dropped: u64 = outs.iter().map(|o| o.counters.pairs_chain_dropped).sum();
        assert!(dropped > 0);
        assert!(outs.iter().all(|o| o.tasks.is_empty()));
        assert!(outs.iter().all(|o| o.counters.seeds_kept == 0));
    }

    /// The source fold cut into one-row batches (`spgemm_block 1`) at any
    /// thread count produces the exact tasks, counters and wire volume of
    /// the default sequential run, per rank — under both folds
    /// (`MinDistance` ships every seed, `Single` the minimum per pair),
    /// with and without a round cap.
    #[test]
    fn threaded_enumeration_is_bit_identical_to_sequential() {
        let reads = overlapping_reads(14, 60, 12);
        let kc = kc_cfg(9, 24);
        let (part, chunks) = partition_reads(&reads, 3);
        let run = |threads: usize, oc: OverlapConfig| {
            CommWorld::run(3, |comm| {
                let exec = BatchedExecutor::new(threads);
                let local = chunks[comm.rank()].reads();
                let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
                let mut table = bloom.table;
                let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
                comm.take_stats();
                let out = overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec);
                let stats = comm.take_stats();
                (out.tasks, out.counters, stats.dest_bytes, stats.peak_round_bytes)
            })
        };
        for policy in [SeedPolicy::MinDistance(9), SeedPolicy::Single] {
            for cap in [usize::MAX, 600] {
                let oc_seq = OverlapConfig {
                    policy,
                    max_seeds_per_pair: 64,
                    max_exchange_bytes_per_round: cap,
                    ..Default::default()
                };
                let baseline = run(1, oc_seq);
                for (_, c, _, peak) in &baseline {
                    assert!(c.pairs_emitted > 7 * 8, "too few instances to be probative");
                    assert_eq!(c.rounds > 1, cap != usize::MAX);
                    assert!(cap == usize::MAX || *peak <= cap as u64, "peak {peak} over cap {cap}");
                }
                for threads in [1usize, 2, 4] {
                    let oc_par = OverlapConfig { spgemm_block: 1, ..oc_seq };
                    let got = run(threads, oc_par);
                    assert_eq!(got, baseline, "threads={threads} cap={cap} policy={policy:?}");
                }
            }
        }
    }

    /// The epilogue cut into executor batches produces, per rank, the
    /// sequential run's exact tasks and its *whole* counter set — with the
    /// chain filter on and off, capped and not.
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
                let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
                let mut table = bloom.table;
                let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
                let out = overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec);
                (out.tasks, out.counters)
            })
        };
        for chain in [None, Some(ChainConfig { min_chain_seeds: 2 })] {
            for cap in [usize::MAX, 600] {
                let oc = OverlapConfig {
                    policy: SeedPolicy::MinDistance(9),
                    max_seeds_per_pair: 64,
                    max_exchange_bytes_per_round: cap,
                    chain,
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
                    assert_eq!(run(threads, oc), baseline, "threads={threads} cap={cap} chain={chain:?}");
                }
            }
        }
    }

    /// Ship `seeds` for `pair` as one record into `pairs`; how much the
    /// pair's seed count grew.
    fn arrive(pairs: &mut PairSeeds, pair: ReadPair, seeds: &[SharedSeed]) -> usize {
        let mut buf = Vec::new();
        write_pair_record(&mut buf, pair, &mut seeds.to_vec());
        let mut grew = 0;
        decode_pair_records(&buf, |p, record| grew = pairs.extend(p, record)).unwrap();
        grew
    }

    /// Held records decoded, each pair's seeds sorted.
    fn decoded(pairs: SortedPairs) -> Vec<(ReadPair, Vec<SharedSeed>)> {
        pairs
            .into_iter()
            .map(|(pair, records)| {
                let mut seeds = Vec::new();
                decode_pair_records(&records, |_, got| seeds.extend(got)).unwrap();
                seeds.sort_unstable();
                (pair, seeds)
            })
            .collect()
    }

    /// `take_below` removes exactly the pairs under the bound, sorted, and
    /// `extend` reports what a pair grew by under either fold; the pending
    /// count follows both.
    #[test]
    fn pair_seeds_report_growth_and_release_pairs_below_a_bound() {
        let seed = |a_pos| SharedSeed::new(a_pos, 7, false);
        let mut all = PairSeeds::new(SeedFold::All);
        assert_eq!(arrive(&mut all, ReadPair::new(5, 9), &[seed(3), seed(1)]), 2);
        assert_eq!(arrive(&mut all, ReadPair::new(2, 4), &[seed(8)]), 1);
        assert_eq!(arrive(&mut all, ReadPair::new(2, 3), &[seed(6)]), 1);
        assert_eq!(arrive(&mut all, ReadPair::new(5, 9), &[seed(3)]), 1, "`All` keeps duplicates");
        assert_eq!(all.pending(), 5);
        assert!(all.take_below(2).is_empty());
        assert_eq!(
            decoded(all.take_below(5)),
            vec![(ReadPair::new(2, 3), vec![seed(6)]), (ReadPair::new(2, 4), vec![seed(8)])]
        );
        assert_eq!(all.pending(), 3);
        assert_eq!(decoded(all.into_sorted()), vec![(ReadPair::new(5, 9), vec![seed(1), seed(3), seed(3)])]);
        let mut least = PairSeeds::new(SeedFold::Min);
        assert_eq!(arrive(&mut least, ReadPair::new(0, 1), &[seed(4), seed(2)]), 1);
        assert_eq!(arrive(&mut least, ReadPair::new(0, 1), &[seed(1), seed(9)]), 0, "replaced, not grown");
        assert_eq!(least.pending(), 1);
        assert_eq!(decoded(least.take_below(u32::MAX)), vec![(ReadPair::new(0, 1), vec![seed(1)])]);
        assert_eq!(least.pending(), 0);
    }

    /// A malformed buffer stops the stage with the rank, round and source
    /// it arrived from and the record the decoder refused.
    #[test]
    #[should_panic(expected = "rank 0: overlap exchange, round 0, buffer from rank 0: pair record at byte 20: header cut short")]
    fn a_malformed_record_is_named_where_it_arrived() {
        let mut buf = Vec::new();
        write_pair_record(&mut buf, ReadPair::new(0, 1), &mut [SharedSeed::new(1, 2, false)]);
        buf.extend_from_slice(&[0; 5]);
        CommWorld::run(1, |comm| {
            let plan = RoundPlan::from_rounds(1);
            exchange_records(comm, plan, SeedFold::All, |_| vec![buf.clone()], |_| 0, &mut |_| {});
        });
    }

    /// What one configuration of the streamed-engine sweep left on a rank.
    struct Streamed {
        out: OverlapOutput,
        dest_bytes: Vec<u64>,
        peak_round_bytes: u64,
        /// `ByteRounds::plan` over the planned record lengths of the fully
        /// packed product of this rank's table under the run's fold and
        /// cap: its rounds, and the most written bytes one of them ships.
        plan_rounds: u64,
        plan_peak: u64,
        /// Per-destination written bytes of that product, and the planned
        /// bytes of its heaviest row.
        product_bytes: Vec<u64>,
        max_row_planned: u64,
    }

    /// Tentpole invariant, end to end: P {1, 2, 4} x threads {1, 2, 4} x
    /// cap {unbounded, 64 KiB, 4 KiB, 8 B} x fold {`All`, `Min`} x chain
    /// {off, on}; 8 B is below one record, so `Min` (`Single`, chain off)
    /// slices one 20-byte record a round from the product its count pass
    /// holds, and `All` expands one row's records a round at most. The
    /// streamed SpGEMM engine produces the one-round
    /// run's tasks and counters on every rank; executes exactly the rounds
    /// that `ByteRounds::plan` cuts from the planned record lengths of the
    /// fully packed product (`pack_row_block` over all rows, the oracle),
    /// its largest round being the most *written* bytes one of those rounds
    /// holds (coded records ship shorter than planned), and ships each
    /// destination that product's bytes; and holds what the watermark rule
    /// says it may: one round plus one row of seeds on one rank, under half
    /// of what it receives on several once the cap forces eight rounds.
    #[test]
    fn streamed_spgemm_equals_its_one_round_run_and_bounds_what_is_pending() {
        use crate::spgemm::{coded_rounds, pack_row_block};
        use dibella_comm::ByteRounds;
        use dibella_kcount::ReadKmerCsr;

        let reads = overlapping_reads(200, 60, 4);
        let kc = kc_cfg(9, 32);
        let mut configs = Vec::new();
        for policy in [SeedPolicy::MinDistance(9), SeedPolicy::Single] {
            for chain in [None, Some(ChainConfig { min_chain_seeds: 2 })] {
                // The reference comes first: one thread, one round.
                for cap in [usize::MAX, 64 << 10, 4 << 10, 8] {
                    for threads in [1usize, 2, 4] {
                        let oc = OverlapConfig {
                            policy,
                            max_seeds_per_pair: 64,
                            chain,
                            max_exchange_bytes_per_round: cap,
                            // Thread count and block size are both free.
                            spgemm_block: [64, 5, 1][threads / 2],
                        };
                        configs.push((threads, oc));
                    }
                }
            }
        }
        for p in [1usize, 2, 4] {
            let (part, chunks) = partition_reads(&reads, p);
            // One world per P: the table is built once, every configuration
            // runs on it in the same order on every rank.
            let per_rank = CommWorld::run(p, |comm| {
                let local = chunks[comm.rank()].reads();
                let seq = BatchedExecutor::sequential();
                let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &seq);
                let mut table = bloom.table;
                let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &seq, Some(retained));
                let csr = ReadKmerCsr::from_table(&table);
                let pack = |rows, fold| pack_row_block(&csr, rows, &part, p, fold);
                let mut runs = Vec::new();
                for (threads, oc) in &configs {
                    let exec = BatchedExecutor::new(*threads);
                    comm.take_stats();
                    let out = overlap_stage_with_lengths(comm, &table, &part, oc, None, &exec);
                    let stats = comm.take_stats();
                    let fold = oc.policy.source_keep(oc.chain.is_some());
                    let product = pack(0..csr.n_rows(), fold);
                    let plan = ByteRounds::plan(&product.lens, oc.max_exchange_bytes_per_round);
                    let round_bytes = |bufs: Vec<Vec<u8>>| bufs.iter().map(|b| b.len() as u64).sum::<u64>();
                    runs.push(Streamed {
                        out,
                        dest_bytes: stats.dest_bytes,
                        peak_round_bytes: stats.peak_round_bytes,
                        plan_rounds: plan.len() as u64,
                        plan_peak: coded_rounds(&plan, &product).into_iter().map(round_bytes).max().unwrap_or(0),
                        product_bytes: product.bufs.iter().map(|b| b.len() as u64).collect(),
                        max_row_planned: (0..csr.n_rows())
                            .map(|r| pack(r..r + 1, fold).lens.iter().flatten().sum::<usize>() as u64)
                            .max()
                            .unwrap_or(0),
                    });
                }
                runs
            });
            for (ci, (threads, oc)) in configs.iter().enumerate() {
                // Each (policy, chain) group of 12 opens with its reference.
                let reference = ci - ci % 12;
                let cap = oc.max_exchange_bytes_per_round;
                let world_rounds = per_rank.iter().map(|runs| runs[ci].plan_rounds).max().unwrap().max(1);
                for (rank, runs) in per_rank.iter().enumerate() {
                    let (got, want) = (&runs[ci], &runs[reference]);
                    let at = format!(
                        "P={p} rank={rank} threads={threads} block={} cap={cap} {:?} chain={:?}",
                        oc.spgemm_block,
                        oc.policy,
                        oc.chain
                    );
                    assert_eq!(got.out.tasks, want.out.tasks, "{at}");
                    assert!(!got.out.tasks.is_empty(), "{at}");
                    let c = got.out.counters;
                    // Rounds and the pending peak are what the cap moves.
                    let logical = OverlapCounters {
                        rounds: want.out.counters.rounds,
                        peak_seeds_pending: want.out.counters.peak_seeds_pending,
                        ..c
                    };
                    assert_eq!(logical, want.out.counters, "{at}");
                    assert_eq!(c.pairs_emitted, c.seeds_shipped + c.seeds_folded_at_source(), "{at}");
                    assert_eq!(c.rounds, world_rounds, "{at}");
                    assert_eq!(got.peak_round_bytes, got.plan_peak, "{at}");
                    assert_eq!(got.dest_bytes, got.product_bytes, "{at}");
                    assert!(c.peak_seeds_pending <= c.seeds_received, "{at}");
                    if cap == usize::MAX {
                        assert_eq!(c.rounds, 1, "{at}");
                        continue;
                    }
                    if p == 1 {
                        // Rounds are cut in planned bytes, at least 8 a seed
                        // however a list codes: one round (the cap, or one
                        // row's records if they are larger) plus the
                        // straddling row.
                        let bound = (cap as u64).max(got.max_row_planned) + got.max_row_planned;
                        assert!(
                            8 * c.peak_seeds_pending <= bound,
                            "{} seeds pending over a {bound}-byte planned round and row: {at}",
                            c.peak_seeds_pending
                        );
                    } else if c.rounds >= 8 {
                        assert!(
                            2 * c.peak_seeds_pending < c.seeds_received,
                            "{} of {} seeds pending in {} rounds: {at}",
                            c.peak_seeds_pending,
                            c.seeds_received,
                            c.rounds
                        );
                    }
                }
                if cap <= 4 << 10 {
                    assert!(world_rounds >= 8, "P={p} cap={cap}: {world_rounds} rounds");
                }
            }
        }
    }
}
