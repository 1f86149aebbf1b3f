//! Stage 4 — read redistribution and pairwise alignment (paper §9).
//!
//! "Because the pairwise alignments require the full reads, any non-local
//! reads are requested and received by the respective processor." Each
//! rank collects the remote read IDs its tasks reference, requests them
//! from their owners, receives the sequences as variable-length records,
//! then runs the x-drop kernel on every (pair, seed) task locally. Both
//! the request and the reply exchange stream through the
//! [`dibella_comm::RoundExchange`] engine in byte-bounded
//! rounds ([`dibella_comm::ByteRounds`] keeps records whole), so the
//! read redistribution's *wire traffic* is bounded per round by
//! [`PipelineConfig::max_exchange_bytes_per_round`] (the serving rank
//! still stages its full reply volume locally before shipping, exactly as
//! the monolithic path always did — replicated reads are resident on the
//! requester afterwards either way); unbounded, each exchange is the
//! single monolithic `Alltoallv` of the paper.
//!
//! # Intra-rank parallelism
//!
//! The local alignment loop is the pipeline's dominant compute cost
//! (paper Figure 7 and the §9 breakdowns), so [`align_tasks`] runs on the
//! pipeline's shared [`BatchedExecutor`]: tasks are sharded into
//! fixed-size batches of [`ALIGN_BATCH_TASKS`], each batch is aligned
//! independently, and the per-batch `(records, counters)` results are
//! merged back **in batch order**. Batch boundaries depend only on the
//! task list — never on the thread count — so output records and
//! [`AlignCounters`] are bit-identical for every
//! [`PipelineConfig::threads`] value, including the sequential `1`.

use crate::config::PipelineConfig;
use crate::record::AlignmentRecord;
use dibella_align::{AlignWorkspace, SeedExtender, SeedHit};
use dibella_comm::{decode_iter, encode_slice, BatchedExecutor, ByteRounds, Comm, RoundExchange};
use dibella_io::{ReadId, ReadStore};
use dibella_kmer::base::reverse_complement_ascii_into;
use dibella_overlap::OverlapTask;
use std::cell::RefCell;
use std::collections::HashSet;

thread_local! {
    /// One [`AlignWorkspace`] per OS thread, shared by every batch that
    /// thread processes (and, on the sequential path, by every
    /// [`align_tasks`] call in the rank's lifetime). The kernels fully
    /// re-initialize what they read, so dirty reuse is safe and the
    /// steady-state alignment loop performs zero heap allocations per
    /// task — see `docs/ARCHITECTURE.md` § "Hot path & memory discipline".
    static WORKSPACE: RefCell<AlignWorkspace> = RefCell::new(AlignWorkspace::new());
}

/// Tasks per batch in the parallel alignment executor. Fixed (not derived
/// from the thread count) so the sharding — and therefore the merged
/// output order — is identical no matter how many threads run it. Small
/// enough to load-balance the heavy-tailed per-task DP cost of Figure 8,
/// large enough to amortize scheduling.
pub const ALIGN_BATCH_TASKS: usize = 32;

/// Work counters of the alignment stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AlignCounters {
    /// Alignment tasks (pairs) processed on this rank.
    pub tasks: u64,
    /// Pairwise alignments computed (one per explored seed).
    pub alignments: u64,
    /// Total DP cells updated by the x-drop kernel.
    pub dp_cells: u64,
    /// Remote reads this rank requested.
    pub reads_requested: u64,
    /// Read-sequence bytes this rank served to others.
    pub read_bytes_served: u64,
    /// Read-sequence bytes this rank received.
    pub read_bytes_fetched: u64,
    /// Alignments meeting the output score threshold.
    pub accepted: u64,
    /// Exchange rounds of the read redistribution (request rounds plus
    /// reply rounds; equals the stage's `alltoallv` call count — 2 unless
    /// a round cap forces streaming).
    pub rounds: u64,
}

impl AlignCounters {
    /// Add another counter set into this one (used to fold per-batch
    /// counters from the parallel executor; field-wise sum, so the result
    /// is independent of fold order).
    pub fn merge(&mut self, other: &AlignCounters) {
        // Exhaustive destructuring (no `..`): adding a counter field
        // without merging it is a compile error, not a silent zero.
        let AlignCounters {
            tasks,
            alignments,
            dp_cells,
            reads_requested,
            read_bytes_served,
            read_bytes_fetched,
            accepted,
            rounds,
        } = *other;
        self.tasks += tasks;
        self.alignments += alignments;
        self.dp_cells += dp_cells;
        self.reads_requested += reads_requested;
        self.read_bytes_served += read_bytes_served;
        self.read_bytes_fetched += read_bytes_fetched;
        self.accepted += accepted;
        self.rounds += rounds;
    }
}

/// Fetch every remote read referenced by `tasks` into `store`: one
/// streaming exchange of ID requests, then one of variable-length
/// sequence replies, each in rounds of at most `max_round_bytes` send
/// bytes per rank (plus at most one record of slack — records never split
/// across rounds). The cap bounds each round's in-flight wire buffers,
/// not the serving rank's staged reply volume (built in full before the
/// reply rounds, as the monolithic path always did). `usize::MAX`
/// reproduces the paper's two monolithic exchanges; the installed reads
/// are identical at every cap.
pub fn fetch_remote_reads(
    comm: &Comm,
    store: &mut ReadStore,
    tasks: &[OverlapTask],
    max_round_bytes: usize,
    counters: &mut AlignCounters,
) {
    let p = comm.size();

    // ---- request IDs from their owners -----------------------------------
    let mut needed: HashSet<ReadId> = HashSet::new();
    for t in tasks {
        for id in [t.pair.a, t.pair.b] {
            if !store.is_local(id) {
                needed.insert(id);
            }
        }
    }
    counters.reads_requested = needed.len() as u64;
    let mut req_bufs: Vec<Vec<u32>> = vec![Vec::new(); p];
    for id in needed {
        req_bufs[store.owner_of(id)].push(id);
    }
    // Sort requests for determinism.
    for b in req_bufs.iter_mut() {
        b.sort_unstable();
    }
    let req_bytes: Vec<Vec<u8>> = req_bufs.iter().map(|b| encode_slice(b)).collect();
    let req_counts: Vec<usize> = req_bufs.iter().map(Vec::len).collect();
    let req_split = ByteRounds::plan_uniform(&req_counts, 4, max_round_bytes);

    // Serving side: replies accumulate per requester in request-arrival
    // order — the rounds slice each sorted request list in order, so the
    // concatenated reply stream is byte-identical to the monolithic one.
    // Reply record: u32 id, u32 len, then `len` sequence bytes.
    let mut reply_bufs: Vec<Vec<u8>> = vec![Vec::new(); p];
    let mut reply_lens: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut rounds = RoundExchange::run(
        comm,
        req_split.round_plan(),
        |round| req_split.pack(round, &req_bytes),
        |_round, recv| {
            for (src, buf) in recv.into_iter().enumerate() {
                for id in decode_iter::<u32>(&buf) {
                    let seq = store
                        .local_seq(id)
                        .unwrap_or_else(|| panic!("rank {} asked rank {} for read {id} it does not own",
                            src, comm.rank()));
                    counters.read_bytes_served += seq.len() as u64;
                    let out = &mut reply_bufs[src];
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&(seq.len() as u32).to_le_bytes());
                    out.extend_from_slice(seq);
                    reply_lens[src].push(8 + seq.len());
                }
            }
        },
    );

    // ---- serve sequences, install replicated reads -------------------------
    // All sequences land in the store's single arena; reserving each
    // round's reply volume as it arrives (a slight over-estimate: it
    // includes the 8-byte record headers) keeps the install loop
    // reallocation-free while never holding more than ~one round cap of
    // undelivered replies.
    let reply_split = ByteRounds::plan(&reply_lens, max_round_bytes);
    rounds += RoundExchange::run(
        comm,
        reply_split.round_plan(),
        |round| reply_split.pack(round, &reply_bufs),
        |_round, recv| {
            store.reserve_replicated(recv.iter().map(Vec::len).sum());
            for buf in recv {
                let mut at = 0usize;
                while at < buf.len() {
                    let id = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
                    let len = u32::from_le_bytes(buf[at + 4..at + 8].try_into().unwrap()) as usize;
                    at += 8;
                    counters.read_bytes_fetched += len as u64;
                    store.insert_replicated(id, &buf[at..at + len]);
                    at += len;
                }
            }
        },
    );
    counters.rounds = rounds;
}

/// Align every (pair, seed) task against the now-complete local read set.
///
/// Seed coordinates are stored on each read's forward strand; when the
/// pair's relative orientation is reversed, read `b` is reverse-
/// complemented and the seed position mapped to `len(b) − k − pos`
/// (coordinates in the output stay in the oriented frame, flagged by
/// [`AlignmentRecord::reverse`]).
pub fn align_tasks(
    store: &ReadStore,
    tasks: &[OverlapTask],
    cfg: &PipelineConfig,
    counters: &mut AlignCounters,
    exec: &BatchedExecutor,
) -> Vec<AlignmentRecord> {
    if exec.threads() <= 1 {
        // Sequential fast path: one pass over the whole task list (batch
        // boundaries cannot affect output, so sharding would only cost
        // allocations on the pipeline's default hot path).
        let (out, pass_counters) = align_batch(store, tasks, cfg);
        counters.merge(&pass_counters);
        return out;
    }
    let batches =
        exec.map_batches(tasks, ALIGN_BATCH_TASKS, |batch| align_batch(store, batch, cfg));
    // Merge in batch order: records concatenate to exactly the sequential
    // output; counters are field-wise sums.
    let mut out = Vec::new();
    for (records, batch_counters) in batches {
        out.extend(records);
        counters.merge(&batch_counters);
    }
    out
}

/// Align one batch of tasks sequentially — the per-worker unit of
/// [`align_tasks`]. Returns the batch's records (task order) and its
/// isolated counters.
///
/// All kernel scratch comes from this thread's [`WORKSPACE`], so the
/// per-task steady state allocates only when a record is accepted into
/// the output vector.
fn align_batch(
    store: &ReadStore,
    tasks: &[OverlapTask],
    cfg: &PipelineConfig,
) -> (Vec<AlignmentRecord>, AlignCounters) {
    let mut counters = AlignCounters::default();
    let mut out = Vec::new();
    let k = cfg.k;
    let mode = cfg.simd.unwrap_or_default();
    WORKSPACE.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        // Detach the reverse-complement buffer so the kernels can borrow
        // `ws` mutably while an oriented `b` borrows the buffer (a move,
        // not an allocation); reattached after the batch.
        let mut rc = std::mem::take(&mut ws.rc);
        for task in tasks {
            counters.tasks += 1;
            let a_seq = store
                .seq(task.pair.a)
                .unwrap_or_else(|| panic!("read {} unavailable for alignment", task.pair.a));
            let b_seq = store
                .seq(task.pair.b)
                .unwrap_or_else(|| panic!("read {} unavailable for alignment", task.pair.b));
            // Orientation of b, computed at most once per task, into the
            // reusable buffer.
            if task.seeds.iter().any(|seed| seed.reverse) {
                reverse_complement_ascii_into(b_seq, &mut rc);
            }
            // The extender stages `a` once per task and `b` once per run of
            // equally oriented seeds (one run, for almost every task).
            let mut pair = SeedExtender::new(a_seq, cfg.scoring, cfg.xdrop, ws, mode);
            let mut staged: Option<bool> = None;
            for seed in &task.seeds {
                if staged != Some(seed.reverse) {
                    pair.set_b(if seed.reverse { &rc } else { b_seq });
                    staged = Some(seed.reverse);
                }
                let b_pos = if seed.reverse {
                    b_seq.len() - k - seed.b_pos as usize
                } else {
                    seed.b_pos as usize
                };
                let al = pair.extend(SeedHit { a_pos: seed.a_pos as usize, b_pos, k });
                counters.alignments += 1;
                counters.dp_cells += al.cells;
                if al.score >= cfg.min_align_score {
                    counters.accepted += 1;
                    out.push(AlignmentRecord {
                        pair: task.pair,
                        reverse: seed.reverse,
                        score: al.score,
                        a_start: al.a_start as u32,
                        a_end: al.a_end as u32,
                        b_start: al.b_start as u32,
                        b_end: al.b_end as u32,
                        cells: al.cells,
                    });
                }
            }
        }
        ws.rc = rc;
    });
    (out, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_comm::CommWorld;
    use dibella_io::{partition_reads, Read, ReadPartition, ReadSet};
    use dibella_overlap::{ReadPair, SharedSeed};

    fn store_world(
        reads: &ReadSet,
        p: usize,
    ) -> (ReadPartition, Vec<ReadSet>) {
        partition_reads(reads, p)
    }

    fn mk_reads() -> ReadSet {
        let mut state = 0xABCDu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..6u32)
            .map(|i| {
                let seq: Vec<u8> = (0..60).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
                Read::new(i, format!("r{i}"), seq)
            })
            .collect()
    }

    #[test]
    fn fetch_installs_exactly_the_needed_remotes() {
        let reads = mk_reads();
        let (part, chunks) = store_world(&reads, 3);
        let all: Vec<Read> = reads.reads().to_vec();
        let outs = CommWorld::run(3, |comm| {
            let mut store = ReadStore::new(
                comm.rank(),
                part.clone(),
                chunks[comm.rank()].clone().into_reads(),
            );
            // Every rank needs reads 0 and 5 (owners: rank 0 and rank 2).
            let tasks = vec![OverlapTask {
                pair: ReadPair::new(0, 5),
                seeds: vec![SharedSeed { a_pos: 0, b_pos: 0, reverse: false }],
            }];
            let mut c = AlignCounters::default();
            fetch_remote_reads(comm, &mut store, &tasks, usize::MAX, &mut c);
            (
                store.seq(0).map(|s| s.to_vec()),
                store.seq(5).map(|s| s.to_vec()),
                c,
            )
        });
        for (rank, (s0, s5, c)) in outs.iter().enumerate() {
            assert_eq!(s0.as_deref(), Some(all[0].seq.as_slice()), "rank {rank}");
            assert_eq!(s5.as_deref(), Some(all[5].seq.as_slice()), "rank {rank}");
            // Owners of both reads requested fewer.
            assert!(c.reads_requested <= 2);
        }
    }

    #[test]
    fn bounded_fetch_rounds_install_identical_reads() {
        // Every rank needs every remote read; a 100-byte round cap forces
        // several reply rounds (each reply record is 8 + 60 bytes), which
        // must install exactly the same sequences as the unbounded path
        // and keep the per-round send volume under cap + one record.
        let reads = mk_reads();
        let (part, chunks) = store_world(&reads, 3);
        let all: Vec<Read> = reads.reads().to_vec();
        let tasks: Vec<OverlapTask> = (0..5u32)
            .map(|a| OverlapTask {
                pair: ReadPair::new(a, a + 1),
                seeds: vec![SharedSeed { a_pos: 0, b_pos: 0, reverse: false }],
            })
            .collect();
        for cap in [usize::MAX, 100] {
            let outs = CommWorld::run(3, |comm| {
                let mut store = ReadStore::new(
                    comm.rank(),
                    part.clone(),
                    chunks[comm.rank()].clone().into_reads(),
                );
                let mut c = AlignCounters::default();
                fetch_remote_reads(comm, &mut store, &tasks, cap, &mut c);
                let seqs: Vec<Vec<u8>> =
                    (0..6u32).map(|id| store.seq(id).unwrap().to_vec()).collect();
                (seqs, c, comm.take_stats())
            });
            for (rank, (seqs, c, stats)) in outs.iter().enumerate() {
                for (id, seq) in seqs.iter().enumerate() {
                    assert_eq!(seq, &all[id].seq, "cap {cap} rank {rank} read {id}");
                }
                assert_eq!(stats.alltoallv_calls, c.rounds, "calls must equal rounds");
                if cap == usize::MAX {
                    assert_eq!(c.rounds, 2, "unbounded fetch is two exchanges");
                } else {
                    assert!(c.rounds > 2, "tiny cap must force streaming rounds");
                    assert!(
                        stats.peak_round_bytes <= (cap + 8 + 60) as u64,
                        "peak {} exceeds cap + record",
                        stats.peak_round_bytes
                    );
                }
            }
        }
    }

    #[test]
    fn align_tasks_on_engineered_overlap() {
        // Two reads overlapping over their halves.
        let mut state = 0x77u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let genome: Vec<u8> = (0..150).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
        let a = genome[0..100].to_vec();
        let b = genome[50..150].to_vec();
        let reads: ReadSet = vec![Read::new(0, "a", a.clone()), Read::new(1, "b", b.clone())]
            .into_iter()
            .collect();
        let (part, chunks) = partition_reads(&reads, 1);
        let store = ReadStore::new(0, part, chunks[0].clone().into_reads());
        // Shared seed: a[60..77] == b[10..27].
        let cfg = PipelineConfig { k: 17, xdrop: 30, ..Default::default() };
        let tasks = vec![OverlapTask {
            pair: ReadPair::new(0, 1),
            seeds: vec![SharedSeed { a_pos: 60, b_pos: 10, reverse: false }],
        }];
        let mut c = AlignCounters::default();
        let recs = align_tasks(&store, &tasks, &cfg, &mut c, &BatchedExecutor::sequential());
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        // Perfect 50-base overlap: score = 50, spanning a[50..100], b[0..50].
        assert_eq!(r.score, 50);
        assert_eq!((r.a_start, r.a_end), (50, 100));
        assert_eq!((r.b_start, r.b_end), (0, 50));
        assert_eq!(c.alignments, 1);
        assert!(c.dp_cells > 0);
    }

    #[test]
    fn reverse_oriented_task_aligns() {
        let mut state = 0x99u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let template: Vec<u8> = (0..80).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
        let a = template.clone();
        let b = dibella_kmer::base::reverse_complement_ascii(&template);
        // Canonical k-mer of a[20..37]: find its position in b's forward
        // coords: the window maps to b[80-37 .. 80-20] = b[43..60].
        let reads: ReadSet = vec![Read::new(0, "a", a.clone()), Read::new(1, "b", b.clone())]
            .into_iter()
            .collect();
        let (part, chunks) = partition_reads(&reads, 1);
        let store = ReadStore::new(0, part, chunks[0].clone().into_reads());
        let cfg = PipelineConfig { k: 17, xdrop: 30, ..Default::default() };
        let tasks = vec![OverlapTask {
            pair: ReadPair::new(0, 1),
            seeds: vec![SharedSeed { a_pos: 20, b_pos: 43, reverse: true }],
        }];
        let mut c = AlignCounters::default();
        let recs = align_tasks(&store, &tasks, &cfg, &mut c, &BatchedExecutor::sequential());
        assert_eq!(recs.len(), 1);
        // Full-length reverse overlap: 80 matches.
        assert_eq!(recs[0].score, 80);
        assert!(recs[0].reverse);
    }

    #[test]
    fn parallel_executor_is_bit_identical_to_sequential() {
        // Enough overlapping reads to produce several hundred tasks —
        // many multiples of ALIGN_BATCH_TASKS, so every thread count
        // below exercises multi-batch scheduling.
        let mut state = 0xD15EA5Eu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let genome: Vec<u8> = (0..3_000).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
        let n = 40u32;
        let reads: ReadSet = (0..n)
            .map(|i| Read::new(i, format!("r{i}"), genome[i as usize * 60..][..400].to_vec()))
            .collect();
        let (part, chunks) = partition_reads(&reads, 1);
        let store = ReadStore::new(0, part, chunks[0].clone().into_reads());
        // All-pairs tasks with a few seeds each (coordinates need not be
        // true shared k-mers — the kernel aligns whatever it is given).
        let mut tasks = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                tasks.push(OverlapTask {
                    pair: ReadPair::new(a, b),
                    seeds: vec![
                        SharedSeed { a_pos: 5, b_pos: 9, reverse: false },
                        SharedSeed { a_pos: 120, b_pos: 60, reverse: (a + b) % 2 == 0 },
                    ],
                });
            }
        }
        assert!(tasks.len() > 10 * ALIGN_BATCH_TASKS);

        let cfg = PipelineConfig { k: 17, ..Default::default() };
        let mut seq_counters = AlignCounters::default();
        let seq = align_tasks(&store, &tasks, &cfg, &mut seq_counters, &BatchedExecutor::sequential());
        assert_eq!(seq_counters.tasks, tasks.len() as u64);

        for threads in [2usize, 4, 0] {
            let exec = BatchedExecutor::new(threads);
            let mut counters = AlignCounters::default();
            let par = align_tasks(&store, &tasks, &cfg, &mut counters, &exec);
            assert_eq!(par, seq, "records diverge at threads = {threads}");
            assert_eq!(counters, seq_counters, "counters diverge at threads = {threads}");
        }
    }

    #[test]
    fn score_threshold_filters_output_not_cost() {
        let reads = mk_reads();
        let (part, chunks) = partition_reads(&reads, 1);
        let store = ReadStore::new(0, part, chunks[0].clone().into_reads());
        // Random unrelated reads: any seed yields a tiny score.
        let cfg = PipelineConfig { k: 8, min_align_score: 1_000, ..Default::default() };
        let tasks = vec![OverlapTask {
            pair: ReadPair::new(0, 1),
            seeds: vec![SharedSeed { a_pos: 0, b_pos: 0, reverse: false }],
        }];
        let mut c = AlignCounters::default();
        let recs = align_tasks(&store, &tasks, &cfg, &mut c, &BatchedExecutor::sequential());
        assert!(recs.is_empty());
        assert_eq!(c.alignments, 1);
        assert_eq!(c.accepted, 0);
        assert!(c.dp_cells > 0, "alignment must still be computed");
    }
}
