//! The determinism invariant, stated once: how the work is spread never
//! changes what the pipeline computes. The axes are the fixture (the
//! error-free genome slice and the noisy `toy_dataset` reads), ranks,
//! threads, the transport (shared memory, and shared memory under the
//! `faulty:` chaos wrapper), the round caps in bytes and in
//! k-mers, the seed front end and seed policy, the alignment kernel, the
//! overlap stage's row block, and the input path (in memory or FASTQ).
//!
//! A test is one or more [`Row`]s of the matrix: a list of values per
//! axis, expanded to every combination by [`check`]. The rows run from
//! `tests/invariant.rs` and from the suites named for the axis they sweep
//! (`stage_threads`, `round_exchange`, `chaos`, `overlap_engines`,
//! `seed_modes`, `end_to_end`). Each cell is one
//! pipeline run, checked two ways:
//!
//! * [`assert_equivalent`] holds it to its reference run, one step down
//!   a chain: the same cell plain (one thread, shared memory, the default
//!   kernel and row block, in-memory input), then with unbounded rounds,
//!   then on one rank. Alignments always match; per-rank work counters
//!   and logical traffic match exactly at an equal cap and up to the
//!   round split across caps.
//! * [`assert_accounting`] checks the cell on its own: alltoallv calls
//!   equal rounds in every stage, no round exceeds the cap by more than
//!   one record, the overlap ledger balances, and the fault counters are
//!   nonzero exactly when the transport injects faults.
//!
//! A run is computed once per test process, however many cells lead to
//! it.

use super::{assert_overlap_ledger, faults_survived, genome_slice, toy_cfg, toy_dataset};
use dibella::align::SimdMode;
use dibella::comm::{records_per_round, CommStats};
use dibella::kcount::KcountConfig;
use dibella::kmer::supermer::{record_bytes, HEADER_BYTES};
use dibella::overlap::OverlapConfig;
use dibella::pipeline::RankReport;
use dibella::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fixture {
    /// 24 error-free reads of 200 bases, neighbours 60 bases apart.
    Slice,
    /// `toy_dataset`'s 12 %-error reads, 10× over a 15 kb genome.
    Noisy,
}

impl Fixture {
    fn reads(self) -> &'static ReadSet {
        static SLICE: OnceLock<ReadSet> = OnceLock::new();
        static NOISY: OnceLock<ReadSet> = OnceLock::new();
        match self {
            Fixture::Slice => SLICE.get_or_init(|| genome_slice(24, 200, 60, 0x57A6E5)),
            Fixture::Noisy => NOISY.get_or_init(|| toy_dataset(3).reads),
        }
    }

    fn config(self) -> PipelineConfig {
        match self {
            Fixture::Slice => PipelineConfig {
                k: 11,
                max_seeds_per_pair: 32,
                max_multiplicity: Some(24),
                minimizer_w: 5,
                ..Default::default()
            },
            Fixture::Noisy => toy_cfg(),
        }
    }
}

/// What a `faulty:` transport injects into the frames it carries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    Corrupt,
    Drop,
    /// Corruption, drops, stale duplicates and reordering together.
    Mixed,
    /// A faulty transport at zero rates: a transparent wrapper.
    Quiet,
}

/// The transport axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Net {
    Shared,
    /// The fault-injecting wrapper around `shared`.
    Faulty(Fault),
}

/// The fault seed. Any seed passes (0–15 are checked by hand): a faulty
/// cell either ships enough frames that some fault fires, or stalls every
/// exchange.
const FAULT_SEED: u64 = 0;

/// Cells a test runs at once: runs are small, and fault cells mostly
/// sleep.
const WORKERS: usize = 8;
/// Far over any one run's time: the slowest takes under a second.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

pub const UNBOUNDED: usize = usize::MAX;
pub const KIB4: usize = 4 << 10;
/// Small enough that every exchanging stage runs at least three rounds.
pub const TINY: usize = 256;
/// Below one owner-run record of one k-mer (13 bytes at k = 11): every
/// Bloom round ships a single k-mer window.
pub const SUB_RECORD: usize = 8;
/// The streamed fault cells' cap: enough rounds that some fault fires at
/// any seed.
pub const STREAM: usize = 1 << 10;

pub const MIN_DISTANCE: SeedPolicy = SeedPolicy::MinDistance(11);
pub const BOTH_MODES: &[SeedMode] = &[SeedMode::Reliable, SeedMode::Minimizer];
pub const BOTH_POLICIES: &[SeedPolicy] = &[MIN_DISTANCE, SeedPolicy::Single];
pub const BLOCK: usize = OverlapConfig::DEFAULT_BLOCK_ROWS;

/// One run: a fixture and one value per axis.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cell {
    fixture: Fixture,
    mode: SeedMode,
    policy: SeedPolicy,
    ranks: usize,
    threads: usize,
    net: Net,
    /// Bytes per rank and exchange round.
    cap: usize,
    kmers_per_round: usize,
    simd: SimdMode,
    block: usize,
    fastq: bool,
}

impl Cell {
    fn transport(&self) -> TransportKind {
        let spec = match self.net {
            Net::Shared => "shared".to_string(),
            Net::Faulty(fault) => {
                // Rates fall with P² so a round of P² frames clears in
                // about 1.4 attempts at every world size.
                let rate = |base: f64| base / (self.ranks * self.ranks) as f64;
                let mut spec = match fault {
                    Fault::Corrupt => format!("corrupt={:.4}", rate(0.3)),
                    Fault::Drop => format!("drop={:.4}", rate(0.3)),
                    Fault::Mixed => format!(
                        "corrupt={:.4},drop={:.4},dup={:.4},reorder={:.4}",
                        rate(0.15),
                        rate(0.08),
                        rate(0.08),
                        rate(0.05)
                    ),
                    Fault::Quiet => "corrupt=0,drop=0".to_string(),
                };
                if fault != Fault::Quiet && self.cap == UNBOUNDED {
                    // A handful of unbounded exchanges may draw no fault:
                    // a stall that outlasts the wait timeout on every
                    // exchange makes the injection certain.
                    spec.push_str(",stall=1,stall_ms=8,timeout_ms=5");
                }
                format!("faulty:shared:{FAULT_SEED}:{spec}")
            }
        };
        spec.parse().expect("transport spec")
    }

    fn config(&self) -> PipelineConfig {
        PipelineConfig {
            seed_mode: self.mode,
            seed_policy: self.policy,
            threads: Some(self.threads),
            transport: self.transport(),
            max_exchange_bytes_per_round: self.cap,
            max_kmers_per_round: self.kmers_per_round,
            simd: Some(self.simd),
            spgemm_block: self.block,
            ..self.fixture.config()
        }
    }

    /// The run this cell is held to, one step down a chain of
    /// references: the same cap with one thread, shared memory, the
    /// default kernel and row block and in-memory input; then unbounded
    /// rounds; then one rank. `None` for the one-rank run.
    fn reference(&self) -> Option<Cell> {
        let plain = Cell {
            threads: 1,
            net: Net::Shared,
            simd: SimdMode::Auto,
            block: BLOCK,
            fastq: false,
            ..*self
        };
        let unbounded = Cell {
            cap: UNBOUNDED,
            kmers_per_round: self.fixture.config().max_kmers_per_round,
            ..plain
        };
        let one_rank = Cell { ranks: 1, ..unbounded };
        [plain, unbounded, one_rank].into_iter().find(|c| c != self)
    }

    fn injects_faults(&self) -> bool {
        matches!(self.net, Net::Faulty(fault) if fault != Fault::Quiet)
    }
}

/// The pipeline result of `cell`, run once per process. A rank that
/// panics leaves its peers blocked in a collective, and a world whose
/// ranks disagree on a collective blocks for good: a run that does not
/// finish within [`RUN_DEADLINE`] fails the cell instead of hanging the
/// suite.
fn run(cell: &Cell) -> &'static PipelineResult {
    static RUNS: Mutex<BTreeMap<String, &'static OnceLock<PipelineResult>>> =
        Mutex::new(BTreeMap::new());
    let slot = *RUNS
        .lock()
        .unwrap()
        .entry(format!("{cell:?}"))
        .or_insert_with(|| Box::leak(Box::default()));
    slot.get_or_init(|| {
        let (cell, (done, result)) = (*cell, mpsc::channel());
        let world = std::thread::spawn(move || {
            let reads = cell.fixture.reads();
            let res = if cell.fastq {
                let mut fastq = Vec::new();
                dibella::io::write_fastq(&mut fastq, reads).unwrap();
                run_pipeline_fastq(&fastq, cell.ranks, &cell.config()).expect("written FASTQ parses")
            } else {
                run_pipeline(reads, cell.ranks, &cell.config())
            };
            let _ = done.send(res);
        });
        match result.recv_timeout(RUN_DEADLINE) {
            Ok(res) => {
                world.join().unwrap();
                res
            }
            Err(RecvTimeoutError::Disconnected) => panic!("{cell:?} panicked"),
            Err(RecvTimeoutError::Timeout) => panic!("{cell:?} did not finish in {RUN_DEADLINE:?}"),
        }
    })
}

/// A row of the matrix: one list of values per axis.
pub struct Row {
    pub fixture: Fixture,
    pub modes: &'static [SeedMode],
    pub policies: &'static [SeedPolicy],
    pub ranks: &'static [usize],
    pub threads: &'static [usize],
    pub nets: &'static [Net],
    pub caps: &'static [usize],
    pub kmers_per_round: &'static [usize],
    pub simd: &'static [SimdMode],
    pub blocks: &'static [usize],
    pub fastq: &'static [bool],
}

pub const SLICE: Row = Row {
    fixture: Fixture::Slice,
    modes: &[SeedMode::Reliable],
    policies: &[MIN_DISTANCE],
    ranks: &[4],
    threads: &[1],
    nets: &[Net::Shared],
    caps: &[UNBOUNDED],
    kmers_per_round: &[1 << 20],
    simd: &[SimdMode::Auto],
    blocks: &[BLOCK],
    fastq: &[false],
};

pub const NOISY: Row = Row {
    fixture: Fixture::Noisy,
    policies: &[SeedPolicy::Single],
    kmers_per_round: &[4096],
    ..SLICE
};

impl Row {
    /// Every combination of the row's values.
    fn cells(&self) -> Vec<Cell> {
        fn expand<T: Copy>(cells: Vec<Cell>, values: &[T], set: fn(&mut Cell, T)) -> Vec<Cell> {
            cells
                .into_iter()
                .flat_map(|cell| {
                    values.iter().map(move |&v| {
                        let mut cell = cell;
                        set(&mut cell, v);
                        cell
                    })
                })
                .collect()
        }
        // Every field of the seed cell is set by its axis below.
        let mut cells = vec![Cell {
            fixture: self.fixture,
            mode: SeedMode::Reliable,
            policy: MIN_DISTANCE,
            ranks: 1,
            threads: 1,
            net: Net::Shared,
            cap: UNBOUNDED,
            kmers_per_round: 1,
            simd: SimdMode::Auto,
            block: BLOCK,
            fastq: false,
        }];
        cells = expand(cells, self.modes, |c, v| c.mode = v);
        cells = expand(cells, self.policies, |c, v| c.policy = v);
        cells = expand(cells, self.ranks, |c, v| c.ranks = v);
        cells = expand(cells, self.threads, |c, v| c.threads = v);
        cells = expand(cells, self.nets, |c, v| c.net = v);
        cells = expand(cells, self.caps, |c, v| c.cap = v);
        cells = expand(cells, self.kmers_per_round, |c, v| c.kmers_per_round = v);
        cells = expand(cells, self.simd, |c, v| c.simd = v);
        cells = expand(cells, self.blocks, |c, v| c.block = v);
        expand(cells, self.fastq, |c, v| c.fastq = v)
    }
}

/// Run and check every cell of `rows` and every run down its chain of
/// references, [`WORKERS`] runs at a time; then compare each link of each
/// chain.
pub fn check(rows: &[Row]) {
    let cells: Vec<Cell> = rows.iter().flat_map(Row::cells).collect();
    let mut runs: Vec<Cell> = Vec::new();
    for &cell in &cells {
        let mut link = Some(cell);
        while let Some(c) = link.filter(|c| !runs.contains(c)) {
            runs.push(c);
            link = c.reference();
        }
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                while let Some(cell) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    assert_accounting(cell, run(cell));
                }
            });
        }
    });
    for mut cell in cells {
        while let Some(reference) = cell.reference() {
            assert_equivalent(&cell, run(&cell), &reference, run(&reference));
            cell = reference;
        }
    }
}

/// Each stage's traffic and rounds, in pipeline order.
fn stages(r: &RankReport) -> [(&'static str, &CommStats, u64); 4] {
    [
        ("bloom", &r.bloom_comm, r.bloom.rounds),
        ("hash", &r.hash_comm, r.hash.rounds),
        ("overlap", &r.overlap_comm, r.overlap.rounds),
        ("align", &r.align_comm, r.align.rounds),
    ]
}

/// The checks a cell passes on its own.
fn assert_accounting(cell: &Cell, res: &PipelineResult) {
    let at = format!("{cell:?}");
    let k = cell.fixture.config().k;
    assert!(!res.alignments.is_empty(), "dead workload at {at}");
    assert_eq!(res.reports.len(), cell.ranks, "{at}");
    // The reliable Bloom pass plans its rounds on the windows a rank
    // packs, each costed as a record of its own, so a round never holds
    // more than those records.
    let window_record = record_bytes(1, k) as u64;
    let windows_per_round = records_per_round(window_record as usize, cell.kmers_per_round, cell.cap) as u64;
    let max_windows = res.reports.iter().map(|r| r.bloom.kmers_parsed).max().unwrap();
    // The other stages never split a record across rounds: a round holds
    // at most the cap plus one record. The largest is a stage-3 pair
    // record with a seed per k-mer position of a read (12-byte header,
    // 8 bytes a seed), or elsewhere a stage-4 reply (8-byte header and a
    // whole read).
    let longest = cell.fixture.reads().iter().map(|r| r.len() as u64).max().unwrap();
    let pair_record = 12 + 8 * (longest - k as u64 + 1);
    let read_record = 8 + longest;
    for r in &res.reports {
        let at = format!("{at} rank {}", r.rank);
        for (stage, comm, rounds) in stages(r) {
            assert_eq!(comm.alltoallv_calls, rounds, "{stage} calls vs rounds at {at}");
            let bound = match stage {
                "bloom" => windows_per_round.saturating_mul(window_record),
                _ if cell.cap == UNBOUNDED => u64::MAX,
                "overlap" => cell.cap as u64 + pair_record,
                _ => cell.cap as u64 + read_record,
            };
            assert!(comm.peak_round_bytes <= bound, "{stage} peak round {} over {bound} at {at}", comm.peak_round_bytes);
        }
        let seed_pass = match cell.mode {
            SeedMode::Reliable => {
                assert_eq!(r.hash.rounds, 0, "the hash pass is a local sweep at {at}");
                assert_eq!(r.bloom.rounds, max_windows.div_ceil(windows_per_round).max(1), "bloom rounds at {at}");
                r.bloom.rounds
            }
            SeedMode::Minimizer => {
                assert_eq!(r.bloom, Default::default(), "no Bloom pass at {at}");
                r.hash.rounds
            }
        };
        if cell.cap <= TINY {
            // Stage 4 fetches only remote reads: on one rank its two
            // exchanges stay single rounds.
            assert!(seed_pass >= 3, "seed pass rounds {seed_pass} at {at}");
            assert!(r.overlap.rounds >= 3, "overlap rounds {} at {at}", r.overlap.rounds);
            assert!(cell.ranks == 1 || r.align.rounds >= 3, "align rounds {} at {at}", r.align.rounds);
        }
    }
    assert_overlap_ledger(res, &at);
    let survived = faults_survived(res);
    if cell.injects_faults() {
        assert!(survived > 0, "no fault injected at {at}");
    } else {
        assert_eq!(survived, 0, "fault counters without faults at {at}");
    }
}

/// The comparison of a cell with its reference run.
fn assert_equivalent(cell: &Cell, got: &PipelineResult, reference: &Cell, want: &PipelineResult) {
    let at = format!("{cell:?} against {reference:?}");
    assert_eq!(got.alignments, want.alignments, "alignments diverge at {at}");
    if (cell.ranks, cell.fastq) != (reference.ranks, reference.fastq) {
        // Another partition of the reads: only the output compares.
        return;
    }
    let same_rounds = (cell.cap, cell.kmers_per_round) == (reference.cap, reference.kmers_per_round);
    let work = |r: &RankReport| (r.table_keys, r.filter, r.bloom, r.hash, r.overlap, r.align);
    // What a round split moves: the rounds, the seeds held between them,
    // and the Bloom pass's records. The split also reorders the k-mers
    // an owner's Bloom filter sees, so its false positives may promote
    // other singletons into the table, which the filter then removes;
    // the k-mers it keeps do not move.
    let logical = |r: &RankReport| {
        let (_, mut filter, mut bloom, mut hash, mut overlap, mut align) = work(r);
        (bloom.rounds, bloom.retained_bytes, bloom.promoted_keys) = (0, 0, 0);
        (hash.rounds, hash.recorded_occurrences, hash.screen_passes) = (0, 0, 0);
        (overlap.rounds, overlap.peak_seeds_pending, align.rounds) = (0, 0, 0);
        filter.singletons_removed = 0;
        (filter, bloom, hash, overlap, align)
    };
    // A Bloom record is cut at a read's end, at a round's start and every
    // extraction batch into a round. A cut costs at most a header and a
    // byte more than the k − 1 bases it repeats.
    let k = cell.fixture.config().k;
    let cut_bytes = (HEADER_BYTES + (k - 1).div_ceil(4) + 1) as u64;
    let batch = KcountConfig::DEFAULT_EXTRACT_BATCH as u64;
    let cuts = |r: &RankReport| r.bloom.rounds + r.bloom.kmers_parsed.div_ceil(batch);
    for (g, w) in got.reports.iter().zip(&want.reports) {
        let at = format!("{at} rank {}", g.rank);
        if same_rounds {
            assert_eq!(work(g), work(w), "work counters at {at}");
        } else {
            assert_eq!(logical(g), logical(w), "work counters at {at}");
        }
        for ((stage, cg, _), (_, cw, _)) in stages(g).into_iter().zip(stages(w)) {
            if same_rounds {
                let traffic = |c: &CommStats| {
                    (c.dest_bytes.clone(), c.dest_msgs.clone(), c.alltoallv_calls, c.dense_collectives, c.peak_round_bytes)
                };
                assert_eq!(traffic(cg), traffic(cw), "{stage} traffic at {at}");
            } else if stage == "bloom" {
                // The same k-mers to every owner (the counters above), in
                // records cut elsewhere: only the cuts' bytes move.
                let slack = (cuts(g) + cuts(w)) * cut_bytes;
                assert!(
                    cg.dest_bytes.iter().zip(&cw.dest_bytes).all(|(&g, &w)| g.abs_diff(w) <= slack),
                    "{stage} bytes {:?} against {:?} at {at}",
                    cg.dest_bytes,
                    cw.dest_bytes
                );
            } else {
                assert_eq!(cg.dest_bytes, cw.dest_bytes, "{stage} bytes at {at}");
            }
        }
    }
}
