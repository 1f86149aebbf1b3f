//! The streaming, double-buffered exchange engine every pipeline stage
//! drives its irregular communication through.
//!
//! diBELLA's discipline is that each distributed phase "executes in a
//! streaming fashion with a subset of input data at a time to limit the
//! memory consumption" (paper §4). This module is that discipline, written
//! once: a stage describes *how many rounds it needs* (a [`RoundPlan`]),
//! *how to pack one round* (a packer closure producing per-destination
//! byte buffers), and *how to consume one round* (a consumer closure), and
//! [`RoundExchange::run`] does the rest —
//!
//! 1. agrees the world-wide round count with a max-reduction so
//!    collectives stay matched across ranks,
//! 2. pipelines the rounds: while round *i* is in flight on the
//!    transport's exchange helper, the rank thread packs round *i + 1*
//!    (double buffering — genuine communication/computation overlap),
//! 3. consumes each round's received buffers in round order, so results
//!    are bit-identical to a monolithic exchange no matter the round cap.
//!
//! ```text
//!  pack(0) ──► start(0) ──► pack(1) ──► wait(0) ──► consume(0)
//!                 │            ▲           │
//!                 └── in flight on helper ─┘   ... then start(1), pack(2), ...
//! ```
//!
//! The k-mer passes plan with [`RoundPlan::for_records`] +
//! [`records_per_round`] over the k-mer windows they pack; per-destination
//! record buffers (the overlap stage's pair records, the stage-4 read
//! requests and replies) pre-split with [`ByteRounds`], which never splits
//! a record across rounds — hence the
//! `CommStats::peak_round_bytes ≤ cap + max_record_size` guarantee.

use crate::comm::Comm;
use std::ops::Range;
use std::time::Instant;

/// How many exchange rounds this rank needs — the "planner" input of
/// [`RoundExchange::run`]. The executed count is the world maximum, so a
/// rank that plans fewer rounds simply ships empty buffers for the tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundPlan {
    local_rounds: u64,
}

impl RoundPlan {
    /// A plan of exactly `rounds` local rounds (used when the caller has
    /// already split its data, e.g. with [`ByteRounds`]).
    pub fn from_rounds(rounds: u64) -> Self {
        Self { local_rounds: rounds }
    }

    /// Plan for a stream of `records` fixed-size records shipped at most
    /// `per_round` per round (see [`records_per_round`]).
    pub fn for_records(records: u64, per_round: usize) -> Self {
        Self {
            local_rounds: records.div_ceil(per_round.max(1) as u64),
        }
    }

    /// The local need (before the world-wide agreement).
    pub fn local_rounds(&self) -> u64 {
        self.local_rounds
    }
}

/// Records of `record_size` bytes a round may carry under both a record
/// cap and a byte cap (whichever is tighter), never less than one so
/// every plan makes progress.
pub fn records_per_round(record_size: usize, max_records: usize, max_bytes: usize) -> usize {
    debug_assert!(record_size > 0, "records must have positive size");
    max_records
        .max(1)
        .min((max_bytes / record_size.max(1)).max(1))
}

/// A byte-budgeted round split of per-destination buffers of
/// variable-length records, planned once and replayed round by round.
///
/// The split is greedy in destination order: a round takes whole records
/// while its running total stays under the cap, always takes at least one
/// record (so a single record larger than the cap still ships, alone),
/// and preserves each destination's record order — the concatenation of a
/// destination's segments across all rounds is byte-identical to the
/// unsplit buffer.
#[derive(Clone, Debug, Default)]
pub struct ByteRounds {
    /// Per round, the `(destination, byte range)` segments to ship.
    rounds: Vec<Vec<(usize, Range<usize>)>>,
}

impl ByteRounds {
    /// Plan the split. `record_lens[d]` lists the record sizes destined
    /// for rank `d`, in send order; `max_bytes` is the per-round cap.
    pub fn plan(record_lens: &[Vec<usize>], max_bytes: usize) -> Self {
        let cap = max_bytes.max(1);
        let mut cursor = vec![0usize; record_lens.len()]; // next record index
        let mut offset = vec![0usize; record_lens.len()]; // next byte offset
        let mut rounds = Vec::new();
        loop {
            let mut segments: Vec<(usize, Range<usize>)> = Vec::new();
            let mut used = 0usize;
            'dests: for (d, lens) in record_lens.iter().enumerate() {
                let start = offset[d];
                while cursor[d] < lens.len() {
                    let size = lens[cursor[d]];
                    if used > 0 && used.saturating_add(size) > cap {
                        break;
                    }
                    cursor[d] += 1;
                    offset[d] += size;
                    used = used.saturating_add(size);
                    if used >= cap {
                        break;
                    }
                }
                if offset[d] > start {
                    segments.push((d, start..offset[d]));
                }
                if used >= cap {
                    break 'dests;
                }
            }
            if segments.is_empty() {
                break;
            }
            rounds.push(segments);
        }
        Self { rounds }
    }

    /// [`ByteRounds::plan`] for *uniform* records: `record_counts[d]`
    /// records of `record_size` bytes each are destined for rank `d`.
    /// Produces the same split as materializing the per-record length
    /// lists, without allocating them — each round ships up to
    /// `records_per_round(record_size, ∞, max_bytes)` records, filling
    /// destinations in order.
    pub fn plan_uniform(record_counts: &[usize], record_size: usize, max_bytes: usize) -> Self {
        let size = record_size.max(1);
        let per_round = records_per_round(size, usize::MAX, max_bytes);
        let mut remaining = record_counts.to_vec();
        let mut offset = vec![0usize; record_counts.len()];
        let mut rounds = Vec::new();
        loop {
            let mut segments: Vec<(usize, Range<usize>)> = Vec::new();
            let mut budget = per_round;
            for (d, rem) in remaining.iter_mut().enumerate() {
                let take = (*rem).min(budget);
                if take > 0 {
                    let start = offset[d];
                    offset[d] += take * size;
                    *rem -= take;
                    budget -= take;
                    segments.push((d, start..offset[d]));
                }
                if budget == 0 {
                    break;
                }
            }
            if segments.is_empty() {
                break;
            }
            rounds.push(segments);
        }
        Self { rounds }
    }

    /// Number of planned rounds (zero when there is nothing to send).
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` when nothing was planned.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// The [`RoundPlan`] for this split.
    pub fn round_plan(&self) -> RoundPlan {
        RoundPlan::from_rounds(self.rounds.len() as u64)
    }

    /// Round `round`'s `(destination, byte range)` segments, ascending by
    /// destination, each range an offset into that destination's unsplit
    /// record stream — what a packer that produces its records lazily, a
    /// round at a time, needs to know. Rounds past the plan — the tail a
    /// rank ships when the world agreed on more rounds than it needs —
    /// have none.
    pub fn segments(&self, round: u64) -> &[(usize, Range<usize>)] {
        usize::try_from(round).ok().and_then(|r| self.rounds.get(r)).map_or(&[], Vec::as_slice)
    }

    /// Materialize round `round`'s per-destination buffers by slicing the
    /// unsplit source buffers (the same `record_lens` geometry given to
    /// [`ByteRounds::plan`]). Rounds past the plan come out empty.
    pub fn pack(&self, round: u64, source: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); source.len()];
        for (d, range) in self.segments(round) {
            out[*d] = source[*d][range.clone()].to_vec();
        }
        out
    }
}

/// The streaming-exchange driver. See the module docs for the protocol.
pub struct RoundExchange;

impl RoundExchange {
    /// Run a complete streaming exchange: agree the round count, then for
    /// each round ship `pack(round)` (packing round `i + 1` while round
    /// `i` is in flight) and hand the received per-source buffers to
    /// `consume(round, recv)` in round order.
    ///
    /// Returns the executed (world-agreed) round count; that value always
    /// equals the number of `alltoallv` calls the exchange added to this
    /// rank's `CommStats`. `pack` may be called for rounds beyond the
    /// rank's local need and must then return empty (or exhausted-stream)
    /// buffers. Time spent in `pack` is credited to
    /// `CommStats::pack_wall`.
    pub fn run<P, C>(comm: &Comm, planner: RoundPlan, mut pack: P, mut consume: C) -> u64
    where
        P: FnMut(u64) -> Vec<Vec<u8>>,
        C: FnMut(u64, Vec<Vec<u8>>),
    {
        let rounds = comm.allreduce_max_u64(planner.local_rounds().max(1));
        let t0 = Instant::now();
        let mut next = pack(0);
        comm.add_pack_wall(t0.elapsed());
        for round in 0..rounds - 1 {
            let pending = comm.exchange_start(next);
            let packing = Instant::now();
            next = pack(round + 1);
            comm.add_pack_wall(packing.elapsed());
            consume(round, comm.exchange_wait(pending));
        }
        // The last round: nothing is left to pack under it.
        let pending = comm.exchange_start(next);
        consume(rounds - 1, comm.exchange_wait(pending));
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::CommWorld;

    #[test]
    fn records_per_round_takes_the_tighter_cap() {
        assert_eq!(records_per_round(8, 1000, usize::MAX), 1000);
        assert_eq!(records_per_round(8, 1000, 80), 10);
        // Byte cap below one record still makes progress.
        assert_eq!(records_per_round(20, 1000, 5), 1);
        assert_eq!(records_per_round(8, 0, usize::MAX), 1);
    }

    #[test]
    fn round_plan_counts() {
        assert_eq!(RoundPlan::for_records(0, 10).local_rounds(), 0);
        assert_eq!(RoundPlan::for_records(1, 10).local_rounds(), 1);
        assert_eq!(RoundPlan::for_records(10, 10).local_rounds(), 1);
        assert_eq!(RoundPlan::for_records(11, 10).local_rounds(), 2);
    }

    #[test]
    fn byte_rounds_preserve_order_and_bound_rounds() {
        // Two destinations with records of varying size; cap 10.
        let lens = vec![vec![4, 4, 4], vec![7, 2]];
        let split = ByteRounds::plan(&lens, 10);
        // Source buffers: distinct bytes so splicing errors are visible.
        let src: Vec<Vec<u8>> = vec![(0..12).collect(), (50..59).collect()];
        let mut rebuilt: Vec<Vec<u8>> = vec![Vec::new(); 2];
        for r in 0..split.len() as u64 {
            let bufs = split.pack(r, &src);
            let total: usize = bufs.iter().map(Vec::len).sum();
            assert!(total <= 10 + 7, "round {r} ships {total} bytes");
            for (d, b) in bufs.into_iter().enumerate() {
                rebuilt[d].extend(b);
            }
        }
        assert_eq!(rebuilt, src, "concatenation must reproduce the source");
        // Rounds past the plan are empty.
        let tail = split.pack(split.len() as u64 + 3, &src);
        assert!(tail.iter().all(Vec::is_empty));
    }

    #[test]
    fn oversized_record_ships_alone() {
        let lens = vec![vec![100, 3], vec![3]];
        let split = ByteRounds::plan(&lens, 10);
        let src: Vec<Vec<u8>> = vec![vec![1u8; 103], vec![2u8; 3]];
        let first = split.pack(0, &src);
        assert_eq!(first[0].len(), 100, "the oversized record goes alone");
        assert!(first[1].is_empty());
    }

    #[test]
    fn empty_plan_is_empty() {
        let split = ByteRounds::plan(&[Vec::new(), Vec::new()], 64);
        assert!(split.is_empty());
        assert_eq!(split.round_plan().local_rounds(), 0);
        assert!(ByteRounds::plan_uniform(&[0, 0, 0], 4, 64).is_empty());
    }

    #[test]
    fn plan_uniform_matches_general_plan() {
        // The uniform fast path must produce the identical segmentation
        // the general planner derives from materialized length lists.
        for (counts, size, cap) in [
            (vec![3usize, 0, 5], 4usize, 10usize),
            (vec![1, 1, 1], 4, 4),
            (vec![7, 2], 8, 3), // record larger than cap: one per round
            (vec![0, 9], 4, 1000),
        ] {
            let lens: Vec<Vec<usize>> = counts.iter().map(|&n| vec![size; n]).collect();
            let general = ByteRounds::plan(&lens, cap);
            let uniform = ByteRounds::plan_uniform(&counts, size, cap);
            assert_eq!(
                uniform.rounds, general.rounds,
                "counts {counts:?} size {size} cap {cap}"
            );
        }
    }

    #[test]
    fn round_exchange_matches_monolithic_alltoallv() {
        // Each rank sends a deterministic byte pattern to every dest,
        // split into 4-byte records with a tiny cap; the reassembled
        // result must equal one blocking alltoallv of the same data.
        let p = 4;
        let payload = |src: usize, dst: usize| -> Vec<u8> {
            (0..((src + 2 * dst) % 5) * 4).map(|i| (src * 40 + dst * 8 + i) as u8).collect()
        };
        let expect = CommWorld::run(p, |comm| {
            comm.alltoallv_bytes((0..p).map(|d| payload(comm.rank(), d)).collect())
        });
        let got = CommWorld::run(p, |comm| {
            let src: Vec<Vec<u8>> = (0..p).map(|d| payload(comm.rank(), d)).collect();
            let lens: Vec<Vec<usize>> = src.iter().map(|b| vec![4; b.len() / 4]).collect();
            let split = ByteRounds::plan(&lens, 8);
            let mut rebuilt: Vec<Vec<u8>> = vec![Vec::new(); p];
            let rounds = RoundExchange::run(
                comm,
                split.round_plan(),
                |r| split.pack(r, &src),
                |_r, recv| {
                    for (s, b) in recv.into_iter().enumerate() {
                        rebuilt[s].extend(b);
                    }
                },
            );
            let stats = comm.take_stats();
            assert_eq!(stats.alltoallv_calls, rounds, "one call per round");
            assert!(stats.peak_round_bytes <= 8 + 4, "cap + one record");
            rebuilt
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn world_agrees_on_the_max_rounds() {
        // Rank 0 plans 3 rounds, the others 1 — everyone must execute 3.
        let rounds = CommWorld::run(3, |comm| {
            let plan = RoundPlan::from_rounds(if comm.rank() == 0 { 3 } else { 1 });
            RoundExchange::run(
                comm,
                plan,
                |_r| vec![Vec::new(); comm.size()],
                |_r, _recv| {},
            )
        });
        assert_eq!(rounds, vec![3, 3, 3]);
    }

    #[test]
    fn pack_time_is_credited_to_pack_wall() {
        let stats = CommWorld::run(2, |comm| {
            RoundExchange::run(
                comm,
                RoundPlan::from_rounds(2),
                |_r| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    vec![Vec::new(); comm.size()]
                },
                |_r, _recv| {},
            );
            comm.take_stats()
        });
        for s in stats {
            // pack(0) plus the overlapped pack(1): at least 2 calls × 2 ms.
            assert!(
                s.pack_wall >= std::time::Duration::from_millis(4),
                "pack_wall = {:?}",
                s.pack_wall
            );
        }
    }

    #[test]
    fn zero_local_rounds_still_participates_once() {
        let rounds = CommWorld::run(2, |comm| {
            RoundExchange::run(
                comm,
                RoundPlan::for_records(0, 16),
                |_r| vec![Vec::new(); comm.size()],
                |_r, _recv| {},
            )
        });
        assert_eq!(rounds, vec![1, 1]);
    }
}
