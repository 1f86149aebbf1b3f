//! The per-rank communicator handle.
//!
//! Mirrors the MPI surface diBELLA uses (paper §4: "the communication
//! implemented via MPI Alltoall and Alltoallv functions", plus reductions
//! and an exclusive scan for global read-ID assignment). Every collective
//! must be called by **all** ranks of the world in the same order — the
//! usual MPI contract; violations panic via the hub's slot checks.

use crate::frame::{decode_frame, encode_frame, FrameError};
use crate::stats::CommStats;
use crate::transport::{InFlight, RetryPolicy, Transport};
use std::cell::{Cell, RefCell};
use std::panic::resume_unwind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle to an irregular byte exchange started with
/// [`Comm::exchange_start`] and finished with [`Comm::exchange_wait`].
///
/// On a reliable transport this is a thin wrapper over the backend's
/// [`InFlight`]. When the transport advertises a
/// [`RetryPolicy`], the handle additionally
/// carries the framed send buffers and the round's sequence number so a
/// damaged round can be retransmitted verbatim — round packing is
/// idempotent, so replaying the exact frames is always safe.
pub struct PendingExchange {
    inflight: InFlight,
    resend: Option<ResendState>,
}

/// Retransmission state of a hardened in-flight round.
struct ResendState {
    /// The framed per-destination buffers, kept until the round is
    /// acknowledged clean by every rank.
    frames: Vec<Vec<u8>>,
    /// Sequence number stamped into each frame.
    seq: u64,
}

/// Communicator handle owned by one rank's thread.
///
/// All collectives are written once against the [`Transport`] trait; which
/// backend executes them (real shared memory, or shared memory under the
/// fault-injecting wrapper) is decided by the launcher — see
/// [`crate::CommWorld::run_with`]. Every collective charges the host time
/// it took to `CommStats::exchange_wall`.
pub struct Comm {
    rank: usize,
    size: usize,
    transport: Arc<dyn Transport>,
    stats: RefCell<CommStats>,
    /// Recovery policy cached from [`Transport::retry_policy`]; `Some`
    /// switches the byte-exchange path to framed + retried.
    retry: Option<RetryPolicy>,
    /// Sequence number of the next hardened exchange. Every rank issues
    /// the same collectives in the same order (the SPMD contract), so
    /// sender and receiver counters agree without negotiation.
    seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn new(rank: usize, transport: Arc<dyn Transport>) -> Self {
        let size = transport.size();
        let retry = transport.retry_policy();
        Self {
            rank,
            size,
            transport,
            stats: RefCell::new(CommStats::new(size)),
            retry,
            seq: Cell::new(0),
        }
    }

    /// Take the buffer `src` deposited for this rank and restore its type.
    ///
    /// # Panics
    /// Panics if the deposit is missing or of a different type — both
    /// indicate mismatched collective calls across ranks.
    fn recv<T: 'static>(&self, src: usize) -> T {
        *self
            .transport
            .take(src, self.rank)
            .downcast::<T>()
            .unwrap_or_else(|_| {
                panic!("slot ({src},{}) holds unexpected type", self.rank)
            })
    }

    /// This rank's index in `0..size()`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (number of ranks).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Snapshot and reset the communication counters (stage boundary).
    pub fn take_stats(&self) -> CommStats {
        std::mem::replace(&mut self.stats.borrow_mut(), CommStats::new(self.size))
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.stats.borrow_mut().barriers += 1;
        self.transport.wait();
    }

    /// Irregular all-to-all of byte buffers: element `d` of `send` goes to
    /// rank `d`; returns the buffers received from every source rank,
    /// indexed by source. Per-source ordering is preserved
    /// (deterministic). Implemented as an immediately-waited split
    /// exchange, so blocking and streaming call sites share one code path
    /// (and identical traffic accounting).
    ///
    /// # Panics
    /// Panics if `send.len() != size()`.
    pub fn alltoallv_bytes(&self, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let pending = self.exchange_start(send);
        self.exchange_wait(pending)
    }

    /// Begin a non-blocking irregular byte exchange: `send[d]` goes to
    /// rank `d`. Traffic counters are recorded immediately; the payloads
    /// move on a transport helper while this rank keeps computing.
    ///
    /// SPMD contract, extended to split collectives: every rank starts the
    /// same exchanges in the same order, at most one exchange is in flight
    /// per rank, and no other collective may be issued between
    /// `exchange_start` and the matching [`Self::exchange_wait`] — the gap
    /// is for packing the next round, which is exactly what
    /// [`crate::RoundExchange`] does.
    ///
    /// # Panics
    /// Panics if `send.len() != size()`.
    pub fn exchange_start(&self, send: Vec<Vec<u8>>) -> PendingExchange {
        assert_eq!(send.len(), self.size, "exchange needs one buffer per rank");
        // Traffic accounting is the *logical* payload, recorded once per
        // round: frame headers and retransmits ride the recovery path and
        // never distort `dest_bytes`, `peak_round_bytes` or
        // `alltoallv_calls` — the figures the projections and the
        // wire-ratio invariants are built on.
        self.stats
            .borrow_mut()
            .record_exchange(send.iter().map(Vec::len));
        if self.retry.is_none() {
            return PendingExchange {
                inflight: self.transport.exchange_start(self.rank, send),
                resend: None,
            };
        }
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let frames: Vec<Vec<u8>> = send.iter().map(|b| encode_frame(seq, b)).collect();
        PendingExchange {
            inflight: self.transport.exchange_start(self.rank, frames.clone()),
            resend: Some(ResendState { frames, seq }),
        }
    }

    /// Credit `d` of send-buffer packing time to this stage's counters
    /// (`CommStats::pack_wall`). Called by `RoundExchange` around its pack
    /// closures; packing happens outside collective calls but is part of
    /// the streaming-exchange engine's work, so it is accounted here
    /// rather than left to disappear into the stage's residual compute.
    pub(crate) fn add_pack_wall(&self, d: Duration) {
        self.stats.borrow_mut().pack_wall += d;
    }

    /// Finish an exchange begun by [`Self::exchange_start`] and charge the
    /// exchange helper's measured time (it ran concurrently with whatever
    /// this rank packed in the gap) to `CommStats::exchange_wall`. Packing
    /// done in the gap lives in `CommStats::pack_wall`, never in the
    /// exchange wall.
    ///
    /// On a hardened transport (one advertising a
    /// [`RetryPolicy`]) this is where recovery
    /// happens: received frames are validated against the round's
    /// sequence number, all ranks agree whether the round arrived clean,
    /// and a damaged round is retransmitted verbatim under exponential
    /// backoff. A rank that exhausts its retries (or times out waiting on
    /// a hung exchange) panics, failing the stage cleanly so a
    /// checkpointed run can resume from the last completed stage.
    pub fn exchange_wait(&self, pending: PendingExchange) -> Vec<Vec<u8>> {
        let PendingExchange { inflight, resend } = pending;
        let Some(resend) = resend else {
            let (recv, wall) = inflight.finish();
            self.stats.borrow_mut().exchange_wall += wall;
            return recv;
        };
        self.exchange_wait_hardened(inflight, resend)
    }

    /// The hardened wait loop: poll → validate → agree → (return |
    /// backoff + retransmit).
    fn exchange_wait_hardened(&self, mut inflight: InFlight, resend: ResendState) -> Vec<Vec<u8>> {
        let policy = self.retry.expect("hardened wait without a retry policy");
        let ResendState { frames, seq } = resend;
        let mut recovery_start: Option<Instant> = None;
        let mut attempt = 0u32;
        loop {
            // Wait for the in-flight helper, counting (bounded) timeouts
            // instead of blocking forever on a hung exchange.
            let mut consecutive_timeouts = 0u32;
            let result = loop {
                match inflight.poll(policy.wait_timeout) {
                    Some(result) => break result,
                    None => {
                        self.stats.borrow_mut().wait_timeouts += 1;
                        consecutive_timeouts += 1;
                        assert!(
                            consecutive_timeouts < policy.max_wait_timeouts,
                            "rank {}: exchange seq {seq} hung: {} consecutive waits of {:?} \
                             elapsed with no result; failing the stage (resume from the last \
                             checkpoint with --checkpoint-dir)",
                            self.rank,
                            consecutive_timeouts,
                            policy.wait_timeout,
                        );
                    }
                }
            };
            let (recv, wall) = match result {
                Ok(out) => out,
                Err(payload) => resume_unwind(payload),
            };

            // Validate every source's frame against this round's sequence.
            let mut payloads = Vec::with_capacity(recv.len());
            let mut clean = true;
            {
                let mut stats = self.stats.borrow_mut();
                for buf in &recv {
                    match decode_frame(buf, seq) {
                        Ok(payload) => payloads.push(payload.to_vec()),
                        Err(FrameError::WrongSeq { got, .. }) if got < seq => {
                            // A structurally valid duplicate of an earlier
                            // round — dropped by sequence number.
                            stats.duplicates_dropped += 1;
                            clean = false;
                        }
                        Err(_) => {
                            stats.frames_corrupt_detected += 1;
                            clean = false;
                        }
                    }
                }
            }

            // Every rank must agree the round is clean before anyone
            // consumes it: a rank that received garbage needs its peers to
            // replay, and the SPMD contract requires the retransmit (a
            // full collective) to be entered by all ranks or none. The
            // handshake rides the transport's reliable control plane
            // (slot matrix + barrier), not the faultable byte path.
            let all_clean = self.agree(clean);
            if all_clean {
                self.stats.borrow_mut().exchange_wall += wall;
                if let Some(t0) = recovery_start {
                    self.stats.borrow_mut().retry_wall += t0.elapsed();
                }
                return payloads;
            }
            recovery_start.get_or_insert_with(Instant::now);
            assert!(
                attempt < policy.max_retries,
                "rank {}: exchange seq {seq} still damaged after {} retransmits; failing the \
                 stage (resume from the last checkpoint with --checkpoint-dir)",
                self.rank,
                policy.max_retries,
            );
            // Bounded exponential backoff, then replay the exact frames:
            // packing is idempotent per round, so the retransmit is
            // byte-identical to the original attempt.
            let backoff = policy
                .backoff_base
                .saturating_mul(1u32 << attempt.min(16))
                .min(policy.backoff_max);
            std::thread::sleep(backoff);
            self.stats.borrow_mut().frames_retransmitted += frames.len() as u64;
            inflight = self.transport.exchange_start(self.rank, frames.clone());
            attempt += 1;
        }
    }

    /// All-reduce a `bool` with AND over the transport's reliable slot
    /// matrix — the hardened layer's agreement handshake. Deliberately
    /// bypasses [`Self::allgather`] so protocol overhead never inflates
    /// `dense_collectives` or `exchange_wall`.
    fn agree(&self, ok: bool) -> bool {
        for dst in 0..self.size {
            self.transport.put(self.rank, dst, Box::new(ok));
        }
        self.transport.wait();
        let mut all = true;
        for src in 0..self.size {
            all &= self.recv::<bool>(src);
        }
        self.transport.wait();
        all
    }

    /// Dense all-to-all of one fixed-size value per destination (the
    /// `MPI_Alltoall` used to exchange counts ahead of an `Alltoallv`).
    pub fn alltoall<T: Send + Clone + 'static>(&self, send: Vec<T>) -> Vec<T> {
        assert_eq!(send.len(), self.size);
        self.stats.borrow_mut().dense_collectives += 1;
        let t0 = Instant::now();
        for (dst, v) in send.into_iter().enumerate() {
            self.transport.put(self.rank, dst, Box::new(v));
        }
        self.transport.wait();
        let recv: Vec<T> = (0..self.size).map(|src| self.recv::<T>(src)).collect();
        self.transport.wait();
        self.stats.borrow_mut().exchange_wall += t0.elapsed();
        recv
    }

    /// Gather one value from every rank onto every rank (allgather): an
    /// [`Self::alltoall`] of `value` to every destination — cloned `P − 1`
    /// times, the cost MPI pays for the broadcast tree, flattened.
    pub fn allgather<T: Send + Clone + 'static>(&self, value: T) -> Vec<T> {
        self.alltoall(vec![value; self.size])
    }

    /// Reduce with `op` across all ranks; every rank receives the result.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Send + Clone + 'static,
        F: Fn(T, T) -> T,
    {
        let all = self.allgather(value);
        let mut it = all.into_iter();
        let first = it.next().expect("world is non-empty");
        it.fold(first, op)
    }

    /// Sum-allreduce over `u64`.
    pub fn allreduce_sum_u64(&self, v: u64) -> u64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// Max-allreduce over `u64`.
    pub fn allreduce_max_u64(&self, v: u64) -> u64 {
        self.allreduce(v, u64::max)
    }

    /// Exclusive prefix sum (`MPI_Exscan`): rank r receives the sum of the
    /// values of ranks `0..r`; rank 0 receives 0. Used to assign global
    /// read IDs after block-parallel input.
    pub fn exscan_sum_u64(&self, v: u64) -> u64 {
        let all = self.allgather(v);
        all[..self.rank].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::wire::{decode_vec, encode_slice};
    use crate::world::CommWorld;

    #[test]
    fn alltoallv_routes_correctly() {
        let results = CommWorld::run(4, |comm| {
            let send: Vec<Vec<u8>> = (0..4)
                .map(|dst| encode_slice(&[(comm.rank() * 100 + dst) as u32]))
                .collect();
            comm.alltoallv_bytes(send)
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, buf) in recv.iter().enumerate() {
                assert_eq!(decode_vec::<u32>(buf), vec![(src * 100 + rank) as u32]);
            }
        }
    }

    #[test]
    fn alltoallv_preserves_order_and_counts() {
        let results = CommWorld::run(3, |comm| {
            let send: Vec<Vec<u8>> = (0..3)
                .map(|dst| {
                    let run: Vec<u64> =
                        (0..(comm.rank() + 1) as u64 * 2).map(|i| i + dst as u64).collect();
                    encode_slice(&run)
                })
                .collect();
            comm.alltoallv_bytes(send)
        });
        for recv in &results {
            for (src, buf) in recv.iter().enumerate() {
                let buf = decode_vec::<u64>(buf);
                assert_eq!(buf.len(), (src + 1) * 2);
                // Order within a source preserved (strictly increasing).
                assert!(buf.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    #[test]
    fn reductions_and_scan() {
        let results = CommWorld::run(5, |comm| {
            let r = comm.rank() as u64;
            (
                comm.allreduce_sum_u64(r + 1),
                comm.allreduce_max_u64(r),
                comm.exscan_sum_u64(10),
            )
        });
        for (rank, &(sum, max, scan)) in results.iter().enumerate() {
            assert_eq!(sum, 15);
            assert_eq!(max, 4);
            assert_eq!(scan, 10 * rank as u64);
        }
    }

    #[test]
    fn stats_count_bytes_and_msgs() {
        let results = CommWorld::run(2, |comm| {
            let _ = comm.alltoallv_bytes(vec![vec![1; 8], vec![]]);
            comm.take_stats()
        });
        let s0 = &results[0];
        assert_eq!(s0.dest_bytes[0], 8);
        assert_eq!(s0.dest_bytes[1], 0);
        assert_eq!(s0.total_msgs(), 1);
        assert_eq!(s0.alltoallv_calls, 1);
    }

    #[test]
    fn take_stats_resets() {
        let results = CommWorld::run(2, |comm| {
            comm.barrier();
            let first = comm.take_stats();
            let second = comm.take_stats();
            (first.barriers, second.barriers)
        });
        assert_eq!(results[0], (1, 0));
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn mismatched_collective_types_panic() {
        let _ = CommWorld::run(1, |comm| {
            comm.transport.put(0, 0, Box::new(42u64));
            comm.recv::<Vec<u8>>(0)
        });
    }

    #[test]
    fn single_rank_world() {
        let results = CommWorld::run(1, |comm| {
            let recv = comm.alltoallv_bytes(vec![vec![42u8]]);
            (recv[0].clone(), comm.allreduce_sum_u64(9))
        });
        assert_eq!(results[0].0, vec![42]);
        assert_eq!(results[0].1, 9);
    }

    #[test]
    fn allgather_order() {
        let results = CommWorld::run(3, |comm| comm.allgather(comm.rank() as u8 * 3));
        for r in &results {
            assert_eq!(r, &vec![0u8, 3, 6]);
        }
        // One dense collective, however it is built.
        let stats = CommWorld::run(2, |comm| {
            comm.allgather(1u8);
            comm.take_stats()
        });
        assert!(stats.iter().all(|s| s.dense_collectives == 1));
    }
}
