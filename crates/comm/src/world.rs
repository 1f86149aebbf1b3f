//! World launcher: run an SPMD closure on `P` rank threads.

use crate::comm::Comm;
use crate::transport::TransportKind;
use std::sync::Arc;

/// An SPMD execution context, analogous to `MPI_COMM_WORLD`.
///
/// [`CommWorld::run`] spawns one OS thread per rank, hands each a
/// [`Comm`] handle and collects the per-rank return values in rank order.
/// Linux threads are cheap enough that worlds of 1024 virtual ranks run
/// fine on a laptop-class host; collectives serialize ranks only at
/// barrier points. [`CommWorld::run_with`] does the same on an explicit
/// transport backend — real shared memory, or shared memory under the
/// fault-injecting wrapper (see [`crate::transport`]).
pub struct CommWorld;

impl CommWorld {
    /// Run `f` on `p` ranks over the real shared-memory transport and
    /// return each rank's result, indexed by rank.
    ///
    /// # Panics
    /// Panics if `p == 0`, or propagates the first rank panic (which, as
    /// with a failed MPI job, aborts the whole world — remaining ranks
    /// blocked on a barrier would otherwise deadlock, so rank panics also
    /// poison the hub via unwinding through `std::thread::scope`).
    pub fn run<F, T>(p: usize, f: F) -> Vec<T>
    where
        F: Fn(&Comm) -> T + Sync,
        T: Send,
    {
        Self::run_with(p, &TransportKind::SharedMem, f)
    }

    /// Like [`Self::run`] but on an explicit [`TransportKind`]: the same
    /// SPMD body can execute over real shared memory or under injected
    /// faults (`TransportKind::Faulty`), which the hardened exchange layer
    /// recovers from so payloads arrive byte-identical.
    ///
    /// # Panics
    /// As [`Self::run`].
    pub fn run_with<F, T>(p: usize, transport: &TransportKind, f: F) -> Vec<T>
    where
        F: Fn(&Comm) -> T + Sync,
        T: Send,
    {
        assert!(p > 0, "world size must be positive");
        let (transport, f) = (transport.build(p), &f);
        let mut results: Vec<Option<T>> = (0..p).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|rank| {
                    let transport = Arc::clone(&transport);
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .spawn_scoped(s, move || {
                            let comm = Comm::new(rank, transport);
                            f(&comm)
                        })
                        .expect("failed to spawn rank thread")
                })
                .collect();
            for (slot, h) in results.iter_mut().zip(handles) {
                match h.join() {
                    Ok(v) => *slot = Some(v),
                    // Re-raise the rank's own panic payload so callers see
                    // the original failure (the analogue of MPI_Abort
                    // carrying the faulting rank's error).
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_rank_ordered() {
        let out = CommWorld::run(8, |c| c.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn large_world_smoke() {
        // 128 ranks on a 2-core host: collectives must still complete.
        let out = CommWorld::run(128, |c| {
            let sum = c.allreduce_sum_u64(1);
            let recv = c.alltoallv_bytes((0..c.size()).map(|d| vec![d as u8]).collect());
            (sum, recv.len())
        });
        assert!(out.iter().all(|&(s, l)| s == 128 && l == 128));
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_ranks_rejected() {
        let _ = CommWorld::run(0, |_| ());
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_ranks_rejected_with_transport() {
        let _ = CommWorld::run_with(0, &TransportKind::SharedMem, |_| ());
    }
}
