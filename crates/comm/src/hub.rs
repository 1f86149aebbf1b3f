//! The one exchange backend behind [`crate::Comm`].
//!
//! A `P × P` matrix of type-erased deposit slots plus a cyclic barrier
//! implements rendezvous collectives: in an exchange, rank `r` writes its
//! buffer for destination `d` into slot `(r, d)`, all ranks hit the
//! barrier (publication), then rank `r` drains column `(·, r)`, and a
//! second barrier ends the operation so slots can be reused. The barrier
//! provides the happens-before edges; each slot is written and read by
//! exactly one rank per operation, so the mutexes are uncontended.
//!
//! An irregular byte exchange runs that protocol on a helper thread of its
//! own ([`Hub::exchange_start`]), so the rank thread can pack the next
//! round meanwhile. In a world built from `TransportKind::Faulty`, the hub
//! first passes each such send through the seeded fault injector
//! (`crate::transport::FaultyNet`); nothing else it carries is faulted.

use crate::comm::PendingExchange;
use crate::transport::{FaultyNet, TransportKind};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier, Mutex, PoisonError};
use std::time::Instant;

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

pub(crate) struct Hub {
    p: usize,
    /// Row-major `P × P` deposit matrix: slot `(src, dst)` at `src*p+dst`.
    slots: Vec<Slot>,
    barrier: Barrier,
    /// The injector of a `faulty:` world; `None` on plain shared memory,
    /// whose byte path moves payloads unframed and unchecked.
    pub(crate) faults: Option<FaultyNet>,
}

impl Hub {
    pub(crate) fn new(p: usize, transport: &TransportKind) -> Self {
        assert!(p > 0, "world size must be positive");
        Self {
            p,
            slots: (0..p * p).map(|_| Mutex::new(None)).collect(),
            barrier: Barrier::new(p),
            faults: match transport {
                TransportKind::SharedMem => None,
                TransportKind::Faulty(cfg) => Some(FaultyNet::new(p, *cfg)),
            },
        }
    }

    pub(crate) fn size(&self) -> usize {
        self.p
    }

    /// Wait for all ranks (one barrier phase).
    pub(crate) fn wait(&self) {
        self.barrier.wait();
    }

    /// Deposit `value` for `(src → dst)`. Must be empty (enforced).
    pub(crate) fn put(&self, src: usize, dst: usize, value: Box<dyn Any + Send>) {
        let prev = self.slots[src * self.p + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .replace(value);
        debug_assert!(prev.is_none(), "slot ({src},{dst}) already occupied");
    }

    /// Take the deposit for `(src → dst)` and restore its type (the
    /// collective's element type).
    ///
    /// # Panics
    /// Panics if the slot is empty or holds another type — mismatched
    /// collective calls across ranks (the same class of bug MPI reports as
    /// a message-truncation error).
    pub(crate) fn take<T: 'static>(&self, src: usize, dst: usize) -> T {
        *self.slots[src * self.p + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_else(|| panic!("slot ({src},{dst}) empty: mismatched collectives"))
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("slot ({src},{dst}) holds unexpected type"))
    }

    /// Begin `rank`'s irregular byte exchange: `send[d]` goes to rank `d`.
    /// A helper thread deposits the buffers, rendezvous, drains this
    /// rank's column and rendezvous again, then delivers the received
    /// buffers with the wall time since this call. Each helper gets its own
    /// OS thread, never a bounded pool's: helpers block on the P-party
    /// barrier, so all P of them must be able to run at once.
    pub(crate) fn exchange_start(
        self: &Arc<Self>,
        rank: usize,
        send: Vec<Vec<u8>>,
    ) -> PendingExchange {
        let (send, stall) = match &self.faults {
            Some(faults) => faults.mangle(rank, send),
            None => (send, Default::default()),
        };
        let hub = Arc::clone(self);
        let (tx, rx) = mpsc::channel();
        let t0 = Instant::now();
        std::thread::Builder::new()
            .name("exchange-helper".into())
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    // An injected stall sleeps here, not on the rank thread.
                    std::thread::sleep(stall);
                    for (dst, buf) in send.into_iter().enumerate() {
                        hub.put(rank, dst, Box::new(buf));
                    }
                    hub.wait();
                    let recv = (0..hub.p).map(|src| hub.take(src, rank)).collect();
                    hub.wait();
                    (recv, t0.elapsed())
                }));
                // The receiver only disappears if the rank thread is already
                // unwinding; dropping the result is then the right thing.
                let _ = tx.send(result);
            })
            .expect("spawn exchange helper thread");
        PendingExchange { rx, resend: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_take_round_trip() {
        let hub = Hub::new(2, &TransportKind::SharedMem);
        hub.put(0, 1, Box::new(vec![1u32, 2, 3]));
        let v: Vec<u32> = hub.take(0, 1);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn take_empty_panics() {
        let hub = Hub::new(2, &TransportKind::SharedMem);
        let _: u32 = hub.take(0, 1);
    }

    #[test]
    fn concurrent_exchange_through_barrier() {
        let hub = Arc::new(Hub::new(4, &TransportKind::SharedMem));
        std::thread::scope(|s| {
            for rank in 0..4usize {
                let hub = Arc::clone(&hub);
                s.spawn(move || {
                    for dst in 0..4 {
                        hub.put(rank, dst, Box::new(rank * 10 + dst));
                    }
                    hub.wait();
                    for src in 0..4 {
                        let v: usize = hub.take(src, rank);
                        assert_eq!(v, src * 10 + rank);
                    }
                    hub.wait();
                });
            }
        });
    }
}
