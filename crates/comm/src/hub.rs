//! The shared exchange hub behind the [`crate::SharedMem`] transport (and,
//! via its inner `SharedMem`, the [`crate::FaultyNet`] one).
//!
//! A `P × P` matrix of type-erased deposit slots plus a cyclic barrier
//! implements rendezvous collectives: in an exchange, rank `r` writes its
//! buffer for destination `d` into slot `(r, d)`, all ranks hit the
//! barrier (publication), then rank `r` drains column `(·, r)`, and a
//! second barrier ends the operation so slots can be reused. The barrier
//! provides the happens-before edges; each slot is written and read by
//! exactly one rank per operation, so the mutexes are uncontended.

use std::any::Any;
use std::sync::{Barrier, Mutex, PoisonError};

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

pub(crate) struct Hub {
    p: usize,
    /// Row-major `P × P` deposit matrix: slot `(src, dst)` at `src*p+dst`.
    slots: Vec<Slot>,
    barrier: Barrier,
}

impl Hub {
    pub(crate) fn new(p: usize) -> Self {
        assert!(p > 0, "world size must be positive");
        Self {
            p,
            slots: (0..p * p).map(|_| Mutex::new(None)).collect(),
            barrier: Barrier::new(p),
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

    /// Take the (type-erased) deposit for `(src → dst)`; the communicator
    /// downcasts it back to the collective's element type.
    ///
    /// # Panics
    /// Panics if the slot is empty — mismatched collective calls across
    /// ranks (the same class of bug MPI reports as a message-truncation
    /// error).
    pub(crate) fn take(&self, src: usize, dst: usize) -> Box<dyn Any + Send> {
        self.slots[src * self.p + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_else(|| panic!("slot ({src},{dst}) empty: mismatched collectives"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_take_round_trip() {
        let hub = Hub::new(2);
        hub.put(0, 1, Box::new(vec![1u32, 2, 3]));
        let v: Vec<u32> = *hub.take(0, 1).downcast().unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn take_empty_panics() {
        let hub = Hub::new(2);
        let _ = hub.take(0, 1);
    }

    #[test]
    fn concurrent_exchange_through_barrier() {
        let hub = Arc::new(Hub::new(4));
        std::thread::scope(|s| {
            for rank in 0..4usize {
                let hub = Arc::clone(&hub);
                s.spawn(move || {
                    for dst in 0..4 {
                        hub.put(rank, dst, Box::new(rank * 10 + dst));
                    }
                    hub.wait();
                    for src in 0..4 {
                        let v: usize = *hub.take(src, rank).downcast().unwrap();
                        assert_eq!(v, src * 10 + rank);
                    }
                    hub.wait();
                });
            }
        });
    }
}
