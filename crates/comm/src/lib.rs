//! # dibella-comm
//!
//! The distributed-memory substrate of this diBELLA reproduction: an SPMD
//! world of thread-per-rank processes in one address space, exposing the
//! MPI collectives the paper's pipeline is built on (`Alltoall`,
//! `Alltoallv`, reductions, exclusive scan, gather, broadcast, barrier)
//! with exact per-destination traffic accounting.
//!
//! The paper ran on MPI over Cray Aries/Gemini and AWS Ethernet; here the
//! *code path* — pack per-destination buffers, irregular exchange, unpack —
//! and the bytes/messages recorded are identical, which is what the
//! `dibella-netmodel` projections consume. The backend executing that path
//! is pluggable (see [`transport`]): [`SharedMem`] runs collectives through
//! real shared memory, while [`SimNet`] additionally charges each
//! collective the latency/bandwidth cost of a modeled platform, so a run
//! can execute "on" a virtual Cori or AWS cluster. See DESIGN.md §2 for
//! the substitution argument.
//!
//! ```
//! use dibella_comm::CommWorld;
//!
//! let sums = CommWorld::run(4, |comm| {
//!     // Each rank contributes rank+1; everyone learns the total.
//!     comm.allreduce_sum_u64(comm.rank() as u64 + 1)
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

#![warn(missing_docs)]

mod comm;
pub mod executor;
pub mod frame;
mod hub;
pub mod round_exchange;
pub mod stats;
pub mod transport;
pub mod wire;
mod world;

pub use comm::{Comm, PendingExchange};
pub use executor::BatchedExecutor;
pub use frame::{crc32, decode_frame, encode_frame, FrameError, FRAME_HEADER_BYTES};
pub use round_exchange::{records_per_round, ByteRounds, RoundExchange, RoundPlan};
pub use stats::CommStats;
pub use transport::{
    Collective, FaultSpec, FaultyConfig, FaultyInner, FaultyNet, InFlight, RetryPolicy, SharedMem,
    SimNet, SimNetConfig, Transport, TransportKind,
};
pub use wire::{decode_iter, decode_vec, encode_slice, try_decode_vec, Wire, WireError};
pub use world::CommWorld;
