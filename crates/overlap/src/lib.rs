//! # dibella-overlap
//!
//! Stage 3 of the diBELLA pipeline (paper §8): traverse the reliable-k-mer
//! hash table partitions in parallel, form every pair of reads sharing a
//! retained k-mer, place each alignment task with the owner of one of its
//! reads via the odd/even heuristic, exchange tasks in byte-bounded
//! all-to-all rounds, consolidate per-pair seed lists, and filter seeds by
//! the run's exploration policy (one seed / min-distance). Under the
//! minimizer seed mode an optional colinear chain filter ([`chain`]) runs
//! between consolidation and the policy.
//!
//! Pairs are found by one engine, [`spgemm`]: the blocked sparse product
//! `A·Aᵀ` of the read-by-k-mer matrix, which yields the pair multiset of
//! the paper's Algorithm 1 ([`reference_pairs`], the test oracle) with a
//! pair's local seeds folded into one record at the source.

#![warn(missing_docs)]

pub mod chain;
pub mod policy;
pub mod spgemm;
pub mod stage;
pub mod task;

pub use chain::{chain_seeds, ChainConfig};
pub use policy::{SeedFold, SeedPolicy};
pub use spgemm::{
    count_row_block, decode_pair_records, pack_row_block, write_pair_record, PairRecordError,
    PairRecordErrorKind, RecordSeeds, SpgemmBlockOut,
};
pub use stage::{
    overlap_stage_with_lengths, reference_pairs, OverlapConfig, OverlapCounters, OverlapEngine,
    OverlapOutput,
};
pub use task::{task_home, OverlapTask, ReadPair, SharedSeed, TaskPlacement};
