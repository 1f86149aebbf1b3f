//! # dibella-overlap
//!
//! Stage 3 of the diBELLA pipeline (paper §8): traverse the reliable-k-mer
//! hash table partitions in parallel, form every pair of reads sharing a
//! retained k-mer (Algorithm 1), place each alignment task with the owner
//! of one of its reads via the odd/even heuristic, exchange tasks with a
//! single irregular all-to-all, consolidate per-pair seed lists, and
//! filter seeds by the run's exploration policy (one seed / min-distance).
//! Under the minimizer seed mode an optional colinear chain filter
//! ([`chain`]) runs between consolidation and the policy.
//!
//! The exchange half is pluggable ([`OverlapEngine`]): the default
//! `pairs` engine is Algorithm 1 verbatim, while the [`spgemm`] engine
//! computes the same pair multiset as a blocked `A·Aᵀ` sparse matrix
//! product with source-side per-pair seed consolidation — bit-identical
//! alignments, strictly fewer wire bytes whenever pairs share seeds.

#![warn(missing_docs)]

pub mod chain;
pub mod policy;
pub mod spgemm;
pub mod stage;
pub mod task;

pub use chain::{chain_seeds, ChainConfig};
pub use policy::{SeedFold, SeedPolicy};
pub use spgemm::{
    count_row_block, decode_pair_records, pack_row_block, write_pair_record, RecordSeeds,
    SpgemmAccumulator,
    SpgemmBlockOut,
};
pub use stage::{
    overlap_stage_with_lengths, reference_pairs, OverlapConfig, OverlapCounters,
    OverlapEngine, OverlapOutput, PairIndexSpace, PairSeeds, SortedPairs,
};
pub use task::{task_home, OverlapTask, ReadPair, SharedSeed, TaskPlacement};
