//! # dibella-kcount
//!
//! Stages 1 and 2 of the diBELLA pipeline: the distributed Bloom-filter
//! pass that eliminates singleton k-mers and initializes the hash table
//! with non-singleton keys (paper §6), and the hash-table pass that
//! attaches (read, position, strand) occurrence lists and filters to the
//! *reliable* k-mer set (paper §7). The reads' k-mers cross the wire once,
//! in the Bloom pass, as owner-run records of 2-bit bases
//! ([`dibella_kmer::supermer`]); each owner keeps what it received and the
//! hash pass sweeps it locally. Under `--seed-mode minimizer` both passes
//! are replaced by a single sketch pass ([`stages::minimizer_stage`]) that
//! exchanges only (w, k) window-minimum k-mers into the same table shape.
//!
//! The passes are SPMD functions over a [`dibella_comm::Comm`] handle;
//! the exchanging ones stream their input in bounded rounds of irregular
//! `Alltoallv` exchanges.

#![warn(missing_docs)]

pub mod cardinality;
pub mod config;
pub mod csr;
pub mod stages;
pub mod table;

pub use cardinality::hll_cardinality;
pub use config::KcountConfig;
pub use csr::ReadKmerCsr;
pub use stages::{
    bloom_stage_overlapping, hash_stage_prepacked, minimizer_stage, pack_supermers, pack_windows,
    BloomOutput, HashOutput, KmerStageCounters, MinimizerOutput, RetainedRuns,
};
pub use table::{FilterStats, KmerEntry, KmerHashTable, KmerKeyHasher, Occurrence};
