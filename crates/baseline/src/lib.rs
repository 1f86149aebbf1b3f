//! # dibella-baseline
//!
//! The single-node comparator of Table 2: a DALIGNER-style overlapper
//! (k-mer tuple sort + merge-scan pair discovery + repeat masking) sharing
//! diBELLA's x-drop alignment kernel. It runs on one thread: it has never
//! been parallel, so Table 2 sets a multi-rank pipeline against a
//! single-threaded baseline. It stands in for the DALIGNER binary the
//! paper ran (docs/ARCHITECTURE.md maps it to the paper's Table 2).

#![warn(missing_docs)]

pub mod daligner;

pub use daligner::{
    align_pair, run_baseline, BaselineAlignment, BaselineConfig, BaselineResult, BaselineTimings,
};
