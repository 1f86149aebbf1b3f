//! # dibella-baseline
//!
//! The single-node comparator of Table 2: a DALIGNER-style overlapper
//! (k-mer tuple sort + merge-scan pair discovery + repeat masking) sharing
//! diBELLA's x-drop alignment kernel, parallelized with rayon. See
//! DESIGN.md §2 for why this is the faithful stand-in for the
//! closed-world DALIGNER binary.

#![warn(missing_docs)]

pub mod daligner;

pub use daligner::{
    align_pair, run_baseline, BaselineAlignment, BaselineConfig, BaselineResult, BaselineTimings,
};
