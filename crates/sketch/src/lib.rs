//! # dibella-sketch
//!
//! The probabilistic filter of diBELLA's k-mer analysis: the
//! [`BloomFilter`] that eliminates singleton k-mers before hash-table
//! construction (paper §6). Stage 1 sizes it from the Eq.-2 estimate of
//! the distinct k-mers (`dibella_kmer::params`); no cardinality pass runs.
//!
//! It operates on pre-hashed 64-bit keys: routing a k-mer to its owner
//! rank and probing the filter share one strong hash
//! (`dibella_kmer::hash`).

#![warn(missing_docs)]

pub mod bloom;

pub use bloom::BloomFilter;
