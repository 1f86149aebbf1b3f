//! # dibella-kmer
//!
//! Packed k-mer machinery for the diBELLA pipeline (ICPP 2019):
//! 2-bit base encoding, const-generic packed k-mers with canonicalization,
//! O(1)-per-position extraction from reads, the hash family used for owner
//! mapping and Bloom filters, and BELLA's statistical selection of the
//! k-mer length `k` and high-occurrence threshold `m`.
//!
//! ```
//! use dibella_kmer::{extract_kmers, params};
//!
//! let hits = extract_kmers::<1>(b"ACGTTGCAGGTATTTACGCAG", 17);
//! assert_eq!(hits.len(), 5);
//! let m = params::reliable_max_multiplicity(30.0, 0.15, 17, 1e-4);
//! assert!(m >= 2);
//! # let _: Vec<dibella_kmer::KmerHit<1>> = hits;
//! ```

#![warn(missing_docs)]

pub mod base;
pub mod extract;
pub mod hash;
pub mod minimizer;
pub mod packed;
pub mod params;
pub mod supermer;

pub use extract::{extract_kmers, kmer_count, window_hits, KmerHit, KmerIter, WindowIndex};
pub use minimizer::{minimizer_density, minimizer_window_hits, minimizers};
pub use hash::{double_hash, kmer_hash_words, mix64};
pub use packed::{Kmer, Kmer1, Kmer2, Strand};
