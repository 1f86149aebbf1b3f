//! # dibella-datagen
//!
//! Synthetic data substituting for the paper's PacBio E. coli read sets
//! (paper §2): reproducible genomes with planted repeat structure, a
//! PacBio-CLR-like insertion-dominated error model, log-normal read
//! sampling on both strands, scalable E. coli 30×/100× presets, and —
//! something the real data lacks — exact ground-truth read layouts for
//! overlap-recall evaluation.

#![warn(missing_docs)]

pub mod errors;
pub mod genome;
pub mod presets;
pub mod reads;

pub use errors::ErrorModel;
pub use genome::GenomeSpec;
pub use presets::{ecoli_100x_like, ecoli_30x_like, ecoli_30x_sample_like, ECOLI_GENOME};
pub use reads::{simulate_reads, ReadSimSpec, SyntheticDataset, TrueLayout};
