//! # dibella
//!
//! A production-quality Rust reproduction of **diBELLA: Distributed Long
//! Read to Long Read Alignment** (Ellis, Guidi, Buluç, Oliker, Yelick —
//! ICPP 2019, DOI 10.1145/3337821.3337919): the first distributed-memory
//! overlapper and aligner designed for noisy long reads.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`kmer`] | `dibella-kmer` | packed k-mers, extraction, hashing, BELLA's k/m selection |
//! | [`io`] | `dibella-io` | FASTQ/FASTA, block-parallel input, distributed read store |
//! | [`sketch`] | `dibella-sketch` | Bloom filter (sized from the Eq.-2 estimate) |
//! | [`comm`] | `dibella-comm` | SPMD thread-per-rank world with MPI-style collectives and two transports (shared memory / fault-injecting chaos) |
//! | [`netmodel`] | `dibella-netmodel` | Table-1 platform models + LogGP cost projection |
//! | [`kcount`] | `dibella-kcount` | stages 1–2: distributed k-mer analysis |
//! | [`overlap`] | `dibella-overlap` | stage 3: Algorithm 1 pair generation, parity task placement, seed policies |
//! | [`align`] | `dibella-align` | stage 4 kernel: gapped x-drop seed extension (16-bit lanes, scalar fallback) + the full SW oracle |
//! | [`pipeline`] | `dibella-core` | the four-stage pipeline, reports, cost-model bridge |
//! | [`baseline`] | `dibella-baseline` | DALIGNER-style single-node comparator (Table 2) |
//! | [`datagen`] | `dibella-datagen` | synthetic PacBio-like data with ground truth |
//!
//! ## Quickstart
//!
//! ```
//! use dibella::prelude::*;
//!
//! // Simulate a tiny PacBio-like dataset (deterministic).
//! let genome = dibella::datagen::GenomeSpec { size: 20_000, seed: 7, ..Default::default() }
//!     .generate();
//! let ds = dibella::datagen::simulate_reads(
//!     &genome,
//!     &dibella::datagen::ReadSimSpec {
//!         depth: 12.0,
//!         mean_len: 2_500,
//!         min_len: 400,
//!         errors: dibella::datagen::ErrorModel::pacbio(0.12),
//!         seed: 1,
//!         ..Default::default()
//!     },
//! );
//!
//! // Run the 4-stage pipeline on 4 ranks.
//! let cfg = PipelineConfig { k: 15, depth: 12.0, error_rate: 0.12, ..Default::default() };
//! let result = run_pipeline(&ds.reads, 4, &cfg);
//! assert!(result.n_pairs() > 0);
//! ```

#![warn(missing_docs)]

pub use dibella_align as align;
pub use dibella_baseline as baseline;
pub use dibella_comm as comm;
pub use dibella_core as pipeline;
pub use dibella_datagen as datagen;
pub use dibella_io as io;
pub use dibella_kcount as kcount;
pub use dibella_kmer as kmer;
pub use dibella_netmodel as netmodel;
pub use dibella_overlap as overlap;
pub use dibella_sketch as sketch;

/// The most common imports in one place.
pub mod prelude {
    pub use dibella_align::{Scoring, SeedHit};
    pub use dibella_comm::{CommWorld, TransportKind};
    pub use dibella_core::{
        run_pipeline, run_pipeline_fastq, AlignmentRecord, PipelineConfig, PipelineResult,
        SeedMode,
    };
    pub use dibella_io::{Read, ReadId, ReadSet};
    pub use dibella_netmodel::{NodeMapping, Platform, PlatformId};
    pub use dibella_overlap::{ReadPair, SeedPolicy};
}
