//! # dibella-core
//!
//! The diBELLA pipeline (Ellis et al., ICPP 2019): a four-stage
//! distributed-memory overlapper and aligner for noisy long reads.
//!
//! 1. **Bloom filter** — stream k-mers to their owner ranks; drop
//!    singletons probabilistically, seed the hash table with the rest.
//! 2. **Hash table** — second pass attaches (read, position, strand)
//!    occurrence lists; filter to *reliable* k-mers (2 ≤ count ≤ m).
//! 3. **Overlap** — Algorithm 1 forms all read pairs sharing a reliable
//!    k-mer and routes each task to the home of one of its reads.
//! 4. **Alignment** — fetch remote reads, then x-drop seed-and-extend on
//!    every (pair, seed) task.
//!
//! ```
//! use dibella_core::{run_pipeline, PipelineConfig};
//! use dibella_io::{Read, ReadSet};
//!
//! // Three overlapping slices of one tiny random "genome".
//! let mut s = 0x0123_4567_89AB_CDEFu64;
//! let g: Vec<u8> = (0..160).map(|_| {
//!     s ^= s << 13; s ^= s >> 7; s ^= s << 17;
//!     b"ACGT"[(s % 4) as usize]
//! }).collect();
//! let reads: ReadSet = (0..3u32)
//!     .map(|i| Read::new(i, format!("r{i}"), g[i as usize * 30..][..100].to_vec()))
//!     .collect();
//! let cfg = PipelineConfig { k: 11, max_multiplicity: Some(16), ..Default::default() };
//! let result = run_pipeline(&reads, 2, &cfg);
//! assert!(result.n_pairs() >= 2);
//! ```

#![warn(missing_docs)]

pub mod alignment_stage;
pub mod checkpoint;
pub mod config;
pub mod graph;
pub mod model;
pub mod pipeline;
pub mod record;

pub use alignment_stage::{align_tasks, fetch_remote_reads, read_reply_bytes, AlignCounters};
pub use checkpoint::{
    decode_table, decode_tasks, encode_table, encode_tasks, run_fingerprint, TableCheckpoint,
    TABLE_STAGE, TASKS_STAGE,
};
pub use config::{PipelineConfig, SeedMode};
pub use graph::{OverlapEdge, OverlapGraph};
pub use model::{project, rank_load, PipelineProjection, Stage};
pub use pipeline::{
    pipeline_rank, run_pipeline, run_pipeline_fastq, PipelineResult, RankReport, StageTiming,
};
pub use record::AlignmentRecord;
