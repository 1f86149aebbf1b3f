//! # dibella-align
//!
//! Pairwise alignment kernels for diBELLA's alignment stage: the gapped
//! **x-drop** seed extension used in production (paper §2/§9; a
//! from-scratch equivalent of the SeqAn kernel the authors call), a
//! **banded Smith-Waterman**, and the **full Smith-Waterman** oracle used
//! to validate both. Every kernel reports the number of DP cells it
//! computed — the currency of the cross-architecture cost model and the
//! quantity whose variance produces the alignment-stage load imbalance of
//! Figure 8.

#![warn(missing_docs)]

pub mod banded;
pub mod cigar;
pub mod scoring;
pub mod simd;
pub mod sw;
pub mod workspace;
pub mod xdrop;

pub use banded::{band_for_error_rate, banded_sw, banded_sw_with, banded_sw_with_workspace};
pub use cigar::{global_alignment, global_alignment_with_workspace, Cigar, CigarOp};
pub use scoring::Scoring;
pub use simd::{KernelImpl, SimdMode};
pub use sw::{smith_waterman, sw_forward, LocalAlignment};
pub use workspace::AlignWorkspace;
pub use xdrop::{
    extend_seed, extend_seed_with, extend_seed_with_workspace, extend_ungapped, extend_xdrop,
    extend_xdrop_dir_with, extend_xdrop_dir_with_workspace, extend_xdrop_with,
    extend_xdrop_with_workspace, Dir, Extension, SeedAlignment, SeedExtender, SeedHit,
};
