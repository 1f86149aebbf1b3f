//! # dibella-align
//!
//! The pairwise alignment kernel of diBELLA's alignment stage: the gapped
//! **x-drop** seed extension (paper §2/§9; a from-scratch equivalent of
//! the SeqAn kernel the authors call), and the **full Smith-Waterman**
//! oracle used to validate it.
//!
//! There is one x-drop kernel. It computes antidiagonals sixteen cells at
//! a time in 16-bit lanes, and runs a scalar `i32` core instead when the
//! scoring or `x` do not fit 16-bit rows (or a cell sinks out of their
//! range mid-extension) — a choice made from the input, with the same
//! result either way. [`SimdMode::Scalar`] pins the scalar core for every
//! input; the differential tests use it as the oracle the lane kernel
//! must match bit for bit.
//!
//! Three entry points, all over a caller-owned [`AlignWorkspace`] (no heap
//! allocation once it is warm): [`SeedExtender`] is what stage 4 runs —
//! one read against one or more oriented partners, any number of seeds
//! each, every read staged once; [`extend_seed`] is its one-shot form;
//! [`extend_xdrop`] is a single directional extension. Every result
//! carries the number of DP cells computed — the currency of the
//! cross-architecture cost model and the quantity whose variance produces
//! the alignment-stage load imbalance of Figure 8.

#![warn(missing_docs)]

mod scoring;
mod simd;
mod sw;
mod workspace;
mod xdrop;

pub use scoring::Scoring;
pub use simd::SimdMode;
pub use sw::{smith_waterman, sw_forward, LocalAlignment};
pub use workspace::AlignWorkspace;
pub use xdrop::{
    extend_seed, extend_xdrop, Dir, Extension, SeedAlignment, SeedExtender, SeedHit,
};
