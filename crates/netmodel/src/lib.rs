//! # dibella-netmodel
//!
//! Cross-architecture performance projection for the diBELLA reproduction.
//!
//! The paper evaluates on Cori (Cray XC40), Edison (XC30), Titan (XK7) and
//! an AWS c3.8xlarge cluster (Table 1). Those machines are not available
//! here, so the pipeline executes for real on a shared-memory SPMD world
//! while recording exact per-rank operation counts and per-destination
//! traffic, and this crate converts the records into modeled stage times
//! per platform: a LogGP-style latency/bandwidth exchange model plus a
//! calibrated compute model with a cache-capacity term (the source of the
//! paper's superlinear strong-scaling efficiencies) and the one-time
//! first-`MPI_Alltoallv` setup cost the paper twice calls out.
//!
//! See DESIGN.md §2 and §5 for the substitution rationale.

#![warn(missing_docs)]

pub mod cost;
pub mod efficiency;
pub mod op_costs;
pub mod platforms;

pub use cost::{
    cache_penalty, collective_latency_s, exchange_transfer_s, first_alltoallv_setup_s, stage_cost,
    NodeMapping, RankLoad, StageCost,
};
pub use efficiency::{mrate, render_table, speedup, strong_efficiency, Series};
pub use platforms::{table1, Platform, PlatformId, AWS, CORI, EDISON, TITAN};
