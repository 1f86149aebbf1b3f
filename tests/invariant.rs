//! The determinism matrix's front-end rows. The matrix, its comparison
//! with a reference run and its per-cell accounting check live in
//! `tests/common/matrix.rs`; its other rows run from the suites named for
//! the axis they sweep.

mod common;

use common::matrix::{check, Row, BOTH_MODES, BOTH_POLICIES, KIB4, SLICE, SUB_RECORD, UNBOUNDED};
use dibella::prelude::*;

/// Both seed front ends and both seed folds, on worlds of 1, 2 and 4
/// ranks, in one round and in 4 KiB rounds. (The faulty transport's rows
/// are in `tests/chaos.rs`.)
#[test]
fn front_ends_across_worlds_transports_and_caps() {
    check(&[Row {
        modes: BOTH_MODES,
        policies: BOTH_POLICIES,
        ranks: &[1, 2, 4],
        caps: &[UNBOUNDED, KIB4],
        ..SLICE
    }]);
}

/// A cap no record fits under still makes progress, one record a round:
/// on the reliable front end, and on minimizers with 4 threads.
#[test]
fn rounds_below_one_record() {
    check(&[
        Row { ranks: &[2], caps: &[SUB_RECORD], ..SLICE },
        Row { modes: &[SeedMode::Minimizer], ranks: &[2], threads: &[4], caps: &[SUB_RECORD], ..SLICE },
    ]);
}
