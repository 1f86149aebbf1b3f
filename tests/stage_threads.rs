//! The determinism matrix's thread rows: every stage — k-mer extraction,
//! hash counting, overlap pair enumeration and alignment — runs its
//! compute through the shared batched executor, and no thread count
//! changes a rank's outputs, work counters or traffic. The matrix lives
//! in `tests/common/matrix.rs`.

mod common;

use common::matrix::{check, Row, KIB4, SLICE, TINY, UNBOUNDED};
use dibella::align::SimdMode;

/// Every stage's compute on 1, 2 and 4 threads, in one round and in
/// 4 KiB rounds.
#[test]
fn all_stages_bit_identical_across_threads() {
    check(&[Row { threads: &[1, 2, 4], caps: &[UNBOUNDED, KIB4], ..SLICE }]);
}

/// Stage 4's scalar core and lane kernel on 1, 2 and 4 threads.
#[test]
fn simd_mode_bit_identical_across_kernels_and_threads() {
    check(&[Row { threads: &[1, 2, 4], simd: &[SimdMode::Scalar, SimdMode::Auto], ..SLICE }]);
}

/// Threads under tiny and KiB rounds on three ranks.
#[test]
fn round_cap_does_not_change_threaded_output() {
    check(&[Row { ranks: &[3], threads: &[1, 4], caps: &[TINY, KIB4], ..SLICE }]);
}
