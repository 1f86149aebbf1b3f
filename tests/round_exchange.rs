//! The determinism matrix's round-cap rows: streaming an exchange in
//! capped rounds never changes what the pipeline computes, and every
//! round keeps to its cap. The matrix lives in `tests/common/matrix.rs`.

mod common;

use common::matrix::{check, Row, SLICE, TINY};

/// Tiny rounds on every world size from one to four ranks: every
/// exchanging stage streams. A k-mer budget per round on three ranks.
#[test]
fn round_cap_sweep_is_bit_identical() {
    check(&[
        Row { ranks: &[1, 2, 3, 4], caps: &[TINY], ..SLICE },
        Row { ranks: &[3], kmers_per_round: &[512], ..SLICE },
    ]);
}

/// Input read off FASTQ bytes, in tiny rounds and in one round.
#[test]
fn round_cap_matches_across_input_paths() {
    check(&[
        Row { ranks: &[3], caps: &[TINY], fastq: &[true], ..SLICE },
        Row { ranks: &[4], fastq: &[true], ..SLICE },
    ]);
}
