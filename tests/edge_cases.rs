//! Edge-case and failure-injection tests across the public API surface:
//! degenerate inputs the pipeline must survive (or reject loudly).

mod common;

use common::genome_slice;
use dibella::prelude::*;

fn cfg_k(k: usize) -> PipelineConfig {
    PipelineConfig {
        k,
        depth: 10.0,
        error_rate: 0.1,
        max_multiplicity: Some(16),
        ..Default::default()
    }
}

/// Reads shorter than k contribute no k-mers but must flow through every
/// stage without panicking.
#[test]
fn reads_shorter_than_k() {
    let reads: ReadSet = (0..6u32)
        .map(|i| Read::new(i, format!("r{i}"), vec![b'A'; 5]))
        .collect();
    let res = run_pipeline(&reads, 3, &cfg_k(15));
    assert_eq!(res.alignments.len(), 0);
    assert_eq!(res.n_pairs(), 0);
}

/// A single read cannot overlap anything.
#[test]
fn single_read_dataset() {
    let reads: ReadSet = vec![Read::new(0, "only", vec![b'A'; 500])]
        .into_iter()
        .collect();
    let res = run_pipeline(&reads, 2, &cfg_k(11));
    assert_eq!(res.n_pairs(), 0);
}

/// More ranks than reads: most ranks own nothing, collectives must still
/// match.
#[test]
fn more_ranks_than_reads() {
    let reads = genome_slice(3, 200, 100, 0x5EED);
    let res = run_pipeline(&reads, 16, &cfg_k(11));
    assert!(res.n_pairs() >= 2, "adjacent overlaps missed");
    assert_eq!(res.reports.len(), 16);
}

/// Reads consisting only of ambiguous bases yield no k-mers at all.
#[test]
fn all_ambiguous_reads() {
    let reads: ReadSet = (0..4u32)
        .map(|i| Read::new(i, format!("n{i}"), vec![b'N'; 300]))
        .collect();
    let res = run_pipeline(&reads, 2, &cfg_k(11));
    assert_eq!(res.n_pairs(), 0);
    let kmers: u64 = res.reports.iter().map(|r| r.bloom.kmers_parsed).sum();
    assert_eq!(kmers, 0);
}

/// Identical duplicate reads: every k-mer recurs `n` times; with m below
/// n everything is filtered, with m above n every pair aligns full-length.
#[test]
fn duplicate_reads_follow_m() {
    let seq = genome_slice(1, 300, 0, 0xFEED).into_reads().remove(0).seq;
    let reads: ReadSet = (0..6u32)
        .map(|i| Read::new(i, format!("dup{i}"), seq.clone()))
        .collect();
    // m = 4 < 6 copies → all k-mers are "repeats", no overlaps.
    let strict = run_pipeline(&reads, 2, &PipelineConfig { max_multiplicity: Some(4), ..cfg_k(11) });
    assert_eq!(strict.n_pairs(), 0);
    // m = 16 > 6 → all 15 pairs, each aligned end to end.
    let lax = run_pipeline(&reads, 2, &PipelineConfig { max_multiplicity: Some(16), ..cfg_k(11) });
    assert_eq!(lax.n_pairs(), 15);
    assert!(lax.alignments.iter().all(|a| a.score == 300));
}

/// Malformed FASTQ through the parallel-input path is a typed error on
/// every world size, not a hang: the bad record sits in the middle rank's
/// byte range of three, and the world returns the error that rank hit.
#[test]
fn malformed_fastq_is_a_typed_error() {
    let mut fastq = Vec::new();
    dibella::io::write_fastq(&mut fastq, &genome_slice(8, 200, 60, 0xFA57)).unwrap();
    // The bad record goes between the 4th and 5th good ones.
    let half = fastq.len() / 2;
    let cut = half + fastq[half..].windows(2).position(|w| w == b"\n@").unwrap() + 1;
    let input = [&fastq[..cut], &b"@bad\nACGT\nOOPS\nIIII\n"[..], &fastq[cut..]].concat();
    let middle = dibella::io::byte_ranges(input.len(), 3)[1];
    assert!((middle.0..middle.1).contains(&cut), "bad record at byte {cut}, not in {middle:?}");
    for p in [1, 3] {
        let (done, result) = std::sync::mpsc::channel();
        let (input, cfg) = (input.clone(), cfg_k(11));
        std::thread::spawn(move || done.send(run_pipeline_fastq(&input, p, &cfg).map(|r| r.alignments.len())));
        let err = result
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("P = {p}: no result within 60 s"))
            .expect_err("a malformed record must fail the run");
        let msg = err.to_string();
        assert!(matches!(err, dibella::io::ParseError::Malformed { .. }), "P = {p}: {msg}");
        assert!(msg.contains("malformed record"), "P = {p}: {msg}");
    }
}

/// Empty FASTQ input: zero reads, zero output, no hangs.
#[test]
fn empty_fastq() {
    let res = run_pipeline_fastq(b"", 3, &cfg_k(11)).unwrap();
    assert_eq!(res.alignments.len(), 0);
    assert_eq!(res.reports.len(), 3);
}

/// The x-drop parameter must be positive — misconfiguration is caught at
/// the kernel boundary.
#[test]
#[should_panic(expected = "x-drop threshold must be positive")]
fn zero_xdrop_rejected() {
    use dibella::align::{extend_xdrop, AlignWorkspace, Dir, Scoring, SimdMode};
    let mut ws = AlignWorkspace::new();
    let _ = extend_xdrop(b"ACGT", b"ACGT", Dir::Fwd, Scoring::bella(), 0, &mut ws, SimdMode::Auto);
}

/// Reverse-complement palindromic content (seeds hitting themselves) must
/// not produce self-pairs.
#[test]
fn no_self_pairs_ever() {
    // Reads with internal repeat structure (same k-mer twice per read).
    let reads: ReadSet = genome_slice(8, 400, 150, 0xABC)
        .into_iter()
        .map(|mut r| {
            r.seq.extend_from_within(..40);
            r
        })
        .collect();
    let res = run_pipeline(&reads, 3, &cfg_k(11));
    assert!(res.alignments.iter().all(|a| a.pair.a != a.pair.b));
}
