//! Chaos soak: the hardened exchange layer must make the pipeline's
//! output a pure function of its input — independent of the transport
//! mangling frames underneath it.
//!
//! The determinism matrix's fault rows (the matrix lives in
//! `tests/common/matrix.rs`) hold that the seeded fault injector of a
//! `faulty:` transport never changes alignments, work counters or logical traffic
//! — across fault mixes, world sizes, thread counts and round caps —
//! and that its fault counters are nonzero exactly when it injects. This
//! suite also holds the recovery paths around it:
//!
//! * a run whose retries are exhausted fails the stage cleanly; and
//! * a chaos run's checkpoints resume to byte-identical output, and a
//!   checkpoint is only resumed by a run it answers.

mod common;

use common::matrix::{check, Fault, Net, Row, SLICE, STREAM, UNBOUNDED};
use common::{faults_survived, genome_slice};
use dibella::prelude::*;

/// Corruption, drops and the mixed preset over shared memory: on 1, 2
/// and 4 ranks, in one round and streamed; mixed faults under threaded
/// stages.
#[test]
fn chaos_sweep_over_shared_memory() {
    let faults = &[Net::Faulty(Fault::Corrupt), Net::Faulty(Fault::Drop), Net::Faulty(Fault::Mixed)];
    check(&[
        Row { ranks: &[1, 2, 4], nets: faults, caps: &[UNBOUNDED, STREAM], ..SLICE },
        Row { ranks: &[2], threads: &[4], nets: &faults[2..], caps: &[STREAM], ..SLICE },
    ]);
}

/// A faulty transport at zero rates is a transparent wrapper: same
/// output, zero fault counters.
#[test]
fn zero_rate_chaos_is_transparent() {
    check(&[Row {
        ranks: &[1, 2, 4],
        nets: &[Net::Faulty(Fault::Quiet)],
        caps: &[UNBOUNDED, STREAM],
        ..SLICE
    }]);
}

/// Overlapping error-free reads off one deterministic pseudo-random
/// genome.
fn dataset() -> ReadSet {
    genome_slice(24, 300, 110, 0xC4A0_5EED)
}

fn cfg(transport: TransportKind, streaming: bool) -> PipelineConfig {
    PipelineConfig {
        k: 15,
        error_rate: 0.0,
        max_multiplicity: Some(24),
        transport,
        // The streaming variant forces many small exchange rounds — more
        // frames, more injection opportunities, and coverage of the
        // round-capped recovery path.
        max_kmers_per_round: if streaming { 256 } else { usize::MAX },
        max_exchange_bytes_per_round: if streaming { 48 << 10 } else { usize::MAX },
        ..Default::default()
    }
}

/// Exhausted retries must fail the stage cleanly (a panic naming the
/// recovery path), not hang or emit damaged data.
#[test]
fn exhausted_retries_fail_the_stage_cleanly() {
    let reads = dataset();
    let transport: TransportKind = "faulty:shared:3:corrupt=1.0,retries=0".parse().unwrap();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_pipeline(&reads, 2, &cfg(transport, false))
    }));
    let payload = result.expect_err("a fully corrupting medium with no retries must fail");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("still damaged"),
        "stage failure should name the exhausted retransmit path, got: {msg}"
    );
}

/// Tentpole part 3 end to end: a *chaos* run writes stage checkpoints;
/// both a clean resume and a chaos resume reproduce its alignments
/// bit-identically while skipping stages 1–3.
#[test]
fn chaos_checkpoints_resume_bit_identically() {
    let reads = dataset();
    let dir = std::env::temp_dir()
        .join(format!("dibella-chaos-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Mixed faults plus a stall on *every* exchange that outlasts the
    // wait timeout: each call counts at least one `wait_timeouts`, so the
    // leg survives faults by construction — not because a seeded rate
    // happened to fire within however many calls the stages make.
    let chaos_transport: TransportKind =
        "faulty:shared:11:mixed,stall=1,stall_ms=12,timeout_ms=5".parse().unwrap();
    let with_ckpt = |t: TransportKind| PipelineConfig {
        checkpoint_dir: Some(dir.clone()),
        ..cfg(t, true)
    };

    let first = run_pipeline(&reads, 2, &with_ckpt(chaos_transport));
    assert!(faults_survived(&first) > 0, "the chaos leg should have injected faults");

    // Clean resume: stages 1–3 skipped, identical alignments.
    let resumed = run_pipeline(&reads, 2, &with_ckpt(TransportKind::SharedMem));
    assert_eq!(resumed.alignments, first.alignments);
    for r in &resumed.reports {
        assert_eq!(r.overlap.rounds, 0, "resume must skip the overlap stage");
    }

    // Chaos resume: still identical — stage 4's exchanges recover too.
    let again = run_pipeline(&reads, 2, &with_ckpt("faulty:shared:13:mixed".parse().unwrap()));
    assert_eq!(again.alignments, first.alignments);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint is only resumed by a run it answers: a changed seed
/// policy (which reshapes the task list) or a changed depth (which moves
/// the derived multiplicity threshold `m`, and so the table) recomputes
/// and writes what a run without checkpoints writes.
#[test]
fn resume_under_a_changed_policy_or_depth_equals_a_fresh_run() {
    let reads = dataset();
    let dir = std::env::temp_dir().join(format!("dibella-changed-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `m` derived from depth, not overridden: at e = 0 it is ~depth (52
    // at depth 30), and at depth 0.01 it is 2, which drops the k-mers
    // three reads share.
    let base = PipelineConfig { max_multiplicity: None, depth: 30.0, ..cfg(TransportKind::SharedMem, false) };
    let all_seeds = PipelineConfig { seed_policy: SeedPolicy::MinDistance(15), ..base.clone() };
    let shallow = PipelineConfig { depth: 0.01, ..all_seeds.clone() };
    assert_ne!(shallow.multiplicity_threshold(), all_seeds.multiplicity_threshold());

    let with_ckpt = |c: &PipelineConfig| PipelineConfig { checkpoint_dir: Some(dir.clone()), ..c.clone() };
    // Each leg resumes from the checkpoints the leg before it wrote.
    let mut written = run_pipeline(&reads, 2, &with_ckpt(&base)).alignments;
    for (label, changed) in [("policy", &all_seeds), ("depth", &shallow)] {
        let fresh = run_pipeline(&reads, 2, changed);
        assert_ne!(fresh.alignments, written, "{label}: the change must matter");
        let resumed = run_pipeline(&reads, 2, &with_ckpt(changed));
        assert_eq!(resumed.alignments, fresh.alignments, "{label}: resumed a stale checkpoint");
        assert!(resumed.reports.iter().any(|r| r.overlap.rounds > 0), "{label}: stage 3 was skipped");
        written = resumed.alignments;
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
