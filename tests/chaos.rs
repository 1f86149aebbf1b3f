//! Chaos soak: the hardened exchange layer must make the pipeline's
//! output a pure function of its input — independent of the transport
//! mangling frames underneath it.
//!
//! The sweep runs the full four-stage pipeline under the fault-injecting
//! `FaultyNet` transport across fault mixes (corrupt-only, drop-only,
//! mixed) × world sizes {1, 2, 4} × inner transports {shared memory,
//! simulated Cori} × round caps {monolithic, streaming}, and checks,
//! against a fault-free run of the same configuration:
//!
//! * alignments are **bit-identical**;
//! * every stage's work counters, filter statistics, payload byte
//!   accounting, collective counts, and round peaks are identical —
//!   recovery traffic must never leak into the logical accounting;
//! * the robustness counters are nonzero exactly when faults were
//!   injected (and zero on clean and zero-rate transports);
//! * a run whose retries are exhausted fails the stage cleanly; and
//! * a chaos run's checkpoints resume to byte-identical output.
//!
//! Fault rates are scaled by `1/P²` so the per-round clean probability
//! `(1-f)^(P²)` stays ≈ 0.7 at every world size: convergence in ~1.4
//! attempts, retry-exhaustion odds ~1e-5 per round — and since injection
//! is a pure function of the seed, a passing sweep stays passing.

use dibella::prelude::*;

/// Overlapping error-free reads off one deterministic pseudo-random
/// genome (same construction as the smoke test, different seed).
fn dataset() -> ReadSet {
    let mut state = 0xC4A0_5EEDu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let genome: Vec<u8> = (0..3_000).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
    (0..24u32)
        .map(|i| Read::new(i, format!("r{i}"), genome[i as usize * 110..][..300].to_vec()))
        .collect()
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

/// Fault spec with rates scaled to the world size (see module docs).
fn spec_for(kind: &str, p: usize) -> String {
    let scale = |base: f64| base / (p * p) as f64;
    match kind {
        "corrupt" => format!("corrupt={:.4}", scale(0.3)),
        "drop" => format!("drop={:.4}", scale(0.3)),
        "mixed" => format!(
            "corrupt={:.4},drop={:.4},dup={:.4},reorder={:.4}",
            scale(0.15),
            scale(0.08),
            scale(0.08),
            scale(0.05)
        ),
        other => panic!("unknown spec kind {other}"),
    }
}

/// Sum of the injected-and-survived fault counters over all ranks and
/// stages.
fn faults_survived(res: &PipelineResult) -> u64 {
    res.reports
        .iter()
        .map(|r| {
            let c = r.total_comm();
            c.frames_corrupt_detected + c.frames_retransmitted + c.duplicates_dropped
                + c.wait_timeouts
        })
        .sum()
}

/// Everything the chaos run must reproduce bit-identically from the
/// clean run: alignments, per-stage work counters, filter statistics,
/// and the *logical* traffic accounting (payload bytes, collective
/// counts, round peaks — recovery traffic rides outside these).
fn assert_work_identical(label: &str, chaos: &PipelineResult, clean: &PipelineResult) {
    assert_eq!(chaos.alignments, clean.alignments, "{label}: alignments diverged");
    assert_eq!(chaos.reports.len(), clean.reports.len());
    for (c, f) in chaos.reports.iter().zip(&clean.reports) {
        assert_eq!(c.bloom, f.bloom, "{label}: bloom counters rank {}", c.rank);
        assert_eq!(c.hash, f.hash, "{label}: hash counters rank {}", c.rank);
        assert_eq!(c.overlap, f.overlap, "{label}: overlap counters rank {}", c.rank);
        assert_eq!(c.align, f.align, "{label}: align counters rank {}", c.rank);
        assert_eq!(c.filter, f.filter, "{label}: filter stats rank {}", c.rank);
        assert_eq!(c.table_keys, f.table_keys, "{label}: table keys rank {}", c.rank);
        for (cc, fc) in c.stage_comms().iter().zip(f.stage_comms()) {
            assert_eq!(cc.dest_bytes, fc.dest_bytes, "{label}: payload bytes rank {}", c.rank);
            assert_eq!(cc.dest_msgs, fc.dest_msgs, "{label}: payload msgs rank {}", c.rank);
            assert_eq!(
                cc.alltoallv_calls, fc.alltoallv_calls,
                "{label}: collective count rank {}",
                c.rank
            );
            assert_eq!(
                cc.peak_round_bytes, fc.peak_round_bytes,
                "{label}: round peak rank {}",
                c.rank
            );
        }
    }
}

fn sweep(inner: &str) {
    let reads = dataset();
    for p in [1usize, 2, 4] {
        for streaming in [false, true] {
            let clean = run_pipeline(&reads, p, &cfg(inner.parse().unwrap(), streaming));
            assert!(!clean.alignments.is_empty());
            assert_eq!(
                faults_survived(&clean),
                0,
                "clean {inner} P={p} must report zero fault counters"
            );
            for (si, kind) in ["corrupt", "drop", "mixed"].into_iter().enumerate() {
                let seed = 1000 + 100 * p as u64 + 10 * streaming as u64 + si as u64;
                let transport: TransportKind =
                    format!("faulty:{inner}:{seed}:{}", spec_for(kind, p)).parse().unwrap();
                let chaos = run_pipeline(&reads, p, &cfg(transport, streaming));
                let label = format!("{inner} P={p} streaming={streaming} {kind}");
                assert_work_identical(&label, &chaos, &clean);
                if streaming {
                    // Many rounds → injection is effectively certain (and
                    // exactly reproducible: a pure function of the seed).
                    assert!(faults_survived(&chaos) > 0, "{label}: no faults recorded");
                }
            }
        }
    }
}

#[test]
fn chaos_sweep_over_shared_memory() {
    sweep("shared");
}

#[test]
fn chaos_sweep_over_simulated_cori() {
    sweep("sim:cori:2");
}

/// A zero-rate faulty transport is fully transparent: identical output
/// and zero fault counters — the "only if" half of "counters nonzero iff
/// faults injected".
#[test]
fn zero_rate_chaos_is_transparent() {
    let reads = dataset();
    let clean = run_pipeline(&reads, 2, &cfg(TransportKind::SharedMem, true));
    let quiet: TransportKind = "faulty:shared:7:corrupt=0,drop=0".parse().unwrap();
    let chaos = run_pipeline(&reads, 2, &cfg(quiet, true));
    assert_work_identical("zero-rate", &chaos, &clean);
    assert_eq!(faults_survived(&chaos), 0);
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
