//! End-to-end pipeline baseline writer: emits `BENCH_pipeline.json`.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p dibella-bench --bin bench_pipeline_json
//! ```
//!
//! (optionally pass an output path as the first argument). The file
//! records one full 4-rank pipeline run per seed mode (`reliable` and
//! `minimizer`) on the fixed sampled E. coli 30× workload: per stage, the
//! slowest rank's wall, exchange, pack and derived compute seconds (pack
//! and exchange are concurrent intervals — their sum may exceed the wall;
//! the excess is the engine's overlap. Neither alone does: the hash
//! pass's round 0, packed under the Bloom pass's last exchange, is Bloom
//! pack time), the executed streaming-exchange
//! rounds, the total bytes shipped, the bytes shipped per input base, and
//! the largest single-round send volume (`CommStats::peak_round_bytes` —
//! the figure `--round-mb` / `DIBELLA_ROUND_MB` bounds), plus
//! whole-pipeline wall, byte and alignment counts. The top-level
//! `seed_bytes_ratio` is the reliable front end's seed-stage wire bytes
//! (bloom + hash) over the minimizer sketch's — the sketch's headline
//! saving.
//!
//! Schema `/5` additionally records, per seed mode, an `overlap_engines`
//! block: the overlap stage run with *both* exchange engines
//! (`--overlap-engine pairs|spgemm`), side by side — wall/pack seconds,
//! rounds, wire bytes and peak round, plus the emission counters
//! (`pairs_emitted`, `candidate_pairs_emitted`, `pairs_deduped_at_source`)
//! and the derived `seed_dup_factor` (seed instances per shipped record —
//! the SpGEMM engine's source-side consolidation win; 1.0 by construction
//! for `pairs`). The writer asserts both engines produce identical
//! alignments before recording anything. The mode's main `stages` block
//! keeps describing the `pairs` run, so `/4` consumers see unchanged
//! semantics.
//!
//! Perf PRs diff this file to leave a measurable end-to-end trajectory;
//! wall seconds are machine-dependent (compare ratios across hosts), while
//! rounds, bytes and peaks are exact and must only move when the exchange
//! engine or the workload does. The usual knobs apply: `DIBELLA_SCALE`,
//! `DIBELLA_TRANSPORT`, `DIBELLA_THREADS` and `DIBELLA_ROUND_MB`
//! (`DIBELLA_SEED_MODE` and `DIBELLA_OVERLAP_ENGINE` are ignored — both
//! modes and both engines are always recorded).

use dibella_bench::{config_for, dataset, Workload};
use dibella_core::{run_pipeline, PipelineResult, RankReport, SeedMode};
use dibella_overlap::{OverlapEngine, SeedPolicy};
use std::time::Instant;

const RANKS: usize = 4;

/// One stage's aggregate row.
struct StageRow {
    name: &'static str,
    wall_s_max: f64,
    exchange_s_max: f64,
    pack_s_max: f64,
    compute_s_max: f64,
    rounds_max: u64,
    bytes_total: u64,
    peak_round_bytes_max: u64,
}

fn stage_rows(reports: &[RankReport]) -> Vec<StageRow> {
    ["bloom", "hash", "overlap", "align"]
        .into_iter()
        .enumerate()
        .map(|(si, name)| {
            let mut row = StageRow {
                name,
                wall_s_max: 0.0,
                exchange_s_max: 0.0,
                pack_s_max: 0.0,
                compute_s_max: 0.0,
                rounds_max: 0,
                bytes_total: 0,
                peak_round_bytes_max: 0,
            };
            for r in reports {
                let (timing, comm, rounds) = match si {
                    0 => (r.bloom_wall, &r.bloom_comm, r.bloom.rounds),
                    1 => (r.hash_wall, &r.hash_comm, r.hash.rounds),
                    2 => (r.overlap_wall, &r.overlap_comm, r.overlap.rounds),
                    _ => (r.align_wall, &r.align_comm, r.align.rounds),
                };
                row.wall_s_max = row.wall_s_max.max(timing.total.as_secs_f64());
                row.exchange_s_max = row.exchange_s_max.max(timing.exchange.as_secs_f64());
                row.pack_s_max = row.pack_s_max.max(timing.pack.as_secs_f64());
                row.compute_s_max = row.compute_s_max.max(timing.compute().as_secs_f64());
                row.rounds_max = row.rounds_max.max(rounds);
                row.bytes_total += comm.total_bytes();
                row.peak_round_bytes_max = row.peak_round_bytes_max.max(comm.peak_round_bytes);
            }
            row
        })
        .collect()
}

/// Seed-stage (bloom + hash) wire bytes of a run — the volume the
/// minimizer sketch exists to shrink.
fn seed_bytes(reports: &[RankReport]) -> u64 {
    reports
        .iter()
        .map(|r| r.bloom_comm.total_bytes() + r.hash_comm.total_bytes())
        .sum()
}

/// One engine's overlap-stage row for the `overlap_engines` block
/// (schema `/5`): the slowest rank's wall and pack seconds, executed
/// rounds, wire bytes, peak round, the emission counters, and the
/// derived `seed_dup_factor` — seed instances emitted per wire record
/// shipped (1.0 for `pairs` by construction; > 1 is the SpGEMM engine's
/// source-side consolidation).
fn engine_json(res: &PipelineResult, input_bases: u64) -> String {
    let rows = stage_rows(&res.reports);
    let o = &rows[2];
    debug_assert_eq!(o.name, "overlap");
    let emitted: u64 = res.reports.iter().map(|r| r.overlap.pairs_emitted).sum();
    let records: u64 = res.reports.iter().map(|r| r.overlap.candidate_pairs_emitted).sum();
    let deduped: u64 = res.reports.iter().map(|r| r.overlap.pairs_deduped_at_source).sum();
    assert_eq!(deduped, emitted - records, "dedup bookkeeping");
    let dup_factor = emitted as f64 / records.max(1) as f64;
    format!(
        "{{ \"wall_s_max\": {:.6}, \"pack_s_max\": {:.6}, \"rounds\": {}, \"bytes_total\": {}, \"bytes_per_input_base\": {:.6}, \"peak_round_bytes_max\": {}, \"pairs_emitted\": {emitted}, \"candidate_pairs_emitted\": {records}, \"pairs_deduped_at_source\": {deduped}, \"seed_dup_factor\": {dup_factor:.3}, \"pairs\": {} }}",
        o.wall_s_max,
        o.pack_s_max,
        o.rounds_max,
        o.bytes_total,
        o.bytes_total as f64 / input_bases as f64,
        o.peak_round_bytes_max,
        res.n_pairs(),
    )
}

/// Render one mode's `{ "stages": ..., "pipeline": ..., "overlap_engines":
/// ..., "faults": ... }` object from the `pairs`-engine run plus the
/// pre-rendered per-engine rows. The `faults` block sums the
/// hardened-exchange robustness counters across ranks and stages; on the
/// clean benchmark transport every field is zero — a nonzero value here
/// means the baseline was recorded over a fault-injecting transport and
/// must not be committed.
fn mode_json(res: &PipelineResult, elapsed_s: f64, input_bases: u64, engines: &str) -> String {
    let rows = stage_rows(&res.reports);
    let per_base = |bytes: u64| bytes as f64 / input_bases as f64;
    let stages: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "        \"{}\": {{ \"wall_s_max\": {:.6}, \"exchange_s_max\": {:.6}, \"pack_s_max\": {:.6}, \"compute_s_max\": {:.6}, \"rounds\": {}, \"bytes_total\": {}, \"bytes_per_input_base\": {:.6}, \"peak_round_bytes_max\": {} }}",
                r.name,
                r.wall_s_max,
                r.exchange_s_max,
                r.pack_s_max,
                r.compute_s_max,
                r.rounds_max,
                r.bytes_total,
                per_base(r.bytes_total),
                r.peak_round_bytes_max,
            )
        })
        .collect();
    let bytes_total: u64 = rows.iter().map(|r| r.bytes_total).sum();
    let mut faults = dibella_comm::CommStats::new(res.reports.len().max(1));
    for r in &res.reports {
        faults.merge(&r.total_comm());
    }
    format!(
        "{{\n      \"stages\": {{\n{}\n      }},\n      \"pipeline\": {{ \"wall_s\": {elapsed_s:.6}, \"slowest_rank_wall_s\": {:.6}, \"alignments_computed\": {}, \"pairs\": {}, \"bytes_total\": {bytes_total}, \"bytes_per_input_base\": {:.6} }},\n      \"overlap_engines\": {{\n{engines}\n      }},\n      \"faults\": {{ \"frames_corrupt_detected\": {}, \"frames_retransmitted\": {}, \"duplicates_dropped\": {}, \"wait_timeouts\": {}, \"retry_wall_s\": {:.6} }}\n    }}",
        stages.join(",\n"),
        res.wall().as_secs_f64(),
        res.n_alignments_computed(),
        res.n_pairs(),
        per_base(bytes_total),
        faults.frames_corrupt_detected,
        faults.frames_retransmitted,
        faults.duplicates_dropped,
        faults.wait_timeouts,
        faults.retry_wall.as_secs_f64(),
    )
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_pipeline.json".into());

    let workload = Workload::E30Sample;
    let ds = dataset(workload);
    let input_bases = ds.reads.total_bases();
    let base_cfg = config_for(workload, SeedPolicy::Single);

    let mut modes = Vec::new();
    let mut per_mode_seed_bytes = [0u64; 2];
    for (i, seed_mode) in [SeedMode::Reliable, SeedMode::Minimizer].into_iter().enumerate() {
        let mut engine_runs = Vec::new();
        for engine in [OverlapEngine::Pairs, OverlapEngine::Spgemm] {
            let cfg = dibella_core::PipelineConfig {
                seed_mode,
                overlap_engine: engine,
                ..base_cfg.clone()
            };
            eprintln!(
                "[bench] running {} seeds={seed_mode} engine={engine} P={RANKS} ...",
                workload.name()
            );
            let t0 = Instant::now();
            let res = run_pipeline(&ds.reads, RANKS, &cfg);
            engine_runs.push((engine, res, t0.elapsed().as_secs_f64()));
        }
        // The engines must be interchangeable before anything is recorded.
        assert_eq!(
            engine_runs[0].1.alignments, engine_runs[1].1.alignments,
            "overlap engines disagree on final alignments (seeds={seed_mode})"
        );
        let engines: Vec<String> = engine_runs
            .iter()
            .map(|(engine, res, _)| format!("        \"{engine}\": {}", engine_json(res, input_bases)))
            .collect();
        let (_, pairs_res, pairs_elapsed) = &engine_runs[0];
        per_mode_seed_bytes[i] = seed_bytes(&pairs_res.reports);
        modes.push(format!(
            "    \"{seed_mode}\": {}",
            mode_json(pairs_res, *pairs_elapsed, input_bases, &engines.join(",\n"))
        ));
    }
    let seed_bytes_ratio = per_mode_seed_bytes[0] as f64 / per_mode_seed_bytes[1] as f64;

    let round_cap = if base_cfg.max_exchange_bytes_per_round == usize::MAX {
        "null".to_owned()
    } else {
        base_cfg.max_exchange_bytes_per_round.to_string()
    };
    let json = format!(
        "{{\n  \"schema\": \"dibella-pipeline-baseline/5\",\n  \"workload\": \"{}\",\n  \"reads\": {},\n  \"bases\": {input_bases},\n  \"ranks\": {RANKS},\n  \"threads\": {},\n  \"transport\": \"{}\",\n  \"round_cap_bytes\": {round_cap},\n  \"seed_bytes_ratio\": {seed_bytes_ratio:.3},\n  \"modes\": {{\n{}\n  }}\n}}\n",
        workload.name(),
        ds.reads.len(),
        base_cfg.effective_threads(),
        base_cfg.transport,
        modes.join(",\n"),
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}:");
    print!("{json}");
}
