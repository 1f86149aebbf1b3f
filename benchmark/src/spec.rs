//! The names the benchmark fixes: metrics with unit, direction and bound,
//! and the `BENCHMARK.json` they render to. `BENCHMARK.json` at the root of
//! the repository is this module's output (`benchmark manifest`); a unit
//! test fails when the two drift apart.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// Spelling in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name printed in the result line.
    pub name: &'static str,
    /// Unit printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures (`--seconds` as the driver passes it).
pub const RUN_SECONDS: u64 = 10;

/// What a user of the pipeline sees, per workload. Measured with tracing
/// off, per input, and reported as the median over a run's inputs. The
/// driver draws a new seed for every run and accepts a metric only if its
/// quartile spread over ten seeds is inside the bound, so the bounds follow
/// the spreads measured on this box (README.md, "Spreads"): timings drift by
/// up to 17 % with the host's minute-long slow phases and get the widest
/// bound allowed; counted metrics repeat exactly per seed and move by at
/// most 3 % between seeds.
pub const END_TO_END: [Metric; 8] = [
    // Generating one input: genome, reads, ground truth, partition_reads.
    e2e("setup_s", "s", Lower, 0.25),
    // Wall of a run_pipeline call: time to solution.
    e2e("wall_s", "s", Lower, 0.25),
    // Input bases / 1e6 / wall.
    e2e("mbases_per_s", "Mbase/s", Higher, 0.25),
    // VmHWM of the process after the timed calls.
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    // Bytes handed to the transport, all ranks and stages, per input base.
    e2e("wire_bytes_per_base", "B/base", Lower, 0.10),
    // Largest send volume of one rank in one exchange round.
    e2e("peak_round_mb", "MiB", Lower, 0.15),
    // Share of true overlaps >= 2000 bp present in the output pairs.
    e2e("recall", "ratio", Higher, 0.05),
    // Share of output pairs whose reads truly overlap by >= 500 bp.
    e2e("precision", "ratio", Higher, 0.03),
];

/// One layer each (layer = crate name), from the traced run and the
/// stand-alone probes. No bounds: they explain, they do not gate.
pub const PER_LAYER: [Metric; 49] = [
    layer("datagen.generate_s", "s", Lower),
    layer("io.partition_s", "s", Lower),
    layer("io.fastq_parse_mbases_per_s", "Mbase/s", Higher),
    layer("kmer.extract_mkmers_per_s", "Mkmer/s", Higher),
    layer("kmer.minimizer_mkmers_per_s", "Mkmer/s", Higher),
    layer("sketch.bloom_minserts_per_s", "Mkmer/s", Higher),
    layer("sketch.bloom_mb", "MiB", Lower),
    layer("sketch.bloom_fill", "ratio", Lower),
    layer("kcount.bloom_s", "s", Lower),
    layer("kcount.hash_s", "s", Lower),
    layer("kcount.kmers_parsed", "count", Lower),
    layer("kcount.mkmers_per_s", "Mkmer/s", Higher),
    layer("kcount.rounds", "count", Lower),
    layer("kcount.wire_mb", "MiB", Lower),
    layer("kcount.retained_kmers", "count", Higher),
    layer("kcount.retained_share", "ratio", Higher),
    layer("kcount.table_mb", "MiB", Lower),
    layer("overlap.stage_s", "s", Lower),
    layer("overlap.pairs_emitted", "count", Lower),
    layer("overlap.records_emitted", "count", Lower),
    layer("overlap.seed_dup_factor", "ratio", Higher),
    layer("overlap.pairs_chain_dropped", "count", Lower),
    layer("overlap.tasks", "count", Lower),
    layer("overlap.mpairs_per_s", "Mpair/s", Higher),
    layer("overlap.rounds", "count", Lower),
    layer("overlap.wire_mb", "MiB", Lower),
    layer("core.pipeline_s", "s", Lower),
    layer("core.fetch_reads_s", "s", Lower),
    layer("core.align_tasks_s", "s", Lower),
    layer("core.read_mb_fetched", "MiB", Lower),
    layer("core.unattributed_s", "s", Lower),
    layer("core.rank_imbalance", "ratio", Lower),
    layer("core.scaling_eff_p2", "ratio", Higher),
    layer("align.alignments", "count", Lower),
    layer("align.dp_mcells", "Mcell", Lower),
    layer("align.mcells_per_alignment", "Mcell", Lower),
    layer("align.mcells_per_s", "Mcell/s", Higher),
    layer("align.accepted_share", "ratio", Higher),
    layer("comm.exchange_s", "s", Lower),
    layer("comm.pack_s", "s", Lower),
    layer("comm.wire_mb", "MiB", Lower),
    layer("comm.msgs", "count", Lower),
    layer("comm.alltoallv_calls", "count", Lower),
    layer("comm.retransmits", "count", Lower),
    layer("comm.alltoallv_gb_per_s", "GB/s", Higher),
    layer("netmodel.cori_exchange_s", "s", Lower),
    layer("netmodel.aws_exchange_s", "s", Lower),
    layer("netmodel.aws_total_s", "s", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn charset(text: &str, extra: &str, max: usize) -> bool {
    !text.is_empty()
        && text.len() <= max
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// Check workload names, metric names and units and their numbers against
/// the limits of the benchmark contract; returns the first violation.
pub fn validate(
    workloads: &[(&str, &str)],
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads (need 2 to 8)", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics (need 1 to 16)",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics (need 1 to 128)",
            per_layer.len()
        ));
    }
    let mut names: Vec<&str> = workloads.iter().map(|w| w.0).collect();
    names.extend(end_to_end.iter().chain(per_layer).map(|m| m.name));
    for name in &names {
        if !charset(name, "_.-", 64) || !name.as_bytes()[0].is_ascii_alphanumeric() {
            return Err(format!("bad name {name:?}"));
        }
    }
    names.sort_unstable();
    if let Some(twice) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {:?} used twice", twice[0]));
    }
    for (name, why) in workloads {
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: why must be one line of at most 200 characters"
            ));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !charset(m.unit, "_/%.-", 16) {
            return Err(format!("{}: bad unit {:?}", m.name, m.unit));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if (0.0..=0.25).contains(&b) => {}
            other => return Err(format!("{}: bound {other:?} outside [0, 0.25]", m.name)),
        }
    }
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Lower => Ok(()),
        _ => Err("end-to-end metrics must include setup_s in s, lower is better".to_string()),
    }
}

/// [`validate`] applied to the benchmark's own tables.
pub fn check() -> Result<(), String> {
    let workloads: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    validate(&workloads, &END_TO_END, &PER_LAYER)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let row = Json::object(vec![
                ("name", Json::Str(w.name.to_string())),
                ("why", Json::Str(w.why.to_string())),
            ]);
            format!("    {row}")
        })
        .collect();
    let metrics = |list: &[Metric]| -> Vec<String> {
        list.iter()
            .map(|m| {
                let mut row = vec![
                    ("name", Json::Str(m.name.to_string())),
                    ("unit", Json::Str(m.unit.to_string())),
                    ("better", Json::Str(m.better.name().to_string())),
                ];
                if let Some(bound) = m.bound {
                    row.push(("bound", Json::Num(bound)));
                }
                format!("    {}", Json::object(row))
            })
            .collect()
    };
    let command: Vec<Json> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ]
    .iter()
    .map(|s| Json::Str(s.to_string()))
    .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        Json::Arr(command),
        RUN_SECONDS,
        workloads.join(",\n"),
        metrics(&END_TO_END).join(",\n"),
        metrics(&PER_LAYER).join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<(&'static str, &'static str)> {
        WORKLOADS.iter().map(|w| (w.name, w.why)).collect()
    }

    #[test]
    fn the_tables_meet_the_contract() {
        check().unwrap();
    }

    #[test]
    fn validator_rejects_what_the_contract_refuses() {
        let ok = names();
        let bad_name = [("clr 30x", "why"), ("b", "why")];
        assert!(validate(&bad_name, &END_TO_END, &PER_LAYER).is_err());
        let leading = [("-a", "why"), ("b", "why")];
        assert!(validate(&leading, &END_TO_END, &PER_LAYER).is_err());
        let one = [("only", "why")];
        assert!(validate(&one, &END_TO_END, &PER_LAYER).is_err());
        let nine: Vec<(&str, &str)> = ["a", "b", "c", "d", "e", "f", "g", "h", "i"]
            .iter()
            .map(|n| (*n, "why"))
            .collect();
        assert!(validate(&nine, &END_TO_END, &PER_LAYER).is_err());
        let long_why = "x".repeat(201);
        assert!(validate(
            &[("a", long_why.as_str()), ("b", "why")],
            &END_TO_END,
            &PER_LAYER
        )
        .is_err());
        // A name used by a workload and a metric is used twice.
        assert!(validate(&[("wall_s", "why"), ("b", "why")], &END_TO_END, &PER_LAYER).is_err());
        let seventeen = [END_TO_END[1]; 17];
        assert!(validate(&ok, &seventeen, &PER_LAYER).is_err());
        let too_many = [PER_LAYER[0]; 129];
        assert!(validate(&ok, &END_TO_END, &too_many).is_err());
        let wide = [e2e("setup_s", "s", Lower, 0.3)];
        assert!(validate(&ok, &wide, &PER_LAYER).is_err());
        let no_setup = [e2e("wall_s", "s", Lower, 0.1)];
        assert!(validate(&ok, &no_setup, &PER_LAYER).is_err());
        let bad_unit = [e2e("setup_s", "s", Lower, 0.1), e2e("x", "a b", Lower, 0.1)];
        assert!(validate(&ok, &bad_unit, &PER_LAYER).is_err());
        let long_unit = [layer("x", "abcdefghijklmnopq", Lower)];
        assert!(validate(&ok, &END_TO_END, &long_unit).is_err());
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        let parsed = Json::parse(&on_disk).unwrap();
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(on_disk.len() < 64 << 10);
    }
}
