//! One benchmark process: set a workload up, run it, check it, print it.

use crate::json::Json;
use crate::program::{self, Counts, Input, LayerProbes, Pair, RunOutput};
use crate::spec::{self, Metric, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{self, Span, SpanLog, DRIVER};
use crate::workloads::{Workload, WORKLOADS};
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Inputs per run. Every run generates this many independent inputs from
/// its seed and reports the median over them: on ~150 reads the work of a
/// pipeline call (DP cells, load balance between two ranks, repeat-induced
/// false pairs) moves by 10 to 60 % from one seed to the next, which no
/// amount of repeating one input averages out.
const INPUTS: usize = 5;
/// Passes over the inputs' set-up: more until `.0` seconds have gone into
/// them, at most `.1`. `setup_s` is the median over every set-up made;
/// most inputs set up in about 10 ms, which takes many samples to pin down.
const SETUP_PASSES: (f64, usize) = (0.6, 4);
/// Fewest untraced/traced pairs behind the per-layer metrics.
const MIN_TRACED: usize = 3;

/// Arguments of one run.
pub struct Options {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Seconds to keep making timed calls.
    pub seconds: f64,
    /// Report per-layer metrics from traced runs (else end-to-end ones).
    pub trace: bool,
    /// Where the span file goes (default: next to the executable).
    pub trace_out: Option<PathBuf>,
    /// Append the result, tagged with workload and seed, to this file.
    pub record: Option<PathBuf>,
}

/// Every `DIBELLA_*` variable is a knob some layer of the workspace reads.
/// The configs here pin each of them explicitly; removing the variables
/// as well means the host cannot change what is measured.
fn scrub_env() {
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("DIBELLA_"))
        .collect();
    for name in knobs {
        std::env::remove_var(name);
    }
}

/// Peak resident set of this process so far, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Share of `of` that is present in `within` (both sorted).
fn share(of: &[Pair], within: &[Pair]) -> f64 {
    let hits = of
        .iter()
        .filter(|p| within.binary_search(p).is_ok())
        .count();
    hits as f64 / of.len().max(1) as f64
}

/// One generated input and what the calls on it showed.
struct Sample {
    input: Input,
    /// Digest and exact counts of the first call on it that completed.
    reference: Option<(u64, Counts)>,
    /// Walls of the timed untraced calls on it.
    walls: Vec<f64>,
    /// Output of the last of them.
    output: Option<RunOutput>,
}

/// The pipeline calls of one process, counted and checked as they happen.
struct Session<'a> {
    workload: &'a Workload,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

impl Session<'_> {
    /// Make one pipeline call on input `i`. It fails — and yields nothing —
    /// if it panics, if its alignments differ from those of the first call
    /// on that input, or if its recall falls under the workload's floor.
    /// `same_shape` additionally demands the first call's exact counters
    /// (it ran on the same ranks and threads).
    fn attempt(
        &mut self,
        i: usize,
        what: &str,
        same_shape: bool,
        call: impl FnOnce(&Input) -> RunOutput,
    ) -> Option<(f64, RunOutput)> {
        self.attempted += 1;
        let sample = &mut self.samples[i];
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| call(&sample.input)));
        let seconds = t.elapsed().as_secs_f64();
        let verdict = match result {
            Err(_) => Err("panicked".to_string()),
            Ok(out) => {
                let exact = out.counts.exact();
                let (digest, counts) = sample
                    .reference
                    .get_or_insert_with(|| (out.digest, exact.clone()));
                let recall = share(&sample.input.truth_strict, &out.pairs);
                if out.digest != *digest {
                    Err(format!(
                        "alignment digest {:016x} differs from the first call's {digest:016x}",
                        out.digest
                    ))
                } else if same_shape && exact != *counts {
                    Err("counters differ from the first call's".to_string())
                } else if recall < self.workload.min_recall {
                    Err(format!(
                        "recall {recall:.4} under the floor {}",
                        self.workload.min_recall
                    ))
                } else {
                    Ok(out)
                }
            }
        };
        match verdict {
            Ok(out) => Some((seconds, out)),
            Err(why) => {
                self.failed += 1;
                eprintln!(
                    "benchmark: {} {what} call on input {i} failed: {why}",
                    self.workload.name
                );
                None
            }
        }
    }

    /// One timed untraced call on input `i`, recorded with the input.
    fn timed(&mut self, i: usize) -> Option<f64> {
        let w = self.workload;
        let (wall, out) = self.attempt(i, "timed", true, |input| program::run(&input.reads, w))?;
        self.samples[i].walls.push(wall);
        self.samples[i].output = Some(out);
        Some(wall)
    }
}

fn value(metric: &Metric, v: f64) -> (&'static str, Json) {
    (
        metric.name,
        Json::object(vec![
            ("value", Json::Num(v)),
            ("unit", Json::Str(metric.unit.to_string())),
        ]),
    )
}

/// Pair every metric of `table` with its value; a missing or non-finite
/// value is a bug in this file, reported instead of printed.
fn fill(table: &[Metric], values: &[(&str, f64)]) -> Result<Vec<(&'static str, Json)>, String> {
    table
        .iter()
        .map(|m| match values.iter().find(|(name, _)| *name == m.name) {
            Some((_, v)) if v.is_finite() => Ok(value(m, *v)),
            Some((_, v)) => Err(format!("metric {} is {v}", m.name)),
            None => Err(format!("metric {} was not measured", m.name)),
        })
        .collect()
}

/// Each end-to-end metric is measured per input and reported as the
/// median over the inputs; only peak memory is the process's.
fn end_to_end_values(
    samples: &[Sample],
    setups: &[f64],
) -> Result<Vec<(&'static str, f64)>, String> {
    let done: Vec<(&Sample, &RunOutput)> = samples
        .iter()
        .filter_map(|s| Some((s, s.output.as_ref()?)))
        .collect();
    if done.is_empty() {
        return Err("no timed call completed".to_string());
    }
    let over_inputs = |f: &dyn Fn(&Sample, &RunOutput) -> f64| -> f64 {
        median(&done.iter().map(|(s, out)| f(s, out)).collect::<Vec<_>>())
    };
    Ok(vec![
        ("setup_s", median(setups)),
        ("wall_s", over_inputs(&|s, _| median(&s.walls))),
        (
            "mbases_per_s",
            over_inputs(&|s, _| s.input.bases as f64 / 1e6 / median(&s.walls)),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        (
            "wire_bytes_per_base",
            over_inputs(&|s, out| out.counts.wire_bytes() as f64 / s.input.bases as f64),
        ),
        (
            "peak_round_mb",
            over_inputs(&|_, out| out.counts.peak_round_bytes as f64 / MIB),
        ),
        (
            "recall",
            over_inputs(&|s, out| share(&s.input.truth_strict, &out.pairs)),
        ),
        (
            "precision",
            over_inputs(&|s, out| share(&out.pairs, &s.input.truth_loose)),
        ),
    ])
}

const MIB: f64 = (1u64 << 20) as f64;

/// What the traced half of a `--trace 1` run measured.
struct Traced {
    /// Spans of the traced call whose root span is the median one.
    spans: Vec<Span>,
    /// Its counters.
    counts: Counts,
    /// Median over the untraced/traced pairs of traced root span over
    /// untraced wall, minus one.
    overhead_share: f64,
    /// Wall of the one-rank, one-thread call over workers x wall of the
    /// untraced call on the same input.
    scaling_eff: f64,
}

fn per_layer_values(input: &Input, t: &Traced, p: &LayerProbes) -> Vec<(&'static str, f64)> {
    let (s, c) = (&t.spans, &t.counts);
    let bloom_s = trace::slowest(s, "kcount.bloom");
    let hash_s = trace::slowest(s, "kcount.hash");
    let overlap_s = trace::slowest(s, "overlap.stage");
    let align: Vec<&Span> = s.iter().filter(|x| x.name == "core.align_tasks").collect();
    let align_s = trace::slowest(s, "core.align_tasks");
    let mean_align_s = align.iter().map(|x| x.seconds()).sum::<f64>() / align.len() as f64;
    let slowest_rank = align
        .iter()
        .max_by(|a, b| a.seconds().total_cmp(&b.seconds()))
        .map_or(0, |x| x.rank);
    let cells: u64 = c.dp_cells.iter().sum();
    let kcount_wire = c.stage_wire_bytes[0] + c.stage_wire_bytes[1];
    vec![
        ("datagen.generate_s", input.generate_s),
        ("io.partition_s", input.partition_s),
        ("io.fastq_parse_mbases_per_s", p.fastq_parse_mbases_per_s),
        ("kmer.extract_mkmers_per_s", p.extract_mkmers_per_s),
        ("kmer.minimizer_mkmers_per_s", p.minimizer_mkmers_per_s),
        ("sketch.bloom_minserts_per_s", p.bloom_minserts_per_s),
        ("sketch.bloom_mb", p.bloom_mb),
        ("sketch.bloom_fill", p.bloom_fill),
        ("kcount.bloom_s", bloom_s),
        ("kcount.hash_s", hash_s),
        ("kcount.kmers_parsed", c.kmers_parsed as f64),
        (
            "kcount.mkmers_per_s",
            c.kmers_parsed as f64 / 1e6 / (bloom_s + hash_s),
        ),
        ("kcount.rounds", c.kcount_rounds as f64),
        ("kcount.wire_mb", kcount_wire as f64 / MIB),
        ("kcount.retained_kmers", c.keys_retained as f64),
        (
            "kcount.retained_share",
            c.keys_retained as f64 / c.keys_seen.max(1) as f64,
        ),
        ("kcount.table_mb", c.table_bytes as f64 / MIB),
        ("overlap.stage_s", overlap_s),
        ("overlap.pairs_emitted", c.seeds_emitted as f64),
        ("overlap.records_emitted", c.records_emitted as f64),
        (
            "overlap.seed_dup_factor",
            c.seeds_emitted as f64 / c.records_emitted.max(1) as f64,
        ),
        ("overlap.pairs_chain_dropped", c.pairs_chain_dropped as f64),
        ("overlap.tasks", c.tasks as f64),
        (
            "overlap.mpairs_per_s",
            c.seeds_emitted as f64 / 1e6 / overlap_s,
        ),
        ("overlap.rounds", c.overlap_rounds as f64),
        ("overlap.wire_mb", c.stage_wire_bytes[2] as f64 / MIB),
        ("core.pipeline_s", s[0].seconds()),
        ("core.fetch_reads_s", trace::slowest(s, "core.fetch_reads")),
        ("core.align_tasks_s", align_s),
        ("core.read_mb_fetched", c.read_bytes_fetched as f64 / MIB),
        ("core.unattributed_s", trace::self_seconds(s, 0)),
        ("core.rank_imbalance", align_s / mean_align_s),
        ("core.scaling_eff_p2", t.scaling_eff),
        ("align.alignments", c.alignments as f64),
        ("align.dp_mcells", cells as f64 / 1e6),
        (
            "align.mcells_per_alignment",
            cells as f64 / 1e6 / c.alignments.max(1) as f64,
        ),
        (
            "align.mcells_per_s",
            c.dp_cells[slowest_rank.max(0) as usize] as f64 / 1e6 / align_s,
        ),
        (
            "align.accepted_share",
            c.accepted as f64 / c.alignments.max(1) as f64,
        ),
        ("comm.exchange_s", c.exchange_s),
        ("comm.pack_s", c.pack_s),
        ("comm.wire_mb", c.wire_bytes() as f64 / MIB),
        ("comm.msgs", c.msgs as f64),
        ("comm.alltoallv_calls", c.alltoallv_calls as f64),
        ("comm.retransmits", c.retransmits as f64),
        ("comm.alltoallv_gb_per_s", p.alltoallv_gb_per_s),
        ("netmodel.cori_exchange_s", c.cori_exchange_s),
        ("netmodel.aws_exchange_s", c.aws_exchange_s),
        ("netmodel.aws_total_s", c.aws_total_s),
        ("trace.overhead_share", t.overhead_share),
    ]
}

fn default_trace_path(workload: &str) -> Result<PathBuf, String> {
    // Next to the executable: always inside the cargo target directory,
    // which is inside the checkout and ignored by git.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join(format!("benchmark-trace-{workload}.json")))
}

/// Seed of the `i`-th input of a run.
fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Run one workload once and print its result line.
pub fn one(o: &Options) -> Result<ExitCode, String> {
    scrub_env();
    let w = o.workload;
    let epoch = Instant::now();

    let mut setups = Vec::new();
    let mut inputs: Vec<Input> = Vec::new();
    let (budget_s, at_most) = if o.trace { (0.0, 1) } else { SETUP_PASSES };
    for pass in 0..at_most {
        if pass > 0 && epoch.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        inputs.clear(); // one set of inputs resident at a time
        for i in 0..INPUTS {
            let t = Instant::now();
            inputs.push(program::setup(w, input_seed(o.seed, i)));
            setups.push(t.elapsed().as_secs_f64());
        }
    }
    let samples = inputs
        .into_iter()
        .map(|input| Sample {
            input,
            reference: None,
            walls: Vec::new(),
            output: None,
        })
        .collect();
    let mut session = Session {
        workload: w,
        samples,
        attempted: 0,
        failed: 0,
    };

    session.attempt(0, "warm-up", true, |input| program::run(&input.reads, w));
    let started = Instant::now();
    let metrics = if !o.trace {
        // Whole passes over the inputs, so that every input weighs the same.
        loop {
            for i in 0..INPUTS {
                session.timed(i);
            }
            if started.elapsed().as_secs_f64() >= o.seconds || session.failed > 0 {
                break;
            }
        }
        fill(&END_TO_END, &end_to_end_values(&session.samples, &setups)?)?
    } else {
        // Untraced and traced calls alternate, pair `n` on input `n`, so
        // that drift of the host hits both sides of trace.overhead_share
        // alike. Half the time is kept for the sequential call and the probes.
        let mut traced: Vec<(f64, usize, Vec<Span>, Counts)> = Vec::new();
        let mut ratios = Vec::new();
        let mut pair = 0;
        while pair < MIN_TRACED || started.elapsed().as_secs_f64() < o.seconds / 2.0 {
            let i = pair % INPUTS;
            let wall = session.timed(i);
            let mut log = SpanLog::new(epoch, DRIVER, pair as u32);
            let ran = session.attempt(i, "traced", true, |input| {
                program::run_traced(&input.reads, w, &mut log)
            });
            if let Some((_, out)) = ran {
                let root_s = log.spans[0].seconds();
                ratios.extend(wall.map(|wall| root_s / wall));
                traced.push((root_s, i, log.spans, out.counts));
            }
            pair += 1;
            if session.failed > 0 {
                break;
            }
        }
        let sequential = session.attempt(0, "sequential", false, |input| {
            program::run_sequential(&input.reads, w)
        });
        let (Some((sequential_s, _)), Some(parallel_s)) =
            (sequential, session.samples[0].walls.first())
        else {
            return Err("no sequential/parallel pair of calls completed".to_string());
        };
        let scaling_eff = sequential_s / ((w.ranks * w.threads) as f64 * parallel_s);
        if ratios.is_empty() {
            return Err("no untraced/traced pair of calls completed".to_string());
        }
        let path = match &o.trace_out {
            Some(path) => path.clone(),
            None => default_trace_path(w.name)?,
        };
        let runs: Vec<&[Span]> = traced.iter().map(|t| t.2.as_slice()).collect();
        std::fs::write(
            &path,
            format!("{}\n", trace::to_json(w.name, o.seed, &runs)),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "benchmark: spans of {} traced calls written to {}",
            runs.len(),
            path.display()
        );

        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (_, i, spans, counts) = traced.swap_remove((traced.len() - 1) / 2);
        let measured = Traced {
            spans,
            counts,
            overhead_share: median(&ratios) - 1.0,
            scaling_eff,
        };
        let input = &session.samples[i].input;
        fill(
            &PER_LAYER,
            &per_layer_values(input, &measured, &program::probe_layers(input, w)),
        )?
    };

    let inputs: Vec<String> = session
        .samples
        .iter()
        .map(|s| {
            format!(
                "{} reads {} bases {:.3?} s",
                s.input.reads.len(),
                s.input.bases,
                s.walls
            )
        })
        .collect();
    println!("{} seed {}: {}", w.name, o.seed, inputs.join("; "));
    let table = if o.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for (m, (_, v)) in table.iter().zip(&metrics) {
        let number = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!("  {:<30} {number:>16.6} {}", m.name, describe(m));
    }
    let result = Json::object(vec![
        ("correct", Json::Bool(session.failed == 0)),
        ("attempted", Json::Num(session.attempted as f64)),
        ("failed", Json::Num(session.failed as f64)),
        ("metrics", Json::object(metrics)),
    ]);
    if let Some(path) = &o.record {
        let row = Json::object(vec![
            ("workload", Json::Str(w.name.to_string())),
            ("seed", Json::Num(o.seed as f64)),
            ("trace", Json::Bool(o.trace)),
            ("result", result.clone()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{row}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(if session.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload once per seed, each in a process of its own (so
/// peak memory is per workload), appending the results to `record`.
pub fn suite(seeds: &[u64], record: &str, seconds: u64, trace: bool) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failures = 0;
    for &seed in seeds {
        for w in &WORKLOADS {
            let t = Instant::now();
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .args(["--record", record])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let last = text.lines().last().unwrap_or("");
            println!(
                "{} seed {seed}: {:.1} s  {last}",
                w.name,
                t.elapsed().as_secs_f64()
            );
            if !output.status.success() {
                failures += 1;
            }
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Unit, direction and (end-to-end metrics) regression bound of a metric.
fn describe(m: &Metric) -> String {
    let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
    format!("{:<8} better: {}{bound}", m.unit, m.better.name())
}

/// Print the workloads and every metric with unit, direction and bound.
pub fn list() {
    println!("workloads (run_seconds {}):", spec::RUN_SECONDS);
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    for (title, table) in [
        ("end-to-end (--trace 0)", &END_TO_END[..]),
        ("per-layer (--trace 1)", &PER_LAYER[..]),
    ] {
        println!("{title}:");
        for m in table {
            println!("  {:<30} {}", m.name, describe(m));
        }
    }
}
