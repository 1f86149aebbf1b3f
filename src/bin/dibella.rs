//! `dibella` — command-line front end for the pipeline.
//!
//! ```text
//! dibella overlap <reads.fastq> [options]     find + align overlaps → PAF
//! dibella simulate [options] <out.fastq>      generate PacBio-like reads
//! dibella stats <reads.fastq>                 dataset statistics & k/m advice
//! ```
//!
//! Run `dibella <command> --help` for the options of each command.

use dibella::datagen::{simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec};
use dibella::kmer::params;
use dibella::prelude::*;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("overlap") => cmd_overlap(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "dibella — distributed long-read overlap and alignment (ICPP 2019 reproduction)

USAGE:
  dibella overlap <reads.fastq> [-k K] [-p RANKS] [-t|--threads N]
                  [--transport shared|sim:<platform>[:<ranks_per_node>]
                              |faulty:<inner>:<seed>:<spec>]
                  [--checkpoint-dir DIR] [--round-mb MB]
                  [--policy one|1000|k] [-e ERR] [-d DEPTH]
                  [--seed-mode reliable|minimizer] [--minimizer-w W]
                  [-x XDROP] [--min-score S]
                  [-o out.paf] [--gfa out.gfa]
  dibella simulate <out.fastq> [-g GENOME_BP] [-d DEPTH] [-l MEAN_LEN]
                  [-e ERR] [-s SEED]
  dibella stats <reads.fastq> [-k K] [-e ERR] [-d DEPTH]";

/// The named flags each command takes, dashes stripped.
const OVERLAP_FLAGS: &[&str] = &[
    "k", "p", "t", "threads", "transport", "checkpoint-dir", "round-mb", "policy", "e", "d",
    "seed-mode", "minimizer-w", "x", "min-score", "o", "gfa",
];
const SIMULATE_FLAGS: &[&str] = &["g", "d", "l", "e", "s"];
const STATS_FLAGS: &[&str] = &["k", "e", "d"];

/// Minimal flag parser: positional args plus `-f value` / `--flag value`.
struct Flags {
    positional: Vec<String>,
    named: std::collections::HashMap<String, String>,
}

/// Parse `args` for a command whose named flags are `known`. A flag the
/// command does not take is an error naming it: running with a silently
/// different configuration is worse than not running.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut named = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-h" || a == "--help" {
            return Err(USAGE.to_owned());
        }
        if let Some(name) = a.strip_prefix('-') {
            let name = name.trim_start_matches('-').to_owned();
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown flag {a}\n{USAGE}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag -{name} expects a value"))?;
            named.insert(name, value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Flags { positional, named })
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.named.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for -{name}")),
        }
    }
}

fn load_fastq(path: &str) -> Result<ReadSet, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    dibella::io::read_fastq(BufReader::new(file), 0).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_overlap(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, OVERLAP_FLAGS)?;
    let path = flags
        .positional
        .first()
        .ok_or("overlap: missing <reads.fastq>")?;
    // Stage-boundary checkpoints: persist per-rank stage outputs under DIR
    // and resume from the last completed stage on the next run whose
    // fingerprinted knobs and dataset match. The directory is created and
    // checked here, before the input is read, so an unusable one is a
    // usage error rather than a failure inside a rank.
    let checkpoint_dir: Option<std::path::PathBuf> =
        flags.named.get("checkpoint-dir").map(Into::into);
    if let Some(dir) = &checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot use --checkpoint-dir {}: {e}", dir.display()))?;
    }
    let reads = load_fastq(path)?;
    if reads.is_empty() {
        return Err("no reads in input".into());
    }

    let k: usize = flags.get("k", 17)?;
    let ranks: usize = flags.get(
        "p",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
    )?;
    let error_rate: f64 = flags.get("e", 0.15)?;
    let depth: f64 = flags.get("d", 30.0)?;
    let xdrop: i32 = flags.get("x", 25)?;
    let min_score: i32 = flags.get("min-score", 0)?;
    // Intra-rank threads for all four stages (hybrid parallelism; 0 = all
    // cores).
    let threads: usize = flags.get("threads", flags.get("t", 1)?)?;
    // Communication backend: real shared memory, a simulated network
    // ("sim:<platform>[:<ranks_per_node>]" — virtual cori|edison|titan|aws),
    // or either of those wrapped in the fault-injecting chaos transport
    // ("faulty:<inner>:<seed>:<spec>" — see ARCHITECTURE.md).
    let transport: TransportKind = match flags.named.get("transport") {
        None => TransportKind::SharedMem,
        Some(v) => v.parse()?,
    };
    // Streaming-exchange byte cap per rank and round, in MiB (fractions
    // allowed); unset = unbounded, i.e. one monolithic exchange per stage.
    let round_bytes: usize = match flags.named.get("round-mb") {
        None => usize::MAX,
        Some(v) => {
            let mb: f64 = v
                .parse()
                .ok()
                .filter(|&m| m > 0.0)
                .ok_or_else(|| format!("invalid --round-mb {v:?} (positive MiB)"))?;
            (mb * (1 << 20) as f64) as usize
        }
    };
    let policy = match flags.named.get("policy").map(String::as_str) {
        None | Some("one") => SeedPolicy::Single,
        Some("1000") => SeedPolicy::MinDistance(1000),
        Some("k") => SeedPolicy::MinDistance(k as u32),
        Some(other) => return Err(format!("unknown --policy {other:?} (one|1000|k)")),
    };
    // Seed front end: the paper's two-pass reliable-k-mer counter, or the
    // single-pass (w,k) minimizer sketch.
    let seed_mode: SeedMode = match flags.named.get("seed-mode") {
        None => SeedMode::Reliable,
        Some(v) => v.parse()?,
    };
    let minimizer_w: usize = flags.get("minimizer-w", 7)?;

    let cfg = PipelineConfig {
        k,
        depth,
        error_rate,
        seed_policy: policy,
        xdrop,
        min_align_score: min_score,
        threads: Some(threads),
        transport,
        max_exchange_bytes_per_round: round_bytes,
        seed_mode,
        minimizer_w,
        checkpoint_dir,
        ..Default::default()
    };
    let round_cap = if round_bytes == usize::MAX {
        "unbounded".to_owned()
    } else {
        format!("{:.2} MiB", round_bytes as f64 / (1 << 20) as f64)
    };
    eprintln!(
        "dibella: {} reads ({:.1} Mb), k={k}, m={}, seeds {seed_mode}, {ranks} ranks x {} thread(s), transport {}, round cap {round_cap}",
        reads.len(),
        reads.total_bases() as f64 / 1e6,
        cfg.multiplicity_threshold(),
        cfg.effective_threads(),
        cfg.transport
    );
    let t = std::time::Instant::now();
    let result = run_pipeline(&reads, ranks, &cfg);
    eprintln!(
        "dibella: {} pairs, {} alignments in {:.2?}",
        result.n_pairs(),
        result.n_alignments_computed(),
        t.elapsed()
    );
    if round_bytes != usize::MAX {
        // Streaming rounds were capped: report the realized high-water
        // mark so the memory bound is visible.
        let peak = result
            .reports
            .iter()
            .flat_map(|r| {
                [&r.bloom_comm, &r.hash_comm, &r.overlap_comm, &r.align_comm]
                    .map(|c| c.peak_round_bytes)
            })
            .max()
            .unwrap_or(0);
        eprintln!(
            "dibella: peak exchange round {peak} B on any rank (cap {round_bytes} B)"
        );
    }
    if matches!(cfg.transport, TransportKind::Faulty(_)) {
        // Chaos run: summarize what the hardened exchange layer absorbed.
        // All counters are injected-and-survived events; the run's output
        // above is bit-identical to a fault-free run regardless.
        let mut all = dibella::comm::CommStats::new(ranks);
        for r in &result.reports {
            all.merge(&r.total_comm());
        }
        eprintln!(
            "dibella: chaos survived: {} corrupt frames detected, {} frames retransmitted, {} duplicates dropped, {} wait timeouts, {:.2?} spent in recovery",
            all.frames_corrupt_detected,
            all.frames_retransmitted,
            all.duplicates_dropped,
            all.wait_timeouts,
            all.retry_wall
        );
    }
    if cfg.transport != TransportKind::SharedMem {
        // Under a simulated network the recorded exchange time is the
        // modeled platform's, not the host's — surface it.
        let slowest = result
            .reports
            .iter()
            .map(|r| r.total_exchange())
            .max()
            .unwrap_or_default();
        eprintln!(
            "dibella: modeled exchange on {}: slowest rank {:.3?}",
            cfg.transport, slowest
        );
    }

    // PAF output.
    let names = |id: ReadId| reads.reads()[id as usize].name.clone();
    let lens = |id: ReadId| reads.reads()[id as usize].len() as u32;
    let mut out: Box<dyn Write> = match flags.named.get("o") {
        Some(p) => Box::new(BufWriter::new(
            File::create(p).map_err(|e| format!("create {p}: {e}"))?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout())),
    };
    for rec in &result.alignments {
        writeln!(out, "{}", rec.to_paf(&names, &lens)).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;

    // Optional GFA overlap graph.
    if let Some(gfa_path) = flags.named.get("gfa") {
        let graph = dibella::pipeline::OverlapGraph::from_alignments(
            reads.len(),
            &result.alignments,
            min_score,
        );
        let (_, components) = graph.connected_components();
        eprintln!(
            "dibella: overlap graph: {} edges, {components} components",
            graph.n_edges()
        );
        let gfa = graph.to_gfa(&names, &|id| Some(reads.reads()[id as usize].seq.clone()));
        std::fs::write(gfa_path, gfa).map_err(|e| format!("write {gfa_path}: {e}"))?;
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, SIMULATE_FLAGS)?;
    let out_path = flags
        .positional
        .first()
        .ok_or("simulate: missing <out.fastq>")?;
    let genome_bp: usize = flags.get("g", 100_000)?;
    let depth: f64 = flags.get("d", 30.0)?;
    let mean_len: usize = flags.get("l", 10_000)?;
    let error: f64 = flags.get("e", 0.15)?;
    let seed: u64 = flags.get("s", 42)?;

    let genome = GenomeSpec { size: genome_bp, seed, ..Default::default() }.generate();
    let ds = simulate_reads(
        &genome,
        &ReadSimSpec {
            depth,
            mean_len: mean_len.min(genome_bp / 2),
            min_len: (mean_len / 10).max(100),
            errors: ErrorModel::pacbio(error),
            seed: seed ^ 0x0D1B_E11A,
            ..Default::default()
        },
    );
    let file = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    dibella::io::write_fastq(BufWriter::new(file), &ds.reads).map_err(|e| e.to_string())?;
    eprintln!(
        "dibella: wrote {} reads ({:.1} Mb, {:.1}x of {genome_bp} bp) to {out_path}",
        ds.reads.len(),
        ds.reads.total_bases() as f64 / 1e6,
        ds.realized_depth()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, STATS_FLAGS)?;
    let path = flags.positional.first().ok_or("stats: missing <reads.fastq>")?;
    let reads = load_fastq(path)?;
    let k: usize = flags.get("k", 17)?;
    let error: f64 = flags.get("e", 0.15)?;
    let depth_flag: f64 = flags.get("d", 0.0)?;

    let total = reads.total_bases();
    println!("reads:          {}", reads.len());
    println!("bases:          {total}");
    println!("mean length:    {:.0}", reads.mean_length());
    let longest = reads.iter().map(|r| r.len()).max().unwrap_or(0);
    println!("longest read:   {longest}");
    println!("k-mer bag (~):  {total}  (Eq. 2: ≈ G·d)");
    if depth_flag > 0.0 {
        let m = params::reliable_max_multiplicity(depth_flag, error, k, 1e-4);
        let genome_est = total as f64 / depth_flag;
        println!("assumed depth:  {depth_flag}");
        println!("genome (G=N/d): {:.0}", genome_est);
        println!("reliable m:     {m}  (k={k}, e={error})");
    } else {
        println!("(pass -d DEPTH to derive the high-occurrence threshold m)");
    }
    let p_one = params::prob_shared_correct_kmer(2000, k, error);
    println!("P(shared correct {k}-mer | 2kb overlap) = {p_one:.4}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    fn error(words: &[&str], known: &[&str]) -> String {
        parse_flags(&args(words), known).err().expect("flags must be rejected")
    }

    #[test]
    fn unknown_flag_is_rejected_by_name() {
        let msg = error(&["reads.fastq", "--frobnicate", "3"], OVERLAP_FLAGS);
        assert!(msg.starts_with("unknown flag --frobnicate"), "{msg}");
        // Known to another command is still unknown to this one.
        let msg = error(&["reads.fastq", "-p", "4"], STATS_FLAGS);
        assert!(msg.starts_with("unknown flag -p"), "{msg}");
    }

    #[test]
    fn removed_flag_is_rejected_not_ignored() {
        let msg = error(&["reads.fastq", "-p", "2", "--simd", "scalar"], OVERLAP_FLAGS);
        assert!(msg.starts_with("unknown flag --simd"), "{msg}");
    }

    #[test]
    fn retired_engine_flags_are_rejected_by_name() {
        // Assembled from parts: the retired flags are named nowhere else.
        for flag in [["overlap", "engine"], ["pair", "batch"], ["spgemm", "block"]].map(|w| format!("--{}", w.join("-"))) {
            let msg = error(&["x.fastq", &flag, "pairs"], OVERLAP_FLAGS);
            assert!(msg.starts_with(&format!("unknown flag {flag}")), "{msg}");
            // The command fails on the flag before it opens the input.
            let msg = cmd_overlap(&args(&["/nonexistent/x.fastq", &flag, "pairs"])).unwrap_err();
            assert!(msg.starts_with(&format!("unknown flag {flag}")), "{msg}");
        }
    }

    #[test]
    fn unusable_checkpoint_dir_is_an_error_before_the_input_is_read() {
        // A directory cannot be created under a regular file.
        let file = std::env::temp_dir().join(format!("dibella-ckpt-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("ckpt");
        let msg = cmd_overlap(&args(&["/nonexistent/x.fastq", "--checkpoint-dir", dir.to_str().unwrap()]))
            .unwrap_err();
        std::fs::remove_file(&file).unwrap();
        assert!(msg.starts_with(&format!("cannot use --checkpoint-dir {}", dir.display())), "{msg}");
    }

    #[test]
    fn flag_missing_its_value_is_rejected() {
        let msg = error(&["reads.fastq", "-p", "4", "--round-mb"], OVERLAP_FLAGS);
        assert_eq!(msg, "flag -round-mb expects a value");
    }

    #[test]
    fn every_documented_flag_parses() {
        for (known, positional) in
            [(OVERLAP_FLAGS, "reads.fastq"), (SIMULATE_FLAGS, "out.fastq"), (STATS_FLAGS, "reads.fastq")]
        {
            // Single-letter flags in their short spelling, the rest long.
            let spelled =
                |name: &str| format!("{}{name}", if name.len() == 1 { "-" } else { "--" });
            let mut words = vec![positional.to_owned()];
            for name in known {
                words.push(spelled(name));
                words.push("7".to_owned());
            }
            let flags = parse_flags(&words, known).expect("full flag set must parse");
            assert_eq!(flags.positional, [positional]);
            assert_eq!(flags.named.len(), known.len());
            assert!(known.iter().all(|name| flags.named[*name] == "7"));
            // And each is in the usage text, so the sets cannot drift apart.
            for name in known {
                assert!(USAGE.contains(&spelled(name)), "{name} missing from usage");
            }
        }
        assert_eq!(parse_flags(&args(&["x.fastq", "-k", "15"]), STATS_FLAGS).unwrap().get("k", 17), Ok(15));
    }
}
