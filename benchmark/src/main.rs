//! The repo benchmark: four workloads through the public pipeline, with
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run. See README.md in this directory and `BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>] [--record <file>]
//! benchmark suite --seeds <a,b,..> --record <file> [--seconds <s>] [--trace <0|1>]
//! benchmark compare <a.jsonl> <b.jsonl>
//! benchmark list | manifest
//! ```

#![warn(missing_docs)]

mod compare;
mod json;
mod program;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--record <file>]
  benchmark suite --seeds <a,b,..> --record <file> [--seconds <s>] [--trace <0|1>]
  benchmark compare <a.jsonl> <b.jsonl>
  benchmark list
  benchmark manifest";

/// `--flag value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.number(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn trace_flag(flags: &Flags) -> Result<bool, String> {
    match flags.get("trace") {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace: expected 0 or 1, got {other:?}")),
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    spec::check()?;
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("list") => {
            run::list();
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::files(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        Some("suite") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["seeds", "record", "seconds", "trace"])?;
            let seeds = flags
                .get("seeds")
                .ok_or("--seeds is required")?
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("--seeds: cannot read {s:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let record = flags.get("record").ok_or("--record is required")?;
            let seconds = flags.number("seconds")?.unwrap_or(spec::RUN_SECONDS);
            run::suite(&seeds, record, seconds, trace_flag(&flags)?)
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = Flags::parse(args)?;
            flags.only(&[
                "workload",
                "seed",
                "seconds",
                "trace",
                "trace-out",
                "record",
            ])?;
            let name = flags.get("workload").ok_or("--workload is required")?;
            let workload = workloads::find(name).ok_or_else(|| {
                let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            })?;
            let options = run::Options {
                workload,
                seed: flags.required("seed")?,
                seconds: flags.required("seconds")?,
                trace: trace_flag(&flags)?,
                trace_out: flags.get("trace-out").map(Into::into),
                record: flags.get("record").map(Into::into),
            };
            if !(options.seconds > 0.0 && options.seconds <= 60.0) {
                return Err("--seconds must be in (0, 60]".to_string());
            }
            run::one(&options)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
