//! `benchmark compare <a.jsonl> <b.jsonl>`: does B regress against A?
//!
//! Both files hold the rows `--record` appends (one per run: workload,
//! seed, result). For every pairing of workload and end-to-end metric the
//! runs of each side are reduced to a median and a quartile spread, and
//! the pairing gets one verdict against the bound the benchmark fixed.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use std::process::ExitCode;

/// Outcome of one (workload, metric) pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound, and both
    /// sides' spreads are within it.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Regress,
    /// Not worse by more than the bound, but a side's run-to-run spread
    /// is wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Median of A's runs.
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// By what share of A's median B is worse (negative = better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads (0 with one run).
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one pairing from the two sides' values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let side = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
    let widest = side(a).max(side(b));
    let verdict = if worse_by > bound {
        Verdict::Regress
    } else if widest > bound {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    };
    Row {
        a: ma,
        b: mb,
        worse_by,
        spread: widest,
        verdict,
    }
}

/// A results file reduced to what `compare` reads.
#[derive(Debug, Default, PartialEq)]
pub struct Results {
    /// `(workload, metric, value)` of every untraced run.
    values: Vec<(String, String, f64)>,
    /// Pipeline calls attempted and failed, over all rows.
    attempted: f64,
    failed: f64,
}

impl Results {
    /// Parse the rows of a `--record` file; rows of traced runs carry no
    /// end-to-end metrics and only add to the failure count.
    pub fn parse(text: &str) -> Result<Results, String> {
        let mut out = Results::default();
        for (n, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let at = |what: &str| format!("line {}: {what}", n + 1);
            let row = Json::parse(line).map_err(|e| at(&e))?;
            let workload = row
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| at("no workload"))?;
            let result = row.get("result").ok_or_else(|| at("no result"))?;
            out.attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("no attempted"))?;
            out.failed += result
                .get("failed")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("no failed"))?;
            for (name, entry) in result
                .get("metrics")
                .ok_or_else(|| at("no metrics"))?
                .members()
            {
                if spec::end_to_end(name).is_some() {
                    let v = entry
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| at("metric without value"))?;
                    out.values.push((workload.to_string(), name.clone(), v));
                }
            }
        }
        Ok(out)
    }

    fn of(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.values
            .iter()
            .filter(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, v)| *v)
            .collect()
    }
}

/// Compare two parsed files; prints the table, returns the rows.
pub fn compare(a: &Results, b: &Results) -> Vec<(&'static str, &'static str, Row)> {
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &spec::END_TO_END {
            let (va, vb) = (a.of(w.name, m.name), b.of(w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let row = judge(&va, &vb, m.better, bound);
            println!(
                "{:<12} {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>5.0}%  {} (n = {}, {})",
                w.name,
                m.name,
                row.a,
                row.b,
                row.worse_by * 100.0,
                row.spread * 100.0,
                bound * 100.0,
                row.verdict.name(),
                va.len(),
                vb.len(),
            );
            rows.push((w.name, m.name, row));
        }
    }
    for (side, r) in [("A", a), ("B", b)] {
        println!(
            "{side}: {} of {} pipeline calls failed",
            r.failed, r.attempted
        );
    }
    rows
}

/// `benchmark compare`: nonzero exit on any regression or failed call.
pub fn files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |path: &str| -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Results::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (read(a)?, read(b)?);
    let rows = compare(&a, &b);
    if rows.is_empty() {
        return Err("the files share no (workload, end-to-end metric) pairing".to_string());
    }
    let regressed = rows
        .iter()
        .filter(|r| r.2.verdict == Verdict::Regress)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.2.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} pairings: {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(if regressed == 0 && b.failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        // Lower is better: 5 % slower passes a 10 % bound, 20 % slower does not.
        assert_eq!(
            judge(&steady, &[10.5, 10.4, 10.6, 10.5], Better::Lower, 0.10).verdict,
            Verdict::Pass
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.10).verdict,
            Verdict::Regress
        );
        // An improvement is never a regression.
        let faster = judge(&steady, &[5.0, 5.0, 5.1, 4.9], Better::Lower, 0.10);
        assert_eq!(faster.verdict, Verdict::Pass);
        assert!(faster.worse_by < -0.4);
        // Higher is better: the same drop is a regression, the same rise is not.
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.10).verdict,
            Verdict::Regress
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], Better::Higher, 0.10).verdict,
            Verdict::Pass
        );
        // Medians agree but one side's runs are spread wider than the bound.
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // Exact metrics: bound 0 passes only on equality or improvement.
        assert_eq!(
            judge(&[4.0], &[4.0], Better::Lower, 0.0).verdict,
            Verdict::Pass
        );
        assert_eq!(
            judge(&[4.0], &[4.000001], Better::Lower, 0.0).verdict,
            Verdict::Regress
        );
    }

    fn row(workload: &str, seed: u64, wall: f64, failed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": false, \"result\": {{\"correct\": true, \
             \"attempted\": 6, \"failed\": {failed}, \"metrics\": {{\"wall_s\": {{\"value\": {wall}, \"unit\": \"s\"}}, \
             \"kcount.bloom_s\": {{\"value\": 1, \"unit\": \"s\"}}}}}}}}\n"
        )
    }

    #[test]
    fn files_are_reduced_per_workload_and_metric() {
        let a = Results::parse(
            &(row("clr30x", 1, 3.0, 0) + &row("clr30x", 2, 3.2, 0) + &row("hifi30x", 1, 8.0, 0)),
        )
        .unwrap();
        let b = Results::parse(&(row("clr30x", 1, 4.0, 1) + "\n" + &row("hifi30x", 1, 8.1, 0)))
            .unwrap();
        assert_eq!(a.of("clr30x", "wall_s"), [3.0, 3.2]);
        assert!(
            a.of("clr30x", "kcount.bloom_s").is_empty(),
            "per-layer metrics are not compared"
        );
        assert_eq!((b.attempted, b.failed), (12.0, 1.0));
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].0, rows[0].1, rows[0].2.verdict),
            ("clr30x", "wall_s", Verdict::Regress)
        );
        assert_eq!((rows[1].0, rows[1].2.verdict), ("hifi30x", Verdict::Pass));
        assert!(Results::parse("{\"workload\": 3}").is_err());
        assert!(Results::parse("not json").is_err());
    }
}
