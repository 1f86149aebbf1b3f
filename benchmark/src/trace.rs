//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every rank thread of a traced run pushes spans into its own
//! [`SpanLog`]; the logs are merged after the world has joined and written
//! out when the benchmark ends. Nothing is shared between threads while
//! the pipeline runs, so tracing adds two clock reads per span and no
//! synchronisation.

use crate::json::Json;
use std::time::Instant;

/// `rank` of a span recorded on the thread that launched the world.
pub const DRIVER: i32 = -1;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, layer = crate name.
    pub name: &'static str,
    /// Start, in ns since the benchmark's epoch.
    pub start_ns: u64,
    /// End, in ns since the benchmark's epoch.
    pub end_ns: u64,
    /// Index (within the same log) of the span that caused this one.
    pub parent: Option<usize>,
    /// Rank thread that recorded it, or [`DRIVER`].
    pub rank: i32,
    /// Which pipeline run of the process it belongs to.
    pub run: u32,
    /// Work counts snapshotted when the span closed.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An append-only list of spans sharing one epoch, rank and run id.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    rank: i32,
    run: u32,
    /// The spans, in the order they were opened.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log for `rank` of pipeline run `run`, timed against `epoch`.
    pub fn new(epoch: Instant, rank: i32, run: u32) -> Self {
        Self {
            epoch,
            rank,
            run,
            spans: Vec::new(),
        }
    }

    /// An empty log for rank thread `rank` of the same call: same epoch,
    /// same run id. [`Self::adopt`] merges it back once the world joined.
    pub fn for_rank(&self, rank: usize) -> SpanLog {
        SpanLog::new(self.epoch, rank as i32, self.run)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Self::close`] and as a parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rank: self.rank,
            run: self.run,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Close span `id`, attaching the counts taken at this boundary.
    pub fn close(&mut self, id: usize, counts: Vec<(&'static str, u64)>) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.counts = counts;
    }

    /// Append another log whose spans without a parent become children of
    /// `parent` in this log; indices are rebased.
    pub fn adopt(&mut self, other: SpanLog, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }
}

/// Seconds of span `id` not covered by any of its direct children: the
/// span's length minus the length of the union of its children's
/// intervals, clipped to the span. Children on different ranks run at the
/// same time, so their intervals overlap and must not be counted twice.
pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let (lo, hi) = (spans[id].start_ns, spans[id].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)))
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = lo;
    for (start, end) in kids {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (hi - lo - covered) as f64 / 1e9
}

/// Longest duration among the spans called `name` (the slowest rank sets
/// the time of a bulk-synchronous stage); 0 if there is none.
pub fn slowest(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .fold(0.0, f64::max)
}

/// The trace file: for each traced call its spans, one object per span,
/// `id` = position in the call's list (`parent` refers to it).
pub fn to_json(workload: &str, seed: u64, runs: &[&[Span]]) -> Json {
    let rows = |spans: &[Span]| -> Vec<Json> {
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rank", Json::Num(s.rank as f64)),
                    ("run", Json::Num(s.run as f64)),
                    (
                        "counts",
                        Json::object(
                            s.counts
                                .iter()
                                .map(|&(k, v)| (k, Json::Num(v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect()
    };
    Json::object(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::Num(seed as f64)),
        (
            "runs",
            Json::Arr(runs.iter().map(|spans| Json::Arr(rows(spans))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: 0,
            run: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        // root 0..100; child 10..60 with a grandchild 20..30; child 70..90.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        assert_eq!(self_seconds(&spans, 0), 30e-9);
        assert_eq!(self_seconds(&spans, 1), 40e-9);
        assert_eq!(self_seconds(&spans, 2), 10e-9);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two ranks run the same stage at the same time; one child is
        // nested inside another; one sticks out past the parent.
        let spans = [
            span("root", 100, 200, None),
            span("rank0.stage", 110, 150, Some(0)),
            span("rank1.stage", 130, 170, Some(0)),
            span("rank1.nested", 140, 145, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        // Covered: [110,170) and [190,200) = 70 of 100.
        assert_eq!(self_seconds(&spans, 0), 30e-9);
    }

    #[test]
    fn adopt_rebases_parents() {
        let epoch = Instant::now();
        let mut driver = SpanLog::new(epoch, DRIVER, 3);
        let root = driver.open("root", None);
        let mut rank = driver.for_rank(1);
        let stage = rank.open("stage", None);
        let inner = rank.open("inner", Some(stage));
        rank.close(inner, vec![("n", 7)]);
        rank.close(stage, Vec::new());
        driver.adopt(rank, root);
        driver.close(root, Vec::new());
        assert_eq!(driver.spans[1].parent, Some(0));
        assert_eq!(driver.spans[2].parent, Some(1));
        assert_eq!(driver.spans[2].rank, 1);
        assert_eq!(driver.spans[2].counts, [("n", 7)]);
        assert!(slowest(&driver.spans, "stage") >= slowest(&driver.spans, "inner"));
    }
}
