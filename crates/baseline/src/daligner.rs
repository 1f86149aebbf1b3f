//! A DALIGNER-style single-node overlapper (paper §11, Table 2).
//!
//! "DALIGNER computes a k-mer sorting based on the position within a
//! sequence and then uses a merge-sort to detect common k-mers between
//! sequences" (Myers 2014). This baseline reproduces that strategy on one
//! node and one thread: build the full `(k-mer, read, position, strand)`
//! tuple list, sort it by k-mer (a comparison sort standing in for
//! DALIGNER's radix sort), scan runs of equal k-mers to emit candidate
//! pairs (masking high-frequency k-mers, as DALIGNER does), then run the
//! same x-drop kernel diBELLA uses — the same entry point
//! ([`SeedExtender`]) on the same dispatch as the pipeline's alignment
//! stage.
//!
//! Sharing the alignment kernel and filtering thresholds with the
//! pipeline makes the Table 2 comparison about what it was about in the
//! paper: *hash-and-exchange versus sort-and-merge overlap discovery*.

use dibella_align::{AlignWorkspace, Scoring, SeedExtender, SeedHit, SimdMode};
use dibella_io::{ReadId, ReadSet};
use dibella_kmer::base::reverse_complement_ascii_into;
use dibella_kmer::{Kmer1, KmerIter, Strand};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Baseline configuration (mirrors the pipeline's knobs).
#[derive(Clone, Copy, Debug)]
pub struct BaselineConfig {
    /// k-mer length.
    pub k: usize,
    /// High-frequency mask: k-mers occurring more often are skipped.
    pub max_multiplicity: u32,
    /// Minimum distance between explored seeds of one pair (`None` = one
    /// seed per pair).
    pub seed_min_distance: Option<u32>,
    /// Cap on seeds per pair.
    pub max_seeds_per_pair: usize,
    /// x-drop parameter.
    pub xdrop: i32,
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Output score threshold.
    pub min_score: i32,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            k: 17,
            max_multiplicity: 8,
            seed_min_distance: None,
            max_seeds_per_pair: 16,
            xdrop: 25,
            scoring: Scoring::bella(),
            min_score: 0,
        }
    }
}

/// One baseline alignment (same fields as the pipeline's record).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineAlignment {
    /// Smaller read ID.
    pub a: ReadId,
    /// Larger read ID.
    pub b: ReadId,
    /// `b` reverse-complemented?
    pub reverse: bool,
    /// Alignment score.
    pub score: i32,
    /// Range on `a`.
    pub a_start: u32,
    /// End on `a`.
    pub a_end: u32,
    /// Range on `b` (oriented frame).
    pub b_start: u32,
    /// End on `b` (oriented frame).
    pub b_end: u32,
    /// DP cells spent.
    pub cells: u64,
}

/// Phase timings (I/O excluded, as in Table 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineTimings {
    /// Tuple construction.
    pub tuples: Duration,
    /// Parallel sort.
    pub sort: Duration,
    /// Run scan + pair merging.
    pub merge: Duration,
    /// Pairwise alignment.
    pub align: Duration,
}

impl BaselineTimings {
    /// Total runtime.
    pub fn total(&self) -> Duration {
        self.tuples + self.sort + self.merge + self.align
    }
}

/// Result of a baseline run.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Alignments, deterministically sorted.
    pub alignments: Vec<BaselineAlignment>,
    /// Phase timings.
    pub timings: BaselineTimings,
    /// Tuples generated (the sort's input size).
    pub n_tuples: u64,
    /// Candidate pairs after masking.
    pub n_pairs: u64,
}

/// Sort-tuple: k-mer first so the sort groups equal k-mers.
type Tuple = (Kmer1, ReadId, u32, Strand);

/// Per-pair seed list: `(a_pos, b_pos, reverse)` records.
type SeedList = Vec<(u32, u32, bool)>;

/// Phase 4's unit of work: extend every seed of one candidate pair and
/// append the alignments reaching `cfg.min_score` to `out`.
///
/// `seeds` are `(a_pos, b_pos, reverse)` in the reads' own coordinates.
/// `a` is staged once and the oriented `b` once per run of equally
/// oriented seeds, exactly as the pipeline's alignment stage does. All
/// scratch — the reverse complement of `b` included — comes from `ws`, so
/// once `ws` is warm and `out` has room a call performs no heap
/// allocation.
pub fn align_pair(
    (a, b): (ReadId, ReadId),
    a_seq: &[u8],
    b_seq: &[u8],
    seeds: &[(u32, u32, bool)],
    cfg: &BaselineConfig,
    ws: &mut AlignWorkspace,
    out: &mut Vec<BaselineAlignment>,
) {
    // Detached so the extender can borrow `ws` while `b` borrows the
    // buffer; reattached below.
    let mut rc = std::mem::take(&mut ws.rc);
    if seeds.iter().any(|&(_, _, reverse)| reverse) {
        reverse_complement_ascii_into(b_seq, &mut rc);
    }
    let mut pair = SeedExtender::new(a_seq, cfg.scoring, cfg.xdrop, ws, SimdMode::Auto);
    let mut staged: Option<bool> = None;
    for &(a_pos, b_pos, reverse) in seeds {
        if staged != Some(reverse) {
            pair.set_b(if reverse { &rc } else { b_seq });
            staged = Some(reverse);
        }
        let b_pos = if reverse {
            b_seq.len() - cfg.k - b_pos as usize
        } else {
            b_pos as usize
        };
        let al = pair.extend(SeedHit { a_pos: a_pos as usize, b_pos, k: cfg.k });
        if al.score >= cfg.min_score {
            out.push(BaselineAlignment {
                a,
                b,
                reverse,
                score: al.score,
                a_start: al.a_start as u32,
                a_end: al.a_end as u32,
                b_start: al.b_start as u32,
                b_end: al.b_end as u32,
                cells: al.cells,
            });
        }
    }
    ws.rc = rc;
}

/// Run the DALIGNER-style baseline on a full read set.
pub fn run_baseline(reads: &ReadSet, cfg: &BaselineConfig) -> BaselineResult {
    // ---- phase 1: tuples ---------------------------------------------------
    let t0 = Instant::now();
    let mut tuples: Vec<Tuple> = reads
        .reads()
        .iter()
        .flat_map(|r| {
            KmerIter::<1>::new(&r.seq, cfg.k).map(move |h| (h.kmer, r.id, h.pos, h.strand))
        })
        .collect();
    let n_tuples = tuples.len() as u64;
    let t_tuples = t0.elapsed();

    // ---- phase 2: sort by k-mer ---------------------------------------------
    let t0 = Instant::now();
    tuples.sort_unstable();
    let t_sort = t0.elapsed();

    // ---- phase 3: merge runs into per-pair seed lists ------------------------
    let t0 = Instant::now();
    let mut pairs: HashMap<(ReadId, ReadId), SeedList> = HashMap::new();
    let mut at = 0usize;
    while at < tuples.len() {
        let kmer = tuples[at].0;
        let mut end = at + 1;
        while end < tuples.len() && tuples[end].0 == kmer {
            end += 1;
        }
        let run = &tuples[at..end];
        at = end;
        // Mask singletons and high-frequency k-mers — DALIGNER's
        // repeat masking, with diBELLA's threshold for comparability.
        if run.len() < 2 || run.len() > cfg.max_multiplicity as usize {
            continue;
        }
        for i in 0..run.len() {
            for j in (i + 1)..run.len() {
                let (_, ra, pa, sa) = run[i];
                let (_, rb, pb, sb) = run[j];
                if ra == rb {
                    continue;
                }
                let (key, a_pos, b_pos) = if ra < rb {
                    ((ra, rb), pa, pb)
                } else {
                    ((rb, ra), pb, pa)
                };
                pairs.entry(key).or_default().push((a_pos, b_pos, sa != sb));
            }
        }
    }
    // Deterministic task list with the same seed policy semantics as the
    // pipeline's `SeedPolicy`.
    let mut tasks: Vec<((ReadId, ReadId), SeedList)> = pairs.into_iter().collect();
    tasks.sort_unstable_by_key(|(key, _)| *key);
    for (_, seeds) in tasks.iter_mut() {
        seeds.sort_unstable();
        seeds.dedup();
        match cfg.seed_min_distance {
            None => seeds.truncate(1),
            Some(d) => {
                let mut kept = 0usize;
                let mut last: Option<(u32, bool)> = None;
                let cap = cfg.max_seeds_per_pair;
                seeds.retain(|&(a_pos, _, rev)| {
                    if kept >= cap {
                        return false;
                    }
                    let ok = match last {
                        Some((la, lrev)) if lrev == rev => a_pos >= la.saturating_add(d),
                        _ => true,
                    };
                    if ok {
                        kept += 1;
                        last = Some((a_pos, rev));
                    }
                    ok
                });
            }
        }
    }
    let n_pairs = tasks.len() as u64;
    let t_merge = t0.elapsed();

    // ---- phase 4: alignment -------------------------------------------------
    let t0 = Instant::now();
    let all_reads = reads.reads();
    let mut ws = AlignWorkspace::new();
    let mut alignments: Vec<BaselineAlignment> = Vec::new();
    for (pair, seeds) in &tasks {
        let a_seq = &all_reads[pair.0 as usize].seq;
        let b_seq = &all_reads[pair.1 as usize].seq;
        align_pair(*pair, a_seq, b_seq, seeds, cfg, &mut ws, &mut alignments);
    }
    alignments.sort_unstable();
    let t_align = t0.elapsed();

    BaselineResult {
        alignments,
        timings: BaselineTimings {
            tuples: t_tuples,
            sort: t_sort,
            merge: t_merge,
            align: t_align,
        },
        n_tuples,
        n_pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_io::Read;

    fn dataset(n: usize, read_len: usize, stride: usize, seed: u64) -> ReadSet {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let genome: Vec<u8> = (0..(n * stride + read_len))
            .map(|_| b"ACGT"[(rnd() % 4) as usize])
            .collect();
        (0..n as u32)
            .map(|i| Read::new(i, format!("r{i}"), genome[i as usize * stride..][..read_len].to_vec()))
            .collect()
    }

    #[test]
    fn finds_neighbour_overlaps() {
        let reads = dataset(8, 150, 50, 21);
        let cfg = BaselineConfig {
            k: 11,
            max_multiplicity: 24,
            seed_min_distance: Some(11),
            ..Default::default()
        };
        let res = run_baseline(&reads, &cfg);
        for i in 0..7u32 {
            let rec = res
                .alignments
                .iter()
                .find(|r| (r.a, r.b) == (i, i + 1))
                .unwrap_or_else(|| panic!("missing ({i},{})", i + 1));
            assert!(rec.score >= 80, "score {}", rec.score);
        }
        assert!(res.n_tuples > 0);
        assert!(res.n_pairs >= 7);
    }

    #[test]
    fn deterministic() {
        let reads = dataset(10, 120, 40, 9);
        let cfg = BaselineConfig { k: 11, max_multiplicity: 24, ..Default::default() };
        let a = run_baseline(&reads, &cfg);
        let b = run_baseline(&reads, &cfg);
        assert_eq!(a.alignments, b.alignments);
    }

    #[test]
    fn repeat_masking() {
        // All reads share one core → its k-mers exceed the mask and the
        // core must not produce pairs on its own.
        let core = b"ACGTTGCAGGTATTTACG";
        // One continuous RNG stream: per-read re-seeding with nearby seeds
        // makes xorshift flanks correlated, which would fake overlaps.
        let mut state = 0xC0FF_EE00_1234_5678u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let reads: ReadSet = (0..20u32)
            .map(|i| {
                let mut seq: Vec<u8> = (0..40).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
                seq.extend_from_slice(core);
                seq.extend((0..40).map(|_| b"ACGT"[(rnd() % 4) as usize]));
                Read::new(i, format!("r{i}"), seq)
            })
            .collect();
        let masked = run_baseline(
            &reads,
            &BaselineConfig { k: 11, max_multiplicity: 5, ..Default::default() },
        );
        let unmasked = run_baseline(
            &reads,
            &BaselineConfig { k: 11, max_multiplicity: 64, ..Default::default() },
        );
        // Unmasked, the shared core links every pair (~190). Masked, the
        // core's own k-mers (count 20 > 5) are gone; what survives are the
        // low-count k-mers straddling the core boundary (flank base + core
        // prefix, shared by ~¼ of reads each) — genuine behaviour of
        // count-threshold masking that diBELLA shares.
        assert!(unmasked.n_pairs >= 150, "unmasked {}", unmasked.n_pairs);
        assert!(
            masked.n_pairs < unmasked.n_pairs / 2,
            "masking ineffective: {} vs {}",
            masked.n_pairs,
            unmasked.n_pairs
        );
        // And every surviving alignment is anchored at the boundary, so it
        // cannot span more than core + one flank's worth of matches.
        for al in &masked.alignments {
            assert!(al.score <= core.len() as i32 + 22, "score {}", al.score);
        }
    }

    #[test]
    fn timings_populated() {
        let reads = dataset(6, 100, 30, 4);
        let res = run_baseline(&reads, &BaselineConfig { k: 9, max_multiplicity: 24, ..Default::default() });
        assert!(res.timings.total() > Duration::ZERO);
    }
}
