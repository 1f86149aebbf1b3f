//! Gapped x-drop seed extension — diBELLA's production alignment kernel.
//!
//! Paper §2: "in place of full dynamic programming ... one can search only
//! for solutions with a limited number of mismatches (banded
//! Smith-Waterman) and terminate early when the alignment score drops
//! significantly (x-drop) \[37\]. This makes pairwise alignment linear in
//! L." The original algorithm is Zhang, Schwartz, Wagner & Miller (2000);
//! diBELLA calls SeqAn's implementation — this is a from-scratch
//! equivalent (see DESIGN.md §2).
//!
//! The extension walks antidiagonals of the DP matrix keeping only the
//! cells whose score is within `X` of the best score seen so far; the
//! frontier both grows (gaps) and shrinks (pruning), so well-matched
//! sequences stay in a narrow adaptive band while divergent pairs
//! terminate after O(X) antidiagonals — the property behind the alignment
//! stage's x-drop load imbalance (paper §9, Figure 8).

use crate::scoring::Scoring;
use crate::simd::{I16x16, SimdMode, LANES16};
use crate::workspace::AlignWorkspace;

/// Score used for pruned/unreachable cells. Kept well away from `i32::MIN`
/// so arithmetic cannot overflow.
const NEG_INF: i32 = i32::MIN / 4;

/// Direction an extension walks its input slices in.
///
/// `Fwd` reads `s[i]`; `Rev` reads `s[len − 1 − i]`, i.e. the slice
/// backward **in place** — the copy-free equivalent of extending over a
/// reversed prefix. Used as a `const` generic so the hot loop is
/// monomorphized with no per-base branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Left-to-right (suffix extension).
    Fwd,
    /// Right-to-left (prefix extension, walked without materializing the
    /// reversed copy).
    Rev,
}

/// Base `idx` of `seq` in walk order: identity for the forward direction,
/// mirrored for the reverse direction.
#[inline(always)]
fn base_at<const REV: bool>(seq: &[u8], idx: usize) -> u8 {
    if REV {
        seq[seq.len() - 1 - idx]
    } else {
        seq[idx]
    }
}

/// Outcome of a one-directional x-drop extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extension {
    /// Best extension score found (≥ 0; the empty extension scores 0).
    pub score: i32,
    /// Bases of `s` consumed by the best extension.
    pub s_ext: usize,
    /// Bases of `t` consumed by the best extension.
    pub t_ext: usize,
    /// DP cells computed.
    pub cells: u64,
    /// Antidiagonals those cells lie on (the trivial antidiagonal 0 is not
    /// counted, as in `cells`): the length of the kernel's serial
    /// dependency chain, which `cells / antidiagonals` cells share.
    pub antidiagonals: u64,
}

/// The x-drop scan over antidiagonals, generic over walk direction.
///
/// Row storage is the caller's three reusable buffers (antidiagonals d−2,
/// d−1 and the one being filled), **rotated** at the end of each
/// antidiagonal instead of cloned. Pruning no longer copies the surviving
/// span out: each row keeps its physical base offset (`*_base`, the `lo`
/// it was filled at) alongside the logical surviving range
/// (`*_lo ..= *_hi`), and all reads bound-check against the logical range
/// — so the scores read, the candidate ranges derived from them, and the
/// `cells` tally are exactly those of the historical copying
/// implementation.
fn xdrop_core<const REV: bool>(
    s: &[u8],
    t: &[u8],
    scoring: Scoring,
    x: i32,
    rows: &mut [Vec<i32>; 3],
) -> Extension {
    assert!(x > 0, "x-drop threshold must be positive");
    let n = s.len();
    let m = t.len();
    if n == 0 || m == 0 {
        return Extension { score: 0, s_ext: 0, t_ext: 0, cells: 0, antidiagonals: 0 };
    }

    // Rows indexed by i (chars of s consumed); row d covers antidiagonal
    // i + j = d over i ∈ [lo, hi].
    let mut best = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut cells = 0u64;

    let [prev2, prev, cur] = rows;

    // d = 0: the single cell (0, 0) = 0.
    prev2.clear();
    prev2.push(0);
    let mut prev2_base = 0usize;
    let mut prev2_lo = 0usize;
    let mut prev2_hi = 0usize;

    // d = 1: cells (0,1) and (1,0), both pure gap (n, m ≥ 1 here).
    prev.clear();
    for i in 0..=1usize {
        let jd = 1 - i;
        if i > n || jd > m {
            prev.push(NEG_INF);
            continue;
        }
        cells += 1;
        prev.push(scoring.gap);
    }
    // Prune row 1 (gap = −1 survives any positive x, but keep the check
    // for exotic scoring schemes).
    if prev.iter().all(|&v| v < best - x) {
        return Extension { score: best, s_ext: best_i, t_ext: best_j, cells, antidiagonals: 1 };
    }
    let mut antidiagonals = 1u64;
    let mut prev_base = 0usize;
    let mut prev_lo = 0usize;
    let mut prev_hi = 1usize;

    let mut d = 1usize;
    loop {
        d += 1;
        if d > n + m {
            break;
        }
        // Candidate i range for row d from surviving cells of row d-1:
        // a cell (i, j) on row d is reachable from (i, j-1) [same i] or
        // (i-1, j) [i-1] on row d-1, or (i-1, j-1) on row d-2.
        let lo = prev_lo.max(d.saturating_sub(m));
        let hi = (prev_hi + 1).min(d).min(n);
        if lo > hi {
            break;
        }
        antidiagonals += 1;
        cur.clear();
        cur.resize(hi - lo + 1, NEG_INF);
        let mut any = false;
        for i in lo..=hi {
            let j = d - i;
            if j > m || i > n {
                continue;
            }
            cells += 1;
            let mut v = NEG_INF;
            // Gap in s (from (i, j-1), row d-1, same i).
            if i >= prev_lo && i <= prev_hi && j >= 1 {
                let c = prev[i - prev_base];
                if c > NEG_INF {
                    v = v.max(c + scoring.gap);
                }
            }
            // Gap in t (from (i-1, j), row d-1, index i-1).
            if i > prev_lo && i - 1 <= prev_hi {
                let c = prev[i - 1 - prev_base];
                if c > NEG_INF {
                    v = v.max(c + scoring.gap);
                }
            }
            // Substitution (from (i-1, j-1), row d-2, index i-1).
            if i >= 1 && j >= 1 && i > prev2_lo && i - 1 <= prev2_hi {
                let c = prev2[i - 1 - prev2_base];
                if c > NEG_INF {
                    let sub = scoring
                        .substitution(base_at::<REV>(s, i - 1), base_at::<REV>(t, j - 1));
                    v = v.max(c + sub);
                }
            }
            if v <= NEG_INF {
                continue;
            }
            if v > best {
                best = v;
                best_i = i;
                best_j = j;
            }
            cur[i - lo] = v;
            any = true;
        }
        if !any {
            break;
        }
        // X-drop pruning: restrict the logical range to cells ≥ best − x.
        // No copy, no NEG_INF back-fill: cells outside [first, last] are
        // simply excluded by the next rows' logical-range bound checks.
        let threshold = best - x;
        let first = cur.iter().position(|&v| v >= threshold);
        let last = cur.iter().rposition(|&v| v >= threshold);
        let (first, last) = match (first, last) {
            (Some(f), Some(l)) => (f, l),
            _ => break, // every cell pruned → extension terminates
        };
        // Rotate: d-1 becomes d-2, the filled row becomes d-1, and the
        // old d-2 buffer is recycled as the next row's storage.
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
        prev2_base = prev_base;
        prev2_lo = prev_lo;
        prev2_hi = prev_hi;
        prev_base = lo;
        prev_lo = lo + first;
        prev_hi = lo + last;
    }

    Extension { score: best, s_ext: best_i, t_ext: best_j, cells, antidiagonals }
}

/// [`xdrop_core`] in walk direction `dir`.
fn xdrop_core_dir(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    scoring: Scoring,
    x: i32,
    rows: &mut [Vec<i32>; 3],
) -> Extension {
    match dir {
        Dir::Fwd => xdrop_core::<false>(s, t, scoring, x, rows),
        Dir::Rev => xdrop_core::<true>(s, t, scoring, x, rows),
    }
}

/// Largest `|match|`, `|mismatch|` and `|gap|` the lane kernel takes.
const LANE_MAX_PENALTY: i32 = 64;
/// Largest `x` the lane kernel takes.
const LANE_MAX_X: i32 = 4_000;

/// Lane-row value of a cell outside a row's logical range.
const NEG: i16 = i16::MIN;
/// Everything the recurrence can make out of `NEG` sources alone is at or
/// below this (`NEG + match` at most), so a cell above it is exact.
const FLOOR: i16 = NEG + LANE_MAX_PENALTY as i16;
/// Rows are rebased once the best relative score passes this; a cell
/// exceeds the previous best by at most one step, so rows stay below
/// `REBASE_AT + LANE_MAX_PENALTY`.
const REBASE_AT: i16 = 16_000;

/// Whether the lane kernel's `i16` rows can carry this scoring and `x`:
/// steps of at most [`LANE_MAX_PENALTY`] keep the saturating adds and the
/// [`FLOOR`] argument valid, and `x ≤` [`LANE_MAX_X`] leaves the pruning
/// threshold (`≥ −x` relative) some 28 000 above the floor, so only a
/// pathologically deep in-band cell can reach it. Anything else runs on
/// the scalar kernel.
fn lane_eligible(scoring: Scoring, x: i32) -> bool {
    let small = |v: i32| (-LANE_MAX_PENALTY..=LANE_MAX_PENALTY).contains(&v);
    x <= LANE_MAX_X && small(scoring.match_score) && small(scoring.mismatch) && small(scoring.gap)
}

/// The dispatch every entry point shares: the lane kernel unless the
/// caller pinned the scalar oracle or the input is not [`lane_eligible`].
fn runs_on_lanes(mode: SimdMode, scoring: Scoring, x: i32) -> bool {
    mode == SimdMode::Auto && lane_eligible(scoring, x)
}

/// The lane x-drop scan: the antidiagonal walk, pruning and bookkeeping of
/// [`xdrop_core`] with the recurrence computed [`LANES16`] cells at a time
/// in 16-bit lanes. Returns `None` when a cell fell out of the `i16`
/// range (the caller then runs the scalar kernel); otherwise the result
/// is bit-identical to [`xdrop_core`] — score, extents, `cells` *and*
/// `antidiagonals` — which `tests/simd_identity.rs` and
/// `tests/kernel_golden.rs` enforce. That holds for score magnitudes up
/// to [`LANE_MAX_PENALTY`] and any `x ≤ i16::MAX`; the dispatcher passes
/// `x ≤` [`LANE_MAX_X`].
///
/// `a_side[k]` is the walk-order base `k − 1` of the ascending sequence
/// (`n` bases), `b_side[p]` the walk-order base `m − 1 − p` of the
/// descending one (`m` bases), both readable one chunk past their last
/// base — the layout [`LaneSeq`](crate::workspace) stages. Cell `i` of
/// antidiagonal `d` then compares `a_side[i]` with `b_side[m − d + i]`:
/// two ascending byte loads, whatever the walk direction.
///
/// # Rows
///
/// A row stores `score − offset` as `i16`; `offset` absorbs the best
/// score whenever it passes [`REBASE_AT`], so read length is unbounded.
/// Rows are indexed by absolute cell: slot `1 + i` holds cell `i` of every
/// row, so a row's windows follow from its `lo` alone, with no per-row
/// base offset to carry or subtract. The price is length: a row has a
/// slot for every `i ≤ n` plus the guards, `n + 2 + LANES16` in all, where
/// a window the width of the band would do — O(n) per row instead of
/// O(min(n, m)), about 40 KiB per row on a 20 kb read.
///
/// The invariant that removes every validity mask: **each slot a later
/// row can read that lies outside the row's logical (surviving) range
/// holds `NEG`**. Later rows read from cell `first − 1` to cell `last +
/// LANES16`, so pruning a row to `[first, last]` stores `NEG` at cell
/// `first − 1` (slot 0, the sentinel, when that is cell −1) and over the
/// `LANES16` cells after `last`. Slots below cell `first − 1` keep
/// whatever an earlier row or call left there: a later row's `lo` is at
/// least this row's `first`, so nothing reads them, and rows are never
/// re-initialized. Every recurrence source is then either a live cell or
/// `NEG`, saturating adds keep `NEG`-fed terms at or below [`FLOOR`], and
/// every cell in `[lo, hi]` has a live horizontal source, so its true
/// value wins the `max` — unless that true value is itself at or below
/// [`FLOOR`], which is the one thing checked (once, on the minimum of
/// every cell computed, after the scan).
///
/// Lanes past `hi` in a row's last chunk are kept out of the row maximum
/// and that minimum: such a lane can see a live diagonal source, because
/// row `d−2` may survive beyond `prev_hi + 1`, and the scalar kernel
/// never computes that cell.
///
/// The best cell is not located row by row. The row that raised the best
/// score is noted (`best_d`, its `lo ..= hi`); when the rotation would
/// recycle it, it is set aside in the fourth buffer instead, and its first
/// maximum — the cell the scalar scan's `v > best` updates land on — is
/// found once, when the walk ends (or just before a rebase moves the
/// scores of the rows it touches).
fn xdrop_core_lanes(
    a_side: &[u8],
    b_side: &[u8],
    n: usize,
    m: usize,
    scoring: Scoring,
    x: i32,
    rows: &mut [Vec<i16>; 4],
) -> Option<Extension> {
    assert!(x > 0, "x-drop threshold must be positive");
    if n == 0 || m == 0 {
        return Some(Extension { score: 0, s_ext: 0, t_ext: 0, cells: 0, antidiagonals: 0 });
    }
    let (gap, match_score, mismatch) =
        (scoring.gap as i16, scoring.match_score as i16, scoring.mismatch as i16);

    // The deepest slot touched is the last tail guard's, cell n + LANES16.
    // Rows only grow: no slot is read before this call has written it.
    let phys = n + 2 + LANES16;
    for row in rows.iter_mut() {
        if row.len() < phys {
            row.resize(phys, NEG);
        }
    }
    // Rotate slices, not the `Vec`s: the swaps stay in registers. All cut
    // to one length, and the sequences to theirs, so the bounds checks are
    // against `n` and `m`.
    let [prev2, prev, cur, kept] = rows;
    let (mut prev2, mut prev) = (&mut prev2[..phys], &mut prev[..phys]);
    let (mut cur, mut kept) = (&mut cur[..phys], &mut kept[..phys]);
    let (a_side, b_side) = (&a_side[..n + LANES16], &b_side[..m + LANES16]);

    // Absolute best = offset + best_rel, the first maximum of cells
    // `best_cells` of row `best_d` (see "Rows").
    let mut offset = 0i32;
    let mut best_rel = 0i16;
    let mut best_d = 0usize;
    let mut best_cells = (0usize, 0usize);

    // d = 0: the single cell (0, 0) = 0.
    prev2[0] = NEG;
    prev2[1] = 0;
    prev2[2..2 + LANES16].fill(NEG);

    // d = 1: cells (0,1) and (1,0), both pure gap (n, m ≥ 1 here).
    prev[0] = NEG;
    prev[1] = gap;
    prev[2] = gap;
    prev[3..3 + LANES16].fill(NEG);
    let mut cells = 2u64;
    if scoring.gap < -x {
        return Some(Extension { score: 0, s_ext: 0, t_ext: 0, cells, antidiagonals: 1 });
    }
    let mut prev_lo = 0usize;
    let mut prev_hi = 1usize;

    let gap_v = I16x16::splat(gap);
    // Minimum over every cell computed so far, checked against FLOOR
    // once, after the scan: a cell at or below it makes what follows
    // inexact but cannot make it loop or index out of bounds.
    let mut all_min = I16x16::splat(i16::MAX);

    // The loop yields the antidiagonals walked: rows 1 ..= d − 1 when the
    // matrix ends before row d, 1 ..= d when row d is pruned whole.
    let mut d = 1usize;
    let antidiagonals = loop {
        d += 1;
        // An empty range is the walk's end: a surviving cell of row d − 1
        // has i ≥ d − 1 − m, so lo ≤ hi until d > n + m.
        let lo = prev_lo.max(d.saturating_sub(m));
        let hi = (prev_hi + 1).min(n);
        if lo > hi {
            break d as u64 - 1;
        }
        let len = hi - lo + 1;
        // Every i in [lo, hi] is a computed cell: lo ≥ d − m keeps
        // j = d − i ≤ m and hi ≤ min(d, n) keeps i ≤ n, j ≥ 0 (prev_hi ≤
        // d − 1) — the scalar kernel's skip guard never fires.
        cells += len as u64;

        // The row's source, base and output windows: `left` starts at the
        // slot of cell `lo − 1` of row d−1, `up` one further, `diag` at
        // cell `lo − 1` of row d−2. They run LANES16 − 1 lanes past `hi`,
        // so `chunks_exact` walks ⌈len / LANES16⌉ whole chunks.
        let span = len + LANES16 - 1;
        let left = &prev[lo..][..span + 1];
        let (left, up) = (&left[..span], &left[1..]);
        let diag = &prev2[lo..][..span];
        let a = &a_side[lo..][..span];
        let b = &b_side[lo + m - d..][..span];
        let out = &mut cur[lo + 1..][..span];
        let chunks = out
            .chunks_exact_mut(LANES16)
            .zip(up.chunks_exact(LANES16).zip(left.chunks_exact(LANES16)))
            .zip(diag.chunks_exact(LANES16))
            .zip(a.chunks_exact(LANES16).zip(b.chunks_exact(LANES16)));
        // Each chunk enters the row maximum and the floor check one
        // iteration late, so that the last can be cut after the loop. The
        // zeros they start from change neither: `best_rel ≥ 0` and
        // FLOOR < 0.
        let mut pending = I16x16::splat(0);
        let mut row_max = pending;
        for (((out, (up, left)), diag), (a, b)) in chunks {
            row_max = row_max.max(pending);
            all_min = all_min.min(pending);
            let horiz = I16x16::load(up, 0).max(I16x16::load(left, 0)).sat_add(gap_v);
            let sub = I16x16::select_eq_bytes(a, b, match_score, mismatch);
            let v = horiz.max(I16x16::load(diag, 0).sat_add(sub));
            v.store(out, 0);
            pending = v;
        }
        // The last chunk's lanes past `hi` (see "Rows"): pinned below 0
        // they cannot beat `best_rel`, at or above 0 they cannot reach
        // FLOOR.
        let past = I16x16::past((len - 1) % LANES16 + 1);
        row_max = row_max.max(pending.sat_add(past));
        all_min = all_min.min(pending.sat_sub(past));
        let rm = row_max.hmax();
        if rm > best_rel {
            best_rel = rm;
            best_d = d;
            best_cells = (lo, hi);
        }

        // X-drop pruning on the logical range, exactly as the scalar scan.
        let threshold = best_rel - x as i16;
        let live = &cur[lo + 1..=hi + 1];
        let Some(first) = live.iter().position(|&v| v >= threshold) else {
            break d as u64; // every cell pruned → extension terminates
        };
        let last = live.iter().rposition(|&v| v >= threshold).expect("a cell survived");
        let (first, last) = (lo + first, lo + last);
        // Restore the row invariant: NEG just outside the surviving range.
        cur[first] = NEG;
        cur[last + 2..last + 2 + LANES16].fill(NEG);

        if best_rel > REBASE_AT {
            // A rebase moves the surviving cells of the two rows it
            // touches and not the pruned ones: pin the best cell first.
            // Only a new best passes REBASE_AT, so it is on this row.
            let at = first_max(cur, best_cells);
            best_cells = (at, at);
            if rebase(&mut cur[first + 1..=last + 1], &mut prev[prev_lo + 1..=prev_hi + 1], best_rel) {
                return None;
            }
            offset += best_rel as i32;
            best_rel = 0;
        }

        // Rotate. Row d − 2 is recycled unless it is the best row, which
        // is set aside in `kept` instead.
        if best_d + 2 == d {
            std::mem::swap(&mut prev2, &mut kept);
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
        prev_lo = first;
        prev_hi = last;
    };

    if all_min.hmin() <= FLOOR {
        return None;
    }
    // A row that raised the best score survived its own pruning, so the
    // best row is one of the two the last rotation left, or `kept` (row 0,
    // the empty extension's, when nothing scored above 0).
    let best_row = match d - best_d {
        1 => prev,
        2 => prev2,
        _ => kept,
    };
    let best_i = first_max(best_row, best_cells);
    let score = offset + best_rel as i32;
    Some(Extension { score, s_ext: best_i, t_ext: best_d - best_i, cells, antidiagonals })
}

/// The first of cells `lo ..= hi` of `row` holding their maximum.
fn first_max(row: &[i16], (lo, hi): (usize, usize)) -> usize {
    let cells = &row[lo + 1..=hi + 1];
    let top = cells.iter().max().expect("a row has a cell");
    lo + cells.iter().position(|v| v == top).expect("the maximum is a cell")
}

/// Move `by`, the best relative score, into the offset on the live cells
/// of the two rows the next antidiagonal reads (the `NEG` guards around
/// them stay `NEG`). Returns whether a cell reached [`FLOOR`]. Out of line:
/// it runs once per ~16 000 of score, and inlined its loop state would
/// crowd the antidiagonal loop's registers.
#[cold]
#[inline(never)]
fn rebase(cur: &mut [i16], prev: &mut [i16], by: i16) -> bool {
    let mut floor_hit = false;
    for v in cur.iter_mut().chain(prev) {
        *v = v.saturating_sub(by);
        floor_hit |= *v <= FLOOR;
    }
    floor_hit
}

/// A shared-seed alignment task between two oriented sequences.
///
/// Positions refer to the *oriented* sequences handed to
/// [`extend_seed`] — the overlap stage resolves canonical-k-mer strands
/// before building tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedHit {
    /// Seed start in `a`.
    pub a_pos: usize,
    /// Seed start in `b` (oriented coordinates).
    pub b_pos: usize,
    /// Seed length (the k-mer length).
    pub k: usize,
}

/// A completed seed-and-extend alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedAlignment {
    /// Total score: left extension + seed + right extension.
    pub score: i32,
    /// Aligned range in `a`.
    pub a_start: usize,
    /// End (exclusive) in `a`.
    pub a_end: usize,
    /// Aligned range in `b` (oriented coordinates).
    pub b_start: usize,
    /// End (exclusive) in `b`.
    pub b_end: usize,
    /// Total DP cells computed (both directions).
    pub cells: u64,
    /// Antidiagonals walked (both directions); see
    /// [`Extension::antidiagonals`].
    pub antidiagonals: u64,
}

/// Extend an alignment from the start of `s` against the start of `t`
/// with gapped x-drop pruning (drop-off parameter `x > 0`), returning the
/// maximum-score pair of prefixes; the extension may be empty (`score =
/// 0`). [`Dir::Fwd`] walks the slices left-to-right; [`Dir::Rev`] walks
/// them right-to-left in place, equivalent to (and bit-identical with)
/// extending over reversed copies of both.
///
/// All scratch comes from `ws`: zero heap allocations per antidiagonal
/// and — once `ws` has warmed up — zero per call. The result is the same
/// for either `mode` and any prior workspace state.
///
/// # Panics
/// Panics if `x` is not positive.
pub fn extend_xdrop(
    s: &[u8],
    t: &[u8],
    dir: Dir,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
    mode: SimdMode,
) -> Extension {
    if runs_on_lanes(mode, scoring, x) {
        let AlignWorkspace { xdrop_lanes, lane_a, lane_b, .. } = ws;
        let (a_side, b_side) = match dir {
            Dir::Fwd => {
                lane_a.set_fwd(s);
                lane_b.set_rev(t);
                (&lane_a.fwd[..], &lane_b.rev[1..])
            }
            Dir::Rev => {
                lane_a.set_rev(s);
                lane_b.set_fwd(t);
                (&lane_a.rev[..], &lane_b.fwd[1..])
            }
        };
        if let Some(ext) =
            xdrop_core_lanes(a_side, b_side, s.len(), t.len(), scoring, x, xdrop_lanes)
        {
            return ext;
        }
    }
    xdrop_core_dir(s, t, dir, scoring, x, &mut ws.xdrop)
}

/// Seed-and-extend with gapped x-drop in both directions from a shared
/// k-mer (paper §4 step 4: "perform alignment on these read pairs using
/// the shared k-mer as the starting position (seed)"). One-shot form of
/// [`SeedExtender`]: both directional extensions run the core `mode`
/// selects; the seed-region prologue is scalar by nature and shared.
///
/// # Panics
/// Panics if the seed exceeds either sequence.
pub fn extend_seed(
    a: &[u8],
    b: &[u8],
    seed: SeedHit,
    scoring: Scoring,
    x: i32,
    ws: &mut AlignWorkspace,
    mode: SimdMode,
) -> SeedAlignment {
    let mut pair = SeedExtender::new(a, scoring, x, ws, mode);
    pair.set_b(b);
    pair.extend(seed)
}

/// Seed-and-extend over one read `a` against one or more oriented reads
/// `b`, any number of seeds each.
///
/// The lane kernel reads padded forward and reversed copies of both
/// sequences (see `docs/ARCHITECTURE.md` § "SIMD kernels"). They are
/// staged in the workspace by [`SeedExtender::new`] (for `a`) and
/// [`SeedExtender::set_b`] (for `b`) and shared by every
/// [`SeedExtender::extend`] that follows, so a multi-seed task copies
/// each read once, not once per seed and direction. The scalar kernel
/// (chosen, or fallen back to) reads the caller's slices and stages
/// nothing.
pub struct SeedExtender<'a> {
    ws: &'a mut AlignWorkspace,
    a: &'a [u8],
    b: &'a [u8],
    scoring: Scoring,
    x: i32,
    /// Whether extensions run on the lane kernel (and copies are staged).
    lanes: bool,
}

impl<'a> SeedExtender<'a> {
    /// Start extending seeds of `a`; call [`SeedExtender::set_b`] before
    /// the first [`SeedExtender::extend`].
    pub fn new(
        a: &'a [u8],
        scoring: Scoring,
        x: i32,
        ws: &'a mut AlignWorkspace,
        mode: SimdMode,
    ) -> Self {
        let lanes = runs_on_lanes(mode, scoring, x);
        if lanes {
            ws.lane_a.set_fwd(a);
            ws.lane_a.set_rev(a);
        }
        let mut pair = Self { ws, a, b: &[], scoring, x, lanes };
        // Until the caller names one, `b` is empty — staged as such, so the
        // copies never describe another pair's read.
        pair.set_b(&[]);
        pair
    }

    /// Set (or replace) the oriented read the next seeds are shared with.
    pub fn set_b(&mut self, b: &'a [u8]) {
        self.b = b;
        if self.lanes {
            self.ws.lane_b.set_fwd(b);
            self.ws.lane_b.set_rev(b);
        }
    }

    /// Extend `seed` in both directions. The left extension walks the
    /// two prefixes backward ([`Dir::Rev`]), the right one the suffixes
    /// forward.
    ///
    /// # Panics
    /// Panics if the seed exceeds either sequence.
    pub fn extend(&mut self, seed: SeedHit) -> SeedAlignment {
        let (a, b, scoring) = (self.a, self.b, self.scoring);
        assert!(seed.a_pos + seed.k <= a.len(), "seed out of range in a");
        assert!(seed.b_pos + seed.k <= b.len(), "seed out of range in b");
        let (a_end, b_end) = (seed.a_pos + seed.k, seed.b_pos + seed.k);

        // Score the seed region itself (normally k matches; sequencing errors
        // can make canonical-strand seeds imperfect, so score actual bases).
        // Iterating the two base slices directly lets the compiler hoist the
        // bounds checks out of the per-task prologue.
        let seed_score: i32 = a[seed.a_pos..a_end]
            .iter()
            .zip(&b[seed.b_pos..b_end])
            .map(|(&ab, &bb)| scoring.substitution(ab, bb))
            .sum();

        let left = self.side(Dir::Rev, &a[..seed.a_pos], &b[..seed.b_pos]);
        let right = self.side(Dir::Fwd, &a[a_end..], &b[b_end..]);

        SeedAlignment {
            score: left.score + seed_score + right.score,
            a_start: seed.a_pos - left.s_ext,
            a_end: a_end + right.s_ext,
            b_start: seed.b_pos - left.t_ext,
            b_end: b_end + right.t_ext,
            cells: left.cells + right.cells,
            antidiagonals: left.antidiagonals + right.antidiagonals,
        }
    }

    /// One directional extension: `s` and `t` are the prefixes
    /// ([`Dir::Rev`]) or suffixes ([`Dir::Fwd`]) of `a` and `b` on that
    /// side of the seed.
    fn side(&mut self, dir: Dir, s: &[u8], t: &[u8]) -> Extension {
        let AlignWorkspace { xdrop, xdrop_lanes, lane_a, lane_b, .. } = &mut *self.ws;
        if self.lanes {
            // Windows of the staged whole-read copies: a prefix walked
            // backward is a suffix of the reversed copy (less its front
            // pad, which the a-side window starts on), a suffix walked
            // forward starts at its own offset in the forward copy.
            let (a_side, b_side) = match dir {
                Dir::Rev => (&lane_a.rev[self.a.len() - s.len()..], &lane_b.fwd[1..]),
                Dir::Fwd => (&lane_a.fwd[self.a.len() - s.len()..], &lane_b.rev[1..]),
            };
            if let Some(ext) =
                xdrop_core_lanes(a_side, b_side, s.len(), t.len(), self.scoring, self.x, xdrop_lanes)
            {
                return ext;
            }
        }
        xdrop_core_dir(s, t, dir, self.scoring, self.x, xdrop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sw::smith_waterman;

    const S: Scoring = Scoring::bella();

    /// Both cores through one workspace, scalar first.
    fn both(s: &[u8], t: &[u8], dir: Dir, sc: Scoring, x: i32) -> (Extension, Extension) {
        let mut ws = AlignWorkspace::new();
        (
            extend_xdrop(s, t, dir, sc, x, &mut ws, SimdMode::Scalar),
            extend_xdrop(s, t, dir, sc, x, &mut ws, SimdMode::Auto),
        )
    }

    /// A forward extension under BELLA scoring, the same on both cores.
    fn fwd(s: &[u8], t: &[u8], x: i32) -> Extension {
        let (scalar, lanes) = both(s, t, Dir::Fwd, S, x);
        assert_eq!(lanes, scalar);
        scalar
    }

    /// A seed extension under BELLA scoring, the same on both cores.
    fn seeded(a: &[u8], b: &[u8], seed: SeedHit, x: i32) -> SeedAlignment {
        let mut ws = AlignWorkspace::new();
        let scalar = extend_seed(a, b, seed, S, x, &mut ws, SimdMode::Scalar);
        assert_eq!(extend_seed(a, b, seed, S, x, &mut ws, SimdMode::Auto), scalar);
        scalar
    }

    #[test]
    fn identical_extension_runs_to_the_end() {
        let e = fwd(b"ACGTACGTGG", b"ACGTACGTGG", 10);
        assert_eq!(e.score, 10);
        assert_eq!(e.s_ext, 10);
        assert_eq!(e.t_ext, 10);
    }

    /// Identical reads walk every antidiagonal of the matrix, the last
    /// one a single cell; an extension the drop-off stops walks X of them
    /// past its best cell, and each holds at least one cell.
    #[test]
    fn antidiagonals_count_the_rows_the_cells_lie_on() {
        let e = fwd(b"ACGTACGTGG", b"ACGTACGTGG", 10);
        assert_eq!(e.antidiagonals, 20);
        assert!(e.cells > e.antidiagonals);
        let e = fwd(b"AAAAGGGG", b"AAAACCCC", 3);
        assert!((8..=16).contains(&e.antidiagonals), "{}", e.antidiagonals);
        assert_eq!(fwd(b"ACGT", b"", 5).antidiagonals, 0);
        let a = seeded(b"TTACGTACGTGG", b"TTACGTACGTGG", SeedHit { a_pos: 4, b_pos: 4, k: 4 }, 10);
        assert_eq!(a.antidiagonals, 8 + 8);
    }

    #[test]
    fn empty_inputs() {
        let e = fwd(b"", b"", 5);
        assert_eq!(e.score, 0);
        let e = fwd(b"ACGT", b"", 5);
        assert_eq!((e.score, e.s_ext, e.t_ext), (0, 0, 0));
    }

    #[test]
    fn mismatch_tail_is_not_included() {
        let e = fwd(b"AAAAGGGG", b"AAAACCCC", 3);
        assert_eq!(e.score, 4);
        assert_eq!(e.s_ext, 4);
    }

    #[test]
    fn bridges_single_gap() {
        // s has an extra base; gapped extension must recover the match run.
        let e = fwd(b"AAAACAAAAAAA", b"AAAAAAAAAAA", 6);
        // 11 matches − 1 gap = 10.
        assert_eq!(e.score, 10);
        assert_eq!(e.s_ext, 12);
        assert_eq!(e.t_ext, 11);
    }

    #[test]
    fn xdrop_terminates_early_on_divergence() {
        // After 6 matching bases the sequences are unrelated; with a small
        // X the extension must stop long before the end.
        let mut s = b"ACGTGC".to_vec();
        let mut t = b"ACGTGC".to_vec();
        s.extend(std::iter::repeat_n(b'A', 4000));
        t.extend(std::iter::repeat_n(b'C', 4000));
        let e = fwd(&s, &t, 10);
        assert_eq!(e.score, 6);
        assert!(e.cells < 2_000, "expected early exit, computed {} cells", e.cells);
    }

    #[test]
    fn larger_x_never_scores_lower() {
        let s = b"ACGTTGCAGGTATTTACGCAGGATACGGATTACA";
        let t = b"ACGTTGCAGCTATTTACGCAGCATACGGTTTACA";
        let mut prev = 0;
        for x in [1, 2, 5, 10, 50] {
            let e = fwd(s, t, x);
            assert!(e.score >= prev, "x={x}");
            prev = e.score;
        }
    }

    #[test]
    fn huge_x_matches_best_prefix_pair_score() {
        // With X → ∞ the x-drop finds the global best prefix-pair score,
        // which for these inputs equals the SW local score anchored at 0,0.
        let s = b"ACGTACGTAC";
        let t = b"ACGTACGTAC";
        let e = fwd(s, t, 1_000_000);
        assert_eq!(e.score, 10);
    }

    #[test]
    fn seed_extension_full_overlap() {
        //        0123456789
        let a = b"TTTTACGTACGTAAAA";
        let b = b"TTTTACGTACGTAAAA";
        let seed = SeedHit { a_pos: 4, b_pos: 4, k: 8 };
        let al = seeded(a, b, seed, 20);
        assert_eq!(al.score, 16);
        assert_eq!((al.a_start, al.a_end), (0, 16));
        assert_eq!((al.b_start, al.b_end), (0, 16));
    }

    #[test]
    fn seed_extension_offset_overlap() {
        // b is a shifted window of a: suffix of a overlaps prefix of b.
        let a = b"GGGGGGACGTACGTTTTT";
        let b = b"ACGTACGTTTTTCCCCCC";
        let seed = SeedHit { a_pos: 6, b_pos: 0, k: 8 };
        let al = seeded(a, b, seed, 10);
        // Overlap region is 12 bases (ACGTACGTTTTT).
        assert_eq!(al.score, 12);
        assert_eq!((al.a_start, al.a_end), (6, 18));
        assert_eq!((al.b_start, al.b_end), (0, 12));
    }

    #[test]
    fn seed_alignment_never_beats_smith_waterman() {
        let a = b"ACGTTGCAGGTATTTACGCAGGATACGGATTACA";
        let b = b"TTGCAGGTATTAACGCAGGATACGG";
        // Seed at a true shared 8-mer: a[4..12] == b[1..9].
        assert_eq!(&a[4..12], &b[1..9]);
        let al = seeded(a, b, SeedHit { a_pos: 4, b_pos: 1, k: 8 }, 50);
        let oracle = smith_waterman(a, b, S);
        assert!(al.score <= oracle.score, "xdrop {} > SW {}", al.score, oracle.score);
        assert!(al.score > 0);
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn seed_bounds_checked() {
        let _ = seeded(b"ACGT", b"ACGT", SeedHit { a_pos: 2, b_pos: 0, k: 4 }, 5);
    }

    #[test]
    fn divergent_pair_cheap_vs_true_pair_expensive() {
        // The Fig-8 load-imbalance mechanism: a true overlapping pair costs
        // DP work proportional to the overlap, a spurious pair terminates
        // after ~X antidiagonals regardless of read length.
        let unit = b"ACGTTGCAGGTATTTACGCA";
        let long: Vec<u8> = unit.iter().cycle().take(2000).copied().collect();
        let seed = SeedHit { a_pos: 0, b_pos: 0, k: 8 };
        let good = seeded(&long, &long.clone(), seed, 15);
        let mut bad_b = long[..20].to_vec();
        bad_b.extend(std::iter::repeat_n(b'T', 1980));
        let bad = seeded(&long, &bad_b, seed, 15);
        assert!(
            good.cells > 5 * bad.cells,
            "good={} bad={}",
            good.cells,
            bad.cells
        );
        assert!(good.score > bad.score);
    }
    /// A uniformly random base sequence from a fixed xorshift stream.
    fn random_dna(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state % 4) as usize]
            })
            .collect()
    }

    #[test]
    fn lane_eligibility_bounds() {
        assert!(lane_eligible(S, 25));
        assert!(lane_eligible(Scoring { match_score: 64, mismatch: -64, gap: -64 }, LANE_MAX_X));
        assert!(!lane_eligible(S, LANE_MAX_X + 1));
        assert!(!lane_eligible(Scoring { match_score: 65, ..S }, 25));
        assert!(!lane_eligible(Scoring { mismatch: -65, ..S }, 25));
        assert!(!lane_eligible(Scoring { gap: -65, ..S }, 25));
        assert!(!lane_eligible(Scoring { gap: i32::MIN, ..S }, 25));
    }

    #[test]
    fn lane_kernel_reports_a_cell_at_the_floor() {
        // No eligible input is known to sink a live cell to FLOOR, so drive
        // the kernel directly past the x the dispatcher would give it:
        // all-mismatch rows fall 64 per antidiagonal and x = i16::MAX keeps
        // them alive down to −32 767, below FLOOR (−32 704), at row 511.
        let sc = Scoring { match_score: 1, mismatch: -64, gap: -64 };
        let (s, t) = (vec![b'A'; 600], vec![b'C'; 600]);
        let mut ws = AlignWorkspace::new();
        ws.lane_a.set_fwd(&s);
        ws.lane_b.set_rev(&t);
        let AlignWorkspace { xdrop_lanes, lane_a, lane_b, .. } = &mut ws;
        let run = |x: i32, rows: &mut [Vec<i16>; 4]| {
            xdrop_core_lanes(&lane_a.fwd, &lane_b.rev[1..], 600, 600, sc, x, rows)
        };
        assert_eq!(run(i16::MAX as i32, xdrop_lanes), None);
        // One step shallower every live cell stays above it, and the result
        // is the scalar kernel's.
        let x = i16::MAX as i32 - 2 * LANE_MAX_PENALTY;
        let scalar = xdrop_core::<false>(&s, &t, sc, x, &mut [Vec::new(), Vec::new(), Vec::new()]);
        assert_eq!(run(x, xdrop_lanes), Some(scalar));
    }

    #[test]
    fn rebase_keeps_long_extensions_exact() {
        // 40 kb identical: the score passes REBASE_AT twice at +1 per base
        // and many more times at +7.
        let s = random_dna(40_000, 0xBE11A);
        for sc in [S, Scoring { match_score: 7, mismatch: -5, gap: -3 }] {
            for dir in [Dir::Fwd, Dir::Rev] {
                let (scalar, simd) = both(&s, &s, dir, sc, 25);
                assert_eq!(simd, scalar);
                assert_eq!(scalar.score, sc.match_score * 40_000);
                assert!(scalar.score > 2 * (REBASE_AT as i32 + LANE_MAX_PENALTY));
            }
        }
    }
}
