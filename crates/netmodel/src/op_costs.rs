//! Reference per-operation costs (nanoseconds on one Cori Haswell core,
//! in-cache).
//!
//! (Not to be confused with [`crate::cost`], which holds the *stage*
//! cost model.)
//!
//! The pipeline counts *operations* (k-mers packed, Bloom probes, hash
//! inserts, pairs emitted, DP cells updated); multiplying by these
//! constants gives the `compute_ns` fed to [`crate::cost::stage_cost`].
//! They are calibration knobs, chosen so single-node stage rates land in
//! the regime of the paper's Figures 3–7 and so the qualitative relations
//! the paper highlights hold (hash-table stage processes k-mers roughly 2×
//! faster than the Bloom stage; alignment dominates compute-heavy runs).

/// Sender-side cost of one k-mer in a k-mer pass: the reliable front
/// end's minimizer scan, owner-run cut and 2-bit write
/// (`dibella_kmer::supermer::pack_runs`).
///
/// Fitted, not hand-set: `bench_kernels_json` measures
/// `supermer_pack_kmers_per_sec` (2 destinations) and
/// `supermer_roll_kmers_per_sec` next to `extract_kmers_per_sec` at
/// k = 15 in one run, and both constants are that run's rate relative to
/// the extractor — so the bench host's speed cancels — times the
/// extractor's reference-core cost of 11.32 ns (what the 14.0 ns this
/// constant held for the per-k-mer 8-byte packer implied, at the rates
/// `BENCH_kernels.json` schema `/8` recorded for the two). From the
/// committed `BENCH_kernels.json`: 88.35 M extractions/s, 70.54 M packs/s
/// → 14.2 ns; 247.0 M rolls/s → 4.0 ns. The writer prints the fit and
/// refuses to run if either constant is more than 2× off it.
pub const NS_PER_KMER_PACK: f64 = 14.2;

/// Owner-side cost of rolling one k-mer out of an owner-run record's
/// 2-bit bases (`Supermer::hits`): paid once per arriving k-mer in the
/// Bloom pass and once more in the hash pass's sweep of the retained
/// records. Fitted with [`NS_PER_KMER_PACK`].
pub const NS_PER_KMER_ROLL: f64 = 4.0;

/// Bloom-stage processing of one received k-mer: multi-probe Bloom insert
/// plus (on second sighting) a hash-table key insert.
pub const NS_PER_KMER_BLOOM: f64 = 62.0;

/// Hash-table-stage processing of one received k-mer: single lookup plus
/// (if resident) appending the (read, position) occurrence. Cheaper per
/// k-mer than the Bloom pass — the paper's Fig. 5 vs Fig. 3 observation.
pub const NS_PER_KMER_HT: f64 = 30.0;

/// Post-pass scan of one resident hash-table entry (filter singletons and
/// the > m tail).
pub const NS_PER_HT_SCAN: f64 = 18.0;

/// Overlap-stage traversal cost per retained k-mer (read-ID list walk).
pub const NS_PER_RETAINED_KMER: f64 = 45.0;

/// Emitting one alignment task (pair formation, owner heuristic, buffer).
pub const NS_PER_PAIR_TASK: f64 = 28.0;

/// Consolidating one received task into the per-pair seed list.
pub const NS_PER_TASK_MERGE: f64 = 35.0;

/// One x-drop dynamic-programming cell update.
pub const NS_PER_DP_CELL: f64 = 1.1;

/// Fixed setup per pairwise alignment (seed decode, buffer setup).
pub const NS_PER_ALIGNMENT: f64 = 900.0;

/// Packing/unpacking one byte of read sequence during the alignment-stage
/// read exchange.
pub const NS_PER_READ_BYTE: f64 = 0.35;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_qualitative_relations() {
        // Hash-table pass processes k-mers about twice as fast as the
        // Bloom pass (paper §7).
        let ratio = NS_PER_KMER_BLOOM / NS_PER_KMER_HT;
        assert!((1.6..2.6).contains(&ratio), "BF/HT cost ratio {ratio}");
        // A single alignment (setup + ~thousands of cells) dwarfs a pair
        // task emission.
        let (align, pair) = (NS_PER_ALIGNMENT, NS_PER_PAIR_TASK);
        assert!(align > 10.0 * pair);
        // Everything is positive.
        for c in [
            NS_PER_KMER_PACK,
            NS_PER_KMER_ROLL,
            NS_PER_KMER_BLOOM,
            NS_PER_KMER_HT,
            NS_PER_HT_SCAN,
            NS_PER_RETAINED_KMER,
            NS_PER_PAIR_TASK,
            NS_PER_TASK_MERGE,
            NS_PER_DP_CELL,
            NS_PER_ALIGNMENT,
            NS_PER_READ_BYTE,
        ] {
            assert!(c > 0.0);
        }
    }
}
