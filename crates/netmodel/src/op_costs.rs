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

/// Packing one k-mer record into a per-destination send buffer
/// (extraction + owner hash + copy). Applies in both k-mer passes.
pub const NS_PER_KMER_PACK: f64 = 14.0;

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
