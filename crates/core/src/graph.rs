//! The overlap graph built from the pipeline's alignments.
//!
//! Paper §11: diBELLA's "hash table represents a read graph with read
//! vertices connected to each other by shared k-mers ... This graph
//! representation, often known as the overlap graph in the literature, is
//! more robust to sequencing errors and thus more suitable for long-read
//! data." The pipeline's output *is* that graph with alignment-verified
//! edges; this module materializes it for downstream assembly work:
//! adjacency queries, degree statistics, connected components and GFA 1
//! export.

use crate::record::AlignmentRecord;
use dibella_io::ReadId;
use std::collections::HashMap;

/// One verified overlap edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverlapEdge {
    /// Neighbouring read.
    pub to: ReadId,
    /// Best alignment score between the two reads.
    pub score: i32,
    /// Relative orientation (`true` = the neighbour overlaps this read's
    /// reverse complement).
    pub reverse: bool,
}

/// Undirected overlap graph over read IDs.
#[derive(Clone, Debug, Default)]
pub struct OverlapGraph {
    /// Number of reads (vertices), fixed at construction.
    n_reads: usize,
    adj: HashMap<ReadId, Vec<OverlapEdge>>,
    n_edges: usize,
}

impl OverlapGraph {
    /// Build from alignment records, keeping for each pair its
    /// best-scoring record with score ≥ `min_score`.
    pub fn from_alignments(n_reads: usize, records: &[AlignmentRecord], min_score: i32) -> Self {
        // Best record per pair.
        let mut best: HashMap<(ReadId, ReadId), &AlignmentRecord> = HashMap::new();
        for r in records {
            if r.score < min_score {
                continue;
            }
            assert!(
                (r.pair.b as usize) < n_reads,
                "alignment references read {} outside 0..{n_reads}",
                r.pair.b
            );
            best.entry((r.pair.a, r.pair.b))
                .and_modify(|cur| {
                    if r.score > cur.score {
                        *cur = r;
                    }
                })
                .or_insert(r);
        }
        let mut graph = Self {
            n_reads,
            adj: HashMap::new(),
            n_edges: 0,
        };
        for ((a, b), r) in best {
            graph.adj.entry(a).or_default().push(OverlapEdge {
                to: b,
                score: r.score,
                reverse: r.reverse,
            });
            graph.adj.entry(b).or_default().push(OverlapEdge {
                to: a,
                score: r.score,
                reverse: r.reverse,
            });
            graph.n_edges += 1;
        }
        for edges in graph.adj.values_mut() {
            edges.sort_unstable_by_key(|e| (e.to, e.reverse as u8));
        }
        graph
    }

    /// Number of vertices (reads, including isolated ones).
    pub fn n_vertices(&self) -> usize {
        self.n_reads
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Neighbours of a read (empty slice if isolated).
    pub fn neighbours(&self, read: ReadId) -> &[OverlapEdge] {
        self.adj.get(&read).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Degree of a read.
    pub fn degree(&self, read: ReadId) -> usize {
        self.neighbours(read).len()
    }

    /// Connected-component label per read (labels are component-minimum
    /// read IDs), plus the component count.
    pub fn connected_components(&self) -> (Vec<ReadId>, usize) {
        let mut label: Vec<Option<ReadId>> = vec![None; self.n_reads];
        let mut count = 0usize;
        let mut stack = Vec::new();
        for start in 0..self.n_reads as ReadId {
            if label[start as usize].is_some() {
                continue;
            }
            count += 1;
            label[start as usize] = Some(start);
            stack.push(start);
            while let Some(v) = stack.pop() {
                for e in self.neighbours(v) {
                    if label[e.to as usize].is_none() {
                        label[e.to as usize] = Some(start);
                        stack.push(e.to);
                    }
                }
            }
        }
        (label.into_iter().map(|l| l.unwrap()).collect(), count)
    }

    /// Export as GFA 1 (`S` segment per read, `L` link per overlap edge
    /// with orientation; CIGAR is `*` — diBELLA reports scores, not edit
    /// scripts).
    pub fn to_gfa(
        &self,
        names: &dyn Fn(ReadId) -> String,
        seqs: &dyn Fn(ReadId) -> Option<Vec<u8>>,
    ) -> String {
        let mut out = String::from("H\tVN:Z:1.0\n");
        for r in 0..self.n_reads as ReadId {
            let seq = seqs(r)
                .map(|s| String::from_utf8_lossy(&s).into_owned())
                .unwrap_or_else(|| "*".to_owned());
            out.push_str(&format!("S\t{}\t{}\n", names(r), seq));
        }
        for a in 0..self.n_reads as ReadId {
            for e in self.neighbours(a) {
                if e.to < a {
                    continue; // emit each edge once
                }
                let orient = if e.reverse { '-' } else { '+' };
                out.push_str(&format!(
                    "L\t{}\t+\t{}\t{}\t*\tSC:i:{}\n",
                    names(a),
                    names(e.to),
                    orient,
                    e.score
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_overlap::ReadPair;

    fn rec(a: u32, b: u32, score: i32, reverse: bool) -> AlignmentRecord {
        AlignmentRecord {
            pair: ReadPair::new(a, b),
            reverse,
            score,
            a_start: 0,
            a_end: 10,
            b_start: 0,
            b_end: 10,
            cells: 1,
        }
    }

    #[test]
    fn builds_best_edge_per_pair() {
        let recs = vec![rec(0, 1, 5, false), rec(0, 1, 9, true), rec(1, 2, 4, false)];
        let g = OverlapGraph::from_alignments(4, &recs, 0);
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 2);
        let e01 = g.neighbours(0)[0];
        assert_eq!(e01.score, 9);
        assert!(e01.reverse);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn min_score_filters_edges() {
        let recs = vec![rec(0, 1, 5, false), rec(1, 2, 50, false)];
        let g = OverlapGraph::from_alignments(3, &recs, 10);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn components_found() {
        // Two chains: 0-1-2 and 3-4; read 5 isolated.
        let recs = vec![rec(0, 1, 9, false), rec(1, 2, 9, false), rec(3, 4, 9, false)];
        let g = OverlapGraph::from_alignments(6, &recs, 0);
        let (labels, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_eq!(labels[5], 5);
    }

    #[test]
    fn gfa_export() {
        let recs = vec![rec(0, 1, 42, true)];
        let g = OverlapGraph::from_alignments(2, &recs, 0);
        let gfa = g.to_gfa(&|id| format!("r{id}"), &|_| Some(b"ACGT".to_vec()));
        assert!(gfa.starts_with("H\tVN:Z:1.0\n"));
        assert!(gfa.contains("S\tr0\tACGT\n"));
        assert!(gfa.contains("L\tr0\t+\tr1\t-\t*\tSC:i:42\n"));
        // Each edge appears once.
        assert_eq!(gfa.matches("\nL\t").count(), 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_read_rejected() {
        let recs = vec![rec(0, 9, 5, false)];
        let _ = OverlapGraph::from_alignments(3, &recs, 0);
    }
}
