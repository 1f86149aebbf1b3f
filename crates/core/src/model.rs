//! Bridge from measured [`RankReport`]s to the cross-architecture cost
//! model — the substitution that regenerates the paper's cross-platform
//! figures without the paper's machines (DESIGN.md §2, §5).
//!
//! Each stage's raw counters (k-mers packed/rolled/processed, pairs emitted, DP
//! cells, bytes per destination) are weighted by the reference per-op
//! costs of `dibella_netmodel::op_costs` and fed to the LogGP stage model.

use crate::pipeline::RankReport;
use dibella_netmodel::{op_costs, stage_cost, NodeMapping, Platform, RankLoad, StageCost};

/// The four pipeline stages, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 1 — distributed Bloom filter.
    Bloom,
    /// Stage 2 — distributed hash table.
    Hash,
    /// Stage 3 — overlap detection.
    Overlap,
    /// Stage 4 — read exchange + alignment.
    Align,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 4] = [Stage::Bloom, Stage::Hash, Stage::Overlap, Stage::Align];

    /// Display name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Bloom => "Bloom Filter",
            Stage::Hash => "Hash Table",
            Stage::Overlap => "Overlap",
            Stage::Align => "Alignment",
        }
    }
}

/// Convert one rank's report into the model's per-stage load.
pub fn rank_load(report: &RankReport, stage: Stage) -> RankLoad {
    match stage {
        // Sender side: the minimizer scan that cuts the reads into owner-run
        // records. Owner side: every arriving k-mer is rolled out of its
        // record's 2-bit bases, then probed into the filter.
        Stage::Bloom => RankLoad {
            compute_ns: report.bloom.kmers_parsed as f64 * op_costs::NS_PER_KMER_PACK
                + report.bloom.kmers_received as f64
                    * (op_costs::NS_PER_KMER_ROLL + op_costs::NS_PER_KMER_BLOOM),
            working_set: report.bloom_bytes as f64 + report.table_keys as f64 * 32.0,
            dest_bytes: report.bloom_comm.dest_bytes.clone(),
            alltoallv_calls: report.bloom_comm.alltoallv_calls,
        },
        // The reliable hash pass packs nothing (`kmers_parsed = 0`): it
        // rolls the records the Bloom pass left with this rank a second
        // time — `bloom.kmers_received` k-mers, zero under the minimizer
        // front end, whose one pass fills this slot with stand-alone
        // records it packs itself and never rolls.
        Stage::Hash => RankLoad {
            compute_ns: report.hash.kmers_parsed as f64 * op_costs::NS_PER_KMER_PACK
                + report.bloom.kmers_received as f64 * op_costs::NS_PER_KMER_ROLL
                + report.hash.kmers_received as f64 * op_costs::NS_PER_KMER_HT
                + (report.filter.singletons_removed
                    + report.filter.high_freq_removed
                    + report.filter.retained) as f64
                    * op_costs::NS_PER_HT_SCAN,
            working_set: report.table_bytes as f64,
            dest_bytes: report.hash_comm.dest_bytes.clone(),
            alltoallv_calls: report.hash_comm.alltoallv_calls,
        },
        Stage::Overlap => RankLoad {
            compute_ns: report.overlap.retained_kmers as f64 * op_costs::NS_PER_RETAINED_KMER
                + report.overlap.pairs_emitted as f64 * op_costs::NS_PER_PAIR_TASK
                + report.overlap.seeds_merged() as f64 * op_costs::NS_PER_TASK_MERGE,
            working_set: report.table_bytes as f64,
            dest_bytes: report.overlap_comm.dest_bytes.clone(),
            alltoallv_calls: report.overlap_comm.alltoallv_calls,
        },
        Stage::Align => RankLoad {
            compute_ns: report.align.alignments as f64 * op_costs::NS_PER_ALIGNMENT
                + report.align.dp_cells as f64 * op_costs::NS_PER_DP_CELL
                + (report.align.read_bytes_served + report.align.read_bytes_fetched) as f64
                    * op_costs::NS_PER_READ_BYTE,
            working_set: (report.local_bases + report.align.read_bytes_fetched) as f64,
            dest_bytes: report.align_comm.dest_bytes.clone(),
            alltoallv_calls: report.align_comm.alltoallv_calls,
        },
    }
}

/// Modeled per-stage times of a pipeline run on one platform.
#[derive(Clone, Debug)]
pub struct PipelineProjection {
    /// Stage costs in pipeline order (Bloom, Hash, Overlap, Align).
    pub stages: [StageCost; 4],
}

impl PipelineProjection {
    /// Cost of one stage.
    pub fn stage(&self, s: Stage) -> &StageCost {
        &self.stages[Stage::ALL.iter().position(|&x| x == s).unwrap()]
    }

    /// Total modeled pipeline seconds (sum of BSP stage times).
    pub fn total_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.stage_seconds()).sum()
    }

    /// Total modeled exchange seconds.
    pub fn exchange_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.max_exchange()).sum()
    }

    /// Total modeled local-compute seconds.
    pub fn local_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.max_local()).sum()
    }
}

/// Project a measured run onto a platform at a node count.
///
/// Each report is one modeled rank, so `P = reports.len()`; rank `r` lives
/// on node `mapping.node_of(r)`. Every node of `mapping` must hold a rank
/// and only the last may be partly filled — [`NodeMapping::for_ranks`]
/// builds that mapping for any `P`. The Bloom stage is charged the
/// platform's first-`Alltoallv` setup cost (paper §6/§10).
///
/// This is the only interconnect model: no transport changes what a run
/// measures, so a modeled time is a function of the reports' counters.
pub fn project(platform: &Platform, mapping: NodeMapping, reports: &[RankReport]) -> PipelineProjection {
    assert_eq!(
        mapping.nodes,
        reports.len().div_ceil(mapping.ranks_per_node),
        "need one report per modeled rank, only the last node partly filled"
    );
    let per_stage = |stage: Stage, first: bool| {
        let loads: Vec<RankLoad> = reports.iter().map(|r| rank_load(r, stage)).collect();
        stage_cost(platform, mapping, &loads, first)
    };
    PipelineProjection {
        stages: [
            per_stage(Stage::Bloom, true),
            per_stage(Stage::Hash, false),
            per_stage(Stage::Overlap, false),
            per_stage(Stage::Align, false),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::pipeline::run_pipeline;
    use dibella_io::{Read, ReadSet};
    use dibella_netmodel::CORI;
    use dibella_overlap::SeedPolicy;

    fn dataset(n: usize, read_len: usize, stride: usize) -> ReadSet {
        let mut state = 0xFACEu64;
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

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            k: 11,
            seed_policy: SeedPolicy::MinDistance(11),
            max_multiplicity: Some(24),
            max_kmers_per_round: 1024,
            ..Default::default()
        }
    }

    #[test]
    fn projection_produces_positive_times() {
        let reads = dataset(12, 150, 50);
        let res = run_pipeline(&reads, 4, &cfg());
        let mapping = NodeMapping::new(2, 2);
        let proj = project(&CORI, mapping, &res.reports);
        assert!(proj.total_seconds() > 0.0);
        assert!(proj.exchange_seconds() > 0.0);
        assert!(proj.local_seconds() > 0.0);
        for s in Stage::ALL {
            assert!(proj.stage(s).stage_seconds() >= 0.0, "{}", s.name());
        }
        // The Bloom stage is the job's first irregular exchange and carries
        // its set-up (the §10 anomaly); the hash stage sweeps what the
        // Bloom pass left with each owner and exchanges nothing.
        assert!(proj.stage(Stage::Bloom).max_exchange() > 0.0);
        assert_eq!(proj.stage(Stage::Hash).max_exchange(), 0.0);
        assert!(proj.stage(Stage::Hash).max_local() > 0.0, "the sweep is still work");
    }

    #[test]
    fn loads_reflect_counters() {
        let reads = dataset(10, 150, 50);
        let res = run_pipeline(&reads, 2, &cfg());
        let r = &res.reports[0];
        let bloom = rank_load(r, Stage::Bloom);
        assert!(bloom.compute_ns > 0.0);
        assert_eq!(bloom.dest_bytes.len(), 2);
        let align = rank_load(r, Stage::Align);
        assert!(align.compute_ns > 0.0, "alignment work missing");
    }

    #[test]
    #[should_panic(expected = "one report per modeled rank")]
    fn rank_mismatch_rejected() {
        let reads = dataset(6, 120, 40);
        let res = run_pipeline(&reads, 2, &cfg());
        let _ = project(&CORI, NodeMapping::new(2, 2), &res.reports);
    }
}
