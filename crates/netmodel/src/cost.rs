//! The LogGP-style cost model projecting measured work onto platforms.
//!
//! The pipeline runs for real (every byte exchanged, every DP cell
//! computed) and records per-rank counters; this module converts those into
//! per-platform stage times:
//!
//! ```text
//! T_local(r)    = compute_ns(r) · 1e-9 / core_perf · cache_penalty(ws/cache)
//! T_exchange(r) = calls · (α + α_rank·P)                        [latency]
//!               + off_node_bytes(node(r)) / bw_node              [injection]
//!               + on_node_bytes(node(r)) / bw_mem                [local copy]
//!               + first_alltoallv_setup (once per job)
//! T_stage       = max_r T_local(r) + max_r T_exchange(r)         [BSP]
//! ```
//!
//! `cache_penalty ≥ 1` shrinks as strong scaling shrinks the per-rank
//! working set — the mechanism behind the paper's superlinear local
//! speedups (Figs. 4–5) — and the first-call term reproduces the
//! first-`MPI_Alltoallv` anomaly (§6, §10).

use crate::platforms::Platform;

/// Placement of ranks onto nodes: rank `r` lives on node `r / ranks_per_node`.
/// Every node is occupied; the last may hold fewer than `ranks_per_node`
/// ranks (see [`NodeMapping::for_ranks`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeMapping {
    /// Number of nodes.
    pub nodes: usize,
    /// MPI ranks per node (the paper pins one rank per core).
    pub ranks_per_node: usize,
}

impl NodeMapping {
    /// Create a mapping.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, ranks_per_node: usize) -> Self {
        assert!(nodes > 0 && ranks_per_node > 0);
        Self { nodes, ranks_per_node }
    }

    /// One rank per core on `nodes` nodes of `platform`.
    pub fn for_platform(platform: &Platform, nodes: usize) -> Self {
        Self::new(nodes, platform.cores_per_node)
    }

    /// `ranks` ranks placed `ranks_per_node` to a node: as many nodes as
    /// that takes, the last one partly filled if `ranks_per_node` does not
    /// divide `ranks`.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn for_ranks(ranks: usize, ranks_per_node: usize) -> Self {
        assert!(ranks_per_node > 0, "ranks_per_node must be positive");
        Self::new(ranks.div_ceil(ranks_per_node), ranks_per_node)
    }

    /// Rank slots, `nodes × ranks_per_node`: the number of ranks when the
    /// last node is full.
    pub fn ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

/// Per-rank measured load for one pipeline stage.
#[derive(Clone, Debug, Default)]
pub struct RankLoad {
    /// Weighted compute nanoseconds at reference (Cori-core, in-cache)
    /// speed. Producers multiply raw op counts by the `ns-per-op`
    /// constants in [`crate::op_costs`].
    pub compute_ns: f64,
    /// Bytes this rank's local phase touches repeatedly (hash-table
    /// partition, Bloom partition, read buffers) — drives the cache term.
    pub working_set: f64,
    /// Bytes sent to each rank (from `dibella_comm::CommStats`).
    pub dest_bytes: Vec<u64>,
    /// Irregular collective calls this stage issued.
    pub alltoallv_calls: u64,
}

/// Modeled per-rank times for one stage on one platform.
#[derive(Clone, Debug)]
pub struct StageCost {
    /// Per-rank local compute seconds.
    pub local_s: Vec<f64>,
    /// Per-rank exchange seconds.
    pub exchange_s: Vec<f64>,
}

impl StageCost {
    /// BSP stage wall time: slowest local phase plus slowest exchange.
    pub fn stage_seconds(&self) -> f64 {
        self.max_local() + self.max_exchange()
    }

    /// Slowest rank's local time.
    pub fn max_local(&self) -> f64 {
        self.local_s.iter().copied().fold(0.0, f64::max)
    }

    /// Slowest rank's exchange time.
    pub fn max_exchange(&self) -> f64 {
        self.exchange_s.iter().copied().fold(0.0, f64::max)
    }

    /// Load imbalance `max / avg` over per-rank total stage time
    /// (1.0 = perfect; the metric of paper Figure 8).
    pub fn imbalance(&self) -> f64 {
        let totals: Vec<f64> = self
            .local_s
            .iter()
            .zip(&self.exchange_s)
            .map(|(&l, &e)| l + e)
            .collect();
        let max = totals.iter().copied().fold(0.0, f64::max);
        let avg = totals.iter().sum::<f64>() / totals.len() as f64;
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

/// Cache-capacity penalty multiplier: 1.0 when the working set fits in
/// the per-core cache, rising smoothly toward `1 + MAX_CACHE_PENALTY`
/// as the set grows — so halving the per-rank data (strong scaling) can
/// speed local work up by *more* than 2×.
pub fn cache_penalty(working_set: f64, cache_per_core: f64) -> f64 {
    const MAX_CACHE_PENALTY: f64 = 1.6;
    if working_set <= cache_per_core || cache_per_core <= 0.0 {
        1.0
    } else {
        let r = working_set / cache_per_core;
        1.0 + MAX_CACHE_PENALTY * (1.0 - 1.0 / r)
    }
}

/// Latency of one collective call on `platform` with `ranks` participants:
/// `α + α_rank·P`, in seconds — the per-call term of [`stage_cost`].
pub fn collective_latency_s(platform: &Platform, ranks: usize) -> f64 {
    (platform.coll_alpha_us + platform.coll_per_rank_us * ranks as f64) * 1e-6
}

/// Transfer seconds for one node's share of an irregular exchange:
/// off-node bytes drain through the NIC at the platform's effective
/// injection bandwidth, on-node bytes move at memory bandwidth.
pub fn exchange_transfer_s(platform: &Platform, on_node_bytes: u64, off_node_bytes: u64) -> f64 {
    off_node_bytes as f64 / (platform.inj_bw_mb_s * 1e6)
        + on_node_bytes as f64 / (platform.mem_bw_mb_s * 1e6)
}

/// One-time overhead of the job's *first* `MPI_Alltoallv` (paper §6/§10):
/// per-peer connection/buffer establishment, linear in `ranks`, plus
/// `first_alltoallv_factor` extra calls of cost `base_call_s` (one average
/// call of the charged stage).
pub fn first_alltoallv_setup_s(platform: &Platform, ranks: usize, base_call_s: f64) -> f64 {
    platform.setup_us_per_rank * ranks as f64 * 1e-6
        + platform.first_alltoallv_factor * base_call_s
}

/// Model one stage.
///
/// `loads` holds one entry per rank, so `P = loads.len()`; rank `r` lives on
/// node `mapping.node_of(r)`, and every node of `mapping` must be occupied
/// (only the last may be partly filled). `first_exchange` charges the
/// platform's one-time `MPI_Alltoallv` setup cost (give `true` only for the
/// first exchanging stage of a job — the Bloom filter stage).
pub fn stage_cost(
    platform: &Platform,
    mapping: NodeMapping,
    loads: &[RankLoad],
    first_exchange: bool,
) -> StageCost {
    let p = loads.len();
    assert_eq!(
        mapping.nodes,
        p.div_ceil(mapping.ranks_per_node),
        "need one RankLoad per rank, only the last node partly filled"
    );

    // ---- local compute ----------------------------------------------------
    let local_s: Vec<f64> = loads
        .iter()
        .map(|l| {
            l.compute_ns * 1e-9 / platform.core_perf
                * cache_penalty(l.working_set, platform.cache_per_core)
        })
        .collect();

    // ---- exchange ----------------------------------------------------------
    // Aggregate traffic per node: a node's NIC carries the off-node bytes of
    // all its ranks; on-node traffic moves at memory bandwidth.
    let mut node_off = vec![0u64; mapping.nodes];
    let mut node_on = vec![0u64; mapping.nodes];
    for (r, l) in loads.iter().enumerate() {
        let home = mapping.node_of(r);
        for (d, &b) in l.dest_bytes.iter().enumerate() {
            if mapping.node_of(d) == home {
                node_on[home] += b;
            } else {
                node_off[home] += b;
            }
        }
    }
    let exchange_s: Vec<f64> = loads
        .iter()
        .enumerate()
        .map(|(r, l)| {
            let home = mapping.node_of(r);
            let latency = l.alltoallv_calls as f64 * collective_latency_s(platform, p);
            let base = latency + exchange_transfer_s(platform, node_on[home], node_off[home]);
            // First-Alltoallv setup (paper §6/§10): the job's first call
            // pays (a) per-peer connection/buffer establishment, linear in
            // P, and (b) an extra `factor` average calls of this stage.
            let setup = if first_exchange && l.alltoallv_calls > 0 {
                first_alltoallv_setup_s(platform, p, base / l.alltoallv_calls as f64)
            } else {
                0.0
            };
            base + setup
        })
        .collect();

    StageCost { local_s, exchange_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::{AWS, CORI, TITAN};

    fn uniform_loads(p: usize, compute_ns: f64, bytes_each: u64, calls: u64) -> Vec<RankLoad> {
        (0..p)
            .map(|_| RankLoad {
                compute_ns,
                working_set: 0.0,
                dest_bytes: vec![bytes_each; p],
                alltoallv_calls: calls,
            })
            .collect()
    }

    #[test]
    fn mapping_basics() {
        let m = NodeMapping::new(4, 8);
        assert_eq!(m.ranks(), 32);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(31), 3);
        assert!(m.same_node(8, 15));
        assert!(!m.same_node(7, 8));
    }

    #[test]
    fn partly_filled_last_node() {
        let m = NodeMapping::for_ranks(3, 2);
        assert_eq!((m.nodes, m.ranks_per_node, m.ranks()), (2, 2, 4));
        assert_eq!(NodeMapping::for_ranks(8, 32), NodeMapping::new(1, 32));
        assert_eq!(NodeMapping::for_ranks(64, 32), NodeMapping::new(2, 32));
        // Rank 2 is alone on node 1: its own bytes to itself are on-node,
        // everything else crosses the network.
        let loads = uniform_loads(3, 0.0, 1_000, 1);
        let cost = stage_cost(&CORI, m, &loads, false);
        let latency = collective_latency_s(&CORI, 3);
        let node0 = latency + exchange_transfer_s(&CORI, 4_000, 2_000);
        let node1 = latency + exchange_transfer_s(&CORI, 1_000, 2_000);
        for (e, want) in cost.exchange_s.iter().zip([node0, node0, node1]) {
            assert!((e - want).abs() < 1e-15, "{e} vs {want}");
        }
    }

    #[test]
    #[should_panic(expected = "only the last node partly filled")]
    fn empty_node_rejected() {
        let _ = stage_cost(&CORI, NodeMapping::new(2, 2), &uniform_loads(2, 0.0, 0, 0), false);
    }

    #[test]
    fn cache_penalty_bounds_and_monotonicity() {
        let c = 1e6;
        assert_eq!(cache_penalty(0.5e6, c), 1.0);
        assert_eq!(cache_penalty(1e6, c), 1.0);
        let p2 = cache_penalty(2e6, c);
        let p8 = cache_penalty(8e6, c);
        assert!(p2 > 1.0 && p8 > p2 && p8 < 2.7);
    }

    #[test]
    fn single_node_has_no_injection_cost() {
        let m = NodeMapping::new(1, 4);
        let loads = uniform_loads(4, 0.0, 1_000_000, 1);
        let cost = stage_cost(&CORI, m, &loads, false);
        // All traffic on-node → only latency + memory copies; should be
        // well below what the same volume costs across nodes.
        let m2 = NodeMapping::new(4, 1);
        let cost2 = stage_cost(&CORI, m2, &loads, false);
        assert!(cost.max_exchange() < cost2.max_exchange() / 2.0);
    }

    #[test]
    fn more_bytes_cost_more() {
        let m = NodeMapping::new(2, 2);
        let small = stage_cost(&CORI, m, &uniform_loads(4, 0.0, 1_000, 1), false);
        let big = stage_cost(&CORI, m, &uniform_loads(4, 0.0, 1_000_000, 1), false);
        assert!(big.max_exchange() > small.max_exchange());
    }

    #[test]
    fn aws_exchange_slower_than_aries() {
        let m = NodeMapping::new(4, 4);
        let loads = uniform_loads(16, 0.0, 100_000, 3);
        let cori = stage_cost(&CORI, m, &loads, false);
        let aws = stage_cost(&AWS, m, &loads, false);
        assert!(aws.max_exchange() > cori.max_exchange());
    }

    #[test]
    fn titan_compute_slower_than_cori() {
        let m = NodeMapping::new(1, 2);
        let loads = uniform_loads(2, 1e9, 0, 0);
        let cori = stage_cost(&CORI, m, &loads, false);
        let titan = stage_cost(&TITAN, m, &loads, false);
        assert!(titan.max_local() > 2.0 * cori.max_local());
    }

    #[test]
    fn first_call_overhead_scales_with_call_cost() {
        let m = NodeMapping::new(2, 2);
        // One call: first-call factor 1.0 doubles the exchange.
        let p = 4usize;
        let conn = CORI.setup_us_per_rank * p as f64 * 1e-6;
        let loads = uniform_loads(p, 0.0, 10_000, 1);
        let without = stage_cost(&CORI, m, &loads, false);
        let with = stage_cost(&CORI, m, &loads, true);
        let ratio = (with.max_exchange() - conn) / without.max_exchange();
        assert!((ratio - (1.0 + CORI.first_alltoallv_factor)).abs() < 1e-9, "{ratio}");
        // Four calls: only the first is doubled → +25% plus connection setup.
        let loads4 = uniform_loads(p, 0.0, 10_000, 4);
        let w4 = stage_cost(&CORI, m, &loads4, true);
        let wo4 = stage_cost(&CORI, m, &loads4, false);
        let ratio4 = (w4.max_exchange() - conn) / wo4.max_exchange();
        assert!((ratio4 - 1.25).abs() < 1e-9, "{ratio4}");
    }

    #[test]
    fn per_collective_delay_components() {
        // Latency grows with rank count and is slowest on the commodity net.
        assert!(collective_latency_s(&CORI, 64) > collective_latency_s(&CORI, 4));
        assert!(collective_latency_s(&AWS, 16) > 5.0 * collective_latency_s(&CORI, 16));
        // A byte is cheaper over the memory bus than through the NIC.
        assert!(
            exchange_transfer_s(&CORI, 1_000_000, 0) < exchange_transfer_s(&CORI, 0, 1_000_000)
        );
        assert_eq!(exchange_transfer_s(&CORI, 0, 0), 0.0);
        // Setup = per-peer connection term + `factor` extra base calls.
        let s = first_alltoallv_setup_s(&CORI, 8, 1e-3);
        let expect = CORI.setup_us_per_rank * 8.0 * 1e-6 + CORI.first_alltoallv_factor * 1e-3;
        assert!((s - expect).abs() < 1e-15);
    }

    #[test]
    fn stage_cost_decomposes_into_delay_functions() {
        // One uniform call: per-rank exchange equals latency + transfer of
        // the node's aggregated volume (no setup).
        let m = NodeMapping::new(2, 2);
        let loads = uniform_loads(4, 0.0, 1_000, 1);
        let cost = stage_cost(&CORI, m, &loads, false);
        // Each node hosts 2 ranks, each sending 1000 B to all 4 ranks:
        // on-node = 2 ranks × 2 on-node dests, off-node likewise.
        let on = 2 * 2 * 1_000;
        let off = 2 * 2 * 1_000;
        let expect = collective_latency_s(&CORI, 4) + exchange_transfer_s(&CORI, on, off);
        for &e in &cost.exchange_s {
            assert!((e - expect).abs() < 1e-15, "{e} vs {expect}");
        }
    }

    #[test]
    fn imbalance_metric() {
        let cost = StageCost {
            local_s: vec![1.0, 1.0, 2.0, 0.0],
            exchange_s: vec![0.0; 4],
        };
        assert!((cost.imbalance() - 2.0).abs() < 1e-12);
        let perfect = StageCost {
            local_s: vec![1.0; 4],
            exchange_s: vec![1.0; 4],
        };
        assert!((perfect.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn superlinear_scaling_via_cache() {
        // Fixed total work/bytes split over more ranks with a shrinking
        // working set → more-than-proportional local speedup.
        let total_ns = 32e9;
        let ws_total = 640e6;
        let t = |nodes: usize| {
            let m = NodeMapping::for_platform(&CORI, nodes);
            let p = m.ranks();
            let loads: Vec<RankLoad> = (0..p)
                .map(|_| RankLoad {
                    compute_ns: total_ns / p as f64,
                    working_set: ws_total / p as f64,
                    dest_bytes: vec![0; p],
                    alltoallv_calls: 0,
                })
                .collect();
            stage_cost(&CORI, m, &loads, false).max_local()
        };
        let t1 = t(1);
        let t8 = t(8);
        let eff = t1 / (8.0 * t8);
        assert!(eff > 1.05, "expected superlinear efficiency, got {eff}");
    }
}
