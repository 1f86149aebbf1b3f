//! The four evaluated platforms (paper Table 1) and their model parameters.
//!
//! The first block of constants in each [`Platform`] is transcribed from
//! Table 1; the second block are calibration constants for the cost model
//! (per-core speed relative to a Cori Haswell core, effective cache per
//! core, collective-latency coefficients). Calibration follows the paper's
//! qualitative facts: Cori has the fastest cores and node (32 × Haswell),
//! Edison's Aries NIC measured the highest per-node bandwidth at 8 KB
//! messages, Titan's CPU-only nodes are the slowest with an older Gemini
//! torus, and "the AWS node has similar performance to a Titan CPU node"
//! (§5) while its commodity Ethernet has order-of-magnitude higher latency
//! and lower effective injection bandwidth.

/// Identifier for one of the paper's four platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// Cori Phase I, Cray XC40, Intel Haswell, Aries dragonfly.
    CoriXC40,
    /// Edison, Cray XC30, Intel Ivy Bridge, Aries dragonfly.
    EdisonXC30,
    /// Titan, Cray XK7, AMD Opteron (CPU side only), Gemini 3-D torus.
    TitanXK7,
    /// AWS c3.8xlarge cluster, 10 GbE placement group.
    Aws,
}

impl PlatformId {
    /// All four platforms in the paper's presentation order.
    pub const ALL: [PlatformId; 4] = [
        PlatformId::CoriXC40,
        PlatformId::EdisonXC30,
        PlatformId::TitanXK7,
        PlatformId::Aws,
    ];

    /// Canonical lower-case CLI name, the inverse of [`Self::parse`]:
    /// `cori`, `edison`, `titan`, `aws`.
    pub fn cli_name(self) -> &'static str {
        match self {
            PlatformId::CoriXC40 => "cori",
            PlatformId::EdisonXC30 => "edison",
            PlatformId::TitanXK7 => "titan",
            PlatformId::Aws => "aws",
        }
    }

    /// Parse a user-facing platform name (as accepted by the CLI's
    /// `--transport sim:<platform>` syntax), case-insensitively:
    /// `cori`/`xc40`, `edison`/`xc30`, `titan`/`xk7`, `aws`.
    pub fn parse(name: &str) -> Option<PlatformId> {
        match name.to_ascii_lowercase().as_str() {
            "cori" | "xc40" => Some(PlatformId::CoriXC40),
            "edison" | "xc30" => Some(PlatformId::EdisonXC30),
            "titan" | "xk7" => Some(PlatformId::TitanXK7),
            "aws" => Some(PlatformId::Aws),
            _ => None,
        }
    }
}

/// Architectural description + calibrated model constants for a platform.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Which machine this is.
    pub id: PlatformId,
    /// Display name as used in the figures.
    pub name: &'static str,
    // ----- Table 1 facts -------------------------------------------------
    /// Cores per node used for MPI ranks (paper pins 1 rank per core;
    /// 16–32 across machines).
    pub cores_per_node: usize,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// 128-byte Get latency in microseconds (Table 1 "Intranode LAT").
    pub latency_us: f64,
    /// Measured per-node bandwidth with 8 KB messages, MB/s.
    pub bw_node_mb_s: f64,
    /// Node memory in GB.
    pub memory_gb: f64,
    /// Interconnect name.
    pub network: &'static str,
    // ----- Calibration ---------------------------------------------------
    /// Per-core compute throughput relative to a Cori Haswell core (1.0).
    pub core_perf: f64,
    /// Effective cache per core in bytes (L2 + L3 share); drives the
    /// superlinear strong-scaling term.
    pub cache_per_core: f64,
    /// Effective injection bandwidth per node for large irregular
    /// exchanges, MB/s. Table 1's `bw_node_mb_s` is an 8 KB-message
    /// microbenchmark dominated by per-message costs; sustained Aries
    /// injection is several GB/s while virtualized 10 GbE sustains well
    /// under 1 GB/s — the relation behind the paper's AWS exchange
    /// collapse (Figs. 4, 12).
    pub inj_bw_mb_s: f64,
    /// On-node memory bandwidth per node, MB/s (for self/intra-node
    /// copies in an exchange).
    pub mem_bw_mb_s: f64,
    /// Constant latency per collective call, microseconds.
    pub coll_alpha_us: f64,
    /// Additional latency per participating rank per collective call,
    /// microseconds (process-count term of a flat alltoallv).
    pub coll_per_rank_us: f64,
    /// Extra cost of the job's *first* `MPI_Alltoallv`, expressed as a
    /// multiple of one average call of the charged stage (paper §6/§10:
    /// "the first call ... is almost twice as expensive ... as the
    /// second" → factor 1.0). Charged to the Bloom stage.
    pub first_alltoallv_factor: f64,
    /// Per-peer connection/buffer setup of the first irregular collective,
    /// microseconds per rank in the job ("internal data structure
    /// initialization, related to process coordination and communication
    /// buffers setup", §6). Also charged once, to the Bloom stage.
    pub setup_us_per_rank: f64,
}

impl Platform {
    /// Look up the model for a platform.
    pub fn get(id: PlatformId) -> &'static Platform {
        match id {
            PlatformId::CoriXC40 => &CORI,
            PlatformId::EdisonXC30 => &EDISON,
            PlatformId::TitanXK7 => &TITAN,
            PlatformId::Aws => &AWS,
        }
    }

    /// All four platform models.
    pub fn all() -> [&'static Platform; 4] {
        PlatformId::ALL.map(Self::get)
    }

    /// Node-level relative compute throughput (`cores × per-core perf`).
    pub fn node_perf(&self) -> f64 {
        self.cores_per_node as f64 * self.core_perf
    }
}

/// Cori Phase I (Cray XC40): 32 × 2.3 GHz Haswell, Aries dragonfly.
pub static CORI: Platform = Platform {
    id: PlatformId::CoriXC40,
    name: "Cori (XC40)",
    cores_per_node: 32,
    freq_ghz: 2.3,
    latency_us: 2.7,
    bw_node_mb_s: 113.0,
    memory_gb: 128.0,
    network: "Aries Dragonfly",
    core_perf: 1.0,
    cache_per_core: 2_500_000.0, // 256 KiB L2 + ~2.3 MiB L3 share
    inj_bw_mb_s: 8_000.0,
    mem_bw_mb_s: 110_000.0,
    coll_alpha_us: 18.0,
    coll_per_rank_us: 0.15,
    first_alltoallv_factor: 1.0,
    setup_us_per_rank: 8.0,
};

/// Edison (Cray XC30): 24 × 2.4 GHz Ivy Bridge, Aries dragonfly. Its NIC
/// measured the best per-node 8 KB-message bandwidth of the four (Table 1).
pub static EDISON: Platform = Platform {
    id: PlatformId::EdisonXC30,
    name: "Edison (XC30)",
    cores_per_node: 24,
    freq_ghz: 2.4,
    latency_us: 0.8,
    bw_node_mb_s: 436.2,
    memory_gb: 64.0,
    network: "Aries Dragonfly",
    core_perf: 0.82,
    cache_per_core: 2_300_000.0,
    inj_bw_mb_s: 9_500.0,
    mem_bw_mb_s: 90_000.0,
    coll_alpha_us: 10.0,
    coll_per_rank_us: 0.10,
    first_alltoallv_factor: 1.0,
    setup_us_per_rank: 6.0,
};

/// Titan (Cray XK7): 16 Opteron integer cores per node (GPUs unused, §5),
/// Gemini 3-D torus.
pub static TITAN: Platform = Platform {
    id: PlatformId::TitanXK7,
    name: "Titan (XK7)",
    cores_per_node: 16,
    freq_ghz: 2.2,
    latency_us: 1.1,
    bw_node_mb_s: 99.2,
    memory_gb: 32.0,
    network: "Gemini 3D Torus",
    core_perf: 0.45,
    cache_per_core: 1_300_000.0,
    inj_bw_mb_s: 3_200.0,
    mem_bw_mb_s: 50_000.0,
    coll_alpha_us: 14.0,
    coll_per_rank_us: 0.25,
    first_alltoallv_factor: 1.2,
    setup_us_per_rank: 10.0,
};

/// AWS c3.8xlarge cluster: 16 ranks per node in a placement group over
/// 10 GbE. Node compute "similar ... to a Titan CPU node" (§5); network
/// latency is dominated by the kernel/virtualized stack.
pub static AWS: Platform = Platform {
    id: PlatformId::Aws,
    name: "AWS",
    cores_per_node: 16,
    freq_ghz: 2.8,
    latency_us: 50.0,
    bw_node_mb_s: 1_000.0, // 10 GbE ≈ 1.25 GB/s raw; ~1.0 effective
    memory_gb: 60.0,
    network: "10 GbE",
    core_perf: 0.50,
    cache_per_core: 1_600_000.0,
    inj_bw_mb_s: 900.0,
    mem_bw_mb_s: 60_000.0,
    coll_alpha_us: 120.0,
    coll_per_rank_us: 3.0,
    first_alltoallv_factor: 1.5,
    setup_us_per_rank: 40.0,
};

/// Render the paper's Table 1 as aligned text rows.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str(
        "platform          cores/node  GHz   LAT(us)  BW/node(MB/s)  mem(GB)  network\n",
    );
    for p in Platform::all() {
        out.push_str(&format!(
            "{:<17} {:>10}  {:<4} {:>8} {:>14} {:>8}  {}\n",
            p.name, p.cores_per_node, p.freq_ghz, p.latency_us, p.bw_node_mb_s, p.memory_gb,
            p.network
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_facts_match_paper() {
        assert_eq!(CORI.cores_per_node, 32);
        assert_eq!(EDISON.cores_per_node, 24);
        assert_eq!(TITAN.cores_per_node, 16);
        assert_eq!(AWS.cores_per_node, 16);
        assert_eq!(CORI.latency_us, 2.7);
        assert_eq!(EDISON.latency_us, 0.8);
        assert_eq!(TITAN.latency_us, 1.1);
        assert_eq!(EDISON.bw_node_mb_s, 436.2);
        assert_eq!(TITAN.bw_node_mb_s, 99.2);
        assert_eq!(CORI.memory_gb, 128.0);
    }

    #[test]
    fn qualitative_rankings_hold() {
        // Per-core: Cori fastest. Node-level: Cori > Edison > AWS ≈ Titan.
        assert!(CORI.core_perf > EDISON.core_perf);
        assert!(EDISON.core_perf > AWS.core_perf);
        assert!(CORI.node_perf() > EDISON.node_perf());
        assert!(EDISON.node_perf() > TITAN.node_perf());
        let ratio = AWS.node_perf() / TITAN.node_perf();
        assert!((0.8..1.5).contains(&ratio), "AWS ≈ Titan violated: {ratio}");
        // Commodity network is the latency outlier.
        assert!(AWS.coll_alpha_us > 3.0 * CORI.coll_alpha_us);
        assert!(AWS.coll_per_rank_us > 5.0 * CORI.coll_per_rank_us);
    }

    #[test]
    fn lookup_round_trip() {
        for id in PlatformId::ALL {
            assert_eq!(Platform::get(id).id, id);
        }
        assert_eq!(Platform::all().len(), 4);
    }

    #[test]
    fn name_parsing() {
        assert_eq!(PlatformId::parse("cori"), Some(PlatformId::CoriXC40));
        assert_eq!(PlatformId::parse("CORI"), Some(PlatformId::CoriXC40));
        assert_eq!(PlatformId::parse("xc30"), Some(PlatformId::EdisonXC30));
        assert_eq!(PlatformId::parse("titan"), Some(PlatformId::TitanXK7));
        assert_eq!(PlatformId::parse("aws"), Some(PlatformId::Aws));
        assert_eq!(PlatformId::parse("summit"), None);
        // cli_name is the exact inverse of parse for every platform.
        for id in PlatformId::ALL {
            assert_eq!(PlatformId::parse(id.cli_name()), Some(id));
        }
    }

    #[test]
    fn table1_renders_every_platform() {
        let t = table1();
        for p in Platform::all() {
            assert!(t.contains(p.name), "missing {}", p.name);
        }
        assert_eq!(t.lines().count(), 5);
    }
}
