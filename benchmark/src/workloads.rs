//! The four workloads, as plain data. `program.rs` turns a row into the
//! crates' own spec and config types; nothing here names a crate type, so
//! this table survives any refactor of the program under test.
//!
//! All four share the genome and read model of the repo's E. coli presets
//! (`repeat_unit_len 700`, `repeat_families 5`, `len_sigma 0.35`,
//! `min_len = mean_len / 10`, PacBio-like error split) but write every
//! parameter out — a change to `datagen::presets` must not move a number.
//!
//! Sizes are set so that one `run_pipeline` call takes 2.5–4 s on two
//! cores: the driver's time cap leaves about 30 s per benchmark process,
//! and a run needs a warm-up plus at least four timed calls.

/// Which seed front end the pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontEnd {
    /// Bloom pass + hash pass over every k-mer (the paper's path).
    Reliable,
    /// One pass over (w, k) minimizers, chain filter before alignment.
    Minimizer,
}

/// Which overlap-stage exchange engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Algorithm 1: one wire record per shared seed.
    Pairs,
    /// Blocked A·Aᵀ with per-pair consolidation at the source.
    Spgemm,
}

/// One workload: how its input is generated and how the pipeline is run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// Genome length in bases.
    pub genome_bp: usize,
    /// Share of the genome covered by planted repeats.
    pub repeat_fraction: f64,
    /// Sequencing depth of the simulated read set.
    pub depth: f64,
    /// Mean read length.
    pub mean_len: usize,
    /// Total per-base error rate of the reads.
    pub error: f64,
    /// k-mer length.
    pub k: usize,
    /// Seed front end.
    pub front_end: FrontEnd,
    /// Overlap engine.
    pub engine: Engine,
    /// Ranks of the SPMD world.
    pub ranks: usize,
    /// Executor threads per rank.
    pub threads: usize,
    /// Byte cap per rank and exchange round, in MiB (`None` = one
    /// monolithic exchange per stage).
    pub round_cap_mib: Option<usize>,
    /// Lowest recall a run may report before it counts as failed. Set well
    /// under what the workload reaches, so only a broken pipeline trips it.
    pub min_recall: f64,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "clr30x",
        why: "PacBio-CLR 30x, 15% error (the paper's E. coli shape): x-drop alignment is ~90% of wall; kernel and fewer-cells changes show here, k-mer and overlap changes must not",
        genome_bp: 60_000,
        repeat_fraction: 0.03,
        depth: 30.0,
        mean_len: 9_958,
        error: 0.15,
        k: 17,
        front_end: FrontEnd::Reliable,
        engine: Engine::Pairs,
        ranks: 2,
        threads: 1,
        round_cap_mib: None,
        min_recall: 0.90,
    },
    Workload {
        name: "kmer_flood",
        why: "1x coverage of a 12 Mb genome: bases grow, overlaps stay near zero, so the Bloom and hash passes and their streamed exchange rounds are most of wall",
        genome_bp: 12_000_000,
        repeat_fraction: 0.0,
        depth: 1.0,
        mean_len: 9_958,
        error: 0.15,
        k: 21,
        front_end: FrontEnd::Reliable,
        engine: Engine::Pairs,
        ranks: 2,
        threads: 1,
        round_cap_mib: Some(16),
        min_recall: 0.50,
    },
    Workload {
        name: "hifi30x",
        why: "HiFi 30x, 1% error: almost every k-mer is reliable, so the pairs engine emits hundreds of MB of seed records in one exchange; overlap-stage time and peak memory show here",
        genome_bp: 48_000,
        repeat_fraction: 0.03,
        depth: 30.0,
        mean_len: 12_000,
        error: 0.01,
        k: 31,
        front_end: FrontEnd::Reliable,
        engine: Engine::Pairs,
        ranks: 2,
        threads: 1,
        round_cap_mib: None,
        min_recall: 0.90,
    },
    Workload {
        name: "hifi30x_alt",
        why: "The hifi30x reads through the other variant of each layer: minimizers, SpGEMM + chain filter, 1 rank x 2 threads, 8 MiB rounds; a gain for one variant that costs the other shows here",
        genome_bp: 48_000,
        repeat_fraction: 0.03,
        depth: 30.0,
        mean_len: 12_000,
        error: 0.01,
        k: 31,
        front_end: FrontEnd::Minimizer,
        engine: Engine::Spgemm,
        ranks: 1,
        threads: 2,
        round_cap_mib: Some(8),
        min_recall: 0.90,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
