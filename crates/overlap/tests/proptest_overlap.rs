//! Property tests for the overlap stage: its output is a
//! partition-independent, exactly-once, seed-complete task set — what the
//! epilogue makes of Algorithm 1's unfolded seed lists — and the seed fold
//! the sources and destinations apply is one the seed policy cannot
//! observe.

use dibella_comm::{BatchedExecutor, CommWorld};
use dibella_io::{partition_reads, Read, ReadSet};
use dibella_kcount::{bloom_stage_overlapping, hash_stage_prepacked, KcountConfig, KmerHashTable};
use dibella_overlap::{
    chain_seeds, overlap_stage_with_lengths, reference_pairs, task_home, ChainConfig,
    OverlapConfig, OverlapTask, SeedFold, SeedPolicy, SharedSeed,
};
use proptest::prelude::*;

fn genome_reads() -> impl Strategy<Value = ReadSet> {
    (40usize..120, 4usize..10, any::<u64>()).prop_map(|(read_len, n, seed)| {
        let stride = read_len / 3;
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
            .map(|i| {
                Read::new(i, format!("r{i}"), genome[i as usize * stride..][..read_len].to_vec())
            })
            .collect()
    })
}

fn run_to_overlap(reads: &ReadSet, p: usize, policy: SeedPolicy) -> Vec<OverlapTask> {
    let oc = OverlapConfig { policy, max_seeds_per_pair: 64, ..Default::default() };
    run_stages(reads, p, &oc).0
}

/// Stages 1–3 on `p` ranks: every rank's tasks merged and sorted by pair,
/// and the table partitions stage 3 ran on.
fn run_stages(reads: &ReadSet, p: usize, oc: &OverlapConfig) -> (Vec<OverlapTask>, Vec<KmerHashTable>) {
    let kc = KcountConfig {
        k: 9,
        max_multiplicity: 32,
        bloom_fp_rate: 0.02,
        expected_distinct: 4096,
        max_kmers_per_round: 1 << 12,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: 16,
    };
    let (part, chunks) = partition_reads(reads, p);
    let outs = CommWorld::run(p, |comm| {
        let exec = BatchedExecutor::sequential();
        let local = chunks[comm.rank()].reads();
        let (bloom, retained) = bloom_stage_overlapping(comm, local, &kc, &exec);
        let mut table = bloom.table;
        let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(retained));
        (overlap_stage_with_lengths(comm, &table, &part, oc, None, &exec).tasks, table)
    });
    let (tasks, tables): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
    let mut all: Vec<OverlapTask> = tasks.into_iter().flatten().collect();
    all.sort_unstable_by_key(|t| t.pair);
    (all, tables)
}

/// What the stage's epilogue makes of one pair's seeds: canonicalize,
/// chain (when on), apply the policy. `None` = the chain filter dropped
/// the pair.
fn finish(mut seeds: Vec<SharedSeed>, oc: &OverlapConfig) -> Option<Vec<SharedSeed>> {
    seeds.sort_unstable();
    seeds.dedup();
    if let Some(chain) = &oc.chain {
        if !chain_seeds(&mut seeds, chain) {
            return None;
        }
    }
    oc.policy.apply(&mut seeds, oc.max_seeds_per_pair);
    Some(seeds)
}

/// Seed policies × chain filter × cap, as a stage configuration: a third
/// of the spacings stand for `Single`, `min_chain_seeds` 0 for no chain
/// filter.
fn seed_configs() -> impl Strategy<Value = OverlapConfig> {
    (0u32..60, 0usize..4, 0usize..6).prop_map(|(d, min_chain_seeds, max_seeds_per_pair)| OverlapConfig {
        policy: if d % 3 == 0 { SeedPolicy::Single } else { SeedPolicy::MinDistance(d) },
        chain: (min_chain_seeds > 0).then_some(ChainConfig { min_chain_seeds }),
        max_seeds_per_pair,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The task set (pairs + filtered seed lists) is identical for every
    /// world size.
    #[test]
    fn world_size_invariant(reads in genome_reads(), p in 2usize..6) {
        let serial = run_to_overlap(&reads, 1, SeedPolicy::MinDistance(9));
        let dist = run_to_overlap(&reads, p, SeedPolicy::MinDistance(9));
        prop_assert_eq!(dist, serial);
    }

    /// Pairs are unique, ordered, non-self, and each task's seeds are
    /// strictly within both reads.
    #[test]
    fn tasks_well_formed(reads in genome_reads(), p in 1usize..5) {
        let tasks = run_to_overlap(&reads, p, SeedPolicy::MinDistance(9));
        for w in tasks.windows(2) {
            prop_assert!(w[0].pair < w[1].pair, "duplicate or unsorted pair");
        }
        for t in &tasks {
            prop_assert!(t.pair.a < t.pair.b);
            prop_assert!(!t.seeds.is_empty());
            let la = reads.reads()[t.pair.a as usize].len();
            let lb = reads.reads()[t.pair.b as usize].len();
            for s in &t.seeds {
                prop_assert!((s.a_pos as usize) + 9 <= la);
                prop_assert!((s.b_pos as usize) + 9 <= lb);
            }
        }
    }

    /// The Single policy yields exactly one seed; MinDistance(d) respects
    /// the spacing within each orientation run.
    #[test]
    fn policies_respected(reads in genome_reads(), d in 5u32..40) {
        let single = run_to_overlap(&reads, 2, SeedPolicy::Single);
        prop_assert!(single.iter().all(|t| t.seeds.len() == 1));
        let spaced = run_to_overlap(&reads, 2, SeedPolicy::MinDistance(d));
        for t in &spaced {
            for w in t.seeds.windows(2) {
                if w[0].reverse == w[1].reverse {
                    prop_assert!(
                        w[1].a_pos >= w[0].a_pos + d,
                        "seeds {}/{} closer than {d}",
                        w[0].a_pos,
                        w[1].a_pos
                    );
                }
            }
        }
    }

    /// Fold sufficiency: for any multiset of a pair's seeds split over 1–4
    /// sources, what the epilogue keeps from all of them equals what it
    /// keeps from the union of the per-source folds — and from that union
    /// folded once more on arrival, which is what a destination holds.
    #[test]
    fn per_source_folds_are_invisible_to_the_policy(
        seeds in prop::collection::vec(
            ((0u32..40, 0u32..40, any::<bool>()), 0usize..4),
            0..60,
        ),
        oc in seed_configs(),
    ) {
        let fold = oc.policy.source_keep(oc.chain.is_some());
        let mut sources: [Vec<SharedSeed>; 4] = Default::default();
        let mut all = Vec::new();
        for ((a_pos, b_pos, reverse), source) in seeds {
            let seed = SharedSeed { a_pos, b_pos, reverse };
            all.push(seed);
            fold.add(&mut sources[source], seed);
        }
        let union: Vec<SharedSeed> = sources.concat();
        let mut arrived = Vec::new();
        for &seed in &union {
            fold.add(&mut arrived, seed);
        }
        let want = finish(all, &oc);
        prop_assert_eq!(finish(union, &oc), want.clone(), "union of folds, {:?}", fold);
        prop_assert_eq!(finish(arrived, &oc), want, "folded on arrival, {:?}", fold);
    }

    /// `Min` is a semiring add: folding the parts and then their union
    /// keeps exactly the least seed of the whole.
    #[test]
    fn min_of_parts_is_min_of_the_whole(
        seeds in prop::collection::vec(((0u32..20, 0u32..20, any::<bool>()), 0usize..4), 0..60),
    ) {
        let fold = SeedFold::Min;
        let mut sources: [Vec<SharedSeed>; 4] = Default::default();
        let mut want = Vec::new();
        for ((a_pos, b_pos, reverse), source) in seeds {
            let seed = SharedSeed { a_pos, b_pos, reverse };
            want.push(seed);
            fold.add(&mut sources[source], seed);
        }
        want.sort_unstable();
        want.truncate(1);
        let mut got = Vec::new();
        for seed in sources.concat() {
            fold.add(&mut got, seed);
        }
        prop_assert_eq!(got, want);
    }

    /// The stage-level form: with sources and destinations folding, any
    /// world size and round cap, every policy with the chain filter on or
    /// off, the tasks are exactly what the epilogue makes of Algorithm 1's
    /// unfolded per-pair seed lists.
    #[test]
    fn folded_stage_matches_the_unfolded_reference(
        reads in genome_reads(),
        p in 1usize..5,
        oc in seed_configs(),
        capped in any::<bool>(),
    ) {
        let oc = OverlapConfig {
            max_exchange_bytes_per_round: if capped { 400 } else { usize::MAX },
            ..oc
        };
        let (tasks, tables) = run_stages(&reads, p, &oc);
        let mut want: Vec<OverlapTask> = reference_pairs(&tables.iter().collect::<Vec<_>>())
            .into_iter()
            .filter_map(|(pair, seeds)| Some(OverlapTask { pair, seeds: finish(seeds, &oc)? }))
            .collect();
        want.sort_unstable_by_key(|t| t.pair);
        prop_assert_eq!(tasks, want);
    }

    /// The home heuristic is symmetric, total and roughly balanced over a
    /// random pair population.
    #[test]
    fn home_heuristic_properties(n in 8u32..200) {
        let mut per_read = vec![0u32; n as usize];
        for a in 0..n {
            for b in (a + 1)..n {
                let h = task_home(a, b);
                prop_assert!(h == a || h == b);
                prop_assert_eq!(h, task_home(b, a));
                per_read[h as usize] += 1;
            }
        }
        let avg = (n - 1) as f64 / 2.0;
        for (r, &c) in per_read.iter().enumerate() {
            prop_assert!(
                (c as f64) < avg * 1.6 + 4.0,
                "read {r} homes {c} of avg {avg}"
            );
        }
    }
}
