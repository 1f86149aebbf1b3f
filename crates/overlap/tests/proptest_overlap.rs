//! Property tests for the overlap stage: Algorithm 1's output is a
//! partition-independent, exactly-once, seed-complete task set.

use dibella_comm::{BatchedExecutor, CommWorld};
use dibella_io::{partition_reads, Read, ReadSet};
use dibella_kcount::{bloom_stage_overlapping, hash_stage_prepacked, KcountConfig};
use dibella_overlap::{overlap_stage_with_lengths, task_home, OverlapConfig, OverlapTask, SeedPolicy};
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
    let kc = KcountConfig {
        k: 9,
        max_multiplicity: 32,
        bloom_fp_rate: 0.02,
        expected_distinct: 4096,
        max_kmers_per_round: 1 << 12,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: 16,
    };
    let oc = OverlapConfig { policy, max_seeds_per_pair: 64, ..Default::default() };
    let (part, chunks) = partition_reads(reads, p);
    let outs = CommWorld::run(p, |comm| {
        let exec = BatchedExecutor::sequential();
        let local = chunks[comm.rank()].reads();
        let (bloom, round0) = bloom_stage_overlapping(comm, local, &kc, &exec);
        let mut table = bloom.table;
        let _ = hash_stage_prepacked(comm, local, &mut table, &kc, &exec, Some(round0));
        overlap_stage_with_lengths(comm, &table, &part, &oc, None, &exec)
    });
    let mut all: Vec<OverlapTask> = outs.into_iter().flat_map(|o| o.tasks).collect();
    all.sort_unstable_by_key(|t| t.pair);
    all
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
