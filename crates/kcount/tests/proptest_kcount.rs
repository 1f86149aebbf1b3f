//! Property tests: the distributed two-pass k-mer analysis equals a
//! serial reference count for arbitrary read sets, world sizes and
//! streaming caps.

use dibella_comm::{BatchedExecutor, CommWorld};
use dibella_io::{partition_reads, Read, ReadSet};
use dibella_kcount::{bloom_stage_overlapping, hash_stage_prepacked, KcountConfig};
use dibella_kmer::{Kmer1, KmerIter};
use proptest::prelude::*;
use std::collections::HashMap;

fn reads_strategy() -> impl Strategy<Value = ReadSet> {
    // A pool of short motifs reused across reads guarantees shared k-mers.
    let motif = prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 12..20);
    let motifs = prop::collection::vec(motif, 2..5);
    (motifs, 3usize..12, any::<u64>()).prop_map(|(motifs, n_reads, seed)| {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n_reads as u32)
            .map(|i| {
                let mut seq: Vec<u8> = Vec::new();
                for _ in 0..3 {
                    // Random filler + one motif from the pool.
                    for _ in 0..(rnd() % 20 + 5) {
                        seq.push(b"ACGT"[(rnd() % 4) as usize]);
                    }
                    let m = &motifs[(rnd() as usize) % motifs.len()];
                    seq.extend_from_slice(m);
                }
                Read::new(i, format!("r{i}"), seq)
            })
            .collect()
    })
}

fn reference(reads: &ReadSet, k: usize, m: u32) -> HashMap<Kmer1, u32> {
    let mut counts: HashMap<Kmer1, u32> = HashMap::new();
    for r in reads {
        for h in KmerIter::<1>::new(&r.seq, k) {
            *counts.entry(h.kmer).or_default() += 1;
        }
    }
    counts.retain(|_, c| *c >= 2 && *c <= m);
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any reads / world size / round cap, the retained k-mer set and
    /// every occurrence count match the serial reference exactly.
    #[test]
    fn distributed_counts_equal_serial(
        reads in reads_strategy(),
        p in 1usize..6,
        cap in prop::sample::select(vec![16usize, 64, 1 << 12]),
    ) {
        let k = 9usize;
        let m = 30u32;
        let cfg = KcountConfig {
            k,
            max_multiplicity: m,
            bloom_fp_rate: 0.02,
            expected_distinct: 4096,
            max_kmers_per_round: cap,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: 16,
        };
        let want = reference(&reads, k, m);
        let (_, chunks) = partition_reads(&reads, p);
        let parts = CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, retained) = bloom_stage_overlapping(comm, local, &cfg, &exec);
            let mut table = bloom.table;
            let _ = hash_stage_prepacked(comm, local, &mut table, &cfg, &exec, Some(retained));
            table.iter().map(|(k, e)| (*k, e.count)).collect::<Vec<_>>()
        });
        let mut got: HashMap<Kmer1, u32> = HashMap::new();
        for part in parts {
            for (kmer, count) in part {
                prop_assert!(got.insert(kmer, count).is_none(), "key on two ranks");
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Filter statistics are an exact partition of the table keys.
    #[test]
    fn filter_stats_partition_keys(reads in reads_strategy(), p in 1usize..5) {
        let cfg = KcountConfig {
            k: 9,
            max_multiplicity: 4,
            bloom_fp_rate: 0.02,
            expected_distinct: 4096,
            max_kmers_per_round: 1 << 12,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: 16,
        };
        let (_, chunks) = partition_reads(&reads, p);
        let outs = CommWorld::run(p, |comm| {
            let exec = BatchedExecutor::sequential();
            let local = chunks[comm.rank()].reads();
            let (bloom, retained) = bloom_stage_overlapping(comm, local, &cfg, &exec);
            let keys_before = bloom.table.len() as u64;
            let mut table = bloom.table;
            let h = hash_stage_prepacked(comm, local, &mut table, &cfg, &exec, Some(retained));
            (keys_before, h.filter, table.len() as u64)
        });
        for (before, stats, after) in outs {
            prop_assert_eq!(
                before,
                stats.singletons_removed + stats.high_freq_removed + stats.retained
            );
            prop_assert_eq!(after, stats.retained);
        }
    }
}
