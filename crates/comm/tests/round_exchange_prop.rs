//! Property tests of the streaming exchange engine: for arbitrary
//! per-destination record geometries and round caps, the byte-planned
//! rounds (a) lose and reorder nothing relative to a monolithic exchange
//! and (b) keep every rank's per-round send volume within
//! `cap + max_record_size` — the memory bound `--round-mb` promises — and
//! (c) the uniform-record planner cuts exactly the general planner's rounds.

use dibella_comm::{ByteRounds, CommWorld, RoundExchange};
use proptest::prelude::*;

/// Deterministic pseudo-random record sizes for `(src, dst)` streams.
fn record_lens(seed: u64, src: usize, dst: usize, p: usize) -> Vec<usize> {
    let mut state = seed ^ ((src * p + dst) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = (rnd() % 6) as usize;
    (0..n).map(|_| 1 + (rnd() % 40) as usize).collect()
}

/// Concatenated payload bytes for one `(src, dst)` stream.
fn payload(lens: &[usize], src: usize, dst: usize) -> Vec<u8> {
    let total: usize = lens.iter().sum();
    (0..total).map(|i| (src * 31 + dst * 7 + i) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streamed rounds deliver exactly the monolithic result, with
    /// `peak_round_bytes ≤ cap + max_record_size` on every rank.
    #[test]
    fn peak_round_bytes_bounded_and_lossless(
        p in 1usize..6,
        cap in 1usize..120,
        seed in 0u64..500,
    ) {
        let outs = CommWorld::run(p, |comm| {
            let rank = comm.rank();
            let lens: Vec<Vec<usize>> =
                (0..p).map(|d| record_lens(seed, rank, d, p)).collect();
            let bufs: Vec<Vec<u8>> =
                (0..p).map(|d| payload(&lens[d], rank, d)).collect();
            let max_record = lens.iter().flatten().copied().max().unwrap_or(0);
            let split = ByteRounds::plan(&lens, cap);
            let mut rebuilt: Vec<Vec<u8>> = vec![Vec::new(); p];
            let rounds = RoundExchange::run(
                comm,
                split.round_plan(),
                |r| split.pack(r, &bufs),
                |_r, recv| {
                    for (src, b) in recv.into_iter().enumerate() {
                        rebuilt[src].extend(b);
                    }
                },
            );
            let stats = comm.take_stats();
            (rebuilt, stats, rounds, max_record)
        });
        // Every destination reassembles every source stream byte-for-byte.
        for (dst, (rebuilt, stats, rounds, _)) in outs.iter().enumerate() {
            for (src, got) in rebuilt.iter().enumerate() {
                let lens = record_lens(seed, src, dst, p);
                prop_assert_eq!(got, &payload(&lens, src, dst), "{} -> {}", src, dst);
            }
            prop_assert_eq!(stats.alltoallv_calls, *rounds);
            // Total bytes are independent of the round split.
            let sent: usize = (0..p)
                .map(|d| record_lens(seed, dst, d, p).iter().sum::<usize>())
                .sum();
            prop_assert_eq!(stats.total_bytes(), sent as u64);
        }
        // The invariant the round cap exists for, on every rank: no round
        // ever ships more than the cap plus one unsplittable record.
        let world_max_record = outs.iter().map(|(_, _, _, m)| *m).max().unwrap_or(0);
        for (rank, (_, stats, _, _)) in outs.iter().enumerate() {
            prop_assert!(
                stats.peak_round_bytes <= (cap + world_max_record) as u64,
                "rank {}: peak {} vs cap {} + record {}",
                rank, stats.peak_round_bytes, cap, world_max_record
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The uniform planner is the general one over equal lengths: the same
    /// rounds, each with the same `(destination, byte range)` segments —
    /// destinations with no records and caps below one record included. A
    /// stream of one-seed records may therefore be planned from its counts.
    #[test]
    fn plan_uniform_cuts_the_segments_of_plan(
        // About a third of the destinations get no records.
        counts in prop::collection::vec((0usize..16).prop_map(|n| n.saturating_sub(5)), 0..6),
        size in 1usize..24,
        // Below one record, a few records, and unbounded.
        cap in (0usize..240).prop_map(|c| if c >= 220 { usize::MAX } else { c % 110 + 1 }),
    ) {
        let lens: Vec<Vec<usize>> = counts.iter().map(|&n| vec![size; n]).collect();
        let general = ByteRounds::plan(&lens, cap);
        let uniform = ByteRounds::plan_uniform(&counts, size, cap);
        prop_assert_eq!(uniform.len(), general.len());
        for round in 0..general.len() as u64 + 1 {
            prop_assert_eq!(uniform.segments(round), general.segments(round), "round {}", round);
        }
    }
}
