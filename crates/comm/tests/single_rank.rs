//! World-size edge case: a 1-rank world must exercise every collective
//! correctly (each is its own degenerate permutation) and leave the
//! traffic counters self-consistent — zero off-rank bytes, exact
//! self-traffic accounting.

use dibella_comm::{CommStats, CommWorld};

/// Run every collective on one rank and return the accumulated stats.
fn exercise_all_collectives() -> CommStats {
    let mut results = CommWorld::run(1, |c| {
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        c.barrier();
        // Irregular exchange: 12 bytes to self.
        let recv = c.alltoallv_bytes(vec![(1..=12).collect()]);
        assert_eq!(recv, vec![(1..=12).collect::<Vec<u8>>()]);
        // Dense collectives, one of each flavor.
        assert_eq!(c.alltoall(vec![9u8]), vec![9]);
        assert_eq!(c.allgather(5u64), vec![5]);
        assert_eq!(c.allreduce_sum_u64(7), 7);
        assert_eq!(c.allreduce_max_u64(3), 3);
        assert_eq!(c.exscan_sum_u64(4), 0, "rank 0 exscan is the empty sum");
        c.take_stats()
    });
    results.remove(0)
}

fn assert_self_consistent(s: &CommStats) {
    // All traffic is self-traffic: nothing leaves the rank.
    assert_eq!(s.remote_bytes(0), 0);
    assert_eq!(s.dest_bytes.len(), 1);
    assert_eq!(s.dest_bytes[0], 12, "one 12-byte alltoallv");
    assert_eq!(s.total_bytes(), 12);
    assert_eq!(s.total_msgs(), 1);
    assert_eq!(s.alltoallv_calls, 1);
    assert_eq!(s.barriers, 1);
    // alltoall + allgather + 2 reductions (via allgather) + exscan = 5
    // dense collectives.
    assert_eq!(s.dense_collectives, 5);
    let (on, off) = s.split_bytes(|d| d == 0);
    assert_eq!((on, off), (12, 0));
}

#[test]
fn one_rank_world_is_self_consistent_shared() {
    let s = exercise_all_collectives();
    assert_self_consistent(&s);
}
