//! Exact communication accounting.
//!
//! The cross-architecture projections (Figures 3–13) are driven by the
//! *exact* number of bytes and messages each rank exchanges in each
//! pipeline stage, so the communicator records, per destination rank, the
//! bytes and message count of every collective. A "message" here is one
//! non-empty point-to-point buffer inside an irregular collective — the
//! same unit an MPI implementation would transfer for `MPI_Alltoallv`.

use std::time::Duration;

/// Per-rank communication counters, reset at stage boundaries via
/// [`crate::Comm::take_stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Bytes this rank sent to each destination rank (including itself —
    /// the model decides what self/on-node traffic costs).
    pub dest_bytes: Vec<u64>,
    /// Non-empty buffers sent to each destination rank.
    pub dest_msgs: Vec<u64>,
    /// Number of `alltoallv`-style irregular exchanges.
    pub alltoallv_calls: u64,
    /// Number of dense collectives (alltoall counts, reduces, gathers,
    /// broadcasts, scans).
    pub dense_collectives: u64,
    /// Number of bare barriers.
    pub barriers: u64,
    /// High-water mark over all irregular exchanges of the bytes this rank
    /// sent in one exchange round (sum over destinations of a single
    /// call). This is the per-rank send-buffer footprint a streaming,
    /// round-capped stage actually holds at once — the number
    /// `PipelineConfig::max_exchange_bytes_per_round` bounds (up to one
    /// record of slack, since records never split across rounds).
    pub peak_round_bytes: u64,
    /// Wall-clock time spent inside collective calls (meaningful when the
    /// host is not oversubscribed; the figure harness uses byte counts
    /// instead).
    pub exchange_wall: Duration,
    /// Wall-clock time spent packing per-destination send buffers for the
    /// streaming exchanges (`RoundExchange` times its pack closures).
    /// Packing of round `i + 1` runs while
    /// round `i` is in flight, so `pack_wall` and `exchange_wall` measure
    /// *concurrent* intervals — their sum can exceed the stage wall, which
    /// is precisely the overlap the engine buys.
    pub pack_wall: Duration,
    /// Frames the hardened exchange layer rejected for structural damage
    /// (truncation, bad magic, length mismatch, CRC failure). Zero unless
    /// the transport advertises a [`crate::RetryPolicy`] and the medium
    /// actually mangles payloads.
    pub frames_corrupt_detected: u64,
    /// Per-destination frames re-sent by the retransmit loop (one
    /// retransmit of a `P`-rank round counts `P`). These bytes ride the
    /// recovery path and are deliberately *not* added to `dest_bytes` —
    /// the traffic accounting stays the logical payload the algorithm
    /// needed, so projections and wire-ratio invariants are unchanged by
    /// chaos.
    pub frames_retransmitted: u64,
    /// Structurally valid frames discarded because they carried a stale
    /// sequence number — duplicates of an earlier round.
    pub duplicates_dropped: u64,
    /// Times an `exchange_wait` poll exceeded the policy's wait timeout
    /// before the in-flight helper produced a result.
    pub wait_timeouts: u64,
    /// Wall-clock time spent in the recovery path: backoff sleeps,
    /// retransmits, and the agreement handshake that decides whether a
    /// round must be replayed.
    pub retry_wall: Duration,
}

impl CommStats {
    /// Zeroed counters for a world of `p` ranks.
    pub fn new(p: usize) -> Self {
        Self {
            dest_bytes: vec![0; p],
            dest_msgs: vec![0; p],
            ..Self::default()
        }
    }

    /// Total bytes sent (all destinations, self included).
    pub fn total_bytes(&self) -> u64 {
        self.dest_bytes.iter().sum()
    }

    /// Bytes sent to ranks other than `self_rank`.
    pub fn remote_bytes(&self, self_rank: usize) -> u64 {
        self.dest_bytes
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != self_rank)
            .map(|(_, &b)| b)
            .sum()
    }

    /// Total non-empty messages sent.
    pub fn total_msgs(&self) -> u64 {
        self.dest_msgs.iter().sum()
    }

    /// Bytes sent to destinations for which `on_node(dest)` is true /
    /// false — the split the network model charges at memory vs. injection
    /// bandwidth.
    pub fn split_bytes<F: Fn(usize) -> bool>(&self, on_node: F) -> (u64, u64) {
        let mut on = 0u64;
        let mut off = 0u64;
        for (d, &b) in self.dest_bytes.iter().enumerate() {
            if on_node(d) {
                on += b;
            } else {
                off += b;
            }
        }
        (on, off)
    }

    /// Merge another stats block into this one (for aggregating rounds).
    pub fn merge(&mut self, other: &CommStats) {
        if self.dest_bytes.len() < other.dest_bytes.len() {
            self.dest_bytes.resize(other.dest_bytes.len(), 0);
            self.dest_msgs.resize(other.dest_msgs.len(), 0);
        }
        for (a, &b) in self.dest_bytes.iter_mut().zip(&other.dest_bytes) {
            *a += b;
        }
        for (a, &b) in self.dest_msgs.iter_mut().zip(&other.dest_msgs) {
            *a += b;
        }
        self.alltoallv_calls += other.alltoallv_calls;
        self.dense_collectives += other.dense_collectives;
        self.barriers += other.barriers;
        self.peak_round_bytes = self.peak_round_bytes.max(other.peak_round_bytes);
        self.exchange_wall += other.exchange_wall;
        self.pack_wall += other.pack_wall;
        self.frames_corrupt_detected += other.frames_corrupt_detected;
        self.frames_retransmitted += other.frames_retransmitted;
        self.duplicates_dropped += other.duplicates_dropped;
        self.wait_timeouts += other.wait_timeouts;
        self.retry_wall += other.retry_wall;
    }

    /// True if any robustness counter is nonzero — i.e. the hardened
    /// exchange layer detected and survived at least one fault.
    pub fn any_faults_survived(&self) -> bool {
        self.frames_corrupt_detected != 0
            || self.frames_retransmitted != 0
            || self.duplicates_dropped != 0
            || self.wait_timeouts != 0
    }

    pub(crate) fn record_exchange(&mut self, sizes: impl Iterator<Item = usize>) {
        let mut round_bytes = 0u64;
        for (d, s) in sizes.enumerate() {
            self.dest_bytes[d] += s as u64;
            round_bytes += s as u64;
            if s > 0 {
                self.dest_msgs[d] += 1;
            }
        }
        self.alltoallv_calls += 1;
        self.peak_round_bytes = self.peak_round_bytes.max(round_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = CommStats::new(4);
        s.record_exchange([10usize, 0, 5, 3].into_iter());
        assert_eq!(s.total_bytes(), 18);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.remote_bytes(0), 8);
        assert_eq!(s.alltoallv_calls, 1);
        assert_eq!(s.peak_round_bytes, 18);
    }

    #[test]
    fn peak_round_bytes_is_a_high_water_mark() {
        let mut s = CommStats::new(2);
        s.record_exchange([4usize, 4].into_iter());
        s.record_exchange([100usize, 0].into_iter());
        s.record_exchange([1usize, 1].into_iter());
        // Totals accumulate, the peak tracks the largest single round.
        assert_eq!(s.total_bytes(), 110);
        assert_eq!(s.peak_round_bytes, 100);
    }

    #[test]
    fn split_on_off_node() {
        let mut s = CommStats::new(4);
        s.record_exchange([1usize, 2, 4, 8].into_iter());
        // Ranks 0-1 on node, 2-3 off node.
        let (on, off) = s.split_bytes(|d| d < 2);
        assert_eq!(on, 3);
        assert_eq!(off, 12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CommStats::new(2);
        a.record_exchange([1usize, 2].into_iter());
        let mut b = CommStats::new(2);
        b.record_exchange([10usize, 0].into_iter());
        b.barriers = 3;
        b.pack_wall = Duration::from_millis(7);
        a.pack_wall = Duration::from_millis(2);
        a.merge(&b);
        assert_eq!(a.dest_bytes, vec![11, 2]);
        assert_eq!(a.dest_msgs, vec![2, 1]);
        assert_eq!(a.alltoallv_calls, 2);
        assert_eq!(a.barriers, 3);
        assert_eq!(a.pack_wall, Duration::from_millis(9));
        // The peak is the max across the merged stats, not a sum.
        assert_eq!(a.peak_round_bytes, 10);
    }

    #[test]
    fn merge_sums_robustness_counters() {
        let mut a = CommStats::new(2);
        a.frames_corrupt_detected = 1;
        a.retry_wall = Duration::from_millis(5);
        assert!(a.any_faults_survived());
        let mut b = CommStats::new(2);
        b.frames_retransmitted = 4;
        b.duplicates_dropped = 2;
        b.wait_timeouts = 1;
        b.retry_wall = Duration::from_millis(3);
        a.merge(&b);
        assert_eq!(a.frames_corrupt_detected, 1);
        assert_eq!(a.frames_retransmitted, 4);
        assert_eq!(a.duplicates_dropped, 2);
        assert_eq!(a.wait_timeouts, 1);
        assert_eq!(a.retry_wall, Duration::from_millis(8));
        assert!(!CommStats::new(2).any_faults_survived());
    }
}
