//! Property tests: the irregular exchange is a lossless permutation.

use dibella_comm::{decode_vec, encode_slice, CommWorld};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every element sent in an alltoallv arrives exactly once at the
    /// right rank, tagged with the right source, for arbitrary irregular
    /// send-count matrices.
    #[test]
    fn alltoallv_is_a_permutation(
        p in 1usize..9,
        seed in 0u64..1000,
    ) {
        // Deterministic irregular matrix: rank r sends f(r,d) elements to d.
        let count = |r: usize, d: usize| ((seed as usize + r * 7 + d * 13) % 5) as u32;
        let results = CommWorld::run(p, |comm| {
            let r = comm.rank();
            let send: Vec<Vec<u8>> = (0..p)
                .map(|d| encode_slice(&(0..count(r, d)).map(|i| (r as u32, i)).collect::<Vec<_>>()))
                .collect();
            comm.alltoallv_bytes(send)
        });
        for (dst, recv) in results.iter().enumerate() {
            prop_assert_eq!(recv.len(), p);
            for (src, buf) in recv.iter().enumerate() {
                let buf = decode_vec::<(u32, u32)>(buf);
                prop_assert_eq!(buf.len() as u32, count(src, dst));
                for (i, &(s, ix)) in buf.iter().enumerate() {
                    prop_assert_eq!(s, src as u32);
                    prop_assert_eq!(ix, i as u32);
                }
            }
        }
    }

    /// Byte-level round trip through encode → alltoallv_bytes → decode
    /// preserves every record.
    #[test]
    fn wire_exchange_round_trip(
        p in 1usize..6,
        payload in prop::collection::vec((any::<u32>(), any::<u64>()), 0..50),
    ) {
        let results = CommWorld::run(p, |comm| {
            // Everyone sends the same payload to every destination.
            let send: Vec<Vec<u8>> = (0..p).map(|_| encode_slice(&payload)).collect();
            let recv = comm.alltoallv_bytes(send);
            recv.into_iter()
                .map(|buf| decode_vec::<(u32, u64)>(&buf))
                .collect::<Vec<_>>()
        });
        for recv in results {
            for buf in recv {
                prop_assert_eq!(&buf, &payload);
            }
        }
    }

    /// Stats bytes equal the true encoded volume.
    #[test]
    fn stats_match_sent_volume(p in 1usize..6, n in 0usize..40) {
        let results = CommWorld::run(p, |comm| {
            let send: Vec<Vec<u8>> = (0..p).map(|_| vec![0u8; n * 8]).collect();
            let _ = comm.alltoallv_bytes(send);
            comm.take_stats()
        });
        for s in results {
            prop_assert_eq!(s.total_bytes(), (p * n * 8) as u64);
        }
    }
}
