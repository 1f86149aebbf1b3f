//! The distributed read store.
//!
//! Each rank holds the reads it owns (a contiguous ID block from
//! [`crate::partition::ReadPartition`]) plus a cache of *replicated* remote
//! reads fetched during the alignment stage (paper §4 step 4:
//! "redistribute and replicate reads (the original strings) to match
//! read-pair distribution").

use crate::partition::ReadPartition;
use crate::read::{Read, ReadId};
use std::borrow::Cow;
use std::collections::HashMap;

/// Per-rank view of the distributed read set.
///
/// The owned reads are borrowed from the caller when it holds them
/// already (an in-memory run slices one input for every rank, so no rank
/// copies its share) or owned when the rank parsed them itself.
#[derive(Clone, Debug)]
pub struct ReadStore<'a> {
    rank: usize,
    partition: ReadPartition,
    /// Reads owned by this rank, indexed by `id - first_local_id`.
    local: Cow<'a, [Read]>,
    /// Remote read bytes replicated here for alignment, packed into one
    /// per-rank arena (one allocation pool instead of one `Vec` per
    /// fetched read — the alignment stage installs thousands of remote
    /// reads back-to-back).
    arena: Vec<u8>,
    /// Remote read index: id → `(offset, len)` into [`Self::arena`].
    replicated: HashMap<ReadId, (usize, usize)>,
}

impl<'a> ReadStore<'a> {
    /// Build the store for `rank` given the global partition and this
    /// rank's owned reads (must be exactly the partition's ID range, in
    /// order): a borrowed slice (`&[Read]`, nothing is copied) or a
    /// `Vec<Read>` the store takes over.
    ///
    /// # Panics
    /// Panics if `local` disagrees with the partition's range for `rank`.
    pub fn new(rank: usize, partition: ReadPartition, local: impl Into<Cow<'a, [Read]>>) -> Self {
        let local = local.into();
        let range = partition.range_of(rank);
        assert_eq!(
            local.len(),
            range.len(),
            "rank {rank}: got {} reads for range {range:?}",
            local.len()
        );
        for (i, r) in local.iter().enumerate() {
            assert_eq!(
                r.id,
                range.start + i as ReadId,
                "rank {rank}: read at slot {i} has id {} (expected {})",
                r.id,
                range.start + i as ReadId
            );
        }
        Self {
            rank,
            partition,
            local,
            arena: Vec::new(),
            replicated: HashMap::new(),
        }
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The global read partition.
    pub fn partition(&self) -> &ReadPartition {
        &self.partition
    }

    /// Owned reads in ID order.
    pub fn local_reads(&self) -> &[Read] {
        &self.local
    }

    /// The rank owning a read ID.
    pub fn owner_of(&self, id: ReadId) -> usize {
        self.partition.owner_of(id)
    }

    /// `true` if this rank owns `id`.
    pub fn is_local(&self, id: ReadId) -> bool {
        self.partition.range_of(self.rank).contains(&id)
    }

    /// Sequence of a locally owned read.
    pub fn local_seq(&self, id: ReadId) -> Option<&[u8]> {
        if !self.is_local(id) {
            return None;
        }
        let first = self.partition.range_of(self.rank).start;
        Some(&self.local[(id - first) as usize].seq)
    }

    /// Sequence of any read available on this rank (owned or replicated).
    pub fn seq(&self, id: ReadId) -> Option<&[u8]> {
        self.local_seq(id)
            .or_else(|| self.replicated.get(&id).map(|&(off, len)| &self.arena[off..off + len]))
    }

    /// Record a replicated remote read (from the alignment-stage read
    /// exchange): `write` appends the read's bytes to the per-rank arena —
    /// decoding them there straight from the wire — instead of boxing them
    /// into their own allocation. Replicating a read this rank already
    /// owns — or one already replicated — is a no-op, and `write` is not
    /// called.
    pub fn insert_replicated(&mut self, id: ReadId, write: impl FnOnce(&mut Vec<u8>)) {
        if self.is_local(id) || self.replicated.contains_key(&id) {
            return;
        }
        let off = self.arena.len();
        write(&mut self.arena);
        self.replicated.insert(id, (off, self.arena.len() - off));
    }

    /// Pre-size the replication arena for `additional` incoming sequence
    /// bytes — decoded bases, not wire bytes (an upper bound is fine), so a
    /// burst of [`Self::insert_replicated`] calls never reallocates
    /// mid-install.
    pub fn reserve_replicated(&mut self, additional: usize) {
        self.arena.reserve(additional);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition_reads;
    use crate::read::ReadSet;

    fn sample_set(n: usize) -> ReadSet {
        (0..n as u32)
            .map(|i| {
                let len = 10 + (i as usize * 13) % 30;
                Read::new(i, format!("r{i}"), vec![b"ACGT"[i as usize % 4]; len])
            })
            .collect()
    }

    fn build_stores(n: usize, p: usize) -> Vec<ReadStore<'static>> {
        let set = sample_set(n);
        let (part, chunks) = partition_reads(&set, p);
        chunks
            .into_iter()
            .enumerate()
            .map(|(rank, chunk)| ReadStore::new(rank, part.clone(), chunk.into_reads()))
            .collect()
    }

    #[test]
    fn local_lookup() {
        let stores = build_stores(20, 4);
        for store in &stores {
            for read in store.local_reads() {
                assert!(store.is_local(read.id));
                assert_eq!(store.local_seq(read.id).unwrap(), read.seq.as_slice());
                assert_eq!(store.seq(read.id).unwrap(), read.seq.as_slice());
            }
        }
    }

    #[test]
    fn a_borrowed_store_points_into_the_callers_reads() {
        let set = sample_set(20);
        let lengths: Vec<usize> = set.iter().map(Read::len).collect();
        let part = ReadPartition::balance_by_size(&lengths, 3);
        for rank in 0..3 {
            let mine = part.slice(rank, set.reads());
            let store = ReadStore::new(rank, part.clone(), mine);
            assert_eq!(store.local_reads().len(), mine.len());
            for read in mine {
                assert!(std::ptr::eq(store.seq(read.id).unwrap(), read.seq.as_slice()), "read {} copied", read.id);
            }
        }
        // A `Vec<Read>` still builds a store; that store owns its copy.
        let copy = part.slice(1, set.reads()).to_vec();
        let owned = ReadStore::new(1, part.clone(), copy);
        for read in part.slice(1, set.reads()) {
            let seq = owned.seq(read.id).unwrap();
            assert_eq!(seq, read.seq.as_slice());
            assert!(!std::ptr::eq(seq, read.seq.as_slice()));
        }
    }

    #[test]
    fn every_read_has_exactly_one_owner() {
        let stores = build_stores(33, 5);
        for id in 0..33u32 {
            let owners: Vec<usize> = stores
                .iter()
                .filter(|s| s.is_local(id))
                .map(|s| s.rank())
                .collect();
            assert_eq!(owners.len(), 1, "id {id}");
            assert_eq!(owners[0], stores[0].owner_of(id));
        }
    }

    #[test]
    fn replication_behaviour() {
        let mut stores = build_stores(10, 2);
        let (left, right) = stores.split_at_mut(1);
        let s0 = &mut left[0];
        let s1 = &mut right[0];
        // Find a read owned by rank 1 and replicate it to rank 0.
        let remote_id = s1.local_reads()[0].id;
        let seq = s1.local_seq(remote_id).unwrap().to_vec();
        assert!(s0.seq(remote_id).is_none());
        s0.insert_replicated(remote_id, |arena| arena.extend_from_slice(&seq));
        assert_eq!(s0.seq(remote_id).unwrap(), seq.as_slice());
        // Re-replicating an already-installed read is ignored.
        s0.insert_replicated(remote_id, |_| panic!("written twice"));
        assert_eq!(s0.seq(remote_id).unwrap(), seq.as_slice());
        // Replicating an owned read is ignored.
        let own_id = s0.local_reads()[0].id;
        s0.insert_replicated(own_id, |arena| arena.extend_from_slice(b"XXX"));
        assert_ne!(s0.seq(own_id).unwrap(), b"XXX");
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn mismatched_ids_panic() {
        let set = sample_set(4);
        let (part, chunks) = partition_reads(&set, 2);
        let mut wrong = chunks[1].clone().into_reads();
        wrong[0].id = 999;
        let _ = ReadStore::new(1, part, wrong);
    }
}
