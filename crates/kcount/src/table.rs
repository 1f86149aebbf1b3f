//! The distributed k-mer hash table (one partition per rank).
//!
//! Unlike HipMer's de Bruijn hash table, diBELLA's stores, per k-mer, the
//! list of *(read ID, position, strand)* occurrences (paper §7, §11): the
//! table "represents a read graph with read vertices connected to each
//! other by shared k-mers". Keys are inserted during the Bloom pass
//! (second sighting), occurrences during the hash pass, and a final local
//! scan drops false-positive singletons and the > m tail.

use crate::config::KcountConfig;
use dibella_io::ReadId;
use dibella_kmer::{Kmer1, Strand};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One observed k-mer instance: where it occurred.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occurrence {
    /// Read in which the (canonical) k-mer appeared.
    pub read: ReadId,
    /// Offset of the k-mer within the read.
    pub pos: u32,
    /// Strand on which the canonical form was observed.
    pub strand: Strand,
}

/// Value stored per k-mer key.
#[derive(Clone, Debug, Default)]
pub struct KmerEntry {
    /// Total occurrences seen in the hash pass (may exceed
    /// `occurrences.len()` once the entry is known to be over-threshold).
    pub count: u32,
    /// Occurrence list, capped at `m + 1` entries — entries past the
    /// threshold are doomed to be filtered, so storing their tails would
    /// only waste the memory the paper's design is protecting.
    pub occurrences: Vec<Occurrence>,
}

/// Word-folding hasher: k-mer keys are pre-mixed by
/// `dibella_kmer::hash::kmer_hash_words`, so the map hasher only needs to
/// fold the word stream — through the splitmix64 finalizer, which also
/// makes it sound for the overlap stage's raw read-ID pair keys.
#[derive(Default)]
pub struct KmerKeyHasher(u64);

impl Hasher for KmerKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold 8-byte chunks with the splitmix64 finalizer.
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 = dibella_kmer::mix64(self.0 ^ u64::from_le_bytes(w));
        }
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = dibella_kmer::mix64(self.0 ^ v);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.0 = dibella_kmer::mix64(self.0 ^ v as u64);
    }
}

type Build = BuildHasherDefault<KmerKeyHasher>;

/// Statistics of the final reliable-k-mer filter (paper §7).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Keys removed because only one occurrence arrived (Bloom false
    /// positives let a few singletons through).
    pub singletons_removed: u64,
    /// Keys removed for exceeding the high-occurrence threshold `m`.
    pub high_freq_removed: u64,
    /// Keys retained (the *reliable* k-mers).
    pub retained: u64,
}

/// One rank's partition of the distributed k-mer hash table.
#[derive(Debug, Default)]
pub struct KmerHashTable {
    map: HashMap<Kmer1, KmerEntry, Build>,
}

impl KmerHashTable {
    /// Empty table with capacity for `expected_keys`.
    pub fn with_capacity(expected_keys: usize) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(expected_keys, Build::default()),
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Insert a key with an empty occurrence list (Bloom-pass promotion).
    /// Idempotent.
    pub fn insert_key(&mut self, kmer: Kmer1) {
        self.map.entry(kmer).or_default();
    }

    /// Whether `kmer` is resident.
    pub fn contains(&self, kmer: &Kmer1) -> bool {
        self.map.contains_key(kmer)
    }

    /// Record an occurrence *iff* the key is resident (hash-pass rule:
    /// "Insert into the distributed hash table only if the k-mer is
    /// already resident", §4). Returns `true` if recorded.
    ///
    /// The occurrence list is capped at `cfg.max_multiplicity + 1`
    /// entries; the count keeps increasing so the filter can still detect
    /// over-threshold keys.
    pub fn record_occurrence(&mut self, kmer: &Kmer1, occ: Occurrence, cfg: &KcountConfig) -> bool {
        match self.map.get_mut(kmer) {
            None => false,
            Some(entry) => {
                entry.count += 1;
                if entry.occurrences.len() <= cfg.max_multiplicity as usize {
                    entry.occurrences.push(occ);
                }
                true
            }
        }
    }

    /// Record an occurrence, creating the key on first sighting. This is
    /// the minimizer-pass rule: that pass has no Bloom pre-pass (the
    /// sketch itself bounds the key set to ~`2/(w+1)` of all k-mer
    /// instances), so every arriving record is welcome. Returns `true`
    /// if the key was newly created. The occurrence list obeys the same
    /// `m + 1` cap as [`Self::record_occurrence`].
    pub fn record_or_insert(&mut self, kmer: Kmer1, occ: Occurrence, cfg: &KcountConfig) -> bool {
        use std::collections::hash_map::Entry;
        let (created, entry) = match self.map.entry(kmer) {
            Entry::Occupied(e) => (false, e.into_mut()),
            Entry::Vacant(v) => (true, v.insert(KmerEntry::default())),
        };
        entry.count += 1;
        if entry.occurrences.len() <= cfg.max_multiplicity as usize {
            entry.occurrences.push(occ);
        }
        created
    }

    /// Final local filter: drop singletons (count < 2) and high-frequency
    /// keys (count > m). Survivors are the *retained* k-mers.
    pub fn retain_reliable(&mut self, max_multiplicity: u32) -> FilterStats {
        let mut stats = FilterStats::default();
        self.map.retain(|_, entry| {
            if entry.count < 2 {
                stats.singletons_removed += 1;
                false
            } else if entry.count > max_multiplicity {
                stats.high_freq_removed += 1;
                false
            } else {
                debug_assert_eq!(entry.count as usize, entry.occurrences.len());
                stats.retained += 1;
                true
            }
        });
        self.map.shrink_to_fit();
        stats
    }

    /// Iterate over resident entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Kmer1, &KmerEntry)> {
        self.map.iter()
    }

    /// Insert a fully-formed entry under `kmer`, replacing any resident
    /// one. This is the checkpoint-restore path: a table reloaded from a
    /// stage checkpoint must reproduce exactly the entries the original
    /// pass built, including counts that exceed the stored occurrence
    /// list's length.
    pub fn insert_entry(&mut self, kmer: Kmer1, entry: KmerEntry) {
        self.map.insert(kmer, entry);
    }

    /// Approximate resident bytes (keys + entries + occurrence lists) —
    /// the per-rank working set fed to the cache model.
    pub fn memory_bytes(&self) -> u64 {
        let fixed = std::mem::size_of::<(Kmer1, KmerEntry)>() as u64;
        let occs: u64 = self
            .map
            .values()
            .map(|e| (e.occurrences.len() * std::mem::size_of::<Occurrence>()) as u64)
            .sum();
        self.map.len() as u64 * fixed + occs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(m: u32) -> KcountConfig {
        KcountConfig {
            k: 5,
            max_multiplicity: m,
            bloom_fp_rate: 0.05,
            expected_distinct: 1024,
            max_kmers_per_round: 1 << 16,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: KcountConfig::DEFAULT_EXTRACT_BATCH,
        }
    }

    fn km(s: &[u8]) -> Kmer1 {
        Kmer1::from_ascii(s).unwrap()
    }

    fn occ(read: ReadId, pos: u32) -> Occurrence {
        Occurrence { read, pos, strand: Strand::Forward }
    }

    #[test]
    fn occurrences_only_for_resident_keys() {
        let mut t = KmerHashTable::with_capacity(8);
        let c = cfg(4);
        assert!(!t.record_occurrence(&km(b"ACGTA"), occ(0, 0), &c));
        t.insert_key(km(b"ACGTA"));
        assert!(t.record_occurrence(&km(b"ACGTA"), occ(0, 0), &c));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn insert_key_idempotent() {
        let mut t = KmerHashTable::with_capacity(8);
        t.insert_key(km(b"ACGTA"));
        t.insert_key(km(b"ACGTA"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn filter_removes_singletons_and_repeats() {
        let mut t = KmerHashTable::with_capacity(8);
        let c = cfg(3);
        // Singleton (bloom false positive scenario).
        t.insert_key(km(b"AAAAA"));
        t.record_occurrence(&km(b"AAAAA"), occ(0, 0), &c);
        // Reliable: 3 occurrences.
        t.insert_key(km(b"CCCCC"));
        for i in 0..3 {
            t.record_occurrence(&km(b"CCCCC"), occ(i, i), &c);
        }
        // Repeat: 6 occurrences > m = 3.
        t.insert_key(km(b"GGGGG"));
        for i in 0..6 {
            t.record_occurrence(&km(b"GGGGG"), occ(i, i), &c);
        }
        // Key that never saw an occurrence (pure FP promotion).
        t.insert_key(km(b"TTTTT"));

        let stats = t.retain_reliable(3);
        assert_eq!(stats.singletons_removed, 2);
        assert_eq!(stats.high_freq_removed, 1);
        assert_eq!(stats.retained, 1);
        assert_eq!(t.len(), 1);
        assert!(t.contains(&km(b"CCCCC")));
    }

    #[test]
    fn record_or_insert_creates_then_records() {
        let mut t = KmerHashTable::with_capacity(4);
        let c = cfg(3);
        assert!(t.record_or_insert(km(b"ACGTA"), occ(0, 0), &c), "first sighting creates");
        assert!(!t.record_or_insert(km(b"ACGTA"), occ(1, 5), &c), "second records in place");
        let entry = t.iter().next().unwrap().1;
        assert_eq!(entry.count, 2);
        assert_eq!(entry.occurrences.len(), 2);
        // The m + 1 cap applies here too.
        for i in 0..100 {
            t.record_or_insert(km(b"ACGTA"), occ(i, 0), &c);
        }
        let entry = t.iter().next().unwrap().1;
        assert_eq!(entry.count, 102);
        assert_eq!(entry.occurrences.len(), 4);
    }

    #[test]
    fn occurrence_list_is_capped() {
        let mut t = KmerHashTable::with_capacity(4);
        let c = cfg(3);
        t.insert_key(km(b"ACGTA"));
        for i in 0..100 {
            t.record_occurrence(&km(b"ACGTA"), occ(i, 0), &c);
        }
        let entry = t.iter().next().unwrap().1;
        assert_eq!(entry.count, 100);
        assert_eq!(entry.occurrences.len(), 4); // m + 1
    }

    #[test]
    fn memory_accounting_monotone() {
        let mut t = KmerHashTable::with_capacity(4);
        let c = cfg(8);
        let m0 = t.memory_bytes();
        t.insert_key(km(b"ACGTA"));
        let m1 = t.memory_bytes();
        t.record_occurrence(&km(b"ACGTA"), occ(0, 0), &c);
        t.record_occurrence(&km(b"ACGTA"), occ(1, 0), &c);
        let m2 = t.memory_bytes();
        assert!(m0 < m1 && m1 < m2);
    }
}
