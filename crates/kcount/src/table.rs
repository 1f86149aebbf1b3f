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

/// Word-folding hasher. A `Kmer`'s derived `Hash` feeds it a length
/// prefix, the raw packed word and `k`; each is folded into the state
/// through the splitmix64 finalizer [`dibella_kmer::mix64`], so no input
/// needs to be pre-mixed — which also makes it sound for the overlap
/// stage's raw read-ID pair keys.
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

/// A filter of a table's keys with no false negatives, for the hash pass
/// to ask before it probes the table: most k-mers it rolls are not
/// resident, and a miss here costs one word load where a table miss costs
/// a probe sequence. Each key sets three bits, taken from its
/// [`Kmer1::hash64`], in one 64-bit word picked by that hash's high half;
/// at [`KeyScreen::BITS_PER_KEY`] or more bits per key about 1 % of
/// absent k-mers get through.
pub(crate) struct KeyScreen {
    words: Vec<u64>,
    mask: usize,
}

impl KeyScreen {
    /// Least density; the word count is rounded up to a power of two.
    const BITS_PER_KEY: usize = 16;

    fn new<'a>(keys: impl ExactSizeIterator<Item = &'a Kmer1>) -> Self {
        let n_words = (keys.len() * Self::BITS_PER_KEY).div_ceil(64).next_power_of_two();
        let mut screen = Self { words: vec![0; n_words], mask: n_words - 1 };
        for key in keys {
            let h = key.hash64();
            let slot = screen.slot(h);
            screen.words[slot] |= Self::bits(h);
        }
        screen
    }

    #[inline]
    fn slot(&self, h: u64) -> usize {
        (h >> 32) as usize & self.mask
    }

    #[inline]
    fn bits(h: u64) -> u64 {
        1 << (h & 63) | 1 << ((h >> 6) & 63) | 1 << ((h >> 12) & 63)
    }

    /// `false` only if no key with hash `h` was screened.
    #[inline]
    pub(crate) fn admits(&self, h: u64) -> bool {
        let bits = Self::bits(h);
        self.words[self.slot(h)] & bits == bits
    }
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

    /// A [`KeyScreen`] of the keys resident now.
    pub(crate) fn screen(&self) -> KeyScreen {
        KeyScreen::new(self.map.keys())
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
    fn screen_admits_every_resident_key_and_few_absent_ones() {
        // 2^16 keys fill the screen at exactly its least density: the word
        // count needs no rounding up.
        let mut state = 0x5EED_u64;
        let mut random_key = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            Kmer1::from_words([state], 32)
        };
        let empty = KmerHashTable::default().screen();
        assert!((0..10_000).all(|_| !empty.admits(random_key().hash64())));
        let mut t = KmerHashTable::with_capacity(1 << 16);
        while t.len() < 1 << 16 {
            t.insert_key(random_key());
        }
        let screen = t.screen();
        assert!(t.iter().all(|(key, _)| screen.admits(key.hash64())), "a false negative");
        let absent: Vec<Kmer1> = (0..100_000).map(|_| random_key()).filter(|key| !t.contains(key)).collect();
        let passed = absent.iter().filter(|key| screen.admits(key.hash64())).count();
        assert!(passed * 50 < absent.len(), "{passed} of {} absent keys passed", absent.len());
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
