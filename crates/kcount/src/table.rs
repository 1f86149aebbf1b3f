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
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// One observed k-mer instance: where it occurred, in 8 bytes.
///
/// The read ID fills one word and `pos << 1 | strand` the other, the
/// strand bit being [`Strand::as_u8`]: orientation rides in a position
/// bit, as in the overlap stage's seeds and pair records, so a position
/// must be below 2³¹.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    read: ReadId,
    pos_strand: u32,
}

const _: () = assert!(std::mem::size_of::<Occurrence>() == 8);

impl Occurrence {
    /// The instance of a canonical k-mer at offset `pos` of read `read`,
    /// observed on `strand`.
    ///
    /// # Panics
    /// Panics if `pos ≥ 2³¹`: the position word keeps the strand in bit 0.
    #[inline]
    pub fn new(read: ReadId, pos: u32, strand: Strand) -> Self {
        assert!(pos < 1 << 31, "position {pos} needs bit 31: reads must be shorter than 2^31 bases");
        Self { read, pos_strand: pos << 1 | strand.as_u8() as u32 }
    }

    /// Read in which the (canonical) k-mer appeared.
    #[inline]
    pub fn read(self) -> ReadId {
        self.read
    }

    /// Offset of the k-mer within the read.
    #[inline]
    pub fn pos(self) -> u32 {
        self.pos_strand >> 1
    }

    /// Strand on which the canonical form was observed.
    #[inline]
    pub fn strand(self) -> Strand {
        Strand::from_u8((self.pos_strand & 1) as u8)
    }
}

impl fmt::Debug for Occurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Occurrence")
            .field("read", &self.read())
            .field("pos", &self.pos())
            .field("strand", &self.strand())
            .finish()
    }
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

    /// Bloom-pass promotion: make `kmer` resident with an empty occurrence
    /// list unless it is already. One table probe either way; `true` if
    /// the key was newly inserted.
    pub fn promote(&mut self, kmer: Kmer1) -> bool {
        match self.map.entry(kmer) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(KmerEntry::default());
                true
            }
        }
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

    /// The table's real footprint: the bytes its allocations hold, the
    /// hash buckets (one `(key, entry)` slot and one control byte each)
    /// and every occurrence list's allocated capacity, not just the
    /// entries in use. This is the per-rank working set fed to the cache
    /// model. The bucket count is recovered from the map's capacity under
    /// the standard map's 7/8 maximum load.
    pub fn memory_bytes(&self) -> u64 {
        let cap = self.map.capacity();
        let buckets = if cap == 0 { 0 } else { (cap * 8 / 7).next_power_of_two() };
        let slot = std::mem::size_of::<(Kmer1, KmerEntry)>() + 1;
        let occs: usize = self
            .map
            .values()
            .map(|e| e.occurrences.capacity() * std::mem::size_of::<Occurrence>())
            .sum();
        (buckets * slot + occs) as u64
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
        Occurrence::new(read, pos, Strand::Forward)
    }

    #[test]
    fn occurrences_only_for_resident_keys() {
        let mut t = KmerHashTable::with_capacity(8);
        let c = cfg(4);
        assert!(!t.record_occurrence(&km(b"ACGTA"), occ(0, 0), &c));
        assert!(t.promote(km(b"ACGTA")));
        assert!(t.record_occurrence(&km(b"ACGTA"), occ(0, 0), &c));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn promote_is_idempotent() {
        let mut t = KmerHashTable::with_capacity(8);
        assert!(t.promote(km(b"ACGTA")), "first promotion inserts");
        assert!(!t.promote(km(b"ACGTA")), "second finds it resident");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn filter_removes_singletons_and_repeats() {
        let mut t = KmerHashTable::with_capacity(8);
        let c = cfg(3);
        // Singleton (bloom false positive scenario).
        t.promote(km(b"AAAAA"));
        t.record_occurrence(&km(b"AAAAA"), occ(0, 0), &c);
        // Reliable: 3 occurrences.
        t.promote(km(b"CCCCC"));
        for i in 0..3 {
            t.record_occurrence(&km(b"CCCCC"), occ(i, i), &c);
        }
        // Repeat: 6 occurrences > m = 3.
        t.promote(km(b"GGGGG"));
        for i in 0..6 {
            t.record_occurrence(&km(b"GGGGG"), occ(i, i), &c);
        }
        // Key that never saw an occurrence (pure FP promotion).
        t.promote(km(b"TTTTT"));

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
        t.promote(km(b"ACGTA"));
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
            t.promote(random_key());
        }
        let screen = t.screen();
        assert!(t.iter().all(|(key, _)| screen.admits(key.hash64())), "a false negative");
        let absent: Vec<Kmer1> = (0..100_000).map(|_| random_key()).filter(|key| !t.contains(key)).collect();
        let passed = absent.iter().filter(|key| screen.admits(key.hash64())).count();
        assert!(passed * 50 < absent.len(), "{passed} of {} absent keys passed", absent.len());
    }

    #[test]
    fn memory_accounting_monotone() {
        // Allocations are counted, not entries: an empty table holds none,
        // a first key allocates buckets, a first occurrence a list.
        let mut t = KmerHashTable::default();
        let c = cfg(8);
        let m0 = t.memory_bytes();
        t.promote(km(b"ACGTA"));
        let m1 = t.memory_bytes();
        t.record_occurrence(&km(b"ACGTA"), occ(0, 0), &c);
        t.record_occurrence(&km(b"ACGTA"), occ(1, 0), &c);
        let m2 = t.memory_bytes();
        assert!(m0 == 0 && m0 < m1 && m1 < m2);
        let list = t.iter().next().unwrap().1.occurrences.capacity();
        assert!(list > 2, "the list holds more than it uses");
        assert_eq!(m2 - m1, 8 * list as u64);
    }

    #[test]
    fn occurrence_packs_strand_into_the_position_word() {
        let top = (1 << 31) - 1;
        for (read, pos, strand) in [(0, 0, Strand::Forward), (7, top, Strand::Reverse), (u32::MAX, 5, Strand::Reverse)] {
            let o = Occurrence::new(read, pos, strand);
            assert_eq!((o.read(), o.pos(), o.strand()), (read, pos, strand));
        }
        assert_ne!(Occurrence::new(1, 2, Strand::Forward), Occurrence::new(1, 2, Strand::Reverse));
    }

    #[test]
    #[should_panic(expected = "needs bit 31")]
    fn occurrence_position_needing_bit_31_is_refused() {
        let _ = Occurrence::new(0, 1 << 31, Strand::Forward);
    }
}
