//! Bloom filter used to drop singleton k-mers (paper §6).
//!
//! "A Bloom filter is an array of bits that uses multiple hash functions on
//! each element to set bits in the array ... it may allow false positives,
//! but does not contain false negatives." diBELLA builds a *distributed*
//! Bloom filter — each rank holds the partition for the k-mers it owns
//! (routing by k-mer hash happens before insertion), so the local structure
//! here plus owner routing in `dibella-kcount` reproduces the design.
//!
//! Up to 98 % of long-read k-mers are singletons, so filtering them before
//! hash-table construction is the pipeline's key memory optimization.
//!
//! Bits are dispersed with the Kirsch–Mitzenmacher double-hashing family
//! over a single 64-bit input hash: `h_i(x) = h1(x) + i·h2(x)`.

/// A fixed-size Bloom filter over pre-hashed 64-bit keys.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Bit-index mask (`capacity_bits − 1`; capacity is a power of two).
    mask: u64,
    n_hashes: u32,
    n_inserted: u64,
}

impl BloomFilter {
    /// Create a filter with at least `min_bits` capacity (rounded up to a
    /// power of two) and `n_hashes` probes per key.
    ///
    /// # Panics
    /// Panics if `n_hashes == 0`.
    pub fn with_bits(min_bits: usize, n_hashes: u32) -> Self {
        assert!(n_hashes > 0, "need at least one hash function");
        let bits = min_bits.next_power_of_two().max(64);
        Self {
            bits: vec![0u64; bits / 64],
            mask: bits as u64 - 1,
            n_hashes,
            n_inserted: 0,
        }
    }

    /// Size a filter for `expected_items` keys at the target false-positive
    /// rate, using the standard optima `m = −n·ln p / (ln 2)²` and
    /// `h = (m/n)·ln 2`.
    pub fn for_items(expected_items: u64, fp_rate: f64) -> Self {
        assert!(expected_items > 0);
        assert!((0.0..1.0).contains(&fp_rate) && fp_rate > 0.0);
        let ln2 = std::f64::consts::LN_2;
        let m = -(expected_items as f64) * fp_rate.ln() / (ln2 * ln2);
        let h = ((m / expected_items as f64) * ln2).round().clamp(1.0, 16.0);
        Self::with_bits(m.ceil() as usize, h as u32)
    }

    /// Capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.bits.len() * 64
    }

    /// Number of probe hashes per key.
    pub fn n_hashes(&self) -> u32 {
        self.n_hashes
    }

    /// Number of `insert` calls so far.
    pub fn n_inserted(&self) -> u64 {
        self.n_inserted
    }

    /// Heap footprint in bytes (the quantity the paper's streaming design
    /// bounds).
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Insert a key; returns `true` if the key was (apparently) already
    /// present — i.e. every probed bit was set before this insert.
    ///
    /// That return value drives the paper's promotion rule: a k-mer whose
    /// second sighting hits the Bloom filter is inserted into the hash
    /// table (§6: "If a k-mer was already present, it is also inserted into
    /// the local hash table partition").
    ///
    /// The probe step is mixed once and added per probe, and each probed
    /// word is read, tested and written back unconditionally: at the design
    /// fill of ½ a "set it only if clear" branch is a coin flip per probe.
    #[inline]
    pub fn insert(&mut self, hash: u64) -> bool {
        let step = probe_step(hash);
        let mut idx = hash;
        let mut already = true;
        for _ in 0..self.n_hashes {
            let at = idx & self.mask;
            let (word, bit) = ((at / 64) as usize, 1u64 << (at % 64));
            let old = self.bits[word];
            already &= old & bit != 0;
            self.bits[word] = old | bit;
            idx = idx.wrapping_add(step);
        }
        self.n_inserted += 1;
        already
    }

    /// Query without modifying. Guaranteed `true` for every previously
    /// inserted key (no false negatives); may be `true` for absent keys
    /// with probability ≈ the design false-positive rate.
    #[inline]
    pub fn contains(&self, hash: u64) -> bool {
        let step = probe_step(hash);
        let mut idx = hash;
        (0..self.n_hashes).all(|_| {
            let at = idx & self.mask;
            idx = idx.wrapping_add(step);
            self.bits[(at / 64) as usize] & (1u64 << (at % 64)) != 0
        })
    }

    /// Fraction of set bits — diagnostic for sizing (≈ ½ at design load).
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.capacity_bits() as f64
    }

    /// Release the bit array (the paper frees the Bloom filter once the
    /// hash table is initialized).
    pub fn clear_and_shrink(&mut self) {
        self.bits = Vec::new();
        self.mask = 63;
        self.n_inserted = 0;
    }
}

/// The odd step `h2(x)` of the double-hashing probe family: probe `i` of a
/// key is `hash + i·h2`. Matches `dibella_kmer::hash::double_hash` (kept
/// local so the crate stands alone).
#[inline]
fn probe_step(hash: u64) -> u64 {
    let mut x = hash ^ 0xA076_1D64_78BD_642F;
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(x: u64) -> u64 {
        // splitmix64 for test key generation
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The insert this filter shipped with: the step re-mixed for every
    /// probe, the bit written only when clear. Kept as the oracle.
    fn insert_reference(bits: &mut [u64], mask: u64, n_hashes: u32, hash: u64) -> bool {
        let mut already = true;
        for i in 0..n_hashes as u64 {
            let idx = hash.wrapping_add(i.wrapping_mul(probe_step(hash))) & mask;
            let (word, bit) = ((idx / 64) as usize, 1u64 << (idx % 64));
            if bits[word] & bit == 0 {
                already = false;
                bits[word] |= bit;
            }
        }
        already
    }

    /// Same bits, same return values as the reference loop — on a filter
    /// driven well past its design load (so both answers occur) and on one
    /// that stays sparse, with repeats among the keys.
    #[test]
    fn insert_matches_the_reference_loop() {
        for (min_bits, n_hashes) in [(1usize << 16, 7u32), (1 << 22, 4)] {
            let mut bf = BloomFilter::with_bits(min_bits, n_hashes);
            let mut bits = vec![0u64; bf.bits.len()];
            let (mut seen, mut fresh) = (0u32, 0u32);
            for x in 0..120_000u64 {
                let key = mix(x % 90_000);
                let want = insert_reference(&mut bits, bf.mask, n_hashes, key);
                assert_eq!(bf.insert(key), want, "key {x} in a {min_bits}-bit filter");
                assert!(bf.contains(key));
                seen += want as u32;
                fresh += !want as u32;
            }
            assert_eq!(bf.bits, bits, "{min_bits}-bit filter");
            assert!(seen >= 30_000 && fresh > 0, "{seen} hits, {fresh} misses");
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::for_items(10_000, 0.01);
        for x in 0..10_000u64 {
            bf.insert(mix(x));
        }
        for x in 0..10_000u64 {
            assert!(bf.contains(mix(x)), "lost key {x}");
        }
    }

    #[test]
    fn false_positive_rate_near_design() {
        let mut bf = BloomFilter::for_items(20_000, 0.01);
        for x in 0..20_000u64 {
            bf.insert(mix(x));
        }
        let fps = (20_000..120_000u64).filter(|&x| bf.contains(mix(x))).count();
        let rate = fps as f64 / 100_000.0;
        // Power-of-two rounding can only make the filter bigger (better).
        assert!(rate < 0.02, "fp rate {rate}");
    }

    #[test]
    fn insert_reports_second_sighting() {
        let mut bf = BloomFilter::for_items(1000, 0.001);
        assert!(!bf.insert(mix(42)));
        assert!(bf.insert(mix(42)));
        assert_eq!(bf.n_inserted(), 2);
    }

    #[test]
    fn sizing_formulas() {
        let bf = BloomFilter::for_items(1_000_000, 0.01);
        // Optimal m ≈ 9.59 Mbit → next power of two = 16 Mbit.
        assert_eq!(bf.capacity_bits(), 16 * 1024 * 1024);
        assert!((6..=8).contains(&bf.n_hashes()));
        assert_eq!(bf.memory_bytes(), bf.capacity_bits() / 8);
    }

    #[test]
    fn fill_ratio_grows() {
        let mut bf = BloomFilter::with_bits(1 << 12, 4);
        assert_eq!(bf.fill_ratio(), 0.0);
        for x in 0..500u64 {
            bf.insert(mix(x));
        }
        let r = bf.fill_ratio();
        assert!(r > 0.1 && r < 0.6, "fill {r}");
    }

    #[test]
    fn clear_releases_memory() {
        let mut bf = BloomFilter::with_bits(1 << 16, 4);
        bf.insert(1);
        bf.clear_and_shrink();
        assert_eq!(bf.memory_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one hash")]
    fn zero_hashes_rejected() {
        let _ = BloomFilter::with_bits(64, 0);
    }
}
