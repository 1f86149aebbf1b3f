//! 2-bit packed k-mer storage.
//!
//! The paper (§3) stores each k-mer character with 2 bits and sizes the
//! k-mer representation at compile time ("typically set to 32 bits or the
//! nearest larger power of two"). We mirror that with a const-generic word
//! count: [`Kmer<W>`] packs up to `32 * W` bases into `W` little-endian
//! `u64` words. [`Kmer1`] (k ≤ 32) covers the paper's k ∈ [11, 21]; longer
//! seeds use [`Kmer2`].
//!
//! Bases are stored most-significant-first within the logical k-mer so that
//! the integer ordering of equal-length k-mers equals lexicographic ordering
//! of their ASCII spellings — a property both the tests and the DALIGNER-
//! style sort-merge baseline rely on.

use crate::base;
use std::fmt;

/// A 2-bit packed k-mer occupying `W` 64-bit words (k ≤ 32·W).
///
/// `Kmer` stores only the packed bases plus the length `k`; ownership,
/// counts and read provenance live in the distributed hash table
/// (`dibella-kcount`). Equality and hashing include `k`, so k-mers of
/// different lengths never collide logically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer<const W: usize> {
    /// Packed bases; word 0 holds the *most significant* (leftmost) bases.
    words: [u64; W],
    /// Number of bases (1 ..= 32*W).
    k: u16,
}

/// Single-word k-mer, k ≤ 32 — the representation used throughout diBELLA
/// for its typical 17-mers.
pub type Kmer1 = Kmer<1>;
/// Two-word k-mer, k ≤ 64 — for short-read-style 51-mers (related-work
/// comparisons) and stress tests.
pub type Kmer2 = Kmer<2>;

impl<const W: usize> Kmer<W> {
    /// Maximum supported k for this width.
    pub const MAX_K: usize = 32 * W;

    /// Build a k-mer from a clean ASCII slice (all bases in `ACGTacgt`).
    ///
    /// Returns `None` if the slice is empty, longer than [`Self::MAX_K`],
    /// or contains an ambiguous base.
    pub fn from_ascii(seq: &[u8]) -> Option<Self> {
        if seq.is_empty() || seq.len() > Self::MAX_K {
            return None;
        }
        let mut kmer = Self::zero(seq.len() as u16);
        for (i, &b) in seq.iter().enumerate() {
            kmer.set_base(i, base::encode(b)?);
        }
        Some(kmer)
    }

    /// An all-`A` k-mer of length `k` (the zero point of the packing).
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > Self::MAX_K`.
    pub fn zero(k: u16) -> Self {
        assert!(
            k >= 1 && (k as usize) <= Self::MAX_K,
            "k = {k} out of range 1..={}",
            Self::MAX_K
        );
        Self { words: [0u64; W], k }
    }

    /// The k-mer length.
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Raw packed words (word 0 = most significant bases).
    #[inline]
    pub fn words(&self) -> &[u64; W] {
        &self.words
    }

    /// Reconstruct from raw words (inverse of [`Self::words`]); used by the
    /// wire codecs in `dibella-comm` consumers.
    ///
    /// # Panics
    /// Panics if `k` is out of range, or if bits above position `2k` are
    /// set (which would break `Eq`/`Hash` canonical form).
    pub fn from_words(words: [u64; W], k: u16) -> Self {
        let _ = Self::zero(k); // validates k
        let mask = Self::slot_mask(k as usize);
        assert!(
            (0..W).all(|w| words[w] & !mask[w] == 0),
            "stray bits beyond k = {k} in from_words"
        );
        Self { words, k }
    }

    /// Per-word mask of the bits that base slots `0..k` occupy. Every
    /// `Kmer` keeps the bits outside it zero — what `Eq`/`Hash` and the
    /// rolling updates below rely on.
    #[inline]
    pub(crate) fn slot_mask(k: usize) -> [u64; W] {
        std::array::from_fn(|w| match k.saturating_sub(32 * w).min(32) {
            0 => 0,
            bases => !0u64 << (64 - 2 * bases),
        })
    }

    /// Bit position (word, shift) of base index `i` (0 = leftmost base).
    ///
    /// Base 0 occupies the two *highest* bits of word 0, so integer order
    /// equals lexicographic order.
    #[inline]
    fn slot(i: usize) -> (usize, u32) {
        let word = i / 32;
        let within = i % 32;
        (word, (62 - 2 * within) as u32)
    }

    /// 2-bit code of the base at position `i` (0-based from the left).
    #[inline]
    pub fn get_base(&self, i: usize) -> u8 {
        debug_assert!(i < self.k());
        let (w, s) = Self::slot(i);
        ((self.words[w] >> s) & 3) as u8
    }

    /// Set the base at position `i` to the 2-bit `code`.
    #[inline]
    pub fn set_base(&mut self, i: usize, code: u8) {
        debug_assert!(i < self.k());
        debug_assert!(code <= 3);
        let (w, s) = Self::slot(i);
        self.words[w] = (self.words[w] & !(3u64 << s)) | ((code as u64 & 3) << s);
    }

    /// Rolling extension: drop the leftmost base, append `code` on the
    /// right — the step that parses a read of length L into its L − k + 1
    /// k-mers (paper §3). O(W) word operations whatever `k` is: one
    /// multi-word shift and one OR, because slot `k − 1` receives the
    /// (always zero) contents of slot `k` and so needs no clearing.
    #[inline]
    pub fn roll_left(&self, code: u8) -> Self {
        let mut out = *self;
        out.push_right(code);
        out
    }

    /// In-place [`Self::roll_left`].
    #[inline]
    pub(crate) fn push_right(&mut self, code: u8) {
        debug_assert!(code <= 3);
        for w in 0..W {
            let carry = if w + 1 < W { self.words[w + 1] >> 62 } else { 0 };
            self.words[w] = (self.words[w] << 2) | carry;
        }
        let (w, s) = Self::slot(self.k() - 1);
        self.words[w] |= (code as u64) << s;
    }

    /// The mirror of [`Self::push_right`], for a register that tracks the
    /// reverse complement of a rolling window: drop the rightmost base,
    /// prepend `code` on the left. Every base moves one slot right, so the
    /// old base `k − 1` lands in slot `k` and is cleared by `mask`
    /// ([`Self::slot_mask`] of this k, hoisted by the caller) — or falls
    /// off the last word when `k = 32·W` and slot `k` does not exist.
    #[inline]
    pub(crate) fn push_left(&mut self, code: u8, mask: &[u64; W]) {
        debug_assert!(code <= 3);
        for w in (0..W).rev() {
            let carry = if w > 0 { self.words[w - 1] << 62 } else { 0 };
            self.words[w] = ((self.words[w] >> 2) | carry) & mask[w];
        }
        self.words[0] |= (code as u64) << 62;
    }

    /// The reverse complement of this k-mer, in O(W) word operations:
    /// complement every bit (base codes complement as `code ^ 3`), reverse
    /// the 2-bit groups of the whole `W`-word register — which moves the
    /// k bases from its top to its bottom, under the complemented padding
    /// — and shift them back up to the top.
    pub fn reverse_complement(&self) -> Self {
        const PAIRS: u64 = 0x3333_3333_3333_3333;
        const NIBBLES: u64 = 0x0F0F_0F0F_0F0F_0F0F;
        let reversed: [u64; W] = std::array::from_fn(|w| {
            let x = !self.words[W - 1 - w];
            let x = ((x >> 2) & PAIRS) | ((x & PAIRS) << 2);
            let x = ((x >> 4) & NIBBLES) | ((x & NIBBLES) << 4);
            x.swap_bytes()
        });
        let shift = 64 * W - 2 * self.k();
        let (skip, bits) = (shift / 64, (shift % 64) as u32);
        let words = std::array::from_fn(|w| {
            let hi = reversed.get(w + skip).map_or(0, |&x| x << bits);
            let lo = match bits {
                0 => 0,
                _ => reversed.get(w + skip + 1).map_or(0, |&x| x >> (64 - bits)),
            };
            hi | lo
        });
        Self { words, k: self.k }
    }

    /// The k-mer spelled by the first `k` bases of `bytes`, packed four
    /// to a byte most-significant-first (the layout of a word, so a word
    /// is eight bytes read big-endian).
    ///
    /// # Panics
    /// Panics if `k` is out of range or `bytes` holds fewer than `k` bases.
    pub(crate) fn from_packed_bases(bytes: &[u8], k: usize) -> Self {
        let _ = Self::zero(k as u16); // validates k
        assert!(4 * bytes.len() >= k, "{} bytes hold fewer than {k} bases", bytes.len());
        let mask = Self::slot_mask(k);
        let words = std::array::from_fn(|w| {
            let mut word = [0u8; 8];
            let chunk = bytes.get(8 * w..).unwrap_or_default();
            let n = chunk.len().min(8);
            word[..n].copy_from_slice(&chunk[..n]);
            u64::from_be_bytes(word) & mask[w]
        });
        Self { words, k: k as u16 }
    }

    /// The canonical form: the lexicographic minimum of the k-mer and its
    /// reverse complement. Both strands of a genomic location map to the
    /// same canonical k-mer, which is what the distributed Bloom filter and
    /// hash table key on.
    pub fn canonical(&self) -> (Self, Strand) {
        let rc = self.reverse_complement();
        if *self <= rc {
            (*self, Strand::Forward)
        } else {
            (rc, Strand::Reverse)
        }
    }

    /// ASCII spelling of the k-mer.
    pub fn to_ascii(&self) -> Vec<u8> {
        (0..self.k()).map(|i| base::decode(self.get_base(i))).collect()
    }

    /// Owner rank of this k-mer among `p` ranks: `hash % p`, the uniform
    /// load-balancing map of paper §4 ("k-mers are mapped to processors
    /// uniformly at random via hashing").
    #[inline]
    pub fn owner(&self, p: usize) -> usize {
        debug_assert!(p > 0);
        (crate::hash::kmer_hash_words(&self.words, self.k as u64) % p as u64) as usize
    }

    /// 64-bit hash of the k-mer (strong finalizer; see `crate::hash`).
    #[inline]
    pub fn hash64(&self) -> u64 {
        crate::hash::kmer_hash_words(&self.words, self.k as u64)
    }
}

/// Which strand of the read a canonical k-mer was observed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strand {
    /// The k-mer equals its spelling in the read.
    Forward,
    /// The canonical form is the reverse complement of the read spelling.
    Reverse,
}

impl Strand {
    /// `Forward` ↔ `Reverse`.
    #[inline]
    pub fn flip(self) -> Self {
        match self {
            Strand::Forward => Strand::Reverse,
            Strand::Reverse => Strand::Forward,
        }
    }

    /// Encode as one byte for wire formats.
    #[inline]
    pub fn as_u8(self) -> u8 {
        match self {
            Strand::Forward => 0,
            Strand::Reverse => 1,
        }
    }

    /// Decode from [`Self::as_u8`]; any nonzero value is `Reverse`.
    #[inline]
    pub fn from_u8(v: u8) -> Self {
        if v == 0 {
            Strand::Forward
        } else {
            Strand::Reverse
        }
    }
}

impl<const W: usize> fmt::Debug for Kmer<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kmer({})", String::from_utf8_lossy(&self.to_ascii()))
    }
}

impl<const W: usize> fmt::Display for Kmer<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", String::from_utf8_lossy(&self.to_ascii()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trip() {
        let k = Kmer1::from_ascii(b"ACGTACGTACGTACGTA").unwrap();
        assert_eq!(k.k(), 17);
        assert_eq!(k.to_ascii(), b"ACGTACGTACGTACGTA".to_vec());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Kmer1::from_ascii(b"").is_none());
        assert!(Kmer1::from_ascii(b"ACGN").is_none());
        assert!(Kmer1::from_ascii(&[b'A'; 33]).is_none());
        assert!(Kmer2::from_ascii(&[b'A'; 33]).is_some());
        assert!(Kmer2::from_ascii(&[b'A'; 65]).is_none());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Kmer1::from_ascii(b"AAAT").unwrap();
        let b = Kmer1::from_ascii(b"AACA").unwrap();
        let c = Kmer1::from_ascii(b"TAAA").unwrap();
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn reverse_complement_matches_ascii_path() {
        let k = Kmer1::from_ascii(b"AACGTTGCA").unwrap();
        let rc = k.reverse_complement();
        assert_eq!(
            rc.to_ascii(),
            crate::base::reverse_complement_ascii(b"AACGTTGCA")
        );
        assert_eq!(rc.reverse_complement(), k);
    }

    #[test]
    fn reverse_complement_crosses_word_boundaries() {
        // Both ends of each width, a lone base in the second word, and
        // the packed-base loader the supermer decoder starts a run with.
        let seq: Vec<u8> = (0..64).map(|i| b"ACGT"[(i * 11 + i / 5 + 2) % 4]).collect();
        for k in [1usize, 2, 31, 32, 33, 40, 63, 64] {
            let kmer = Kmer2::from_ascii(&seq[..k]).unwrap();
            let rc = kmer.reverse_complement();
            assert_eq!(rc.to_ascii(), crate::base::reverse_complement_ascii(&seq[..k]), "k={k}");
            assert_eq!(rc.reverse_complement(), kmer, "k={k}");
            let packed: Vec<u8> = seq
                .chunks(4)
                .map(|q| q.iter().fold(0, |b, &c| b << 2 | crate::base::encode(c).unwrap()))
                .collect();
            assert_eq!(Kmer2::from_packed_bases(&packed, k), kmer, "k={k}");
        }
    }

    #[test]
    fn canonical_is_strand_invariant() {
        let fwd = Kmer1::from_ascii(b"GATTACAGATTACAACA").unwrap();
        let rc = fwd.reverse_complement();
        let (c1, s1) = fwd.canonical();
        let (c2, s2) = rc.canonical();
        assert_eq!(c1, c2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn roll_left_matches_from_ascii() {
        let seq = b"ACGTTGCAGGTATTTACGC";
        let k = 7usize;
        let mut cur = Kmer1::from_ascii(&seq[0..k]).unwrap();
        for start in 1..=(seq.len() - k) {
            let code = crate::base::encode(seq[start + k - 1]).unwrap();
            cur = cur.roll_left(code);
            assert_eq!(cur, Kmer1::from_ascii(&seq[start..start + k]).unwrap());
        }
    }

    #[test]
    fn roll_left_multiword_crosses_word_boundary() {
        // k = 40 spans both words of a Kmer2.
        let seq: Vec<u8> = (0..50).map(|i| b"ACGT"[(i * 7 + 3) % 4]).collect();
        let k = 40usize;
        let mut cur = Kmer2::from_ascii(&seq[0..k]).unwrap();
        for start in 1..=(seq.len() - k) {
            let code = crate::base::encode(seq[start + k - 1]).unwrap();
            cur = cur.roll_left(code);
            assert_eq!(cur, Kmer2::from_ascii(&seq[start..start + k]).unwrap());
        }
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        let k = Kmer1::from_ascii(b"ACGTACGTACGTACGTA").unwrap();
        for p in 1..100 {
            assert!(k.owner(p) < p);
        }
        assert_eq!(k.owner(16), k.owner(16));
    }

    #[test]
    fn from_words_round_trip_and_validation() {
        let k = Kmer1::from_ascii(b"TTGCA").unwrap();
        let rebuilt = Kmer1::from_words(*k.words(), 5);
        assert_eq!(rebuilt, k);
    }

    #[test]
    #[should_panic(expected = "stray bits")]
    fn from_words_rejects_stray_bits() {
        // Bits set at base position 5 with k = 5 must be rejected.
        let _ = Kmer1::from_words([!0u64], 5);
    }

    #[test]
    fn strand_round_trip() {
        assert_eq!(Strand::from_u8(Strand::Forward.as_u8()), Strand::Forward);
        assert_eq!(Strand::from_u8(Strand::Reverse.as_u8()), Strand::Reverse);
        assert_eq!(Strand::Forward.flip(), Strand::Reverse);
    }
}
