//! k-mer extraction from reads.
//!
//! A read of length `L` is parsed into its `L − k + 1` overlapping k-mers
//! (paper §2, Figure 2b) with an O(1) rolling update per position — two
//! shift-and-insert register updates, independent of k. Each
//! yielded k-mer is *canonical* (min of forward and reverse-complement
//! spelling) together with its position in the read and the strand on which
//! the canonical form was observed — exactly the location metadata that the
//! hash-table stage (§7) communicates and stores.
//!
//! Ambiguous bases (`N` etc.) break the window: no k-mer spanning them is
//! produced, and extraction resumes after the offending base.

use crate::base;
use crate::packed::{Kmer, Strand};

/// A single k-mer occurrence within a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerHit<const W: usize> {
    /// Canonical packed k-mer.
    pub kmer: Kmer<W>,
    /// 0-based offset of the k-mer's first base within the read.
    pub pos: u32,
    /// Strand on which the canonical spelling appears.
    pub strand: Strand,
}

/// Iterator over the canonical k-mers of one sequence — the one rolling
/// core behind [`extract_kmers`], [`window_hits`], the minimizer selection
/// and the k-mer stages' packer.
///
/// Keeps the window's forward and reverse-complement spellings in two
/// registers and updates both per base in O(W) word operations, whatever
/// `k` is (minimap2's two shift-and-mask updates): the base enters the
/// forward register on the right, its complement enters the reverse
/// register on the left.
pub struct KmerIter<'a, const W: usize> {
    seq: &'a [u8],
    k: usize,
    /// Index of the *next* base to consume.
    next: usize,
    /// Consecutive clean bases ending at `next`; a window is complete
    /// once it reaches `k`.
    filled: usize,
    fwd: Kmer<W>,
    rc: Kmer<W>,
    /// `Kmer::slot_mask(k)`, hoisted out of the per-base update.
    mask: [u64; W],
}

impl<'a, const W: usize> KmerIter<'a, W> {
    /// Create an extractor for `seq` with k-mer length `k`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > 32·W`.
    pub fn new(seq: &'a [u8], k: usize) -> Self {
        assert!(k >= 1 && k <= Kmer::<W>::MAX_K, "k = {k} out of range");
        Self {
            seq,
            k,
            next: 0,
            filled: 0,
            fwd: Kmer::zero(k as u16),
            rc: Kmer::zero(k as u16),
            mask: Kmer::<W>::slot_mask(k),
        }
    }
}

impl<'a, const W: usize> Iterator for KmerIter<'a, W> {
    type Item = KmerHit<W>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while let Some(&b) = self.seq.get(self.next) {
            self.next += 1;
            let code = base::CODES[b as usize];
            if code == base::AMBIGUOUS {
                // Ambiguity breaks the window. The registers are not
                // cleared: the k pushes it takes `filled` to reach k again
                // shift every stale base out of both of them.
                self.filled = 0;
                continue;
            }
            self.fwd.push_right(code);
            self.rc.push_left(base::complement(code), &self.mask);
            self.filled += 1;
            if self.filled >= self.k {
                let pos = (self.next - self.k) as u32;
                // A palindromic window (forward == reverse) is Forward.
                let (kmer, strand) = if self.fwd <= self.rc {
                    (self.fwd, Strand::Forward)
                } else {
                    (self.rc, Strand::Reverse)
                };
                return Some(KmerHit { kmer, pos, strand });
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len().saturating_sub(self.next);
        // At most one k-mer per remaining base plus possibly one in-flight.
        (0, Some(remaining + 1))
    }
}

/// Convenience: collect all canonical k-mer hits of `seq`.
pub fn extract_kmers<const W: usize>(seq: &[u8], k: usize) -> Vec<KmerHit<W>> {
    KmerIter::<W>::new(seq, k).collect()
}

/// Number of k-mers a clean read of length `len` yields (`L − k + 1`, or 0).
#[inline]
pub fn kmer_count(len: usize, k: usize) -> usize {
    (len + 1).saturating_sub(k)
}

/// Canonical k-mer hits of `seq` whose **window position** (0-based first
/// base) falls in `[lo, hi)`, with positions relative to the full `seq`.
///
/// This is the restriction of `KmerIter::new(seq, k)` to a position range:
/// extracting `[0, w0)`, `[w0, w1)`, … and concatenating yields exactly the
/// full extraction, because a window at position `p ∈ [lo, hi)` spans bases
/// `[p, p + k)` ⊆ `[lo, hi + k − 1)`, and an ambiguous base voids the
/// window the same way whether or not the flanking bases are in view. That
/// decomposability is what lets the k-mer stages shard a read's windows
/// across batches (and across exchange rounds) deterministically.
pub fn window_hits<const W: usize>(
    seq: &[u8],
    k: usize,
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = KmerHit<W>> + '_ {
    let end = hi.saturating_add(k - 1).min(seq.len());
    let start = lo.min(end);
    KmerIter::<W>::new(&seq[start..end], k).map(move |mut h| {
        h.pos += start as u32;
        h
    })
}

/// Prefix-sum index over the k-mer **windows** of a read set: read `i`
/// owns the contiguous global window range `[prefix[i], prefix[i+1])`,
/// where the count is the clean-read formula [`kmer_count`]`(len_i, k)`.
///
/// Stages use it to treat "all k-mer windows of all local reads" as one
/// flat index space that can be cut anywhere — at exchange-round
/// boundaries (so the per-round byte cap holds even mid-read) and again
/// into fixed-size executor batches (so threading never changes the
/// decomposition). Reads with ambiguous bases yield *fewer hits* than
/// windows; the index bounds the work, [`window_hits`] yields the truth.
#[derive(Clone, Debug)]
pub struct WindowIndex {
    /// `prefix[i]` = total windows of reads `0..i`; length `n_reads + 1`.
    prefix: Vec<u64>,
    k: usize,
}

impl WindowIndex {
    /// Build the index from the read lengths, in read order.
    pub fn new<I: IntoIterator<Item = usize>>(lens: I, k: usize) -> Self {
        let mut prefix = vec![0u64];
        let mut total = 0u64;
        for len in lens {
            total += kmer_count(len, k) as u64;
            prefix.push(total);
        }
        Self { prefix, k }
    }

    /// Total windows over all reads (the end of the global index space).
    pub fn total_windows(&self) -> u64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// The k this index was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Decompose the global window range `[lo, hi)` into per-read pieces
    /// `(read_index, pos_lo, pos_hi)` with read-local window positions,
    /// in read order. Empty for an empty or out-of-range request.
    pub fn pieces(&self, lo: u64, hi: u64) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let hi = hi.min(self.total_windows());
        let lo = lo.min(hi);
        // First read whose range ends after `lo`.
        let first = self.prefix.partition_point(|&p| p <= lo).saturating_sub(1);
        let mut read = first;
        let mut cursor = lo;
        std::iter::from_fn(move || {
            while cursor < hi {
                let begin = self.prefix[read];
                let end = self.prefix[read + 1];
                if end <= cursor {
                    // Skip zero-window reads (shorter than k).
                    read += 1;
                    continue;
                }
                let piece_lo = (cursor - begin) as usize;
                let piece_hi = (end.min(hi) - begin) as usize;
                cursor = end.min(hi);
                let r = read;
                read += 1;
                return Some((r, piece_lo, piece_hi));
            }
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::Kmer1;

    fn naive_extract(seq: &[u8], k: usize) -> Vec<KmerHit<1>> {
        let mut out = Vec::new();
        for start in 0..=(seq.len().saturating_sub(k)) {
            if seq.len() < k {
                break;
            }
            let window = &seq[start..start + k];
            if let Some(kmer) = Kmer1::from_ascii(window) {
                let (canon, strand) = kmer.canonical();
                out.push(KmerHit {
                    kmer: canon,
                    pos: start as u32,
                    strand,
                });
            }
        }
        out
    }

    #[test]
    fn matches_naive_on_clean_sequence() {
        let seq = b"ACGTTGCAGGTATTTACGCAGGAT";
        for k in [3usize, 5, 11, 17] {
            assert_eq!(extract_kmers::<1>(seq, k), naive_extract(seq, k), "k={k}");
        }
    }

    #[test]
    fn count_matches_formula() {
        let seq = b"ACGTTGCAGGTATTTACGCAGGAT";
        let hits = extract_kmers::<1>(seq, 17);
        assert_eq!(hits.len(), kmer_count(seq.len(), 17));
    }

    #[test]
    fn ambiguous_bases_break_window() {
        let seq = b"ACGTNACGTT";
        let hits = extract_kmers::<1>(seq, 4);
        // Only the two flanks yield k-mers: positions 0 and 5..=6.
        let positions: Vec<u32> = hits.iter().map(|h| h.pos).collect();
        assert_eq!(positions, vec![0, 5, 6]);
        assert_eq!(hits, naive_extract(seq, 4));
    }

    #[test]
    fn short_sequences_yield_nothing() {
        assert!(extract_kmers::<1>(b"ACG", 4).is_empty());
        assert!(extract_kmers::<1>(b"", 4).is_empty());
        assert_eq!(kmer_count(3, 4), 0);
    }

    #[test]
    fn canonical_hits_are_strand_symmetric() {
        // Extracting from a read and from its reverse complement yields the
        // same multiset of canonical k-mers.
        let seq = b"ACGTTGCAGGTATTTACGCAGGATAGCAGATT";
        let rc = crate::base::reverse_complement_ascii(seq);
        let mut a: Vec<Kmer1> = extract_kmers::<1>(seq, 9).into_iter().map(|h| h.kmer).collect();
        let mut b: Vec<Kmer1> = extract_kmers::<1>(&rc, 9).into_iter().map(|h| h.kmer).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn window_hits_restrict_full_extraction() {
        // Any cut of the window range reproduces the full extraction when
        // concatenated — including across an ambiguous base.
        for seq in [&b"ACGTTGCAGGTATTTACGCAGGAT"[..], &b"ACGTNACGTTGCAGNGTAT"[..]] {
            for k in [3usize, 5, 7] {
                let full = extract_kmers::<1>(seq, k);
                let windows = kmer_count(seq.len(), k);
                for cut in 0..=windows {
                    let mut glued: Vec<KmerHit<1>> =
                        window_hits::<1>(seq, k, 0, cut).collect();
                    glued.extend(window_hits::<1>(seq, k, cut, windows));
                    assert_eq!(glued, full, "k={k} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn window_index_pieces_cover_exactly() {
        let k = 5usize;
        let lens = [10usize, 3, 8, 5, 20]; // read 1 has zero windows
        let idx = WindowIndex::new(lens.iter().copied(), k);
        assert_eq!(idx.k(), k);
        let per_read: Vec<usize> = lens.iter().map(|&l| kmer_count(l, k)).collect();
        let total: usize = per_read.iter().sum();
        assert_eq!(idx.total_windows(), total as u64);

        // Every [lo, hi) decomposes into in-order, contiguous, in-bounds
        // pieces whose sizes sum to hi − lo.
        for lo in 0..=total as u64 {
            for hi in lo..=total as u64 {
                let mut covered = 0u64;
                let mut last_read = None;
                for (r, plo, phi) in idx.pieces(lo, hi) {
                    assert!(plo < phi, "empty piece");
                    assert!(phi <= per_read[r], "piece out of read bounds");
                    if let Some(prev) = last_read {
                        assert!(r > prev, "pieces out of read order");
                    }
                    last_read = Some(r);
                    covered += (phi - plo) as u64;
                }
                assert_eq!(covered, hi - lo, "range [{lo}, {hi})");
            }
        }
        // Out-of-range requests clamp instead of panicking.
        assert_eq!(idx.pieces(total as u64 + 5, total as u64 + 9).count(), 0);
    }

    #[test]
    fn multiword_extraction_matches_naive() {
        let seq: Vec<u8> = (0..120).map(|i| b"ACGT"[(i * 13 + 1) % 4]).collect();
        let k = 40usize;
        let fast = extract_kmers::<2>(&seq, k);
        // Naive with Kmer2.
        let mut naive = Vec::new();
        for start in 0..=(seq.len() - k) {
            let kmer = Kmer::<2>::from_ascii(&seq[start..start + k]).unwrap();
            let (canon, strand) = kmer.canonical();
            naive.push(KmerHit { kmer: canon, pos: start as u32, strand });
        }
        assert_eq!(fast, naive);
    }
}
