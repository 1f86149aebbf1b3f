//! Owner-run ("supermer") records: the wire format of the reliable k-mer
//! front end.
//!
//! Consecutive k-mers of a read share `k − 1` bases, so shipping each as a
//! stand-alone record moves every base `k` times. This module ships each
//! base about once: k-mers are routed by their **minimizer** — so that
//! neighbours mostly share an owner rank — and a maximal run of
//! consecutive k-mers with one owner travels as one record of 2-bit
//! bases, from which the owner re-rolls the k-mers.
//!
//! # The owner map
//!
//! [`owner`]`(x, P) = mix64(min over the k − m + 1 canonical m-mers of x
//! of mix64(m-mer word)) % P`. It is a function of the k-mer's own bases
//! alone, which gives it three properties the stages rely on:
//!
//! * **every occurrence of a k-mer meets at one rank** — the Bloom filter
//!   and the hash table stay partitioned by key;
//! * **strand symmetry** — a window and its reverse complement contain
//!   the same set of canonical m-mers, so the map can be evaluated on
//!   the read strand without canonicalizing the k-mer first;
//! * **no cut context** — unlike (w, k) minimizer *selection*
//!   ([`crate::minimizer_window_hits`], which needs `w − 1` windows of
//!   context on each side of a cut), the owner of a window never depends
//!   on its neighbours, so a batch or exchange-round boundary anywhere in
//!   a read changes which *records* are written but never which rank a
//!   k-mer goes to.
//!
//! The outer `mix64` is there because a minimum of hashes is biased
//! toward small values. `m` is a private constant, 11 clamped to `k`:
//! short enough that a run averages `(k − m + 2)/2` k-mers, long enough
//! that the most popular minimizers do not skew the owners (max/mean
//! k-mers per owner at P = 64 on random sequence is 1.03 / 1.05 / 1.06
//! for k = 17 / 21 / 31, against 1.10–1.16 at m = 9 and 1.34–1.66 at
//! m = 7; `tests/supermer.rs` pins it under 1.10).
//!
//! # The record
//!
//! ```text
//! read id u32 | start u32 | n u8 | ⌈(n + k − 1)/4⌉ bytes of 2-bit bases
//! ```
//!
//! little-endian, `1 ≤ n ≤ 255` k-mers starting at read positions
//! `start .. start + n`, bases most-significant-first within a byte
//! (unused low bits of the last byte are zero on write and ignored on
//! read). [`pack_runs`] writes them, [`supermers`] reads a buffer of them
//! back with a typed [`SupermerError`] for every malformed shape, and
//! [`Supermer::hits`] rolls the canonical [`KmerHit`] stream straight
//! from the 2-bit codes with the two-register update [`crate::KmerIter`]
//! uses — the same `(kmer, pos, strand)` triples, bit for bit.
//!
//! Any byte string is a valid base payload, so a flipped base byte decodes
//! to a different, well-formed k-mer: detecting *that* is the job of the
//! frame layer's CRC (`dibella_comm::frame`), not of this decoder.

use crate::base;
use crate::extract::KmerHit;
use crate::hash::mix64;
use crate::packed::{Kmer, Strand};
use std::fmt;

/// Length of the m-mers the owner map minimizes over (clamped to `k`).
const OWNER_M: usize = 11;

/// Largest k the packer's window-minimum ring is sized for ([`Kmer2`]'s
/// range).
///
/// [`Kmer2`]: crate::Kmer2
const MAX_K: usize = 64;

/// Bytes of a record's fixed header: read id, start, run length.
pub const HEADER_BYTES: usize = 9;

/// Most k-mers one record carries (its run length is one byte).
pub const MAX_RUN: usize = 255;

/// Bytes of a record carrying `n` k-mers of length `k`. A one-k-mer
/// record, `record_bytes(1, k)`, is the most a single window can cost on
/// the wire — what a byte-capped round is planned with.
#[inline]
pub fn record_bytes(n: usize, k: usize) -> usize {
    HEADER_BYTES + (n + k - 1).div_ceil(4)
}

/// Expected wire bytes per k-mer on random sequence routed to `ranks`
/// owners — a sizing hint for send buffers, not a bound. A minimizer
/// survives `(w + 1)/2` windows on average (`w = k − m + 1`), and
/// adjacent supermers merge into one run whenever they hash to the same
/// owner, i.e. with probability `1/ranks`.
pub fn expected_bytes_per_kmer(k: usize, ranks: usize) -> f64 {
    let w = (k - OWNER_M.min(k) + 1) as f64;
    let supermer = (w + 1.0) / 2.0;
    let run = match ranks {
        0 | 1 => MAX_RUN as f64,
        p => (supermer * p as f64 / (p - 1) as f64).min(MAX_RUN as f64),
    };
    (HEADER_BYTES as f64 + (run + k as f64 - 1.0) / 4.0) / run
}

/// The owner bucket of a minimizer hash.
#[inline]
fn bucket(min_hash: u64, ranks: usize) -> usize {
    debug_assert!(ranks > 0);
    (mix64(min_hash) % ranks as u64) as usize
}

/// Rolling hash of the canonical m-mer ending at the last pushed base:
/// forward and reverse-complement spellings in two registers, the
/// single-word case of [`crate::KmerIter`]'s update.
struct MmerRoll {
    fwd: u64,
    rc: u64,
    mask: u64,
    /// Bit position of the leftmost base slot of the reverse register.
    top: u32,
}

impl MmerRoll {
    fn new(m: usize) -> Self {
        debug_assert!((1..=32).contains(&m));
        Self { fwd: 0, rc: 0, mask: !0u64 >> (64 - 2 * m), top: 2 * (m as u32 - 1) }
    }

    /// Push one 2-bit code; the hash is meaningful once `m` codes are in.
    #[inline]
    fn push(&mut self, code: u8) -> u64 {
        self.fwd = ((self.fwd << 2) | code as u64) & self.mask;
        self.rc = (self.rc >> 2) | ((base::complement(code) as u64) << self.top);
        mix64(self.fwd.min(self.rc))
    }
}

/// Owner rank of `kmer` among `ranks` — the reference spelling of the map
/// in the module docs, O(k). [`pack_runs`] evaluates the same function
/// with a streaming window minimum; owners use this one to assert that
/// what arrives was routed to them.
pub fn owner<const W: usize>(kmer: &Kmer<W>, ranks: usize) -> usize {
    let m = OWNER_M.min(kmer.k());
    let mut roll = MmerRoll::new(m);
    let mut min = u64::MAX;
    for i in 0..kmer.k() {
        let h = roll.push(kmer.get_base(i));
        if i + 1 >= m {
            min = min.min(h);
        }
    }
    bucket(min, ranks)
}

/// Append one record to `buf`: the `n` k-mers of `seq` starting at
/// `start`, all of whose bases are clean.
fn write_record(buf: &mut Vec<u8>, read: u32, seq: &[u8], start: usize, n: usize, k: usize) {
    // Release-mode checks: a wrapped position or run length would decode
    // to well-formed k-mers at the wrong place.
    assert!(start + n - 1 <= u32::MAX as usize, "supermer position {start} + {n} does not fit u32");
    let start32 = start as u32;
    let n8 = u8::try_from(n).expect("supermer run longer than 255 k-mers");
    let bases = &seq[start..start + n + k - 1];
    buf.reserve(HEADER_BYTES + bases.len().div_ceil(4));
    buf.extend_from_slice(&read.to_le_bytes());
    buf.extend_from_slice(&start32.to_le_bytes());
    buf.push(n8);
    let code = |b: u8| base::CODES[b as usize];
    let mut quads = bases.chunks_exact(4);
    buf.extend(
        quads
            .by_ref()
            .map(|q| code(q[0]) << 6 | code(q[1]) << 4 | code(q[2]) << 2 | code(q[3])),
    );
    let rest = quads.remainder();
    if !rest.is_empty() {
        buf.push(rest.iter().enumerate().fold(0, |byte, (i, &b)| byte | code(b) << (6 - 2 * i)));
    }
}

/// Pack the k-mer windows of `seq` at positions `[lo, hi)` into
/// owner-run records, appending each to `bufs[owner]` (`bufs.len()` is
/// the rank count). Returns the number of k-mers packed — windows that
/// span an ambiguous base are skipped, as in [`crate::window_hits`].
///
/// One pass over bases `[lo, hi + k − 1)`: a rolling canonical m-mer hash
/// feeds a sliding minimum over the last `k − m + 1` m-mers, which is the
/// window's minimizer and hence its owner; a run is closed when the owner
/// changes, at an ambiguous base, at [`MAX_RUN`] k-mers and at `hi`.
/// Packing `[lo, c)` and `[c, hi)` separately therefore cuts one run in
/// two at `c` and changes nothing else: every k-mer keeps its owner, and
/// the decoded `(read, pos, kmer, strand)` stream is the same.
///
/// # Panics
/// Panics if `k` is 0 or above 64, or if a packed position does not fit
/// `u32`.
pub fn pack_runs(
    seq: &[u8],
    read: u32,
    k: usize,
    lo: usize,
    hi: usize,
    bufs: &mut [Vec<u8>],
) -> u64 {
    assert!((1..=MAX_K).contains(&k), "k = {k} out of range");
    let ranks = bufs.len();
    let m = OWNER_M.min(k);
    let w = k - m + 1;
    let end = hi.saturating_add(k - 1).min(seq.len());
    let begin = lo.min(end);

    let mut roll = MmerRoll::new(m);
    // The last `w` m-mer hashes of the current clean stretch; `slot` is
    // where the next one goes. `min` is their minimum once `w` are in,
    // `min_at` the stretch-local index of its latest occurrence.
    let mut ring = [0u64; MAX_K];
    let mut slot = 0usize;
    // Invariant: `dest == bucket(min, ranks)`.
    let unset_dest = bucket(u64::MAX, ranks);
    let mut min = u64::MAX;
    let mut min_at = 0usize;
    let mut dest = unset_dest;
    // Clean bases ending at the cursor.
    let mut filled = 0usize;
    // The open run: `run_n` k-mers from `run_start`, all owned by `run_dest`.
    let (mut run_start, mut run_n, mut run_dest) = (0usize, 0usize, 0usize);
    let mut packed = 0u64;

    for (i, &b) in seq[begin..end].iter().enumerate() {
        let code = base::CODES[b as usize];
        if code == base::AMBIGUOUS {
            if run_n > 0 {
                write_record(&mut bufs[run_dest], read, seq, run_start, run_n, k);
                run_n = 0;
            }
            filled = 0;
            slot = 0;
            (min, dest) = (u64::MAX, unset_dest);
            continue;
        }
        let h = roll.push(code);
        filled += 1;
        if filled < m {
            continue;
        }
        let j = filled - m;
        ring[slot] = h;
        slot = if slot + 1 == w { 0 } else { slot + 1 };
        if h <= min {
            if h < min {
                dest = bucket(h, ranks);
            }
            (min, min_at) = (h, j);
        } else if j - min_at >= w {
            // The minimum slid out: rescan, oldest first so that ties keep
            // the latest. `j ≥ w` here, so every slot is of this stretch.
            min = u64::MAX;
            for t in 0..w {
                let s = if slot + t >= w { slot + t - w } else { slot + t };
                if ring[s] <= min {
                    (min, min_at) = (ring[s], j + 1 - w + t);
                }
            }
            dest = bucket(min, ranks);
        }
        if filled < k {
            continue;
        }
        let pos = begin + i + 1 - k;
        if run_n > 0 && (dest != run_dest || run_n == MAX_RUN) {
            write_record(&mut bufs[run_dest], read, seq, run_start, run_n, k);
            run_n = 0;
        }
        if run_n == 0 {
            (run_start, run_dest) = (pos, dest);
        }
        run_n += 1;
        packed += 1;
    }
    if run_n > 0 {
        write_record(&mut bufs[run_dest], read, seq, run_start, run_n, k);
    }
    packed
}

/// Why a buffer is not a sequence of owner-run records. `offset` is the
/// byte offset of the offending record in the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupermerError {
    /// Fewer than [`HEADER_BYTES`] bytes are left — a cut header, or
    /// trailing bytes after the last record.
    TruncatedHeader {
        /// Where the header starts.
        offset: usize,
        /// Bytes left from there.
        have: usize,
    },
    /// The run length is zero.
    EmptyRun {
        /// Where the record starts.
        offset: usize,
    },
    /// `start + n − 1` does not fit the `u32` position of a k-mer hit.
    SpanOverflow {
        /// Where the record starts.
        offset: usize,
    },
    /// Fewer base bytes follow the header than `n + k − 1` bases need.
    TruncatedBases {
        /// Where the record starts.
        offset: usize,
        /// Base bytes the header calls for.
        need: usize,
        /// Base bytes left in the buffer.
        have: usize,
    },
}

impl fmt::Display for SupermerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::TruncatedHeader { offset, have } => write!(
                f,
                "record at byte {offset}: {have} bytes left, a header is {HEADER_BYTES}"
            ),
            Self::EmptyRun { offset } => write!(f, "record at byte {offset}: run of 0 k-mers"),
            Self::SpanOverflow { offset } => {
                write!(f, "record at byte {offset}: positions overflow u32")
            }
            Self::TruncatedBases { offset, need, have } => write!(
                f,
                "record at byte {offset}: {need} base bytes needed, {have} left"
            ),
        }
    }
}

impl std::error::Error for SupermerError {}

/// One decoded record: `len()` consecutive k-mers of read `read` starting
/// at position `start`, as 2-bit bases.
#[derive(Clone, Copy, Debug)]
pub struct Supermer<'a> {
    /// Global id of the read the run was cut from.
    pub read: u32,
    /// Read position of the run's first k-mer.
    pub start: u32,
    n: usize,
    k: usize,
    bases: &'a [u8],
}

impl<'a> Supermer<'a> {
    /// k-mers in the run (1 ..= [`MAX_RUN`]).
    #[allow(clippy::len_without_is_empty)] // a decoded run is never empty
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// The run's canonical k-mer hits in position order — exactly what
    /// [`crate::KmerIter`] yields for those windows of the read.
    ///
    /// # Panics
    /// Panics if the `k` the buffer was decoded with exceeds `32·W`.
    #[inline]
    pub fn hits<const W: usize>(&self) -> SupermerHits<'a, W> {
        let fwd = Kmer::<W>::from_packed_bases(self.bases, self.k);
        SupermerHits {
            bases: self.bases,
            next: self.k,
            left: self.n,
            pos: self.start,
            fwd,
            rc: fwd.reverse_complement(),
            mask: Kmer::<W>::slot_mask(self.k),
        }
    }
}

/// Iterator over the k-mer hits of one [`Supermer`]. Holds the current
/// window in the two registers of [`crate::KmerIter`]: the first is loaded
/// whole from the packed bases, each later one costs one shift-and-insert
/// per register.
pub struct SupermerHits<'a, const W: usize> {
    bases: &'a [u8],
    /// Index of the base that completes the window after the current one.
    next: usize,
    /// Hits still to yield, the current window included.
    left: usize,
    /// Read position of the current window.
    pos: u32,
    fwd: Kmer<W>,
    rc: Kmer<W>,
    mask: [u64; W],
}

impl<const W: usize> Iterator for SupermerHits<'_, W> {
    type Item = KmerHit<W>;

    #[inline]
    fn next(&mut self) -> Option<KmerHit<W>> {
        if self.left == 0 {
            return None;
        }
        // A palindromic window (forward == reverse) is Forward.
        let (kmer, strand) = if self.fwd <= self.rc {
            (self.fwd, Strand::Forward)
        } else {
            (self.rc, Strand::Reverse)
        };
        let hit = KmerHit { kmer, pos: self.pos, strand };
        self.left -= 1;
        if self.left > 0 {
            let code = (self.bases[self.next / 4] >> (6 - 2 * (self.next % 4))) & 3;
            self.fwd.push_right(code);
            self.rc.push_left(base::complement(code), &self.mask);
            self.next += 1;
            self.pos += 1;
        }
        Some(hit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Decode `buf` as a sequence of owner-run records of k-mer length `k`.
/// Yields each record, or one [`SupermerError`] and then nothing: the
/// stream always ends, and a record it yields is safe to roll
/// ([`Supermer::hits`] reads only bytes the decoder has bounds-checked).
///
/// # Panics
/// Panics if `k == 0`.
#[inline]
pub fn supermers(buf: &[u8], k: usize) -> Supermers<'_> {
    assert!(k >= 1, "k = 0");
    Supermers { buf, offset: 0, k }
}

/// Iterator returned by [`supermers`].
pub struct Supermers<'a> {
    buf: &'a [u8],
    offset: usize,
    k: usize,
}

impl<'a> Supermers<'a> {
    #[inline]
    fn parse(&self) -> Result<(Supermer<'a>, usize), SupermerError> {
        let offset = self.offset;
        let rest = &self.buf[offset..];
        let Some((header, body)) = rest.split_first_chunk::<HEADER_BYTES>() else {
            return Err(SupermerError::TruncatedHeader { offset, have: rest.len() });
        };
        let read = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let start = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let n = header[8] as usize;
        if n == 0 {
            return Err(SupermerError::EmptyRun { offset });
        }
        if start.checked_add(n as u32 - 1).is_none() {
            return Err(SupermerError::SpanOverflow { offset });
        }
        let need = (n + self.k - 1).div_ceil(4);
        let Some(bases) = body.get(..need) else {
            return Err(SupermerError::TruncatedBases { offset, need, have: body.len() });
        };
        Ok((Supermer { read, start, n, k: self.k, bases }, offset + HEADER_BYTES + need))
    }
}

impl<'a> Iterator for Supermers<'a> {
    type Item = Result<Supermer<'a>, SupermerError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.buf.len() {
            return None;
        }
        match self.parse() {
            Ok((record, next)) => {
                self.offset = next;
                Some(Ok(record))
            }
            Err(e) => {
                self.offset = self.buf.len();
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_kmers, kmer_count};
    use crate::packed::Kmer1;

    fn seq(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn runs_are_maximal_and_capped() {
        // One destination: nothing ends a run but the cap and the end.
        let s = seq(700, 11);
        let k = 21usize;
        let mut bufs = vec![Vec::new()];
        pack_runs(&s, 0, k, 0, kmer_count(s.len(), k), &mut bufs);
        let lens: Vec<usize> = supermers(&bufs[0], k).map(|r| r.unwrap().len()).collect();
        assert_eq!(lens, vec![255, 255, 170]);
        assert_eq!(bufs[0].len(), 2 * record_bytes(255, k) + record_bytes(170, k));
    }

    #[test]
    fn malformed_buffers_are_typed_errors() {
        let k = 9usize;
        let mut bufs = vec![Vec::new()];
        pack_runs(b"ACGTTGCAGGTATTTACG", 1, k, 0, 10, &mut bufs);
        let good = bufs.pop().unwrap();
        assert_eq!(good.len(), record_bytes(10, k));
        let errs = |buf: &[u8]| supermers(buf, k).filter_map(Result::err).collect::<Vec<_>>();
        assert!(errs(&good).is_empty());

        assert_eq!(errs(&good[..5]), [SupermerError::TruncatedHeader { offset: 0, have: 5 }]);
        assert_eq!(
            errs(&good[..good.len() - 1]),
            [SupermerError::TruncatedBases { offset: 0, need: 5, have: 4 }]
        );
        let mut trailing = good.clone();
        trailing.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            errs(&trailing),
            [SupermerError::TruncatedHeader { offset: good.len(), have: 3 }]
        );
        let mut empty = good.clone();
        empty[8] = 0;
        assert_eq!(errs(&empty), [SupermerError::EmptyRun { offset: 0 }]);
        let mut far = good.clone();
        far[4..8].copy_from_slice(&(u32::MAX - 3).to_le_bytes());
        assert_eq!(errs(&far), [SupermerError::SpanOverflow { offset: 0 }]);
        // The stream stops at the first error.
        assert_eq!(supermers(&trailing, k).count(), 2);
        assert!(errs(&good).is_empty() && !format!("{}", errs(&empty)[0]).is_empty());
    }

    #[test]
    fn expected_bytes_match_random_sequence() {
        let s = seq(200_000, 21);
        for (k, ranks) in [(21usize, 2usize), (21, 64), (17, 2)] {
            let mut bufs = vec![Vec::new(); ranks];
            let packed = pack_runs(&s, 0, k, 0, kmer_count(s.len(), k), &mut bufs);
            let bytes: usize = bufs.iter().map(Vec::len).sum();
            let measured = bytes as f64 / packed as f64;
            let model = expected_bytes_per_kmer(k, ranks);
            assert!(
                (measured / model - 1.0).abs() < 0.15,
                "k={k} ranks={ranks}: measured {measured:.2} B/k-mer, model {model:.2}"
            );
            assert!(measured < 4.0);
        }
    }

    #[test]
    fn decoder_rolls_multiword_kmers() {
        let s = seq(300, 8);
        let k = 40usize;
        let mut bufs = vec![Vec::new(); 3];
        pack_runs(&s, 0, k, 0, kmer_count(s.len(), k), &mut bufs);
        let mut got: Vec<KmerHit<2>> = bufs
            .iter()
            .flat_map(|b| supermers(b, k))
            .flat_map(|r| r.unwrap().hits::<2>())
            .collect();
        got.sort_by_key(|h| h.pos);
        assert_eq!(got, extract_kmers::<2>(&s, k));
    }

    #[test]
    fn kmer1_owner_matches_naive_definition() {
        // min over canonical m-mers, spelled with from_ascii.
        let s = seq(120, 77);
        let k = 17usize;
        for pos in 0..=s.len() - k {
            let window = &s[pos..pos + k];
            let min = (0..=k - OWNER_M)
                .map(|i| {
                    let (c, _) = Kmer1::from_ascii(&window[i..i + OWNER_M]).unwrap().canonical();
                    mix64(c.words()[0] >> (64 - 2 * OWNER_M))
                })
                .min()
                .unwrap();
            let kmer = Kmer1::from_ascii(window).unwrap().canonical().0;
            assert_eq!(owner(&kmer, 64), (mix64(min) % 64) as usize);
        }
    }
}
