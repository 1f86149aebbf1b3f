//! DNA base (nucleotide) encoding.
//!
//! diBELLA's four-letter alphabet `{A, C, G, T}` is stored with 2 bits per
//! base (paper §3). The encoding is chosen so that complementation is
//! `3 - code` (equivalently `code ^ 3`), which lets reverse complements be
//! computed with pure bit arithmetic in [`crate::Kmer::reverse_complement`].

/// 2-bit code for `A`.
pub const A: u8 = 0;
/// 2-bit code for `C`.
pub const C: u8 = 1;
/// 2-bit code for `G`.
pub const G: u8 = 2;
/// 2-bit code for `T`.
pub const T: u8 = 3;

/// The value [`CODES`] holds for every byte that is not a nucleotide.
pub(crate) const AMBIGUOUS: u8 = 4;

/// ASCII byte → 2-bit code, [`AMBIGUOUS`] for everything but `ACGTacgt`.
/// One load per base instead of a compare chain: the k-mer extractor
/// encodes every base of every read twice per run (Bloom pass, hash pass).
pub(crate) const CODES: [u8; 256] = {
    let mut t = [AMBIGUOUS; 256];
    let mut code = 0;
    while code < 4 {
        t[b"ACGT"[code] as usize] = code as u8;
        t[b"acgt"[code] as usize] = code as u8;
        code += 1;
    }
    t
};

/// Encode an ASCII nucleotide to its 2-bit code.
///
/// Accepts upper- and lower-case `ACGT`. Every other byte (including `N`)
/// returns `None`; callers such as the k-mer extractor treat those positions
/// as window breaks, exactly as ambiguous bases are skipped by k-mer based
/// overlappers.
#[inline]
pub fn encode(b: u8) -> Option<u8> {
    match CODES[b as usize] {
        AMBIGUOUS => None,
        code => Some(code),
    }
}

/// Decode a 2-bit code back to its upper-case ASCII nucleotide.
///
/// # Panics
/// Panics in debug builds if `code > 3`; in release the low two bits are
/// used.
#[inline]
pub fn decode(code: u8) -> u8 {
    debug_assert!(code <= 3, "invalid 2-bit base code {code}");
    b"ACGT"[(code & 3) as usize]
}

/// Complement of a 2-bit code (`A`↔`T`, `C`↔`G`).
#[inline]
pub fn complement(code: u8) -> u8 {
    code ^ 3
}

/// Complement of an ASCII nucleotide, preserving case for `ACGT` input.
///
/// Non-nucleotide bytes are returned unchanged so that sequences containing
/// `N` survive a round trip.
#[inline]
pub fn complement_ascii(b: u8) -> u8 {
    match b {
        b'A' => b'T',
        b'C' => b'G',
        b'G' => b'C',
        b'T' => b'A',
        b'a' => b't',
        b'c' => b'g',
        b'g' => b'c',
        b't' => b'a',
        other => other,
    }
}

/// Reverse-complement an ASCII sequence into a new vector.
pub fn reverse_complement_ascii(seq: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    reverse_complement_ascii_into(seq, &mut out);
    out
}

/// Reverse-complement an ASCII sequence into a caller-owned buffer
/// (cleared first). Allocation-free once `out` has capacity for the
/// longest sequence seen — the hot-path form the alignment stage uses to
/// orient reads without a per-task allocation.
pub fn reverse_complement_ascii_into(seq: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend(seq.iter().rev().map(|&b| complement_ascii(b)));
}

/// Returns `true` if every byte of `seq` is an unambiguous nucleotide.
pub fn is_clean(seq: &[u8]) -> bool {
    seq.iter().all(|&b| encode(b).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for (i, &b) in b"ACGT".iter().enumerate() {
            assert_eq!(encode(b), Some(i as u8));
            assert_eq!(decode(i as u8), b);
        }
        for (i, &b) in b"acgt".iter().enumerate() {
            assert_eq!(encode(b), Some(i as u8));
        }
    }

    #[test]
    fn ambiguous_bases_are_rejected() {
        for b in [b'N', b'n', b'X', b'-', b'U', b'\n', 0u8] {
            assert_eq!(encode(b), None);
        }
        assert!(!is_clean(b"ACGTN"));
        assert!(is_clean(b"ACGTacgt"));
    }

    #[test]
    fn complement_is_involution() {
        for code in 0..4u8 {
            assert_eq!(complement(complement(code)), code);
        }
        assert_eq!(complement(A), T);
        assert_eq!(complement(C), G);
    }

    #[test]
    fn reverse_complement_ascii_matches_manual() {
        assert_eq!(reverse_complement_ascii(b"ACGT"), b"ACGT".to_vec());
        assert_eq!(reverse_complement_ascii(b"AACGTT"), b"AACGTT".to_vec());
        assert_eq!(reverse_complement_ascii(b"AAAC"), b"GTTT".to_vec());
        assert_eq!(reverse_complement_ascii(b"ANT"), b"ANT".to_vec());
    }
}
