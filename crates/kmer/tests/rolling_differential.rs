//! Differential sweep of the rolling extraction core against the naive
//! definition: every clean window of a sequence, spelled out with
//! `Kmer::from_ascii` and canonicalized with the O(k)
//! `reverse_complement`, in position order.
//!
//! The k list covers both ends of each width: k = 32·W has no slot `k`
//! for the reverse register to clear, k = 1 and 2 make slot `k − 1` the
//! top of word 0, and k = 33 puts a single base in the second word.

use dibella_kmer::{
    base, extract_kmers, kmer_count, minimizer_window_hits, minimizers, window_hits, Kmer,
    KmerHit, Strand,
};

const CASES: usize = 2_400;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every clean window, canonicalized the slow way.
fn naive<const W: usize>(seq: &[u8], k: usize) -> Vec<KmerHit<W>> {
    (0..kmer_count(seq.len(), k))
        .filter_map(|pos| {
            let (kmer, strand) = Kmer::<W>::from_ascii(&seq[pos..pos + k])?.canonical();
            Some(KmerHit { kmer, pos: pos as u32, strand })
        })
        .collect()
}

/// A dirty sequence of one of five shapes, chosen by `case`.
fn dirty_seq(rng: &mut XorShift, case: usize, k: usize) -> Vec<u8> {
    let len = match case % 5 {
        // Shorter than k (possibly empty): no window at all.
        0 => rng.below(k),
        _ => k + rng.below(3 * k + 40),
    };
    let mut seq: Vec<u8> = (0..len).map(|_| b"ACGTacgt"[rng.below(8)]).collect();
    match case % 5 {
        // Single ambiguous bases, some of them not `N`.
        1 => {
            for _ in 0..1 + len / 25 {
                seq[rng.below(len)] = b"NnX-"[rng.below(4)];
            }
        }
        // A run of `N` longer than k, somewhere inside (or hanging off
        // the end of) the sequence.
        2 => {
            let at = rng.below(len);
            for b in seq.iter_mut().skip(at).take(k + 1 + rng.below(k + 1)) {
                *b = b'N';
            }
        }
        // Half + reverse complement of the half: with an even k the
        // windows centred on the joint are their own reverse complement.
        3 => {
            let half: Vec<u8> = seq[..len / 2].to_vec();
            seq = half.clone();
            seq.extend(base::reverse_complement_ascii(&half));
        }
        _ => {}
    }
    seq
}

/// Run `CASES / ks.len()` cases per k; returns how many palindromic
/// windows the sweep compared.
fn sweep<const W: usize>(ks: &[usize], seed: u64) -> usize {
    let mut rng = XorShift(seed);
    let mut palindromes = 0;
    for case in 0..CASES {
        let k = ks[case % ks.len()];
        let seq = dirty_seq(&mut rng, case / ks.len(), k);
        let want = naive::<W>(&seq, k);
        let got = extract_kmers::<W>(&seq, k);
        assert_eq!(got, want, "W={W} k={k} case={case} seq={}", String::from_utf8_lossy(&seq));
        for h in &got {
            if h.kmer.reverse_complement() == h.kmer {
                palindromes += 1;
                assert_eq!(h.strand, Strand::Forward, "palindrome at {} of case {case}", h.pos);
            }
        }

        // Cutting the window range anywhere changes nothing: every cut
        // on each sixteenth case, three random cuts otherwise.
        let windows = kmer_count(seq.len(), k);
        let cuts: Vec<usize> = if case % 16 == 0 {
            (0..=windows).collect()
        } else {
            (0..3).map(|_| rng.below(windows + 1)).collect()
        };
        for cut in cuts {
            let mut glued: Vec<KmerHit<W>> = window_hits::<W>(&seq, k, 0, cut).collect();
            glued.extend(window_hits::<W>(&seq, k, cut, windows));
            assert_eq!(glued, want, "W={W} k={k} case={case} cut={cut}");
        }
    }
    palindromes
}

#[test]
fn one_word_rolling_core_matches_naive() {
    let palindromes = sweep::<1>(&[1, 2, 15, 17, 21, 31, 32], 0x0D1B_E11A);
    assert!(palindromes > 100, "weak sweep: only {palindromes} palindromic windows");
}

#[test]
fn two_word_rolling_core_matches_naive() {
    let palindromes = sweep::<2>(&[33, 40, 63, 64], 0x5EED_0002);
    assert!(palindromes > 20, "weak sweep: only {palindromes} palindromic windows");
}

#[test]
fn minimizer_cuts_concatenate_on_dirty_sequences() {
    let mut rng = XorShift(0xC0FF_EE11);
    let ks = [2usize, 15, 21, 32];
    for case in 0..400 {
        let k = ks[case % ks.len()];
        let w = 1 + rng.below(9);
        let seq = dirty_seq(&mut rng, case / ks.len(), k);
        let windows = kmer_count(seq.len(), k);
        let full = minimizers(&seq, k, w);
        // A subset of the extraction, in position order.
        let all = naive::<1>(&seq, k);
        let mut rest = all.iter();
        for m in &full {
            assert!(rest.any(|h| h == m), "k={k} w={w} case={case}: {m:?} not a window hit");
        }
        assert_eq!(full.is_empty(), all.is_empty(), "k={k} w={w} case={case}");
        for cut in 0..=windows {
            let mut glued = minimizer_window_hits(&seq, k, w, 0, cut);
            glued.extend(minimizer_window_hits(&seq, k, w, cut, windows));
            assert_eq!(glued, full, "k={k} w={w} case={case} cut={cut}");
        }
    }
}
