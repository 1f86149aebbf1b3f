//! Tests that pin the owner-run wire format (`dibella_kmer::supermer`):
//! the choice of the owner map's m-mer length, the map's symmetries, the
//! cut-invariance of what a packed buffer decodes to, and the decoder's
//! behaviour on hostile bytes.

use dibella_kmer::supermer::{owner, pack_runs, record_bytes, supermers, MAX_RUN};
use dibella_kmer::{base, extract_kmers, kmer_count, window_hits, Kmer1, KmerHit, KmerIter};
use proptest::prelude::*;

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

    fn dna(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| b"ACGT"[self.below(4)]).collect()
    }
}

/// `seq` with an `N` every `step` bases.
fn dirtied(mut seq: Vec<u8>, step: usize) -> Vec<u8> {
    for i in (step..seq.len()).step_by(step) {
        seq[i] = b'N';
    }
    seq
}

/// Everything the per-destination buffers decode to, as
/// `(read, destination, hit)` in `(read, position)` order.
fn decode(bufs: &[Vec<u8>], k: usize) -> Vec<(u32, usize, KmerHit<1>)> {
    let mut out = Vec::new();
    for (dest, buf) in bufs.iter().enumerate() {
        for record in supermers(buf, k) {
            let record = record.expect("packed buffers decode");
            out.extend(record.hits::<1>().map(|h| (record.read, dest, h)));
        }
    }
    out.sort_by_key(|&(read, _, h)| (read, h.pos));
    out
}

/// The owner map must spread k-mers evenly: max/mean k-mers per owner
/// ≤ 1.10 on random sequence for every (k, P) the pipeline is run at.
/// This guards the m-mer length: at P = 64, m = 11 measures 1.03–1.06
/// here, m = 9 1.10–1.16 and m = 7 1.34–1.66 (a few popular minimizers
/// own too much).
#[test]
fn owner_load_is_balanced() {
    let seq = XorShift(0x0B5E_55ED).dna(6_000_000);
    for k in [17usize, 21, 31] {
        let windows = kmer_count(seq.len(), k);
        for ranks in [2usize, 16, 64] {
            let mut bufs = vec![Vec::new(); ranks];
            assert_eq!(pack_runs(&seq, 0, k, 0, windows, &mut bufs), windows as u64);
            let per_owner: Vec<u64> = bufs
                .iter()
                .map(|b| supermers(b, k).map(|r| r.expect("decodes").len() as u64).sum())
                .collect();
            assert_eq!(per_owner.iter().sum::<u64>(), windows as u64);
            let max = *per_owner.iter().max().expect("ranks > 0") as f64;
            let imbalance = max / (windows as f64 / ranks as f64);
            // And the point of the format: well under the 8 bytes of one
            // stand-alone packed k-mer, per k-mer.
            let bytes: usize = bufs.iter().map(Vec::len).sum();
            eprintln!(
                "k={k} P={ranks}: max/mean k-mers per owner {imbalance:.3}, {:.2} B per k-mer",
                bytes as f64 / windows as f64
            );
            assert!(imbalance <= 1.10, "k={k} P={ranks}: max/mean k-mers per owner {imbalance:.3}");
            assert!(bytes < 4 * windows, "k={k} P={ranks}: {bytes} B for {windows} k-mers");
        }
    }
}

/// Hostile bytes at the wire boundary: a packed buffer that is truncated,
/// has a bit flipped or has a foreign slice spliced in decodes to a typed
/// error or to a well-formed stream — every hit k bases long and inside
/// its record's span, the stream ending — never a panic, an
/// out-of-bounds read or a hang. (A flipped *base* byte is a different
/// valid k-mer by design; the frame CRC is what catches that.)
#[test]
fn mutated_buffers_decode_to_an_error_or_a_well_formed_stream() {
    let mut rng = XorShift(0xBAD_B17E5);
    let (mut errors, mut streams) = (0u32, 0u32);
    for case in 0..1_500usize {
        let k = [7usize, 17, 21, 32][case % 4];
        let step = 17 + case % 5;
        let len = 40 + rng.below(600);
        let seq = dirtied(rng.dna(len), step);
        let mut bufs = vec![Vec::new(); 1 + case % 3];
        pack_runs(&seq, case as u32, k, 0, kmer_count(seq.len(), k), &mut bufs);
        let mut buf = bufs.swap_remove(0);
        if buf.is_empty() {
            continue;
        }
        match case % 3 {
            0 => buf.truncate(rng.below(buf.len())),
            1 => {
                let bit = rng.below(8 * buf.len());
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            _ => {
                let at = rng.below(buf.len());
                let foreign: Vec<u8> = (0..1 + rng.below(24)).map(|_| rng.next() as u8).collect();
                buf.splice(at..at, foreign);
            }
        }

        let mut consumed = 0usize;
        let mut failed = false;
        for record in supermers(&buf, k) {
            assert!(!failed, "the stream must stop at its first error");
            match record {
                Err(_) => failed = true,
                Ok(record) => {
                    let n = record.len();
                    assert!((1..=MAX_RUN).contains(&n));
                    consumed += record_bytes(n, k);
                    assert!(consumed <= buf.len(), "record past the end of the buffer");
                    let mut hits = 0usize;
                    for (i, hit) in record.hits::<1>().enumerate() {
                        assert_eq!(hit.kmer.k(), k);
                        assert_eq!(hit.pos as u64, record.start as u64 + i as u64);
                        hits += 1;
                    }
                    assert_eq!(hits, n);
                }
            }
        }
        assert!(failed || consumed == buf.len(), "a clean stream consumes the whole buffer");
        if failed {
            errors += 1;
        } else {
            streams += 1;
        }
    }
    // Both outcomes must actually occur, or the harness tests nothing.
    assert!(errors > 200 && streams > 200, "{errors} errors, {streams} well-formed streams");
}

/// A clean DNA sequence with an `N` every 17–21 bases, some of them
/// shorter than any k used below.
fn dirty_read() -> impl Strategy<Value = Vec<u8>> {
    (prop::collection::vec(prop::sample::select(b"ACGTacgt".to_vec()), 0..260), 17usize..22)
        .prop_map(|(seq, step)| dirtied(seq, step))
}

proptest! {
    /// The owner of a window read off the reverse-complemented read is the
    /// owner of the window itself.
    #[test]
    fn owner_is_strand_symmetric(
        seq in prop::collection::vec(prop::sample::select(b"ACGT".to_vec()), 32..160),
        ki in 0usize..3,
        ranks in 1usize..70,
    ) {
        let k = [7usize, 17, 32][ki];
        let rc = base::reverse_complement_ascii(&seq);
        let windows = kmer_count(seq.len(), k);
        let fwd = extract_kmers::<1>(&seq, k);
        let rev = extract_kmers::<1>(&rc, k);
        for (p, hit) in fwd.iter().enumerate() {
            let mirror = &rev[windows - 1 - p];
            prop_assert_eq!(hit.kmer, mirror.kmer);
            // From the canonical k-mer, and from either strand's spelling.
            let spelled = Kmer1::from_ascii(&seq[p..p + k]).unwrap();
            let o = owner(&hit.kmer, ranks);
            prop_assert_eq!(o, owner(&spelled, ranks));
            prop_assert_eq!(o, owner(&spelled.reverse_complement(), ranks));
        }
        // And the streaming packer routes both strands' windows alike.
        let mut a = vec![Vec::new(); ranks];
        let mut b = vec![Vec::new(); ranks];
        pack_runs(&seq, 0, k, 0, windows, &mut a);
        pack_runs(&rc, 0, k, 0, windows, &mut b);
        let (a, b) = (decode(&a, k), decode(&b, k));
        for (p, &(_, dest, hit)) in a.iter().enumerate() {
            let (_, mirror_dest, mirror) = b[windows - 1 - p];
            prop_assert_eq!(hit.kmer, mirror.kmer);
            prop_assert_eq!(dest, mirror_dest);
            prop_assert_eq!(dest, owner(&hit.kmer, ranks));
        }
    }

    /// Packing `[0, c)` and `[c, n)` separately, for every cut `c`,
    /// decodes to the `(read, pos, kmer, strand)` stream `KmerIter` yields
    /// over the whole read, with every k-mer at its owner — a batch or
    /// round boundary cuts records, never routes.
    #[test]
    fn every_cut_decodes_to_the_uncut_stream(seq in dirty_read(), ki in 0usize..3, ranks in 1usize..9) {
        let k = [7usize, 17, 32][ki]; // k = 7 is the m == k regime
        let windows = kmer_count(seq.len(), k);
        let want: Vec<KmerHit<1>> = KmerIter::<1>::new(&seq, k).collect();
        for cut in 0..=windows {
            let mut bufs = vec![Vec::new(); ranks];
            let head = pack_runs(&seq, 77, k, 0, cut, &mut bufs);
            let tail = pack_runs(&seq, 77, k, cut, windows, &mut bufs);
            prop_assert_eq!(head as usize, window_hits::<1>(&seq, k, 0, cut).count());
            prop_assert_eq!((head + tail) as usize, want.len());
            let got = decode(&bufs, k);
            prop_assert_eq!(got.len(), want.len());
            for (&(read, dest, hit), w) in got.iter().zip(&want) {
                prop_assert_eq!(read, 77);
                prop_assert_eq!(hit, *w);
                prop_assert_eq!(dest, owner(&hit.kmer, ranks));
            }
        }
    }

    /// One destination, one pack: the decoder's stream is `extract_kmers`
    /// bit for bit, in order, with no sorting in between.
    #[test]
    fn decoder_stream_equals_extract_kmers(seq in dirty_read(), k in 1usize..33) {
        let mut bufs = vec![Vec::new()];
        pack_runs(&seq, 3, k, 0, kmer_count(seq.len(), k), &mut bufs);
        let got: Vec<KmerHit<1>> = supermers(&bufs[0], k)
            .flat_map(|r| r.expect("decodes").hits::<1>())
            .collect();
        prop_assert_eq!(got, extract_kmers::<1>(&seq, k));
    }
}
