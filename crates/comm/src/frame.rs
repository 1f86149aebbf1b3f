//! The hardened exchange frame: magic, sequence number, length, CRC32.
//!
//! A world that injects faults into its byte exchanges
//! ([`crate::TransportKind::Faulty`]) cannot assume a round payload
//! arrives intact, exactly once, or at all. In such a world the
//! communicator wraps every per-destination round payload in a fixed
//! 20-byte header:
//!
//! ```text
//! offset  size  field
//!      0     4  magic   0xD1BE11A5 (little-endian)
//!      4     8  seq     per-rank exchange sequence number
//!     12     4  len     payload bytes
//!     16     4  crc     CRC-32 (IEEE) over seq ‖ len ‖ payload
//!     20     …  payload
//! ```
//!
//! The CRC covers the sequence and length fields as well as the payload,
//! so a single bit flip *anywhere* in the frame is detected: a flip in the
//! magic fails the magic check, a flip in seq/len/payload fails the CRC,
//! and a flip in the CRC field itself no longer matches the recomputed
//! value (see `crates/comm/tests/frame_prop.rs` for the exhaustive
//! property test). Truncation is caught by the length field; stale
//! replays (duplicates of an earlier round) are caught by the sequence
//! number, which both sides derive from their local collective-call count
//! — the SPMD contract guarantees the counts agree.
//!
//! The CRC-32 implementation is in-repo (standard reflected IEEE
//! polynomial, table-driven) — the workspace builds offline and takes no
//! new dependencies.

/// First four bytes of every hardened frame.
pub const FRAME_MAGIC: u32 = 0xD1BE_11A5;

/// Bytes of the frame header preceding the payload.
pub const FRAME_HEADER_BYTES: usize = 20;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Fold `data` into a running CRC-32 state. Start from
/// [`CRC_INIT`](crc32_init) and finish with [`crc32_finish`]; or use
/// [`crc32`] for the one-shot form.
#[inline]
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ CRC_TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// Initial CRC-32 state (all ones).
#[inline]
pub fn crc32_init() -> u32 {
    0xFFFF_FFFF
}

/// Finalize a CRC-32 state (bitwise complement).
#[inline]
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// One-shot CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_update(crc32_init(), data))
}

/// Why a received frame was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the fixed header — truncated in flight.
    Truncated {
        /// Bytes actually received.
        got: usize,
    },
    /// The magic bytes did not match — garbage or a foreign protocol.
    BadMagic {
        /// The first word as received.
        got: u32,
    },
    /// The header's length field disagrees with the received byte count.
    LengthMismatch {
        /// Payload length the header claims.
        claimed: u32,
        /// Payload bytes actually present.
        got: usize,
    },
    /// The CRC-32 over seq ‖ len ‖ payload did not match.
    BadCrc {
        /// Checksum carried by the frame.
        claimed: u32,
        /// Checksum recomputed from the received bytes.
        computed: u32,
    },
    /// A structurally valid frame carrying the wrong sequence number —
    /// a stale replay (duplicate of an earlier round) when
    /// `got < expected`.
    WrongSeq {
        /// Sequence number the frame carries.
        got: u64,
        /// Sequence number of the round being received.
        expected: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FrameError::Truncated { got } => {
                write!(f, "frame truncated: {got} bytes < {FRAME_HEADER_BYTES}-byte header")
            }
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:#010x} (expected {FRAME_MAGIC:#010x})")
            }
            FrameError::LengthMismatch { claimed, got } => {
                write!(f, "frame length mismatch: header claims {claimed} payload bytes, got {got}")
            }
            FrameError::BadCrc { claimed, computed } => {
                write!(f, "frame CRC mismatch: carried {claimed:#010x}, computed {computed:#010x}")
            }
            FrameError::WrongSeq { got, expected } => {
                write!(f, "frame sequence {got} does not match expected round {expected}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC over the covered header fields (seq, len) followed by the payload.
fn frame_crc(seq: u64, len: u32, payload: &[u8]) -> u32 {
    let mut state = crc32_init();
    state = crc32_update(state, &seq.to_le_bytes());
    state = crc32_update(state, &len.to_le_bytes());
    state = crc32_update(state, payload);
    crc32_finish(state)
}

/// Wrap `payload` in a hardened frame for round `seq`.
///
/// # Panics
/// Panics if the payload exceeds `u32::MAX` bytes (a single round buffer
/// that large would have been split by the round cap long before).
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("round payload exceeds u32::MAX bytes");
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&frame_crc(seq, len, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a received frame against `expected_seq` and return its payload.
///
/// Checks run in order: header presence, magic, length, CRC, sequence —
/// so a corrupt frame reports the earliest structural failure and only a
/// bit-exact replay of an *earlier* round reaches [`FrameError::WrongSeq`].
pub fn decode_frame(buf: &[u8], expected_seq: u64) -> Result<&[u8], FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated { got: buf.len() });
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
    let magic = word(0);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    let seq = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let len = word(12);
    let crc = word(16);
    let payload = &buf[FRAME_HEADER_BYTES..];
    if len as usize != payload.len() {
        return Err(FrameError::LengthMismatch { claimed: len, got: payload.len() });
    }
    let computed = frame_crc(seq, len, payload);
    if crc != computed {
        return Err(FrameError::BadCrc { claimed: crc, computed });
    }
    if seq != expected_seq {
        return Err(FrameError::WrongSeq { got: seq, expected: expected_seq });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut state = crc32_init();
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(crc32_finish(state), crc32(data));
    }

    #[test]
    fn frame_round_trip() {
        for payload in [&b""[..], b"x", &vec![0xAB; 1000][..]] {
            let frame = encode_frame(42, payload);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
            assert_eq!(decode_frame(&frame, 42), Ok(payload));
        }
    }

    #[test]
    fn detects_truncation_and_garbage() {
        let frame = encode_frame(7, b"hello world");
        // Every proper prefix fails (short prefixes as Truncated, longer
        // ones as LengthMismatch).
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut], 7).is_err(), "prefix {cut} accepted");
        }
        assert!(matches!(decode_frame(&[], 7), Err(FrameError::Truncated { got: 0 })));
        assert!(matches!(
            decode_frame(&[0u8; FRAME_HEADER_BYTES], 7),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn detects_stale_sequence() {
        let frame = encode_frame(3, b"payload");
        assert_eq!(
            decode_frame(&frame, 9),
            Err(FrameError::WrongSeq { got: 3, expected: 9 })
        );
    }

    #[test]
    fn single_bit_flip_always_detected() {
        // Exhaustive over a small frame; the proptest suite covers
        // arbitrary payloads.
        let frame = encode_frame(11, b"some round payload");
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad, 11).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn error_messages_render() {
        let e = FrameError::BadCrc { claimed: 1, computed: 2 };
        assert!(e.to_string().contains("CRC"));
        let e = FrameError::WrongSeq { got: 1, expected: 2 };
        assert!(e.to_string().contains("sequence"));
    }
}
