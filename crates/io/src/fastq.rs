//! FASTQ and FASTA parsing and writing.
//!
//! The input to diBELLA is a FASTQ file of long reads (paper §4). The
//! parser here is streaming (works over any `BufRead`), validates record
//! structure, and is reused by both the whole-file loader and the
//! block-partitioned parallel loader in [`crate::partition`].

use crate::read::{Read, ReadId, ReadSet};
use std::io::{self, BufRead, Write};

/// Errors produced while parsing sequence files.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid record, with a 1-based line number and message.
    Malformed {
        /// 1-based line number where the problem was detected.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Malformed { line, msg } => {
                write!(f, "malformed record at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Reads must be shorter than this many bases: the overlap stage's seed
/// records keep a seed's orientation in bit 31 of its position.
pub const MAX_READ_BASES: usize = 1 << 31;

/// Check a sequence of `bases` bases, read at `line`, against
/// [`MAX_READ_BASES`].
fn check_read_len(bases: usize, line: usize) -> Result<(), ParseError> {
    if bases < MAX_READ_BASES {
        return Ok(());
    }
    Err(ParseError::Malformed {
        line,
        msg: format!("read of {bases} bases: reads must be shorter than 2^31 bases"),
    })
}

/// The ID of a file's `index`-th record when the first is `first_id`, or
/// an error at `line` once that passes `u32::MAX`.
fn read_id(first_id: ReadId, index: usize, line: usize) -> Result<ReadId, ParseError> {
    u32::try_from(index)
        .ok()
        .and_then(|index| first_id.checked_add(index))
        .ok_or_else(|| ParseError::Malformed {
            line,
            msg: format!("record {index} from read ID {first_id} passes the largest read ID, {}", ReadId::MAX),
        })
}

/// One raw FASTQ record (before read-ID assignment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastqRecord {
    /// Header without the leading `@`, truncated at the first whitespace.
    pub name: String,
    /// Sequence bytes.
    pub seq: Vec<u8>,
    /// Quality bytes (same length as `seq`).
    pub qual: Vec<u8>,
}

/// Streaming FASTQ parser over any buffered reader.
pub struct FastqReader<R: BufRead> {
    inner: R,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> FastqReader<R> {
    /// Wrap a buffered reader.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            line_no: 0,
            buf: String::new(),
        }
    }

    fn read_line(&mut self) -> Result<Option<&str>, ParseError> {
        self.buf.clear();
        let n = self.inner.read_line(&mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        Ok(Some(self.buf.trim_end_matches(['\n', '\r'])))
    }

    /// Parse the next record, or `Ok(None)` at a clean end of file.
    pub fn next_record(&mut self) -> Result<Option<FastqRecord>, ParseError> {
        // Skip blank lines between records.
        let header = loop {
            match self.read_line()? {
                None => return Ok(None),
                Some("") => continue,
                Some(l) => break l.to_owned(),
            }
        };
        let line = self.line_no;
        let name = header
            .strip_prefix('@')
            .ok_or_else(|| ParseError::Malformed {
                line,
                msg: format!("expected '@' header, found {header:?}"),
            })?
            .split_whitespace()
            .next()
            .unwrap_or("")
            .to_owned();

        let seq = match self.read_line()? {
            Some(l) => l.as_bytes().to_vec(),
            None => {
                return Err(ParseError::Malformed {
                    line: self.line_no + 1,
                    msg: "EOF where sequence line expected".into(),
                })
            }
        };
        let line = self.line_no;
        check_read_len(seq.len(), line)?;
        let sep = self.read_line()?.map(str::to_owned);
        match sep.as_deref() {
            Some(l) if l.starts_with('+') => {}
            other => {
                return Err(ParseError::Malformed {
                    line: self.line_no.max(line),
                    msg: format!("expected '+' separator, found {other:?}"),
                })
            }
        }
        let qual = match self.read_line()? {
            Some(l) => l.as_bytes().to_vec(),
            None => {
                return Err(ParseError::Malformed {
                    line: self.line_no + 1,
                    msg: "EOF where quality line expected".into(),
                })
            }
        };
        if qual.len() != seq.len() {
            return Err(ParseError::Malformed {
                line: self.line_no,
                msg: format!(
                    "quality length {} != sequence length {}",
                    qual.len(),
                    seq.len()
                ),
            });
        }
        Ok(Some(FastqRecord { name, seq, qual }))
    }
}

impl<R: BufRead> Iterator for FastqReader<R> {
    type Item = Result<FastqRecord, ParseError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Parse an entire FASTQ stream into a [`ReadSet`], assigning dense IDs
/// starting from `first_id`.
pub fn read_fastq<R: BufRead>(reader: R, first_id: ReadId) -> Result<ReadSet, ParseError> {
    let mut set = ReadSet::new();
    let mut records = FastqReader::new(reader);
    while let Some(rec) = records.next_record()? {
        let id = read_id(first_id, set.len(), records.line_no)?;
        set.push(Read::new(id, rec.name, rec.seq));
    }
    Ok(set)
}

/// Parse a FASTA stream (headers `>`; sequences may span multiple lines).
pub fn read_fasta<R: BufRead>(reader: R, first_id: ReadId) -> Result<ReadSet, ParseError> {
    let mut set = ReadSet::new();
    // The current record's name and header line.
    let mut name: Option<(String, usize)> = None;
    let mut seq: Vec<u8> = Vec::new();
    let push = |set: &mut ReadSet, (name, line): (String, usize), seq: Vec<u8>| {
        check_read_len(seq.len(), line)?;
        let id = read_id(first_id, set.len(), line)?;
        set.push(Read::new(id, name, seq));
        Ok::<_, ParseError>(())
    };
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix('>') {
            if let Some(record) = name.take() {
                push(&mut set, record, std::mem::take(&mut seq))?;
            }
            name = Some((h.split_whitespace().next().unwrap_or("").to_owned(), line_no));
        } else {
            if name.is_none() {
                return Err(ParseError::Malformed {
                    line: line_no,
                    msg: "sequence data before any '>' header".into(),
                });
            }
            seq.extend_from_slice(line.as_bytes());
        }
    }
    if let Some(record) = name {
        push(&mut set, record, seq)?;
    }
    Ok(set)
}

/// Write a [`ReadSet`] as FASTQ. A flat quality score (`'I'`, Q40) is
/// emitted — diBELLA itself never consumes qualities.
pub fn write_fastq<W: Write>(mut w: W, reads: &ReadSet) -> io::Result<()> {
    for r in reads {
        w.write_all(b"@")?;
        w.write_all(r.name.as_bytes())?;
        w.write_all(b"\n")?;
        w.write_all(&r.seq)?;
        w.write_all(b"\n+\n")?;
        // Reuse a small chunked fill to avoid allocating a full quality row.
        const CHUNK: [u8; 64] = [b'I'; 64];
        let mut remaining = r.seq.len();
        while remaining > 0 {
            let n = remaining.min(CHUNK.len());
            w.write_all(&CHUNK[..n])?;
            remaining -= n;
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Write a [`ReadSet`] as FASTA with 80-column wrapping.
pub fn write_fasta<W: Write>(mut w: W, reads: &ReadSet) -> io::Result<()> {
    for r in reads {
        w.write_all(b">")?;
        w.write_all(r.name.as_bytes())?;
        w.write_all(b"\n")?;
        for chunk in r.seq.chunks(80) {
            w.write_all(chunk)?;
            w.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "@r0 extra words\nACGT\n+\nIIII\n@r1\nTTGCA\n+anything\nIIIII\n";

    #[test]
    fn parses_two_records() {
        let set = read_fastq(Cursor::new(SAMPLE), 0).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.reads()[0].name, "r0");
        assert_eq!(set.reads()[0].seq, b"ACGT");
        assert_eq!(set.reads()[1].id, 1);
        assert_eq!(set.reads()[1].seq, b"TTGCA");
    }

    #[test]
    fn id_offset_respected() {
        let set = read_fastq(Cursor::new(SAMPLE), 100).unwrap();
        assert_eq!(set.reads()[0].id, 100);
        assert_eq!(set.reads()[1].id, 101);
    }

    #[test]
    fn rejects_missing_at() {
        let err = read_fastq(Cursor::new("r0\nACGT\n+\nIIII\n"), 0).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_bad_separator() {
        let err = read_fastq(Cursor::new("@r0\nACGT\nIIII\n"), 0).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = read_fastq(Cursor::new("@r0\nACGT\n+\nII\n"), 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("quality length"), "{msg}");
    }

    #[test]
    fn rejects_truncated_record() {
        let err = read_fastq(Cursor::new("@r0\nACGT\n"), 0).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    #[test]
    fn tolerates_blank_lines_and_crlf() {
        let s = "\n@r0\r\nACGT\r\n+\r\nIIII\r\n\n";
        let set = read_fastq(Cursor::new(s), 0).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.reads()[0].seq, b"ACGT");
    }

    #[test]
    fn fastq_round_trip() {
        let set = read_fastq(Cursor::new(SAMPLE), 0).unwrap();
        let mut out = Vec::new();
        write_fastq(&mut out, &set).unwrap();
        let back = read_fastq(Cursor::new(out), 0).unwrap();
        assert_eq!(back.len(), set.len());
        for (a, b) in back.iter().zip(set.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn fasta_round_trip_with_wrapping() {
        let mut set = ReadSet::new();
        set.push(Read::new(0, "long", vec![b'A'; 205]));
        set.push(Read::new(1, "short", b"ACGT".to_vec()));
        let mut out = Vec::new();
        write_fasta(&mut out, &set).unwrap();
        let back = read_fasta(Cursor::new(out), 0).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.reads()[0].seq.len(), 205);
        assert_eq!(back.reads()[1].seq, b"ACGT");
    }

    #[test]
    fn fasta_rejects_headerless_sequence() {
        assert!(read_fasta(Cursor::new("ACGT\n"), 0).is_err());
    }

    /// Sequences must leave bit 31 of a position free, and IDs must fit
    /// a `u32`; both come back as a typed error, never a panic or a wrap.
    #[test]
    fn bounds_of_the_32_bit_fields_are_parse_errors() {
        assert!(check_read_len(MAX_READ_BASES - 1, 1).is_ok());
        let err = check_read_len(MAX_READ_BASES, 7).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 7, .. }), "{err}");
        assert!(err.to_string().contains("shorter than 2^31 bases"), "{err}");
        assert_eq!(read_id(ReadId::MAX, 0, 1).unwrap(), ReadId::MAX);
        assert_eq!(read_id(5, 10, 1).unwrap(), 15);
        assert!(read_id(ReadId::MAX, 1, 1).is_err());
        assert!(read_id(0, ReadId::MAX as usize + 1, 1).is_err());
    }

    #[test]
    fn ids_past_u32_max_are_refused() {
        assert_eq!(read_fastq(Cursor::new(SAMPLE), ReadId::MAX - 1).unwrap().len(), 2);
        let err = read_fastq(Cursor::new(SAMPLE), ReadId::MAX).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 8, .. }), "{err}");
        let fasta = ">a\nACGT\n>b\nAC\nGT\n";
        let err = read_fasta(Cursor::new(fasta), ReadId::MAX).unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 3, .. }), "{err}");
        assert_eq!(read_fasta(Cursor::new(fasta), ReadId::MAX - 1).unwrap().len(), 2);
    }

    #[test]
    fn quality_line_plus_prefix_allowed_content() {
        // '+' line may repeat the name.
        let s = "@r0\nACGT\n+r0\nIIII\n";
        let set = read_fastq(Cursor::new(s), 0).unwrap();
        assert_eq!(set.len(), 1);
    }
}
