//! Read-by-k-mer sparse matrix view of a [`KmerHashTable`] partition.
//!
//! The BELLA / diBELLA-2D lineage reformulates overlap detection as the
//! sparse matrix product `A·Aᵀ`, where `A` is the read-by-k-mer matrix:
//! `A[i][c] ≠ 0` iff read `i` contains retained k-mer `c`, and the
//! "value" is the read's occurrences (position, strand) of `c`.
//! [`ReadKmerCsr`] is the CSR (row-major) view of one rank's table
//! partition, built once per overlap stage and consumed by the
//! Gustavson row accumulator in `dibella-overlap::spgemm`.
//!
//! Determinism: the hash table iterates in arbitrary order, so the view
//! canonicalizes both axes —
//!
//! * **columns** are the table's entries sorted by `(packed k-mer words,
//!   k)` (the same total order the checkpoint codec uses), each one the
//!   entry's occurrence list in table order, and
//! * **rows** are the distinct read IDs appearing in this partition's
//!   occurrence lists, ascending; each row lists its columns ascending.
//!
//! Layout and footprint: a column is the table's own occurrence list,
//! **borrowed** (`&'t [Occurrence]`, 16 B per column — nothing is copied),
//! and a row stores each of its columns **once**, as a `u32` (4 B per
//! distinct (read, k-mer) pair), whatever the number of times the read
//! holds the k-mer. Rows and the read → row map come from two per-read-id
//! counters that live only while the view is built, so what it keeps is
//! `4 B × nnz + 16 B × columns + 12 B × rows`
//! (`crates/kcount/tests/csr_footprint.rs` holds it to that). A read that
//! repeats a k-mer finds all of its occurrences in the borrowed column:
//! the SpGEMM engine pairs each of them with every later read's, so the
//! product's pair multiset is Algorithm 1's.

use crate::table::{KmerHashTable, Occurrence};
use dibella_io::ReadId;

/// CSR view of one rank's read-by-k-mer matrix partition (see module docs
/// for the canonical ordering and what it holds).
#[derive(Debug, Default)]
pub struct ReadKmerCsr<'t> {
    /// Distinct read IDs with at least one occurrence here, ascending.
    rows: Vec<ReadId>,
    /// Row pointer: row `r`'s columns are `row_cols[row_ptr[r]..row_ptr[r + 1]]`.
    row_ptr: Vec<usize>,
    /// Each row's distinct columns, ascending, rows concatenated.
    row_cols: Vec<u32>,
    /// The columns' occurrence lists, borrowed from the table, in
    /// canonical k-mer order.
    cols: Vec<&'t [Occurrence]>,
}

/// Call `f(read, column)` once per distinct (read, column) pair of `cols`,
/// column by column. `seen` holds one slot per read ID, all zero on entry:
/// the last column that named the read, plus one.
fn for_each_entry(cols: &[&[Occurrence]], seen: &mut [u32], mut f: impl FnMut(usize, u32)) {
    for (c, occs) in (0u32..).zip(cols) {
        for occ in occs.iter() {
            let read = occ.read() as usize;
            if seen[read] != c + 1 {
                seen[read] = c + 1;
                f(read, c);
            }
        }
    }
}

impl<'t> ReadKmerCsr<'t> {
    /// Build the CSR view of `table`. Deterministic for a given key→entry
    /// mapping regardless of the hash map's iteration order.
    pub fn from_table(table: &'t KmerHashTable) -> Self {
        // Canonical column order: sort entries by packed k-mer words.
        let mut keyed: Vec<_> = table.iter().collect();
        keyed.sort_unstable_by_key(|(kmer, _)| (*kmer.words(), kmer.k()));
        let cols: Vec<&'t [Occurrence]> = keyed
            .into_iter()
            .map(|(_, entry)| entry.occurrences.as_slice())
            .collect();

        // Per read ID: the columns naming it, then its row's fill cursor.
        let n_ids = cols
            .iter()
            .flat_map(|occs| occs.iter())
            .map(|o| o.read() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut seen = vec![0u32; n_ids];
        let mut next = vec![0usize; n_ids];
        for_each_entry(&cols, &mut seen, |read, _| next[read] += 1);

        // Canonical row order: distinct reads ascending.
        let n_rows = next.iter().filter(|&&n| n > 0).count();
        let mut rows = Vec::with_capacity(n_rows);
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0usize);
        for (read, n) in (0..).zip(next.iter_mut()) {
            if *n > 0 {
                let start = row_ptr[rows.len()];
                rows.push(read);
                row_ptr.push(start + *n);
                *n = start;
            }
        }

        // Fill each row's columns in column order, so each row ascends.
        let mut row_cols = vec![0u32; row_ptr[n_rows]];
        seen.fill(0);
        for_each_entry(&cols, &mut seen, |read, c| {
            row_cols[next[read]] = c;
            next[read] += 1;
        });

        Self {
            rows,
            row_ptr,
            row_cols,
            cols,
        }
    }

    /// Number of rows (distinct local reads).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (retained k-mers in this partition).
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Stored nonzeros: distinct (read, k-mer) pairs.
    pub fn nnz(&self) -> usize {
        self.row_cols.len()
    }

    /// The read ID of row `r`.
    pub fn row_read(&self, r: usize) -> ReadId {
        self.rows[r]
    }

    /// Row `r`'s columns, ascending.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.row_cols[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Column `c`'s occurrence list, in table order.
    pub fn col(&self, c: u32) -> &'t [Occurrence] {
        self.cols[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KcountConfig;
    use dibella_kmer::{Kmer1, Strand};

    fn cfg() -> KcountConfig {
        KcountConfig {
            k: 5,
            max_multiplicity: 16,
            bloom_fp_rate: 0.05,
            expected_distinct: 64,
            max_kmers_per_round: 1 << 16,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: KcountConfig::DEFAULT_EXTRACT_BATCH,
        }
    }

    fn occ(read: ReadId, pos: u32, strand: Strand) -> Occurrence {
        Occurrence::new(read, pos, strand)
    }

    fn table_with(entries: &[(&[u8], Vec<Occurrence>)]) -> KmerHashTable {
        let c = cfg();
        let mut t = KmerHashTable::with_capacity(entries.len());
        for (s, occs) in entries {
            let km = Kmer1::from_ascii(s).unwrap();
            t.promote(km);
            for o in occs {
                assert!(t.record_occurrence(&km, *o, &c));
            }
        }
        t
    }

    #[test]
    fn csr_axes_are_canonical_and_complete() {
        let t = table_with(&[
            (
                b"ACGTA",
                vec![occ(3, 10, Strand::Forward), occ(1, 4, Strand::Reverse)],
            ),
            (
                b"CCCCC",
                vec![occ(1, 0, Strand::Forward), occ(7, 2, Strand::Forward)],
            ),
            (b"GGGGG", vec![occ(3, 5, Strand::Forward)]),
        ]);
        let csr = ReadKmerCsr::from_table(&t);
        assert_eq!(csr.n_cols(), 3);
        assert_eq!(csr.nnz(), 5);
        // Rows: distinct reads ascending.
        assert_eq!(csr.n_rows(), 3);
        assert_eq!(
            (0..csr.n_rows())
                .map(|r| csr.row_read(r))
                .collect::<Vec<_>>(),
            vec![1, 3, 7]
        );
        // Every row column holds one of the row's occurrences, each row's
        // columns ascend, and every occurrence is reached from its row.
        let mut seen = 0usize;
        for r in 0..csr.n_rows() {
            let read = csr.row_read(r);
            let row = csr.row(r);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {read} unsorted");
            for &c in row {
                let own = csr.col(c).iter().filter(|o| o.read() == read).count();
                assert!(own > 0, "row {read} names column {c} without an occurrence");
                seen += own;
            }
        }
        let occurrences: usize = t.iter().map(|(_, e)| e.occurrences.len()).sum();
        assert_eq!(
            seen, occurrences,
            "every occurrence is reached from exactly one row"
        );
    }

    #[test]
    fn repeated_read_in_one_column_keeps_both_entries() {
        // One k-mer occurring twice in the same read: the column keeps both
        // occurrences, the row names the column once.
        let t = table_with(&[(
            b"ACGTA",
            vec![
                occ(2, 1, Strand::Forward),
                occ(2, 9, Strand::Forward),
                occ(5, 0, Strand::Forward),
            ],
        )]);
        let csr = ReadKmerCsr::from_table(&t);
        assert_eq!(csr.n_rows(), 2);
        assert_eq!(csr.row(0), &[0], "read 2 names its column once");
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.col(0).len(), 3);
        assert_eq!(
            csr.col(0).iter().filter(|o| o.read() == 2).count(),
            2,
            "both of read 2's entries"
        );
    }

    #[test]
    fn empty_table_yields_empty_csr() {
        let t = KmerHashTable::default();
        let csr = ReadKmerCsr::from_table(&t);
        assert_eq!(csr.n_rows(), 0);
        assert_eq!(csr.n_cols(), 0);
        assert_eq!(csr.nnz(), 0);
    }
}
