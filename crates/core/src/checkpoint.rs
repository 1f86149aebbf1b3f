//! Stage-boundary checkpoint payloads for the pipeline.
//!
//! The hardened exchange layer (`dibella-comm`) turns an unrecoverable
//! transport fault into a clean stage failure; this module is the other
//! half of that story — it lets the *next* run skip the stages the failed
//! run already completed. Two per-rank snapshots exist:
//!
//! * **`table`** — written after stage 2: the reliable-k-mer (or
//!   minimizer) table partition, its pre-filter key count, and the filter
//!   statistics. Resuming from it skips stages 1–2.
//! * **`tasks`** — written after stage 3: the alignment tasks homed on
//!   this rank. Resuming from it skips stages 1–3.
//!
//! Payloads go through the same [`Wire`] codec as the exchange rounds and
//! are wrapped by [`dibella_io::CheckpointStore`], which adds the magic /
//! version / world / rank / fingerprint / CRC-32 envelope. A payload that
//! fails to decode is treated exactly like a missing file: the rank warns
//! and recomputes — a stale or corrupt checkpoint can cost time, never
//! correctness.
//!
//! Determinism note: a reloaded table inserts entries in sorted-key order
//! rather than the original pass's arrival order, so the `HashMap`
//! iteration order can differ from the run that wrote the snapshot. That
//! is harmless — the overlap stage sorts and deduplicates its output, and
//! all its work counters are order-independent sums — so alignments and
//! stage counters stay bit-identical (asserted by `tests/chaos.rs`).

use crate::config::{PipelineConfig, SeedMode};
use dibella_comm::{encode_slice, try_decode_vec, Wire};
use dibella_kcount::{FilterStats, KmerEntry, KmerHashTable, Occurrence};
use dibella_kmer::{Kmer1, Strand};
use dibella_overlap::{OverlapTask, ReadPair, SeedPolicy, SharedSeed};

/// Stage name of the post-stage-2 snapshot (see [`crate::checkpoint`]).
pub const TABLE_STAGE: &str = "table";
/// Stage name of the post-stage-3 snapshot (see [`crate::checkpoint`]).
pub const TASKS_STAGE: &str = "tasks";

/// splitmix64 finalizer — the fingerprint fold below only needs good
/// avalanche, not cryptographic strength.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fingerprint of everything a checkpoint's contents depend on: the
/// dataset (read and base totals) and every config knob that shapes the
/// table or the task list — `k`, the seed mode, the minimizer window, the
/// chain minimum, the multiplicity threshold `m` (the override, or the
/// value derived from depth and error rate), the seed policy and the
/// per-pair seed cap. A run whose fingerprint differs silently ignores
/// the other run's checkpoints ([`dibella_io::CheckpointStore`] rejects
/// the file with a typed mismatch, and the rank recomputes).
pub fn run_fingerprint(cfg: &PipelineConfig, total_reads: u64, total_bases: u64) -> u64 {
    let mut h = 0xD1BE_11A5u64;
    for word in [
        cfg.k as u64,
        match cfg.seed_mode {
            SeedMode::Reliable => 0,
            SeedMode::Minimizer => 1,
        },
        cfg.minimizer_w as u64,
        cfg.min_chain_seeds as u64,
        cfg.multiplicity_threshold() as u64,
        match cfg.seed_policy {
            SeedPolicy::Single => u64::MAX,
            SeedPolicy::MinDistance(d) => d as u64,
        },
        cfg.max_seeds_per_pair as u64,
        total_reads,
        total_bases,
    ] {
        h = mix(h ^ word);
    }
    h
}

/// Decoded contents of a `table` checkpoint.
#[derive(Debug)]
pub struct TableCheckpoint {
    /// Keys promoted into the table before the reliable filter ran
    /// (`RankReport::table_keys`; not reconstructible from the filtered
    /// table itself).
    pub table_keys: u64,
    /// Outcome of the reliable-k-mer filter.
    pub filter: FilterStats,
    /// The filtered table partition.
    pub table: KmerHashTable,
}

/// Per-entry wire record: `(packed k-mer word, (k, count, n_occurrences))`.
type EntryMsg = (u64, (u32, u32, u32));
/// Per-occurrence wire record: `(read, pos, strand)`.
type OccMsg = (u32, u32, u32);
/// Per-task wire record: `(read a, read b, n_seeds)`.
type TaskMsg = (u32, u32, u32);
/// Per-seed wire record: `(a_pos, b_pos, reverse)`.
type SeedMsg = (u32, u32, u32);

/// Encode a `table` checkpoint payload.
///
/// Layout: six `u64` counters (`table_keys`, the three [`FilterStats`]
/// fields, entry count, occurrence count) followed by the entry records
/// sorted by packed key — so the payload, like every other artifact of
/// the pipeline, is bit-identical across runs — and the concatenated
/// occurrence lists in the same order.
pub fn encode_table(table: &KmerHashTable, table_keys: u64, filter: &FilterStats) -> Vec<u8> {
    let mut entries: Vec<(&Kmer1, &KmerEntry)> = table.iter().collect();
    entries.sort_unstable_by_key(|(kmer, _)| (*kmer.words(), kmer.k()));

    let metas: Vec<EntryMsg> = entries
        .iter()
        .map(|(kmer, e)| {
            (
                kmer.words()[0],
                (kmer.k() as u32, e.count, e.occurrences.len() as u32),
            )
        })
        .collect();
    let occs: Vec<OccMsg> = entries
        .iter()
        .flat_map(|(_, e)| {
            e.occurrences
                .iter()
                .map(|o| (o.read(), o.pos(), o.strand().as_u8() as u32))
        })
        .collect();

    let mut out = Vec::new();
    for word in [
        table_keys,
        filter.singletons_removed,
        filter.high_freq_removed,
        filter.retained,
        metas.len() as u64,
        occs.len() as u64,
    ] {
        word.write(&mut out);
    }
    out.extend_from_slice(&encode_slice(&metas));
    out.extend_from_slice(&encode_slice(&occs));
    out
}

/// Read the six-`u64` counter header shared by both payload kinds'
/// decoders, returning the remaining payload bytes.
fn read_counters<const N: usize>(buf: &[u8]) -> Result<([u64; N], &[u8]), String> {
    let need = N * u64::SIZE;
    if buf.len() < need {
        return Err(format!("payload too short for header: {} < {need} bytes", buf.len()));
    }
    let mut words = [0u64; N];
    for (i, w) in words.iter_mut().enumerate() {
        *w = u64::read(&buf[i * u64::SIZE..]);
    }
    Ok((words, &buf[need..]))
}

/// Split `buf` into a decoded record vector of `n` records and the rest.
fn take_records<'a, T: Wire>(
    buf: &'a [u8],
    n: u64,
    what: &str,
) -> Result<(Vec<T>, &'a [u8]), String> {
    let bytes = (n as usize)
        .checked_mul(T::SIZE)
        .filter(|&b| b <= buf.len())
        .ok_or_else(|| format!("{what} section claims {n} records but only {} bytes remain", buf.len()))?;
    let recs = try_decode_vec(&buf[..bytes]).map_err(|e| format!("{what} section: {e}"))?;
    Ok((recs, &buf[bytes..]))
}

/// Decode a `table` checkpoint payload (inverse of [`encode_table`]).
///
/// Every structural claim in the payload is cross-checked — section
/// lengths, the occurrence-count sum, trailing bytes — so a payload that
/// survived the envelope CRC but was written by a different build still
/// degrades to recomputation instead of a corrupt table.
pub fn decode_table(buf: &[u8]) -> Result<TableCheckpoint, String> {
    let ([table_keys, singletons, high_freq, retained, n_entries, n_occs], rest) =
        read_counters::<6>(buf)?;
    let (metas, rest) = take_records::<EntryMsg>(rest, n_entries, "entry")?;
    let (occs, rest) = take_records::<OccMsg>(rest, n_occs, "occurrence")?;
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes after occurrence section", rest.len()));
    }
    let claimed: u64 = metas.iter().map(|&(_, (_, _, n))| n as u64).sum();
    if claimed != n_occs {
        return Err(format!(
            "entries claim {claimed} occurrences but the payload holds {n_occs}"
        ));
    }
    if retained != n_entries {
        return Err(format!(
            "filter stats retain {retained} keys but {n_entries} entries are present"
        ));
    }

    if let Some(&(_, pos, _)) = occs.iter().find(|&&(_, pos, _)| pos >= 1 << 31) {
        return Err(format!("occurrence at position {pos} needs bit 31"));
    }

    let mut table = KmerHashTable::with_capacity(metas.len());
    let mut occ_iter = occs.into_iter();
    for (word, (k, count, n_occ)) in metas {
        if k == 0 || k > u16::MAX as u32 {
            return Err(format!("entry has impossible k = {k}"));
        }
        let kmer = Kmer1::from_words([word], k as u16);
        let occurrences = occ_iter
            .by_ref()
            .take(n_occ as usize)
            .map(|(read, pos, strand)| Occurrence::new(read, pos, Strand::from_u8(strand as u8)))
            .collect();
        table.insert_entry(kmer, KmerEntry { count, occurrences });
    }
    Ok(TableCheckpoint {
        table_keys,
        filter: FilterStats {
            singletons_removed: singletons,
            high_freq_removed: high_freq,
            retained,
        },
        table,
    })
}

/// Encode a `tasks` checkpoint payload.
///
/// Layout: six `u64` counters (task count, seed count, four reserved
/// zeros keeping the header the same shape as the table payload's)
/// followed by the task records and the concatenated seed lists. Tasks
/// are stored in the stage's output order, which is already sorted and
/// deterministic.
pub fn encode_tasks(tasks: &[OverlapTask]) -> Vec<u8> {
    let msgs: Vec<TaskMsg> = tasks
        .iter()
        .map(|t| (t.pair.a, t.pair.b, t.seeds.len() as u32))
        .collect();
    let seeds: Vec<SeedMsg> = tasks
        .iter()
        .flat_map(|t| t.seeds.iter().map(|s| (s.a_pos(), s.b_pos(), s.reverse() as u32)))
        .collect();
    let mut out = Vec::new();
    for word in [msgs.len() as u64, seeds.len() as u64, 0, 0, 0, 0] {
        word.write(&mut out);
    }
    out.extend_from_slice(&encode_slice(&msgs));
    out.extend_from_slice(&encode_slice(&seeds));
    out
}

/// Decode a `tasks` checkpoint payload (inverse of [`encode_tasks`]).
pub fn decode_tasks(buf: &[u8]) -> Result<Vec<OverlapTask>, String> {
    let ([n_tasks, n_seeds, r0, r1, r2, r3], rest) = read_counters::<6>(buf)?;
    if r0 != 0 || r1 != 0 || r2 != 0 || r3 != 0 {
        return Err("reserved header words are nonzero".into());
    }
    let (msgs, rest) = take_records::<TaskMsg>(rest, n_tasks, "task")?;
    let (seeds, rest) = take_records::<SeedMsg>(rest, n_seeds, "seed")?;
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes after seed section", rest.len()));
    }
    let claimed: u64 = msgs.iter().map(|&(_, _, n)| n as u64).sum();
    if claimed != n_seeds {
        return Err(format!("tasks claim {claimed} seeds but the payload holds {n_seeds}"));
    }
    if let Some(&(_, b_pos, _)) = seeds.iter().find(|&&(_, b_pos, _)| b_pos >= 1 << 31) {
        return Err(format!("seed at position {b_pos} needs bit 31"));
    }

    let mut seed_iter = seeds.into_iter();
    let mut tasks = Vec::with_capacity(msgs.len());
    for (a, b, n) in msgs {
        if a >= b {
            return Err(format!("task pair ({a},{b}) is not normalized"));
        }
        let seeds: Vec<SharedSeed> = seed_iter
            .by_ref()
            .take(n as usize)
            .map(|(a_pos, b_pos, reverse)| SharedSeed::new(a_pos, b_pos, reverse != 0))
            .collect();
        tasks.push(OverlapTask { pair: ReadPair::new(a, b), seeds });
    }
    Ok(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_kcount::KcountConfig;

    fn sample_table() -> (KmerHashTable, u64, FilterStats) {
        let cfg = KcountConfig {
            k: 7,
            max_multiplicity: 8,
            bloom_fp_rate: 0.05,
            expected_distinct: 64,
            max_kmers_per_round: 1 << 12,
            max_exchange_bytes_per_round: usize::MAX,
            extract_batch: KcountConfig::DEFAULT_EXTRACT_BATCH,
        };
        let mut t = KmerHashTable::with_capacity(8);
        for (i, s) in [b"ACGTACG", b"TTTTAAA", b"GGGCCCA"].iter().enumerate() {
            let km = Kmer1::from_ascii(*s).unwrap();
            t.promote(km);
            for j in 0..=i as u32 + 1 {
                t.record_occurrence(
                    &km,
                    Occurrence::new(j, 3 * j + i as u32, if j % 2 == 0 { Strand::Forward } else { Strand::Reverse }),
                    &cfg,
                );
            }
        }
        let filter = t.retain_reliable(8);
        (t, 3, filter)
    }

    fn entries_sorted(t: &KmerHashTable) -> Vec<(Kmer1, u32, Vec<Occurrence>)> {
        let mut v: Vec<_> = t
            .iter()
            .map(|(k, e)| (*k, e.count, e.occurrences.clone()))
            .collect();
        v.sort_unstable_by_key(|(k, _, _)| *k.words());
        v
    }

    #[test]
    fn table_round_trips() {
        let (table, keys, filter) = sample_table();
        let buf = encode_table(&table, keys, &filter);
        let back = decode_table(&buf).unwrap();
        assert_eq!(back.table_keys, keys);
        assert_eq!(back.filter, filter);
        assert_eq!(entries_sorted(&back.table), entries_sorted(&table));
    }

    #[test]
    fn table_encoding_is_deterministic() {
        let (table, keys, filter) = sample_table();
        let a = encode_table(&table, keys, &filter);
        // Re-insert in a different order: same payload bytes.
        let mut shuffled = KmerHashTable::with_capacity(8);
        let mut entries = entries_sorted(&table);
        entries.reverse();
        for (k, count, occurrences) in entries {
            shuffled.insert_entry(k, KmerEntry { count, occurrences });
        }
        assert_eq!(a, encode_table(&shuffled, keys, &filter));
    }

    #[test]
    fn table_decode_rejects_structural_damage() {
        let (table, keys, filter) = sample_table();
        let buf = encode_table(&table, keys, &filter);
        // Truncation inside the occurrence section.
        assert!(decode_table(&buf[..buf.len() - 4]).is_err());
        // Trailing garbage.
        let mut long = buf.clone();
        long.extend_from_slice(&[0; 12]);
        assert!(decode_table(&long).is_err());
        // Occurrence-count sum mismatch (lie in one entry's n_occ).
        let mut lie = buf.clone();
        let entry0_nocc = 6 * 8 + 8 + 8; // counters + word + (k, count)
        lie[entry0_nocc] = lie[entry0_nocc].wrapping_add(1);
        assert!(decode_table(&lie).is_err());
        // A position that needs the strand bit.
        let mut far = buf.clone();
        let occ0_pos = 6 * 8 + 3 * 20 + 4; // counters + three entries + read
        far[occ0_pos + 3] |= 0x80;
        assert!(decode_table(&far).unwrap_err().contains("bit 31"));
        // Retained-count mismatch.
        let mut bad_filter = buf;
        bad_filter[3 * 8] ^= 1;
        assert!(decode_table(&bad_filter).is_err());
    }

    fn sample_tasks() -> Vec<OverlapTask> {
        vec![
            OverlapTask {
                pair: ReadPair::new(0, 3),
                seeds: vec![
                    SharedSeed::new(5, 40, false),
                    SharedSeed::new(19, 54, true),
                ],
            },
            OverlapTask { pair: ReadPair::new(1, 2), seeds: vec![] },
            OverlapTask {
                pair: ReadPair::new(2, 7),
                seeds: vec![SharedSeed::new(0, 0, false)],
            },
        ]
    }

    #[test]
    fn tasks_round_trip() {
        let tasks = sample_tasks();
        let buf = encode_tasks(&tasks);
        assert_eq!(decode_tasks(&buf).unwrap(), tasks);
        assert_eq!(decode_tasks(&encode_tasks(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn tasks_decode_rejects_structural_damage() {
        let buf = encode_tasks(&sample_tasks());
        assert!(decode_tasks(&buf[..buf.len() - 1]).is_err());
        // Seed-count lie.
        let mut lie = buf.clone();
        let task0_nseeds = 6 * 8 + 8; // counters + (a, b)
        lie[task0_nseeds] = lie[task0_nseeds].wrapping_add(1);
        assert!(decode_tasks(&lie).is_err());
        // Denormalized pair (a >= b).
        let mut swap = buf.clone();
        swap[6 * 8] = 9; // task 0 becomes (9, 3)
        assert!(decode_tasks(&swap).is_err());
        // A b_pos that needs the orientation bit.
        let mut far = buf.clone();
        let seed0_b_pos = 6 * 8 + 3 * 12 + 4; // counters + three tasks + a_pos
        far[seed0_b_pos + 3] |= 0x80;
        assert!(decode_tasks(&far).unwrap_err().contains("bit 31"));
        // Nonzero reserved header word.
        let mut reserved = buf;
        reserved[2 * 8] = 1;
        assert!(decode_tasks(&reserved).is_err());
    }

    #[test]
    fn fingerprint_tracks_config_and_dataset() {
        let cfg = PipelineConfig::default();
        let base = run_fingerprint(&cfg, 100, 50_000);
        assert_eq!(base, run_fingerprint(&cfg, 100, 50_000));
        assert_ne!(base, run_fingerprint(&cfg, 101, 50_000));
        assert_ne!(base, run_fingerprint(&cfg, 100, 50_001));
        let other_k = PipelineConfig { k: cfg.k + 2, ..cfg.clone() };
        assert_ne!(base, run_fingerprint(&other_k, 100, 50_000));
        let sketch = PipelineConfig { seed_mode: SeedMode::Minimizer, ..cfg };
        assert_ne!(base, run_fingerprint(&sketch, 100, 50_000));
    }

    /// Each knob that changes the table or the task list changes the
    /// fingerprint — including `m` when it is derived, not overridden.
    #[test]
    fn fingerprint_tracks_every_knob_that_shapes_the_contents() {
        let cfg = PipelineConfig::default();
        let fp = |c: &PipelineConfig| run_fingerprint(c, 100, 50_000);
        let base = fp(&cfg);
        let shallow = PipelineConfig { depth: 4.0, ..cfg.clone() };
        assert_ne!(shallow.multiplicity_threshold(), cfg.multiplicity_threshold());
        let cleaner = PipelineConfig { error_rate: 0.01, ..cfg.clone() };
        assert_ne!(cleaner.multiplicity_threshold(), cfg.multiplicity_threshold());
        let changed = [
            ("depth", shallow),
            ("error_rate", cleaner),
            ("max_multiplicity", PipelineConfig { max_multiplicity: Some(77), ..cfg.clone() }),
            ("seed_policy", PipelineConfig { seed_policy: SeedPolicy::MinDistance(17), ..cfg.clone() }),
            ("seed_policy distance", PipelineConfig { seed_policy: SeedPolicy::MinDistance(1000), ..cfg.clone() }),
            ("max_seeds_per_pair", PipelineConfig { max_seeds_per_pair: 3, ..cfg.clone() }),
            ("minimizer_w", PipelineConfig { minimizer_w: 9, ..cfg.clone() }),
            ("min_chain_seeds", PipelineConfig { min_chain_seeds: 3, ..cfg.clone() }),
        ];
        let mut seen = vec![base];
        for (knob, c) in &changed {
            let f = fp(c);
            assert!(!seen.contains(&f), "{knob} does not change the fingerprint");
            seen.push(f);
        }
        // A knob that shapes neither leaves it alone.
        assert_eq!(fp(&PipelineConfig { xdrop: 7, threads: Some(4), ..cfg }), base);
    }
}
