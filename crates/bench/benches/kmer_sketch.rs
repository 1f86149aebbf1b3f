//! k-mer machinery microbenchmarks: extraction throughput, owner hashing,
//! the stage packers and the owner-side roll, Bloom filter insert/query, and
//! hash-table occurrence recording — the per-op costs behind the
//! `dibella_netmodel::op_costs` calibration constants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dibella_bench::{kmer_fixture, supermer_fixture, supermer_roll_kmers};
use dibella_comm::BatchedExecutor;
use dibella_kcount::{pack_supermers, pack_windows, KcountConfig, KmerHashTable, Occurrence};
use dibella_kmer::{extract_kmers, kmer_count, KmerIter, Strand, WindowIndex};
use dibella_sketch::BloomFilter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_seq(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
}

fn bench_extraction(c: &mut Criterion) {
    let seq = random_seq(100_000, 1);
    let mut g = c.benchmark_group("kmer_extraction");
    g.sample_size(20);
    g.throughput(Throughput::Elements(seq.len() as u64));
    g.bench_function("k17_iterate", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for h in KmerIter::<1>::new(&seq, 17) {
                n = n.wrapping_add(h.kmer.words()[0]);
            }
            black_box(n)
        })
    });
    g.bench_function("k17_collect", |b| {
        b.iter(|| black_box(extract_kmers::<1>(&seq, 17).len()))
    });
    g.bench_function("k17_owner_hash", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for h in KmerIter::<1>::new(&seq, 17) {
                acc = acc.wrapping_add(h.kmer.owner(1024));
            }
            black_box(acc)
        })
    });
    g.finish();
}

/// k-mers/s of the rolling extractor at both ends of the one-word k
/// range. The update is two shift-and-insert steps whatever k is, so the
/// rates must be close — `bench_kernels_json` tracks the k = 31 / k = 15
/// ratio in `BENCH_kernels.json` and CI bounds it.
fn bench_extract_rate(c: &mut Criterion) {
    let reads = kmer_fixture(1, 200_000, 0x0E87_2AC7);
    let seq = &reads[0].seq;
    let mut g = c.benchmark_group("kmer_extract_per_sec");
    g.sample_size(20);
    for k in [15usize, 31] {
        g.throughput(Throughput::Elements(kmer_count(seq.len(), k) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(extract_kmers::<1>(seq, k).len()))
        });
    }
    g.finish();
}

/// k-mers/s of the three per-k-mer loops the front ends add around the
/// filter and the table: the reliable sender (`supermer_pack`: minimizer
/// scan, owner-run cut, 2-bit write — to 2 and to 64 destinations, where
/// runs are shorter), the reliable owner (`supermer_roll`: decode the
/// records, roll the k-mers from the 2-bit bases) and the minimizer
/// front end's packer (select, hash once for the owner, write the
/// 20-byte record), all in default-size batches.
fn bench_pack_rate(c: &mut Criterion) {
    let reads = kmer_fixture(20, 10_000, 0x9AC4_0001);
    let k = 21usize;
    let idx = WindowIndex::new(reads.iter().map(|r| r.len()), k);
    let total = idx.total_windows();
    let exec = BatchedExecutor::sequential();
    let batch = KcountConfig::DEFAULT_EXTRACT_BATCH;
    let mut g = c.benchmark_group("kmer_pack_per_sec");
    g.sample_size(20);
    g.throughput(Throughput::Elements(total));
    for ranks in [2usize, 64] {
        g.bench_with_input(BenchmarkId::new("supermer_pack", ranks), &ranks, |b, &ranks| {
            b.iter(|| black_box(pack_supermers(&reads, &idx, 0, total, ranks, batch, &exec).1))
        });
    }
    let (bufs, kmers) = supermer_fixture(&reads, k, 2);
    assert_eq!(kmers, total, "clean fixture: every window is a k-mer");
    g.bench_function("supermer_roll", |b| b.iter(|| black_box(supermer_roll_kmers(&bufs, k))));
    // As in a streamed pass, each pack writes into the buffers of the one
    // before it.
    let mut spare = Vec::new();
    g.bench_function("minimizer_20B", |b| {
        b.iter(|| {
            let (bufs, n) = pack_windows(&reads, &idx, 0, total, 2, 7, batch, &exec, &mut spare);
            spare.extend(bufs);
            black_box(n)
        })
    });
    g.finish();
}

fn bench_sketches(c: &mut Criterion) {
    let n = 100_000u64;
    let hashes: Vec<u64> = {
        let seq = random_seq(n as usize + 16, 2);
        KmerIter::<1>::new(&seq, 17).map(|h| h.kmer.hash64()).collect()
    };
    let mut g = c.benchmark_group("sketch");
    g.sample_size(20);
    g.throughput(Throughput::Elements(hashes.len() as u64));
    g.bench_function("bloom_insert", |b| {
        b.iter(|| {
            let mut bf = BloomFilter::for_items(n, 0.05);
            for &h in &hashes {
                bf.insert(h);
            }
            black_box(bf.n_inserted())
        })
    });
    g.bench_function("bloom_query", |b| {
        let mut bf = BloomFilter::for_items(n, 0.05);
        for &h in &hashes {
            bf.insert(h);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for &h in &hashes {
                hits += bf.contains(h) as u64;
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_hash_table(c: &mut Criterion) {
    let seq = random_seq(50_000, 3);
    let hits: Vec<_> = KmerIter::<1>::new(&seq, 17).collect();
    let cfg = KcountConfig {
        k: 17,
        max_multiplicity: 8,
        bloom_fp_rate: 0.05,
        expected_distinct: 50_000,
        max_kmers_per_round: 1 << 20,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: 1024,
    };
    let mut g = c.benchmark_group("hash_table");
    g.sample_size(20);
    g.throughput(Throughput::Elements(hits.len() as u64));
    g.bench_function("insert_keys_then_occurrences", |b| {
        b.iter(|| {
            let mut t = KmerHashTable::with_capacity(hits.len());
            for h in &hits {
                t.promote(h.kmer);
            }
            for (i, h) in hits.iter().enumerate() {
                t.record_occurrence(
                    &h.kmer,
                    Occurrence::new(i as u32 % 64, h.pos, Strand::Forward),
                    &cfg,
                );
            }
            black_box(t.len())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_extraction,
    bench_extract_rate,
    bench_pack_rate,
    bench_sketches,
    bench_hash_table
);
criterion_main!(benches);
