//! The shared batched stage executor: deterministic intra-rank
//! parallelism for every pipeline stage.
//!
//! diBELLA's design point is *hybrid* parallelism — distributed ranks each
//! running multi-threaded stage work (the paper ran one MPI rank per NUMA
//! domain with threads inside). This module is the single engine all four
//! stages thread their compute through, built on one discipline, stated
//! once:
//!
//! 1. **Fixed-size batches.** Work is split into batches whose boundaries
//!    are a pure function of the *input* (slice length, window index, pair
//!    index) — never of the thread count.
//! 2. **Isolated batch results.** A batch computes into its own output
//!    (routed buckets, alignment records, counters); batches share nothing
//!    mutable.
//! 3. **Merge in batch order.** Results are concatenated/merged in batch
//!    index order, which the vendored rayon's indexed `collect()`
//!    guarantees at any width.
//!
//! Together these make every stage's output — wire bytes, counters,
//! alignments — **bit-identical at any thread count**, which is what lets
//! the test matrix sweep `threads × transport × round cap` and demand
//! equality rather than statistical agreement.
//!
//! The executor lives in `dibella-comm` (not `-core`) because the stage
//! crates (`kcount`, `overlap`) sit below `core` in the dependency graph:
//! it is the compute half of the stage engine whose communication half is
//! [`crate::RoundExchange`].

use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::sync::Mutex;

/// Batches each worker maps between two sinks of
/// [`BatchedExecutor::map_indexed_into`]: enough that starting a parallel
/// operation is small next to a wave's work, few enough that a wave's
/// results stay a small fraction of a round.
const WAVE_BATCHES_PER_THREAD: usize = 64;

/// Deterministic batched map executor shared by stages 1–4.
///
/// `new(threads)` resolves the pipeline `threads` knob once; stages then
/// call [`map_indexed`](Self::map_indexed) (batch descriptors computed
/// from the index), [`map_indexed_into`](Self::map_indexed_into) (the
/// same, streamed into an in-order sink),
/// [`map_batches`](Self::map_batches) (batches are
/// slices of a task list) or [`map_batches_mut`](Self::map_batches_mut)
/// (batches consume their slice in place). Width 1 short-circuits to a
/// plain sequential loop — the single-threaded pipeline pays no pool or
/// scheduling cost.
#[derive(Debug)]
pub struct BatchedExecutor {
    /// `None` when width is 1 (sequential fast path).
    pool: Option<ThreadPool>,
    threads: usize,
}

impl BatchedExecutor {
    /// An executor of `threads` workers; `0` means the hardware
    /// parallelism (as in rayon).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        let pool = (threads > 1).then(|| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build stage executor pool")
        });
        Self { pool, threads }
    }

    /// The sequential executor (width 1) — what library entry points use
    /// when the caller doesn't thread.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Resolved worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over batch indices `0..n_batches`, collecting results **in
    /// index order**. The batch a given index denotes must be derived from
    /// the index (and captured input) alone, so the decomposition is
    /// identical at any width.
    pub fn map_indexed<R, F>(&self, n_batches: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match &self.pool {
            Some(pool) if n_batches > 1 => {
                // Capture by reference: `&F` is `Send` whenever `F: Sync`,
                // which is all `install` needs to move the op in.
                let f = &f;
                pool.install(move || (0..n_batches).into_par_iter().map(f).collect())
            }
            _ => (0..n_batches).map(f).collect(),
        }
    }

    /// [`map_indexed`](Self::map_indexed) that hands each result to `sink`
    /// **in index order** on the calling thread instead of collecting them
    /// all — for stages whose merge is an append (the k-mer packer), so a
    /// round never holds every batch's output at once. The sequential
    /// executor sinks each batch as it finishes, while its output is still
    /// in cache; a pool maps waves of 64 batches (`WAVE_BATCHES_PER_THREAD`)
    /// per worker and sinks between waves. What `sink` sees does not
    /// depend on the wave size, so neither does the stage's output.
    pub fn map_indexed_into<R, F, S>(&self, n_batches: usize, f: F, mut sink: S)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        S: FnMut(R),
    {
        if self.pool.is_none() {
            return (0..n_batches).for_each(|i| sink(f(i)));
        }
        let wave = WAVE_BATCHES_PER_THREAD * self.threads;
        for start in (0..n_batches).step_by(wave) {
            let len = wave.min(n_batches - start);
            self.map_indexed(len, |i| f(start + i)).into_iter().for_each(&mut sink);
        }
    }

    /// Map `f` over contiguous chunks of at most `batch` items, collecting
    /// results **in chunk order** — the stage-4 shape (a materialized task
    /// list sharded into fixed batches).
    pub fn map_batches<T, R, F>(&self, items: &[T], batch: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        assert!(batch > 0, "batch size must be non-zero");
        let n = items.len().div_ceil(batch);
        self.map_indexed(n, |i| {
            let lo = i * batch;
            let hi = (lo + batch).min(items.len());
            f(&items[lo..hi])
        })
    }

    /// [`map_batches`](Self::map_batches) over exclusive chunks: each
    /// batch may move out of or rewrite its own items, so a stage can hand
    /// owned buffers through the executor without copying them. Results
    /// are collected **in chunk order**.
    pub fn map_batches_mut<T, R, F>(&self, items: &mut [T], batch: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        assert!(batch > 0, "batch size must be non-zero");
        // One uncontended lock per chunk turns the disjoint `&mut` chunks
        // into something `map_indexed`'s shared closure can reach; every
        // index is claimed exactly once.
        let chunks: Vec<Mutex<&mut [T]>> = items.chunks_mut(batch).map(Mutex::new).collect();
        self.map_indexed(chunks.len(), |i| {
            let mut chunk = chunks[i].lock().expect("chunk lock is taken once, by its own batch");
            f(&mut chunk)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_bit_for_bit() {
        let items: Vec<u32> = (0..997).collect();
        let seq = BatchedExecutor::sequential();
        let want: Vec<u64> =
            seq.map_batches(&items, 32, |b| b.iter().map(|&x| x as u64).sum::<u64>());
        for threads in [2usize, 3, 4, 0] {
            let exec = BatchedExecutor::new(threads);
            assert!(exec.threads() >= 1);
            let got: Vec<u64> =
                exec.map_batches(&items, 32, |b| b.iter().map(|&x| x as u64).sum::<u64>());
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn map_batches_mut_consumes_chunks_in_order_at_any_width() {
        let run = |threads: usize| {
            let mut items: Vec<Vec<u32>> = (0..203u32).map(|i| vec![i; (i % 5) as usize]).collect();
            let exec = BatchedExecutor::new(threads);
            let sums: Vec<(usize, u64)> = exec.map_batches_mut(&mut items, 16, |chunk| {
                let taken: Vec<Vec<u32>> = chunk.iter_mut().map(std::mem::take).collect();
                (taken.len(), taken.iter().flatten().map(|&x| x as u64).sum())
            });
            assert!(items.iter().all(Vec::is_empty), "every chunk was visited");
            sums
        };
        let want = run(1);
        assert_eq!(want.len(), 203usize.div_ceil(16));
        assert_eq!(want.last().unwrap().0, 203 % 16);
        for threads in [2usize, 4] {
            assert_eq!(run(threads), want, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_preserves_order() {
        let exec = BatchedExecutor::new(4);
        let got = exec.map_indexed(100, |i| i * i);
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_indexed_into_sinks_in_index_order_across_waves() {
        // More batches than one wave at width 2 and 4, and a ragged tail.
        let n = 3 * WAVE_BATCHES_PER_THREAD * 4 + 7;
        let want: Vec<usize> = (0..n).map(|i| i * 3).collect();
        for threads in [1usize, 2, 4] {
            let mut got = Vec::new();
            BatchedExecutor::new(threads).map_indexed_into(n, |i| i * 3, |r| got.push(r));
            assert_eq!(got, want, "threads = {threads}");
        }
        BatchedExecutor::new(4).map_indexed_into(0, |i| i, |_| panic!("nothing to sink"));
    }

    #[test]
    fn zero_resolves_to_hardware_and_one_builds_no_pool() {
        assert!(BatchedExecutor::new(0).threads() >= 1);
        let one = BatchedExecutor::new(1);
        assert_eq!(one.threads(), 1);
        assert!(one.pool.is_none(), "width 1 must not build a pool");
    }

    #[test]
    fn empty_input() {
        let exec = BatchedExecutor::new(4);
        let got: Vec<u64> = exec.map_batches(&[] as &[u32], 8, |_| 0u64);
        assert!(got.is_empty());
        let got: Vec<u64> = exec.map_batches_mut(&mut [] as &mut [u32], 8, |_| 0u64);
        assert!(got.is_empty());
        let got = exec.map_indexed(0, |i| i);
        assert!(got.is_empty());
    }
}
