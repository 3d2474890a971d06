//! Minimal scoped thread pool built on crossbeam's scoped threads.
//!
//! DPar2 parallelizes two kinds of work (§III-F):
//!
//! 1. the stage-1 compression, where slices are assigned to threads by
//!    [`crate::greedy_partition`] because costs are proportional to `I_k`;
//! 2. the per-iteration `R×R` SVDs and Lemma 1–3 accumulations, where work
//!    per slice is uniform and an even chunking suffices.
//!
//! [`ThreadPool::run_partitioned`] covers the first case,
//! [`ThreadPool::map`] the second. Results always come back in item order,
//! so callers are oblivious to the scheduling.

use crossbeam::channel;
use dpar2_obs::{Counter, MetricsRegistry};
use std::time::Instant;

/// Telemetry handles for a [`ThreadPool`]: how many work items it ran and
/// how long its workers were busy, accumulated across every `run_*`/`map`
/// call. Both are monotone counters, so rates and utilization fall out of
/// snapshot deltas. Recording is lock-free and allocation-free.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Work items executed (one per item/chunk, across all calls).
    pub tasks: Counter,
    /// Cumulative worker busy time in nanoseconds (sums across workers, so
    /// it can exceed wall clock on a multi-threaded pool).
    pub busy_ns: Counter,
}

impl PoolMetrics {
    /// Registers `{prefix}_tasks_total` and `{prefix}_busy_ns_total` in
    /// `registry`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> PoolMetrics {
        PoolMetrics {
            tasks: registry.counter(&format!("{prefix}_tasks_total")),
            busy_ns: registry.counter(&format!("{prefix}_busy_ns_total")),
        }
    }
}

/// A lightweight parallel executor with a fixed thread count.
///
/// Threads are spawned per call via `crossbeam::thread::scope`, so closures
/// can borrow from the caller's stack without `'static` bounds. The spawns
/// are not free: a 2-thread `map` over trivial items costs about 55 µs per
/// call (about 27 µs per thread; the benchmark's traced `pool.map_call_us`
/// reads 54–71 µs on a 2-vCPU Xeon VM), more than a whole single-threaded
/// DPar2 iteration on a small tensor. Fan out only work items that dwarf
/// that, such as per-slice factorizations of a large tensor.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
    metrics: Option<PoolMetrics>,
}

impl ThreadPool {
    /// Creates a pool configuration with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "ThreadPool: need at least one thread");
        ThreadPool { threads, metrics: None }
    }

    /// Attaches telemetry: every subsequent call records its item count
    /// and worker busy time into `metrics`. Without this the pool is
    /// entirely uninstrumented (no clocks read on the work path).
    pub fn with_metrics(mut self, metrics: PoolMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(item)` for every item index in `partition` (one bucket per
    /// thread) and returns the results ordered by item index.
    ///
    /// The partition must cover `0..n` exactly once, where `n` is the total
    /// number of items across buckets (as produced by
    /// [`crate::greedy_partition`]).
    ///
    /// # Panics
    /// Panics if the partition contains duplicate or out-of-range indices,
    /// or if a worker panics.
    pub fn run_partitioned<R, F>(&self, partition: &[Vec<usize>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let n: usize = partition.iter().map(Vec::len).sum();
        if n == 0 {
            return Vec::new();
        }
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.tasks.add(n as u64);
        }
        // Single-threaded fast path: no spawning, no channel.
        if self.threads == 1 || partition.iter().filter(|b| !b.is_empty()).count() <= 1 {
            let busy = metrics.map(|_| Instant::now());
            let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
            for bucket in partition {
                for &item in bucket {
                    indexed.push((item, f(item)));
                }
            }
            record_busy(metrics, busy);
            return into_ordered(indexed, n);
        }

        let (tx, rx) = channel::unbounded::<(usize, R)>();
        crossbeam::thread::scope(|scope| {
            for bucket in partition.iter().filter(|b| !b.is_empty()) {
                let tx = tx.clone();
                let f = &f;
                scope.spawn(move |_| {
                    let busy = metrics.map(|_| Instant::now());
                    for &item in bucket {
                        tx.send((item, f(item))).expect("result channel closed");
                    }
                    record_busy(metrics, busy);
                });
            }
            drop(tx);
        })
        .expect("worker thread panicked");
        into_ordered(rx.into_iter().collect(), n)
    }

    /// Splits `data` into disjoint consecutive chunks of `chunk_len`
    /// elements (the last chunk may be shorter) and runs `f(chunk_index,
    /// chunk)` on every chunk, distributing chunks round-robin over the
    /// pool's threads.
    ///
    /// This is the borrowed-scope fan-out used by the blocked GEMM layer:
    /// each chunk is a row panel of the output matrix, so workers write
    /// disjoint `&mut` slices of one buffer without locks or channels. The
    /// chunk boundaries depend only on `chunk_len`, never on the thread
    /// count, and each chunk is processed by exactly one closure call — so
    /// any per-chunk computation that is itself deterministic yields results
    /// that are bit-identical for every pool size.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0` (with non-empty data) or a worker panics.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(chunk_len > 0, "for_each_chunk_mut: chunk_len must be positive");
        let n_chunks = data.len().div_ceil(chunk_len);
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.tasks.add(n_chunks as u64);
        }
        if self.threads == 1 || n_chunks <= 1 {
            let busy = metrics.map(|_| Instant::now());
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            record_busy(metrics, busy);
            return;
        }
        // Deal chunks round-robin into one bucket per thread. GEMM row
        // panels are uniform work items, so a static assignment balances
        // as well as a queue without any synchronization.
        let workers = self.threads.min(n_chunks);
        let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            buckets[i % workers].push((i, chunk));
        }
        crossbeam::thread::scope(|scope| {
            for bucket in buckets {
                let f = &f;
                scope.spawn(move |_| {
                    let busy = metrics.map(|_| Instant::now());
                    for (i, chunk) in bucket {
                        f(i, chunk);
                    }
                    record_busy(metrics, busy);
                });
            }
        })
        .expect("worker thread panicked");
    }

    /// Applies `f(index, item)` to every element of `items` with an even
    /// static chunking over the pool's threads; results in input order.
    ///
    /// # Panics
    /// Panics if a worker panics.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.tasks.add(n as u64);
        }
        if self.threads == 1 || n == 1 {
            let busy = metrics.map(|_| Instant::now());
            let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            record_busy(metrics, busy);
            return out;
        }
        let chunk = n.div_ceil(self.threads);
        let (tx, rx) = channel::unbounded::<(usize, R)>();
        crossbeam::thread::scope(|scope| {
            for (c, chunk_items) in items.chunks(chunk).enumerate() {
                let tx = tx.clone();
                let f = &f;
                let base = c * chunk;
                scope.spawn(move |_| {
                    let busy = metrics.map(|_| Instant::now());
                    for (off, item) in chunk_items.iter().enumerate() {
                        tx.send((base + off, f(base + off, item))).expect("result channel closed");
                    }
                    record_busy(metrics, busy);
                });
            }
            drop(tx);
        })
        .expect("worker thread panicked");
        into_ordered(rx.into_iter().collect(), n)
    }
}

/// Adds the elapsed time since `busy` (worker start) to the pool's
/// busy-time counter. Both options are `Some` exactly when the pool has
/// metrics attached.
#[inline]
fn record_busy(metrics: Option<&PoolMetrics>, busy: Option<Instant>) {
    if let (Some(m), Some(t)) = (metrics, busy) {
        m.busy_ns.add(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Sorts `(index, value)` pairs into a dense `Vec<R>` of length `n`.
fn into_ordered<R>(mut indexed: Vec<(usize, R)>, n: usize) -> Vec<R> {
    assert_eq!(indexed.len(), n, "partition did not cover all items exactly once");
    indexed.sort_by_key(|(i, _)| *i);
    for (pos, (i, _)) in indexed.iter().enumerate() {
        assert_eq!(*i, pos, "partition contains duplicate or out-of-range index {i}");
    }
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::greedy_partition;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_partitioned_orders_results() {
        let weights = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let pool = ThreadPool::new(3);
        let partition = greedy_partition(&weights, 3);
        let results = pool.run_partitioned(&partition, |k| k * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_partitioned_single_thread_path() {
        let partition = vec![vec![1, 0, 2]];
        let pool = ThreadPool::new(1);
        let results = pool.run_partitioned(&partition, |k| k as f64 + 0.5);
        assert_eq!(results, vec![0.5, 1.5, 2.5]);
    }

    #[test]
    fn run_partitioned_executes_each_item_once() {
        let counter = AtomicUsize::new(0);
        let weights = vec![1usize; 100];
        let partition = greedy_partition(&weights, 4);
        ThreadPool::new(4).run_partitioned(&partition, |_k| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<i64> = (0..57).collect();
        let out = ThreadPool::new(4).map(&items, |i, &x| x * 2 + i as i64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as i64 * 3);
        }
    }

    #[test]
    fn map_empty_and_singleton() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u8> = vec![];
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Determinism requirement: the parallel schedule must not affect
        // the results (only the wall clock).
        let items: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let reference = ThreadPool::new(1).map(&items, |_, &x| (x.sin() * 1e6).round());
        for threads in [2, 3, 8] {
            let got = ThreadPool::new(threads).map(&items, |_, &x| (x.sin() * 1e6).round());
            assert_eq!(got, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_all_chunks() {
        // 10 elements, chunk_len 3 -> chunks [0..3, 3..6, 6..9, 9..10].
        let mut data = vec![0usize; 10];
        ThreadPool::new(3).for_each_chunk_mut(&mut data, 3, |i, chunk| {
            for x in chunk.iter_mut() {
                *x = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn for_each_chunk_mut_identical_across_thread_counts() {
        let reference: Vec<f64> = {
            let mut d = vec![1.0f64; 64];
            ThreadPool::new(1).for_each_chunk_mut(&mut d, 5, |i, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ((i * 31 + off) as f64).sin();
                }
            });
            d
        };
        for threads in [2, 3, 8] {
            let mut d = vec![1.0f64; 64];
            ThreadPool::new(threads).for_each_chunk_mut(&mut d, 5, |i, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ((i * 31 + off) as f64).sin();
                }
            });
            assert_eq!(d, reference, "thread count {threads} changed chunk results");
        }
    }

    #[test]
    fn for_each_chunk_mut_empty_is_noop() {
        let mut data: Vec<u8> = vec![];
        ThreadPool::new(4).for_each_chunk_mut(&mut data, 0, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn for_each_chunk_mut_zero_chunk_len_panics() {
        let mut data = vec![1u8];
        ThreadPool::new(2).for_each_chunk_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ThreadPool::new(0);
    }

    #[test]
    #[should_panic(expected = "duplicate or out-of-range")]
    fn bad_partition_detected() {
        // Index 1 appears twice, index 0 missing.
        let partition = vec![vec![1], vec![1]];
        ThreadPool::new(2).run_partitioned(&partition, |k| k);
    }

    #[test]
    fn metrics_count_tasks_and_busy_time() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "pool");
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads).with_metrics(metrics.clone());
            let before = metrics.tasks.get();
            let items: Vec<u64> = (0..10).collect();
            let _ = pool.map(&items, |_, &x| x + 1);
            let mut data = vec![0u8; 9];
            pool.for_each_chunk_mut(&mut data, 4, |_, c| c.fill(1)); // 3 chunks
            let _ = pool.run_partitioned(&[vec![0, 1], vec![2]], |k| k);
            assert_eq!(metrics.tasks.get() - before, 10 + 3 + 3, "threads={threads}");
        }
        assert!(metrics.busy_ns.get() > 0, "busy time accumulated");
        // The same results come back instrumented or not.
        let plain = ThreadPool::new(3).map(&[1u64, 2, 3], |i, &x| x * i as u64);
        let metered =
            ThreadPool::new(3).with_metrics(metrics).map(&[1u64, 2, 3], |i, &x| x * i as u64);
        assert_eq!(plain, metered);
    }
}
