//! Scoped work-stealing-lite thread pool for experiment fan-out.
//!
//! The evaluation campaign of the paper runs hundreds of thousands of
//! *independent* simulation instances (Section 7: 296,400). Each instance is
//! single-threaded and deterministic; only the fan-out is parallel. This
//! module provides an order-preserving [`par_map`] built on
//! [`std::thread::scope`] and a shared atomic work index — no unsafe code, no
//! global pool, no dependency on rayon.
//!
//! Work items are pulled one at a time from a shared counter, which balances
//! load well when item costs vary by orders of magnitude (long makespans on
//! unlucky availability draws).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads to use for a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelismConfig {
    /// Use `std::thread::available_parallelism()` (min 1).
    #[default]
    Auto,
    /// Use exactly this many threads.
    Fixed(NonZeroUsize),
    /// Run everything on the calling thread (useful for debugging and for
    /// getting clean backtraces out of a failing instance).
    Sequential,
}

impl ParallelismConfig {
    /// Resolves to a concrete thread count (≥ 1).
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            Self::Auto => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            Self::Fixed(n) => n.get(),
            Self::Sequential => 1,
        }
    }

    /// Builds a fixed configuration, clamping 0 to sequential.
    #[must_use]
    pub fn fixed(n: usize) -> Self {
        NonZeroUsize::new(n).map_or(Self::Sequential, Self::Fixed)
    }
}

/// Applies `f` to every item of `items`, in parallel, returning outputs in
/// input order: [`par_map_init_consume`] with one item per claim and no
/// per-thread state, collecting what it streams back.
///
/// `f` must be `Sync` (it is shared by reference across workers); items are
/// taken by reference. Panics in workers are propagated to the caller after
/// the scope joins (the first panic wins).
///
/// ```
/// use vg_des::par::{par_map, ParallelismConfig};
///
/// let xs: Vec<u64> = (0..100).collect();
/// let ys = par_map(&xs, ParallelismConfig::Auto, |&x| x * x);
/// assert_eq!(ys[7], 49);
/// assert_eq!(ys.len(), 100);
/// ```
pub fn par_map<T, R, F>(items: &[T], cfg: ParallelismConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    par_map_init_consume(items, cfg, 1, || (), |(), item| f(item), |_, r| out.push(r));
    out
}

/// Like [`par_map`] but with **per-thread state**, **chunked claiming** and
/// **streamed results**: each worker builds one `state = init()` when it
/// starts and threads it through every item it processes; items are
/// claimed `chunk_size` at a time from the shared counter (one atomic pull
/// per chunk instead of one per item); and instead of materializing a
/// `Vec<R>`, the calling thread receives `consume(index, result)` in
/// strictly increasing index order, as results become available.
///
/// This is the campaign fan-out primitive: `init` builds a warmed simulation
/// arena once per thread, and every item the thread pulls reuses the
/// arena's buffers instead of reallocating them. A campaign item is one
/// scenario, whose trials run inside it; the campaign claims one item at a
/// time, while larger chunks land adjacent items on the same worker.
/// `f` receives `&mut S` plus the item; determinism is up to the caller
/// (seed per item, not per thread, and the result is independent of the
/// thread schedule).
///
/// Streaming is what keeps campaign memory flat: per-instance results are
/// folded into per-cell statistics the moment they arrive and then dropped,
/// so the resident set is O(cells) rather than O(instances). Because
/// `consume` always observes results in input order, a fold through it is
/// bit-identical to the same fold over a sequential run — no merge-order
/// nondeterminism.
///
/// Workers send finished chunks over a channel; the caller holds a reorder
/// buffer of out-of-order chunks. The buffer is usually O(threads) chunks;
/// the worst case (the very first chunk is pathologically slow) is bounded
/// by O(items). A panicking worker is propagated to the caller after the
/// scope joins; `consume` will then have seen only a prefix.
///
/// ```
/// use vg_des::par::{par_map_init_consume, ParallelismConfig};
///
/// let xs: Vec<u64> = (0..100).collect();
/// let mut ys = Vec::new();
/// par_map_init_consume(
///     &xs,
///     ParallelismConfig::fixed(4),
///     8,
///     || 0u64,
///     |scratch, &x| {
///         *scratch += 1; // per-thread state, invisible to the output
///         x * x
///     },
///     |_, y| ys.push(y),
/// );
/// assert_eq!(ys[7], 49);
/// ```
pub fn par_map_init_consume<T, R, S, I, F>(
    items: &[T],
    cfg: ParallelismConfig,
    chunk_size: usize,
    init: I,
    f: F,
    mut consume: impl FnMut(usize, R),
) where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let chunk = chunk_size.max(1);
    let n_chunks = items.len().div_ceil(chunk);
    let threads = cfg.threads().min(n_chunks.max(1));
    if threads <= 1 {
        let mut state = init();
        for (i, item) in items.iter().enumerate() {
            consume(i, f(&mut state, item));
        }
        return;
    }

    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, Vec<R>)>();
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(items.len());
                    let results: Vec<R> = items[start..end]
                        .iter()
                        .map(|it| f(&mut state, it))
                        .collect();
                    if tx.send((c, results)).is_err() {
                        break; // receiver gone: the caller is unwinding
                    }
                }
            });
        }
        drop(tx);

        // Reorder out-of-order chunks so `consume` sees input order.
        let mut pending: Vec<Option<Vec<R>>> = Vec::new();
        pending.resize_with(n_chunks, || None);
        let mut next_consume = 0usize;
        while next_consume < n_chunks {
            // Err means every sender is gone — a worker panicked before
            // finishing its chunk; stop and let the scope propagate it.
            let Ok((c, results)) = rx.recv() else { break };
            pending[c] = Some(results);
            while next_consume < n_chunks {
                let Some(results) = pending[next_consume].take() else {
                    break;
                };
                let base = next_consume * chunk;
                for (k, r) in results.into_iter().enumerate() {
                    consume(base + k, r);
                }
                next_consume += 1;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let ys = par_map(&xs, ParallelismConfig::fixed(4), |&x| x + 1);
        assert_eq!(ys, (1..=1000).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential() {
        let xs: Vec<u64> = (0..257).collect();
        let seq = par_map(&xs, ParallelismConfig::Sequential, |&x| x * 3);
        let par = par_map(&xs, ParallelismConfig::fixed(8), |&x| x * 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn par_map_empty_input() {
        let xs: Vec<u32> = vec![];
        let ys = par_map(&xs, ParallelismConfig::Auto, |&x| x);
        assert!(ys.is_empty());
    }

    #[test]
    fn par_map_single_item() {
        let ys = par_map(&[41], ParallelismConfig::fixed(16), |&x| x + 1);
        assert_eq!(ys, vec![42]);
    }

    #[test]
    fn par_map_uneven_costs_balance() {
        // Items with wildly varying cost still all complete.
        let xs: Vec<u64> = (0..64).collect();
        let ys = par_map(&xs, ParallelismConfig::fixed(4), |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(ys, xs);
    }

    /// [`par_map_init_consume`]'s results, collected in the order
    /// `consume` sees them.
    fn consume_all<T: Sync, R: Send, S>(
        items: &[T],
        cfg: ParallelismConfig,
        chunk: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, &T) -> R + Sync,
    ) -> Vec<R> {
        let mut out = Vec::new();
        par_map_init_consume(items, cfg, chunk, init, f, |i, r| {
            assert_eq!(out.len(), i, "consume must run in input order");
            out.push(r);
        });
        out
    }

    #[test]
    fn par_map_init_consume_matches_par_map() {
        let xs: Vec<u64> = (0..257).collect();
        let plain = par_map(&xs, ParallelismConfig::Sequential, |&x| x * 3 + 1);
        for chunk in [1usize, 3, 7, 16, 64, 300] {
            for threads in [1usize, 2, 4, 8] {
                let with_state = consume_all(
                    &xs,
                    ParallelismConfig::fixed(threads),
                    chunk,
                    || 0u64,
                    |acc, &x| {
                        *acc += 1;
                        x * 3 + 1
                    },
                );
                assert_eq!(with_state, plain, "chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_init_consume_state_is_per_thread() {
        use std::sync::atomic::AtomicU64;
        // Each item bumps its thread's local counter; the counters' total
        // must equal the item count no matter how work was distributed.
        let total = AtomicU64::new(0);
        struct Local<'a> {
            n: u64,
            total: &'a AtomicU64,
        }
        impl Drop for Local<'_> {
            fn drop(&mut self) {
                self.total.fetch_add(self.n, Ordering::Relaxed);
            }
        }
        let xs: Vec<u32> = (0..301).collect();
        let ys = consume_all(
            &xs,
            ParallelismConfig::fixed(3),
            5,
            || Local {
                n: 0,
                total: &total,
            },
            |local, &x| {
                local.n += 1;
                x
            },
        );
        assert_eq!(ys, xs);
        assert_eq!(total.load(Ordering::Relaxed), 301);
    }

    #[test]
    fn par_map_init_consume_empty_and_tiny() {
        let empty: Vec<u8> = vec![];
        assert!(consume_all(&empty, ParallelismConfig::Auto, 4, || (), |(), &x| x).is_empty());
        let one = consume_all(
            &[9u8],
            ParallelismConfig::fixed(8),
            4,
            || (),
            |(), &x| x + 1,
        );
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn par_map_init_consume_worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let xs: Vec<u32> = (0..64).collect();
            consume_all(
                &xs,
                ParallelismConfig::fixed(2),
                4,
                || (),
                |(), &x| {
                    assert!(x != 33, "boom");
                    x
                },
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn parallelism_config_resolution() {
        assert_eq!(ParallelismConfig::Sequential.threads(), 1);
        assert_eq!(ParallelismConfig::fixed(5).threads(), 5);
        assert_eq!(ParallelismConfig::fixed(0).threads(), 1);
        assert!(ParallelismConfig::Auto.threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let xs: Vec<u32> = (0..16).collect();
            par_map(&xs, ParallelismConfig::fixed(2), |&x| {
                assert!(x != 7, "boom");
                x
            })
        });
        assert!(result.is_err());
    }
}
