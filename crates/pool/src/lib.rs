//! A small reusable work pool for data-parallel maps.
//!
//! Built on the vendored [`crossbeam`] scope — no registry dependencies.
//! A [`WorkPool`] owns nothing at rest: it records how many workers a map
//! may use (requested parallelism clamped to what the machine actually
//! has) and spawns scoped threads per call. That keeps the crate trivially
//! correct under fork/shutdown while still fixing the historical bug this
//! crate exists for: callers spawning one thread per chunk regardless of
//! core count.
//!
//! Panics raised inside worker tasks never hang the scope: [`WorkPool::map`]
//! joins every worker and re-raises the first payload on the caller's
//! thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Inputs shorter than this are always mapped inline; spawning threads for
/// a handful of items costs more than it saves.
const MIN_PARALLEL_ITEMS: usize = 4;

/// Global count of worker slots trimmed by the available-parallelism cap
/// (requested − granted, summed over every [`WorkPool::new`] call). This is
/// the "oversubscription avoided" stat: before this crate, each trimmed
/// slot would have been an ad-hoc thread spawned per batch call.
static OVERSUBSCRIPTION_AVOIDED: AtomicU64 = AtomicU64::new(0);

/// Worker slots trimmed by the available-parallelism cap since process
/// start, across all pools.
pub fn oversubscription_avoided() -> u64 {
    OVERSUBSCRIPTION_AVOIDED.load(Ordering::Relaxed)
}

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// A fixed-width work pool: `map` fans a slice out over at most
/// [`WorkPool::workers`] scoped threads and returns results in input order.
#[derive(Debug)]
pub struct WorkPool {
    workers: usize,
    chunks_dispatched: AtomicU64,
}

impl WorkPool {
    /// Creates a pool with `requested` workers, clamped to the machine's
    /// available parallelism (and to at least 1). The clamped-off excess is
    /// added to the global [`oversubscription_avoided`] counter.
    pub fn new(requested: usize) -> WorkPool {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = requested.min(hardware).max(1);
        if requested > workers {
            OVERSUBSCRIPTION_AVOIDED.fetch_add((requested - workers) as u64, Ordering::Relaxed);
        }
        WorkPool {
            workers,
            chunks_dispatched: AtomicU64::new(0),
        }
    }

    /// Creates a pool sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> WorkPool {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkPool::new(hardware)
    }

    /// Number of workers a map may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Parallel chunks dispatched by this pool since creation (inline maps
    /// dispatch none).
    pub fn chunks_dispatched(&self) -> u64 {
        self.chunks_dispatched.load(Ordering::Relaxed)
    }

    /// How many parallel chunks a `map` over `len` items would dispatch:
    /// 0 when the map would run inline, the spawned-thread count otherwise.
    pub fn planned_chunks(&self, len: usize) -> usize {
        if self.workers <= 1 || len < MIN_PARALLEL_ITEMS {
            return 0;
        }
        let chunk = len.div_ceil(self.workers);
        len.div_ceil(chunk.max(1))
    }

    /// Maps `f` over `items` in input order, using up to
    /// [`WorkPool::workers`] threads. A panic in a task is re-raised on the
    /// calling thread after every worker has been joined — the scope never
    /// hangs and no other task's panic is lost silently (the first payload
    /// wins).
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.map_chunks(items, |chunk| chunk.iter().map(&f).collect())
    }

    /// Like [`WorkPool::map`], but hands each worker its whole contiguous
    /// chunk at once, so `f` can share per-chunk work (one batch inversion,
    /// one table) across the items. `f` returns one output per input, in
    /// order. Inline runs pass all of `items` as a single chunk (and a
    /// panic unwinds as is); a parallel run joins every worker before it
    /// re-raises the first panic.
    pub fn map_chunks<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&[T]) -> Vec<U> + Sync,
    {
        if self.workers <= 1 || items.len() < MIN_PARALLEL_ITEMS {
            return f(items);
        }
        let chunk = items.len().div_ceil(self.workers).max(1);
        let dispatched = items.len().div_ceil(chunk) as u64;
        self.chunks_dispatched
            .fetch_add(dispatched, Ordering::Relaxed);
        let f = &f;
        let scoped = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|input| scope.spawn(move || f(input)))
                .collect();
            let mut out: Vec<U> = Vec::with_capacity(items.len());
            let mut first_panic: Option<PanicPayload> = None;
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
            first_panic.map_or(Ok(out), Err)
        });
        match scoped {
            Ok(out) => out,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Like [`WorkPool::map_chunks`], but `f` folds its whole chunk into one
    /// value: the result holds one value per chunk, in chunk order (a
    /// single value when the map runs inline).
    pub fn fold_chunks<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&[T]) -> U + Sync,
    {
        self.map_chunks(items, |chunk| vec![f(chunk)])
    }
}

impl Default for WorkPool {
    fn default() -> WorkPool {
        WorkPool::with_available_parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let pool = WorkPool::new(8);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.map(&items, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_hands_out_contiguous_chunks_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 8] {
            let pool = WorkPool::new(workers);
            let out = pool.map_chunks(&items, |chunk| {
                // Tag every output with its chunk's first item.
                chunk.iter().map(|x| (chunk[0], *x)).collect()
            });
            assert_eq!(out.len(), items.len());
            let mut starts = Vec::new();
            for (i, (start, x)) in out.iter().enumerate() {
                assert_eq!(*x, i as u64);
                if starts.last() != Some(start) {
                    starts.push(*start);
                }
            }
            assert!(starts.len() <= pool.workers(), "one chunk per worker");
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fold_chunks_yields_one_value_per_chunk_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        for workers in [1, 2, 8] {
            let pool = WorkPool::new(workers);
            let spans = pool.fold_chunks(&items, |chunk| chunk.to_vec());
            assert_eq!(spans.len(), pool.planned_chunks(items.len()).max(1));
            assert_eq!(spans.concat(), items);
        }
        assert_eq!(WorkPool::new(4).fold_chunks(&items[..2], <[u64]>::len), [2]);
    }

    #[test]
    fn clamps_to_available_parallelism() {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let before = oversubscription_avoided();
        let pool = WorkPool::new(hardware + 7);
        assert_eq!(pool.workers(), hardware);
        assert!(oversubscription_avoided() >= before + 7);
        assert_eq!(WorkPool::new(0).workers(), 1);
    }

    #[test]
    fn map_reraises_worker_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pool = WorkPool::new(4);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |x| {
                assert!(*x != 40, "worker panic");
                *x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn planned_chunks_matches_dispatch() {
        let pool = WorkPool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let planned = pool.planned_chunks(items.len());
        let before = pool.chunks_dispatched();
        let _ = pool.map(&items, |x| *x);
        assert_eq!(pool.chunks_dispatched() - before, planned as u64);
        // Tiny inputs run inline and dispatch nothing.
        assert_eq!(pool.planned_chunks(2), 0);
    }
}
