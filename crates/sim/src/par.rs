//! Deterministic fork/join for the epoch hot path.
//!
//! The simulator's cardinal rule is that a seed fully determines a run, so
//! parallelism must never be observable in results. This module provides a
//! `par_map` that guarantees exactly that by construction:
//!
//! - work items are split into **contiguous chunks** of the input vector, so
//!   the concatenated outputs are always in input order regardless of how
//!   many workers ran or how they interleaved;
//! - each item carries its own state (callers hand every shard a disjoint
//!   `&mut` plus a per-entity RNG stream), so workers share nothing mutable;
//! - the closure is `Fn` (stateless across items), so a chunk boundary
//!   moving with the thread count cannot change any per-item output.
//!
//! Thread count is therefore a pure throughput knob: `OVNES_THREADS` picks
//! the worker count, and tests/benches pin it in-process with
//! [`pin_threads`].
//!
//! `par_map` is the only fork/join in the tree, and every call spawns its
//! scoped workers afresh, so a site earns its place only when its shards
//! outweigh a spawn: the per-slice UE plane, the federation's regions and a
//! checkpoint's sections do; the RAN's per-cell PRB scheduling (a few µs
//! for a whole domain, against tens of µs per spawn) did not and is a plain
//! loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// In-process override used by tests and the scaling bench; `0` means unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment-derived default, resolved once per process.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("OVNES_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            })
    })
}

/// Serializes [`pin_threads`] holders: the override is one process-global
/// atomic and libtest runs a binary's tests on parallel threads.
static PIN_LOCK: Mutex<()> = Mutex::new(());

/// Pin (or unpin, with `None`) the worker count for this process, taking
/// precedence over the environment. Unsynchronized: a caller that shares
/// the process with other pinners wants [`pin_threads`] instead.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count stays pinned for as long as this lives; dropping it
/// (also on unwind) restores the previous override and lets the next
/// pinner in.
pub struct ThreadPin {
    previous: usize,
    _exclusive: MutexGuard<'static, ()>,
}

/// Pin the worker count to `threads` until the returned guard drops. Holds
/// one process-wide lock (poison-tolerant), so concurrent pinners run one
/// after the other and each sees its own count for its whole critical
/// section. Not reentrant: drop one pin before taking the next.
pub fn pin_threads(threads: usize) -> ThreadPin {
    let exclusive = PIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ThreadPin {
        previous: THREAD_OVERRIDE.swap(threads, Ordering::SeqCst),
        _exclusive: exclusive,
    }
}

impl Drop for ThreadPin {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.previous, Ordering::SeqCst);
    }
}

/// The worker count `par_map` will use right now.
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => env_threads(),
        n => n,
    }
}

/// Map `f` over `items` on up to [`current_threads`] scoped workers,
/// returning outputs in input order. Output is bit-identical at any thread
/// count: chunks are contiguous slices of the input and are re-joined in
/// chunk order, and `f` sees each item exactly once with no shared state.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_threads();
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    while !items.is_empty() {
        let tail = items.split_off(items.len().min(chunk_len));
        // `items` now holds the head chunk; swap so `tail` becomes the rest.
        chunks.push(std::mem::replace(&mut items, tail));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        // Joining in spawn (== chunk == input) order makes the concatenation
        // independent of which worker finished first.
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_every_thread_count() {
        let input: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let _pin = pin_threads(threads);
            assert_eq!(par_map(input.clone(), |x| x * 3 + 1), expect, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let _pin = pin_threads(4);
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let _pin = pin_threads(32);
        assert_eq!(par_map(vec![1, 2, 3], |x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn pin_takes_precedence_and_restores_on_drop_and_on_unwind() {
        let pin = pin_threads(5);
        assert_eq!(current_threads(), 5);
        let previous = pin.previous;
        drop(pin);
        let unwound = std::panic::catch_unwind(|| {
            let _pin = pin_threads(9);
            panic!("an assertion fails while pinned");
        });
        assert!(unwound.is_err());
        // Neither a dropped nor an unwound pin leaks into the next holder.
        assert_eq!(pin_threads(6).previous, previous);
    }

    #[test]
    fn concurrent_pinners_each_see_their_own_count() {
        // Bare `set_thread_override` from two threads fails this: one
        // thread's store lands inside the other's critical section.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for threads in [3usize, 7] {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..200 {
                        let _pin = pin_threads(threads);
                        for _ in 0..50 {
                            assert_eq!(current_threads(), threads);
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn workers_get_disjoint_mutable_state() {
        // The intended calling convention: each item owns (or exclusively
        // borrows) its state, so parallel mutation is race-free.
        let _pin = pin_threads(4);
        let mut cells: Vec<u64> = vec![0; 50];
        let shards: Vec<(usize, &mut u64)> = cells.iter_mut().enumerate().collect();
        let out = par_map(shards, |(i, cell)| {
            *cell = i as u64 + 1;
            *cell * 2
        });
        assert_eq!(out, (0..50).map(|i| (i + 1) * 2).collect::<Vec<u64>>());
        assert_eq!(cells, (1..=50).collect::<Vec<u64>>());
    }
}
