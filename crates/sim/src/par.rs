//! Deterministic fork/join helpers for the epoch hot path.
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
//! the worker count, and tests/benches can pin it in-process via
//! [`set_thread_override`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Pin (or unpin, with `None`) the worker count for this process, taking
/// precedence over the environment. Intended for determinism tests and the
/// thread-scaling bench; results never depend on the value chosen.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
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

/// Run `f` over every element of `items` in place, on up to
/// [`current_threads`] scoped workers. The in-place sibling of [`par_map`]
/// for callers whose shards live in a persistent buffer (scratch reuse):
/// chunks are contiguous `&mut` sub-slices, each element is visited exactly
/// once with no shared state, so results are bit-identical at any thread
/// count. The serial path (1 worker, or ≤1 item) allocates nothing — this
/// is what lets a steady-state epoch run allocation-free.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = current_threads();
    if threads <= 1 || items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk_len = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for chunk in items.chunks_mut(chunk_len) {
            scope.spawn(move || {
                for item in chunk {
                    f(item);
                }
            });
        }
        // The scope joins every worker (propagating panics) before returning.
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The override is process-global and libtest runs tests concurrently, so
    // every test that sets it holds this lock for its whole body.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn preserves_input_order_at_every_thread_count() {
        let _guard = lock();
        let input: Vec<u64> = (0..103).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            set_thread_override(Some(threads));
            assert_eq!(par_map(input.clone(), |x| x * 3 + 1), expect, "threads={threads}");
        }
        set_thread_override(None);
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let _guard = lock();
        set_thread_override(Some(4));
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
        set_thread_override(None);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let _guard = lock();
        set_thread_override(Some(32));
        assert_eq!(par_map(vec![1, 2, 3], |x| x * x), vec![1, 4, 9]);
        set_thread_override(None);
    }

    #[test]
    fn override_takes_precedence_and_clears() {
        let _guard = lock();
        set_thread_override(Some(5));
        assert_eq!(current_threads(), 5);
        set_thread_override(None);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn for_each_mut_visits_every_item_once_at_every_thread_count() {
        let _guard = lock();
        for threads in [1, 2, 3, 8, 64] {
            set_thread_override(Some(threads));
            let mut cells: Vec<u64> = (0..103).collect();
            par_for_each_mut(&mut cells, |c| *c = *c * 3 + 1);
            let expect: Vec<u64> = (0..103).map(|x| x * 3 + 1).collect();
            assert_eq!(cells, expect, "threads={threads}");
        }
        set_thread_override(None);
    }

    #[test]
    fn for_each_mut_handles_empty_and_singleton() {
        let _guard = lock();
        set_thread_override(Some(4));
        let mut empty: Vec<u32> = vec![];
        par_for_each_mut(&mut empty, |_| unreachable!());
        let mut one = vec![7u32];
        par_for_each_mut(&mut one, |x| *x += 1);
        assert_eq!(one, vec![8]);
        set_thread_override(None);
    }

    #[test]
    fn workers_get_disjoint_mutable_state() {
        // The intended calling convention: each item owns (or exclusively
        // borrows) its state, so parallel mutation is race-free.
        let _guard = lock();
        set_thread_override(Some(4));
        let mut cells: Vec<u64> = vec![0; 50];
        let shards: Vec<(usize, &mut u64)> = cells.iter_mut().enumerate().collect();
        let out = par_map(shards, |(i, cell)| {
            *cell = i as u64 + 1;
            *cell * 2
        });
        assert_eq!(out, (0..50).map(|i| (i + 1) * 2).collect::<Vec<u64>>());
        assert_eq!(cells, (1..=50).collect::<Vec<u64>>());
        set_thread_override(None);
    }
}
