//! Zero-dependency scoped-thread execution layer.
//!
//! Every parallel code path in this workspace goes through this crate so
//! that the threading discipline lives in one place: [`Parallelism`]
//! carries the thread count, and [`par_map_indexed`] /
//! [`par_map_slice`] fan independent work items out over
//! `std::thread::scope` workers and return results **in input order**,
//! which is what makes the parallel pipelines bit-identical to their
//! sequential counterparts (see docs/ALGORITHMS.md, "Parallel
//! execution").
//!
//! With `threads == 1` every entry point runs the closure inline on the
//! calling thread — no scope, no spawn — so a sequential configuration
//! preserves today's exact single-threaded path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Thread-count configuration for the parallel execution layer.
///
/// The default is [`Parallelism::available`] (one worker per logical
/// core); [`Parallelism::sequential`] (or `Parallelism::new(1)`)
/// selects the exact sequential code path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::available()
    }
}

impl Parallelism {
    /// Use exactly `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(threads).expect("thread count must be at least 1"),
        }
    }

    /// The single-threaded configuration: all work runs inline on the
    /// calling thread.
    pub fn sequential() -> Self {
        Parallelism::new(1)
    }

    /// One worker per logical core, falling back to 1 when the core
    /// count cannot be determined.
    pub fn available() -> Self {
        Parallelism {
            threads: thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether this configuration runs everything inline.
    pub fn is_sequential(&self) -> bool {
        self.threads.get() == 1
    }
}

/// Apply `f` to every index in `0..len` and collect the results in index
/// order.
///
/// Work items are handed to workers through an atomic self-scheduling
/// counter, so load-imbalanced items (e.g. skewed DFS subtrees) do not
/// idle whole threads; results are reordered to input order before
/// returning, which keeps the output independent of scheduling. With
/// one thread (or `len <= 1`) the closure runs inline on the caller.
pub fn par_map_indexed<T, F>(par: Parallelism, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.threads().min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, T)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

/// Apply `f` to every element of `items` and collect the results in
/// input order. Convenience wrapper over [`par_map_indexed`].
pub fn par_map_slice<T, U, F>(par: Parallelism, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(par, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_accessors() {
        assert!(Parallelism::sequential().is_sequential());
        assert_eq!(Parallelism::new(4).threads(), 4);
        assert!(!Parallelism::new(2).is_sequential());
        assert!(Parallelism::available().threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::available());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_rejected() {
        let _ = Parallelism::new(0);
    }

    #[test]
    fn threads_one_runs_inline_on_caller() {
        let caller = thread::current().id();
        let ids = par_map_indexed(Parallelism::sequential(), 8, |i| {
            assert_eq!(thread::current().id(), caller, "threads=1 must not spawn");
            i * i
        });
        assert_eq!(ids, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn results_arrive_in_input_order() {
        for threads in [1, 2, 3, 4, 7] {
            let out = par_map_indexed(Parallelism::new(threads), 100, |i| i + 1);
            assert_eq!(out, (1..=100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<usize> = par_map_indexed(Parallelism::new(4), 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Parallelism::new(4), 1, |i| i), vec![0]);
    }

    #[test]
    fn par_map_slice_preserves_order() {
        let items = vec!["a", "bb", "ccc", "dddd"];
        let lens = par_map_slice(Parallelism::new(2), &items, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3, 4]);
    }
}
