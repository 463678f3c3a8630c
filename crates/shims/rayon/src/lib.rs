//! A minimal, API-compatible stand-in for the subset of `rayon` this
//! workspace uses: `slice.par_iter().map(f).collect::<Vec<_>>()`.
//!
//! The build environment has no access to crates.io, so the real rayon
//! cannot be vendored; this shim provides genuine data parallelism for the
//! one pattern the evaluator needs, via `std::thread::scope`. Work is
//! scheduled dynamically — workers pull the next item off a shared atomic
//! cursor — so a slow item cannot strand a whole static chunk behind one
//! thread, but results are still placed positionally (by input index), so
//! output is deterministic regardless of thread timing — the same
//! guarantee the evaluator documents for the real rayon.
//!
//! The worker count is [`set_num_threads`] when non-zero, else
//! `std::thread::available_parallelism()`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global worker-count override; 0 means "automatic".
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the global worker count for subsequent parallel operations
/// (0 restores automatic selection). Mirrors configuring rayon's global
/// thread pool; unlike the real crate it may be called repeatedly.
pub fn set_num_threads(n: usize) {
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count a large-enough parallel operation would use right now.
pub fn current_num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parallel view over a slice, produced by
/// [`prelude::IntoParallelRefIterator::par_iter`].
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

/// A mapped parallel iterator awaiting collection.
pub struct ParMap<'a, T, F> {
    slice: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map each element through `f` (applied on worker threads).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
    {
        ParMap {
            slice: self.slice,
            f,
        }
    }
}

impl<'a, T: Sync, F> ParMap<'a, T, F> {
    /// Collect mapped results in input order.
    pub fn collect<C, R>(self) -> C
    where
        F: Fn(&'a T) -> R + Sync,
        R: Send,
        C: FromIterator<R>,
    {
        let n = self.slice.len();
        let workers = current_num_threads().min(n);
        if workers <= 1 {
            // Serial fast path: no thread spawn, no scheduling overhead.
            return self.slice.iter().map(&self.f).collect();
        }
        let f = &self.f;
        let cursor = AtomicUsize::new(0);
        // Each worker pulls the next unclaimed index and records
        // (index, result) locally; results are then placed by index into
        // a slot vector, so the collected order is the input order
        // whatever the interleaving.
        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(&self.slice[i])));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                parts.push(h.join().expect("rayon-shim worker panicked"));
            }
        });
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index claimed exactly once"))
            .collect()
    }
}

/// The traits user code imports with `use rayon::prelude::*`.
pub mod prelude {
    use super::ParIter;

    /// `&collection → par_iter()`, mirroring rayon's trait of the same name.
    pub trait IntoParallelRefIterator<'a> {
        /// Element type.
        type Item: 'a;
        /// Borrowing parallel iterator over the data.
        fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { slice: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Item = T;
        fn par_iter(&'a self) -> ParIter<'a, T> {
            ParIter { slice: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the global thread-count knob.
    static KNOB: Mutex<()> = Mutex::new(());

    #[test]
    fn maps_in_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys: Vec<u64> = xs.par_iter().map(|x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let xs: Vec<u64> = vec![];
        let ys: Vec<u64> = xs.par_iter().map(|x| x + 1).collect();
        assert!(ys.is_empty());
        let one = [7u64];
        let ys: Vec<u64> = one.par_iter().map(|x| x + 1).collect();
        assert_eq!(ys, vec![8]);
    }

    #[test]
    fn order_holds_at_every_thread_count() {
        let _k = KNOB.lock().unwrap();
        let xs: Vec<u64> = (0..333).collect();
        let expect: Vec<u64> = xs.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8] {
            crate::set_num_threads(jobs);
            let ys: Vec<u64> = xs.par_iter().map(|x| x * x).collect();
            assert_eq!(ys, expect, "jobs={jobs}");
        }
        crate::set_num_threads(0);
    }

    #[test]
    fn configured_thread_count_is_reported() {
        let _k = KNOB.lock().unwrap();
        crate::set_num_threads(3);
        assert_eq!(crate::current_num_threads(), 3);
        crate::set_num_threads(0);
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn uneven_work_is_balanced_dynamically() {
        // Items with wildly different costs still collect positionally.
        let _k = KNOB.lock().unwrap();
        crate::set_num_threads(4);
        let xs: Vec<u64> = (0..64).collect();
        let ys: Vec<u64> = xs
            .par_iter()
            .map(|&x| {
                if x % 13 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x + 1
            })
            .collect();
        crate::set_num_threads(0);
        assert_eq!(ys, (1..=64).collect::<Vec<_>>());
    }
}
