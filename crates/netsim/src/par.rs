//! Deterministic data parallelism over slices: the one fan-out behind
//! `--jobs`.
//!
//! [`map`] runs `f` over a slice on scoped worker threads and returns the
//! results in input order. Workers pull the next index off a shared
//! cursor, so a slow item cannot strand a static chunk behind one thread;
//! each result carries its index and the output is sorted by it, so thread
//! timing never reaches the result. The evaluator and the experiment
//! runner map one whole simulation per item, so simulations share nothing
//! through here: the cursor only hands out indices.
//!
//! The worker count is [`set_jobs`] when non-zero, else every available
//! core. One worker, or one item, takes a serial path with no threads.

use std::num::NonZeroUsize;
use std::sync::atomic::Ordering;

// lint:allow(d5-shared-state-sim-path): the process-wide `--jobs` knob. It
// only sizes the worker pool of later `map` calls; results are placed by
// index, so no value it takes can change an output byte.
static JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Set the worker count of every later [`map`] (`0` = all available
/// cores). Outputs are byte-identical at any setting.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The worker count a large enough [`map`] would use right now.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    }
}

/// `items.iter().map(f).collect()`, spread over up to [`jobs`] worker
/// threads. The output is in input order at any worker count, and a panic
/// in `f` reaches the caller with its own payload.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // lint:allow(d5-shared-state-sim-path): this call's work cursor. It
    // hands out item indices and nothing else; every result is placed by
    // its index, so the order of claims never reaches the output.
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::{jobs, map, set_jobs};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serialises the tests that set the process-wide worker count. A
    /// failed test poisons it; the rest still run.
    fn knob() -> MutexGuard<'static, ()> {
        static KNOB: Mutex<()> = Mutex::new(());
        KNOB.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn maps_in_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = map(&xs, |x| x * 2);
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let xs: Vec<u64> = vec![];
        assert!(map(&xs, |x| x + 1).is_empty());
        assert_eq!(map(&[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn order_holds_at_every_thread_count() {
        let _k = knob();
        let xs: Vec<u64> = (0..333).collect();
        let expect: Vec<u64> = xs.iter().map(|x| x * x).collect();
        for n in [1, 2, 3, 8] {
            set_jobs(n);
            assert_eq!(map(&xs, |x| x * x), expect, "jobs={n}");
        }
        set_jobs(0);
    }

    #[test]
    fn configured_thread_count_is_reported() {
        let _k = knob();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn uneven_work_is_balanced_dynamically() {
        // Items with wildly different costs still collect positionally.
        let _k = knob();
        set_jobs(4);
        let xs: Vec<u64> = (0..64).collect();
        let ys = map(&xs, |&x| {
            if x % 13 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        set_jobs(0);
        assert_eq!(ys, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_keeps_its_payload_at_every_worker_count() {
        let _k = knob();
        let xs: Vec<u64> = (0..16).collect();
        for n in [1, 4] {
            set_jobs(n);
            let caught = std::panic::catch_unwind(|| {
                map(&xs, |&x| {
                    if x == 5 {
                        panic!("item {x} is bad");
                    }
                    x
                })
            });
            let payload = caught.expect_err("item 5 panics");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("item 5 is bad"), "jobs={n}");
        }
        set_jobs(0);
    }
}
