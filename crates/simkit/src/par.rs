//! An order-preserving parallel map for independent per-item work.
//!
//! Training spends most of its time on items that do not depend on each
//! other: synthesising corpus utterances, capturing enrollment and attack
//! sessions. Each such item draws from its own [`SimRng`](crate::SimRng)
//! fork, so running the items concurrently and collecting the results in
//! input order gives exactly the output of the sequential loop. [`map`]
//! is that loop on every CPU the process may use:
//!
//! ```
//! use magshield_simkit::par;
//! use magshield_simkit::rng::SimRng;
//!
//! let root = SimRng::from_seed(7);
//! let draw = |i: &u64| root.fork_indexed("item", *i).next_u64();
//! let items: Vec<u64> = (0..16).collect();
//! let sequential: Vec<u64> = items.iter().map(draw).collect();
//! assert_eq!(par::map(&items, draw), sequential);
//! ```
//!
//! The workers are scoped threads that live for one call; nothing is
//! pooled or configured. Serving does not use this module: its one pool
//! is the verification server's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// `items.iter().map(f).collect()`, computed on up to
/// [`available_parallelism`](std::thread::available_parallelism) threads.
///
/// The result is in input order whatever order the items finish in. With
/// one CPU available, or fewer than two items, it is the plain sequential
/// map on the calling thread. Items are handed out one at a time, so
/// uneven item costs balance across the workers. If `f` panics on an
/// item, the remaining workers stop taking items and the panic resumes
/// on the caller with its original payload.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cpus = thread::available_parallelism().map_or(1, |n| n.get());
    map_on(cpus, items, f)
}

/// [`map`] on at most `workers` threads, the calling thread included.
fn map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // `next` only hands out indices; results reach the caller through
    // `join`, which orders them, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || {
        let _stop = StopOnPanic(&next, items.len());
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let parts = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut parts = vec![work()];
        for helper in helpers {
            match helper.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        parts
    });
    let mut done: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Hands out no further items once a worker unwinds.
struct StopOnPanic<'a>(&'a AtomicUsize, usize);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(self.1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::prelude::*;
    use std::time::Duration;

    #[test]
    fn output_order_is_input_order_when_items_take_uneven_time() {
        // Early items sleep longest, so they finish last.
        let items: Vec<u64> = (0..12).collect();
        let slow_first = |i: &u64| {
            thread::sleep(Duration::from_millis(12 - i));
            i * 10
        };
        let want: Vec<u64> = items.iter().map(|i| i * 10).collect();
        assert_eq!(map(&items, slow_first), want);
        assert_eq!(map_on(4, &items, slow_first), want);
    }

    #[test]
    fn empty_and_single_item_slices() {
        let none: [u32; 0] = [];
        assert!(map(&none, |x| x + 1).is_empty());
        assert!(map_on(4, &none, |x| x + 1).is_empty());
        assert_eq!(map(&[41u32], |x| x + 1), vec![42]);
        assert_eq!(map_on(4, &[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = map_on(3, &items, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, items);
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
    }

    #[test]
    #[should_panic(expected = "item 5 is poisoned")]
    fn a_panicking_item_repanics_on_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        map(&items, |&i| {
            assert!(i != 5, "item {i} is poisoned");
            i
        });
    }

    #[test]
    #[should_panic(expected = "item 5 is poisoned")]
    fn a_panicking_item_repanics_on_the_caller_with_four_workers() {
        let items: Vec<u32> = (0..8).collect();
        map_on(4, &items, |&i| {
            assert!(i != 5, "item {i} is poisoned");
            i
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any length, any worker count: the parallel map is the
        /// sequential one.
        #[test]
        fn equals_the_sequential_map(
            seed in 0u64..u64::MAX,
            len in 0usize..64,
            workers in 1usize..6,
        ) {
            let root = crate::SimRng::from_seed(seed);
            let items: Vec<u64> = (0..len as u64).collect();
            let draw = |i: &u64| root.fork_indexed("item", *i).next_u64();
            let want: Vec<u64> = items.iter().map(draw).collect();
            prop_assert_eq!(map(&items, draw), want.clone());
            prop_assert_eq!(map_on(workers, &items, draw), want);
        }
    }
}
