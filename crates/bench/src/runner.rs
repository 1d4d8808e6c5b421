//! Deterministic parallel execution of independent experiment cells.
//!
//! Every figure harness is a loop over independent `(config, seed)`
//! simulation cells; each cell owns its own [`sps_ha::HaSimulation`], so
//! cells never share mutable state and can run on any thread. The runner
//! fans a cell list out over `--jobs N` worker threads and hands the
//! results back **in submission order**, so tables, notes, and CSV exports
//! are byte-identical to a serial run regardless of thread count.
//!
//! Two properties keep this simple and safe with zero dependencies:
//!
//! * **Caller participation** — the thread calling [`Runner::map`] always
//!   works through the same claim loop as the helpers. A map that gets no
//!   helper budget is exactly the serial `for` loop it replaced.
//! * **A shared helper budget** — the runner owns `jobs - 1` helper slots.
//!   Nested maps (a figure cell fanning out its own sub-cells while
//!   `figures` fans out figures) take whatever is left — usually
//!   nothing — and degrade to serial instead of oversubscribing or
//!   deadlocking.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A work-stealing fan-out over independent experiment cells.
#[derive(Debug)]
pub struct Runner {
    /// Helper threads still available to hand out (`jobs - 1` when idle).
    helpers: Mutex<usize>,
}

impl Runner {
    /// A runner that may use up to `jobs` threads (the caller plus
    /// `jobs - 1` helpers). `jobs` is clamped to at least 1.
    pub fn new(jobs: usize) -> Runner {
        Runner {
            helpers: Mutex::new(jobs.max(1) - 1),
        }
    }

    /// A single-threaded runner: `map` is exactly the serial loop.
    pub fn serial() -> Runner {
        Runner::new(1)
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// The output is indistinguishable from
    /// `items.into_iter().map(f).collect()`: each cell is claimed by
    /// exactly one thread via an atomic cursor, and results are stored by
    /// cell index, so thread scheduling cannot reorder them.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        // Reserve helpers up front; never more than the cells could use.
        let budget = if n <= 1 {
            0
        } else {
            let mut avail = self.helpers.lock().expect("helper budget poisoned");
            let take = (*avail).min(n - 1);
            *avail -= take;
            take
        };
        if budget == 0 {
            return items.into_iter().map(f).collect();
        }

        let tasks: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = tasks[i]
                .lock()
                .expect("cell poisoned")
                .take()
                .expect("cell claimed twice");
            let out = f(item);
            *slots[i].lock().expect("slot poisoned") = Some(out);
        };
        std::thread::scope(|s| {
            for _ in 0..budget {
                s.spawn(work);
            }
            work();
        });

        *self.helpers.lock().expect("helper budget poisoned") += budget;
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot poisoned")
                    .expect("cell never ran")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let runner = Runner::new(8);
        let items: Vec<usize> = (0..100).collect();
        let out = runner.map(items.clone(), |i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_runner_matches_parallel() {
        let inputs: Vec<u64> = (0..37).collect();
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(13);
        let serial = Runner::serial().map(inputs.clone(), f);
        for jobs in [2, 4, 8] {
            assert_eq!(Runner::new(jobs).map(inputs.clone(), f), serial);
        }
    }

    #[test]
    fn every_cell_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let runner = Runner::new(4);
        let out = runner.map((0..50).collect(), |i: u64| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 50);
        assert_eq!(calls.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn nested_maps_degrade_to_serial_without_deadlock() {
        let runner = Runner::new(2);
        let out = runner.map((0..8).collect::<Vec<u32>>(), |i| {
            // Inner fan-out while the outer map holds the helper budget:
            // must complete (serially) rather than deadlock.
            runner.map((0..4).collect::<Vec<u32>>(), |j| i * 10 + j)
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[3], vec![30, 31, 32, 33]);
        // The budget is returned afterwards.
        assert_eq!(*runner.helpers.lock().unwrap(), 1);
    }

    #[test]
    fn empty_and_single_item_maps_work() {
        let runner = Runner::new(4);
        assert_eq!(runner.map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        assert_eq!(runner.map(vec![9u32], |i| i + 1), vec![10]);
    }
}
