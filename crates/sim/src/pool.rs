//! Bounded parallelism for the sweep engine.
//!
//! The experiment harness fans a benchmark × scheme matrix out across
//! worker threads. Spawning one OS thread per job oversubscribes the
//! host as soon as a sweep has more points than the machine has cores
//! (a 14-benchmark × 4-scheme matrix is 56 runs), so [`scoped_map`]
//! runs a bounded number of scoped workers over `0..n` and returns the
//! results in index order regardless of completion order: determinism
//! is preserved by construction, and a worker panic reaches the caller
//! when the scope ends.
//!
//! Worker-count policy lives in [`default_jobs`]: the `DEACT_JOBS`
//! environment variable wins, otherwise `available_parallelism`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `DEACT_JOBS` if set and positive, otherwise the host's
/// available parallelism.
pub fn default_jobs() -> usize {
    std::env::var("DEACT_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs `f(0..n)` across at most `threads` scoped workers and returns
/// the results in index order.
///
/// `f` may borrow from the caller's stack: the workers live inside a
/// `std::thread::scope`. Work is handed out by an atomic cursor, so the
/// mapping of items to threads is dynamic but the returned vector is
/// always `[f(0), f(1), …, f(n-1)]` — parallelism never changes the
/// output.
///
/// # Panics
///
/// Propagates the first worker panic.
///
/// # Examples
///
/// ```
/// use fam_sim::scoped_map;
///
/// let inputs = vec![1u64, 2, 3, 4];
/// let doubled = scoped_map(2, inputs.len(), |i| inputs[i] * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub fn scoped_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *results[i].lock().expect("result slot poisoned") = Some(value);
                }
                // scope() unblocks on closure return, before TLS
                // destructors run — flush profiler spans explicitly so
                // the caller's take_report sees this worker's data.
                if crate::profile::is_enabled() {
                    crate::profile::flush_thread();
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was produced")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_map_orders_results_by_index() {
        for threads in [1, 2, 8, 64] {
            let out = scoped_map(threads, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scoped_map_empty_input() {
        let out: Vec<u64> = scoped_map(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn scoped_map_borrows_caller_data() {
        let data = [String::from("a"), String::from("bb")];
        let lens = scoped_map(2, data.len(), |i| data[i].len());
        assert_eq!(lens, vec![1, 2]);
    }

    #[test]
    #[should_panic]
    fn scoped_map_reraises_a_worker_panic() {
        // Every item panics, so every worker dies; the caller must see
        // the panic rather than wait for results that never come.
        let _: Vec<u64> = scoped_map(2, 8, |i| panic!("item {i}"));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
