//! A scoped worker pool for deterministic data parallelism, plus the
//! cooperative [`CancelToken`] the synthesis hot loops check.
//!
//! The pool serves the two places parallelism is measured to pay:
//! `Engine::learn_batch`/`apply_batch` fan independent requests across it,
//! and [`CompiledProgram::run_column`](crate::CompiledProgram::run_column)
//! fans row chunks across it (at most four per worker). Items are that
//! coarse, so scheduling is one shared cursor: each worker claims the next
//! index with `fetch_add` until the cursor passes the end, which also
//! rebalances skewed per-item costs. Results come back **in input order**
//! whatever the schedule, so every observable is identical at every pool
//! width.
//!
//! Workers are spawned per call under [`std::thread::scope`], so borrowed
//! (non-`'static`) captures flow into the closure and panics propagate to
//! the caller on join. A [`Pool`] is just the configured width — creating
//! one is free, and `threads <= 1` (or a single item) short-circuits to a
//! plain serial loop with no atomics and no threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The machine's available parallelism, probed once per process; `1` when
/// the runtime cannot tell.
pub fn default_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A scoped worker pool: the configured width. Holds no threads — each
/// [`Pool::par_map_indexed`] call spawns its workers under a
/// [`std::thread::scope`] and joins them before returning.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers; `0` means [`default_threads`].
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
        }
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True iff calls may actually fan out (`threads > 1`).
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// `f(i, &items[i])` runs exactly once per index, on some worker, and
    /// slot `i` of the output holds that call's result, so the returned
    /// value is identical for every pool width (including the serial
    /// `threads <= 1` path). A panic inside `f` resurfaces on the caller
    /// with its original payload once every worker has stopped.
    pub fn par_map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }

        // The cursor publishes no data — each `fetch_add` hands out a
        // distinct index, and results travel back through `join` — so
        // `Relaxed` suffices.
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(i, item)));
            }
        };
        let mut results: Vec<(usize, U)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, u)| u).collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(0)
    }
}

/// A cheap cooperative cancellation handle: caller-triggered
/// ([`CancelToken::cancel`]), deadline-triggered
/// ([`CancelToken::with_deadline`]), or both.
///
/// The default token is *inert* — it holds no allocation and
/// [`is_cancelled`](CancelToken::is_cancelled) is a single `Option` check
/// that branches on `None`, so threading a token through hot loops costs
/// nothing for callers that never set one. Live tokens share one
/// atomically-flagged allocation across clones, so cancelling any clone
/// cancels them all; a deadline latches into the flag the first time it is
/// observed expired, making subsequent checks a plain atomic load.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A live token with no deadline; it cancels only when
    /// [`cancel`](CancelToken::cancel) is called on any clone.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// A live token that reports cancelled once `budget` has elapsed (and
    /// immediately if [`cancel`](CancelToken::cancel) fires first).
    /// Saturates to "never expires by time" if the deadline overflows the
    /// clock.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Instant::now().checked_add(budget),
            })),
        }
    }

    /// Flags the token (and every clone of it) as cancelled.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Release);
        }
    }

    /// True iff the token was cancelled or its deadline has passed.
    /// Cooperative checkpoints call this at coarse granularity (per
    /// node-pair, per DAG-product edge, per job) — one relaxed load on
    /// the warm path.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match inner.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                // Latch so future checks skip the clock read.
                inner.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// True iff this token can ever cancel (i.e. it is not the inert
    /// default).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert_eq!(Pool::new(0).threads(), default_threads());
        assert!(!Pool::new(1).is_parallel());
        assert!(Pool::new(2).is_parallel());
    }

    #[test]
    fn serial_and_parallel_agree_on_order() {
        let items: Vec<u64> = (0..997).collect();
        let serial = Pool::new(1).par_map_indexed(&items, |i, &x| x * 3 + i as u64);
        for threads in [2, 3, 8] {
            let par = Pool::new(threads).par_map_indexed(&items, |i, &x| x * 3 + i as u64);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let items: Vec<usize> = (0..512).collect();
        let counters: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        Pool::new(4).par_map_indexed(&items, |i, _| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn skewed_workloads_rebalance() {
        // One pathologically heavy item first: while one worker is busy
        // with it, the others must claim and finish the rest.
        let items: Vec<u32> = (0..64).collect();
        let out = Pool::new(4).par_map_indexed(&items, |i, &x| {
            if i == 0 {
                // Busy work, not sleep: keep the test deterministic-ish.
                let mut acc = 0u64;
                for k in 0..2_000_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                x as u64 + (acc & 1)
            } else {
                x as u64
            }
        });
        for (i, &v) in out.iter().enumerate().skip(1) {
            assert_eq!(v, i as u64);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new(8).par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(
            Pool::new(8).par_map_indexed(&[7u8], |i, &x| (i, x)),
            vec![(0, 7)]
        );
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        let out = Pool::new(16).par_map_indexed(&items, |_, &x| x * x);
        assert_eq!(out, vec![1, 4, 9]);
    }

    #[test]
    fn borrows_non_static_state() {
        let base = [10u64, 20, 30, 40];
        let items: Vec<usize> = (0..base.len()).collect();
        let out = Pool::new(2).par_map_indexed(&items, |_, &i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31, 41]);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                Pool::new(threads).par_map_indexed(&items, |i, &x| {
                    if i == 17 {
                        std::panic::panic_any(format!("item {i} failed"));
                    }
                    x
                })
            })
            .expect_err("a panicking item must fail the whole map");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("item 17 failed"),
                "threads={threads}: the original payload resurfaces"
            );
        }
    }

    #[test]
    fn cancel_token_states() {
        let inert = CancelToken::default();
        assert!(!inert.is_live());
        assert!(!inert.is_cancelled());
        inert.cancel(); // no-op
        assert!(!inert.is_cancelled());

        let manual = CancelToken::new();
        let clone = manual.clone();
        assert!(manual.is_live());
        assert!(!manual.is_cancelled());
        clone.cancel();
        assert!(manual.is_cancelled(), "cancel propagates across clones");

        let expired = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(expired.is_cancelled());
        assert!(expired.is_cancelled(), "latched after first observation");

        let generous = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!generous.is_cancelled());
    }
}
