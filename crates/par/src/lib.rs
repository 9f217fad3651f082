//! Scoped work-stealing pool for deterministic data parallelism.
//!
//! The build container has no registry access, so this crate vendors the
//! small slice of rayon the service plane needs (batch fan-out and
//! `run_column`'s row ranges): fan a fixed slice of independent work items
//! over a bounded set of worker threads and collect the results **in input
//! order**. Determinism is by construction — every
//! item's result is written into its own pre-assigned output slot, so
//! thread scheduling can only change *when* a slot is filled, never *which*
//! value it holds or where it lands.
//!
//! Scheduling is lock-free range splitting (the classic Lazy Binary
//! Splitting shape): each worker owns a contiguous index range packed into
//! one `AtomicU64` (`head` in the high half, `tail` in the low half). The
//! owner claims one index at a time by CAS from the head; an idle worker
//! steals the *upper half* of the fullest remaining range by CAS on the
//! tail and adopts it as its own. Skewed per-item costs therefore rebalance
//! without a central queue, and a uniform workload degenerates to one CAS
//! per item with zero contention.
//!
//! Workers are spawned per call under [`std::thread::scope`], so borrowed
//! (non-`'static`) captures flow into the closure and panics propagate to
//! the caller on join. A [`Pool`] is just the configured width — creating
//! one is free, and `threads <= 1` (or a single item) short-circuits to a
//! plain serial loop with no atomics and no threads, reproducing the
//! serial execution exactly.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// A scoped worker pool: the configured width plus the scheduling
/// primitives. Holds no threads — each [`Pool::par_map_indexed`] call
/// spawns its workers under a [`std::thread::scope`] and joins them before
/// returning.
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
    /// `f(i, &items[i])` runs exactly once per index, on some worker; the
    /// output vector's slot `i` always holds that call's result, so the
    /// returned value is identical for every pool width (including the
    /// serial `threads <= 1` path). A panic inside `f` aborts the map and
    /// resurfaces on the caller; already-computed results are leaked, never
    /// dropped half-built.
    pub fn par_map_indexed<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let len = items.len();
        let workers = self.threads.min(len);
        // The claiming protocol packs indices into u32 halves of one
        // atomic word; beyond that the serial path is the only sound one
        // (and a 4-billion-item map has bigger problems than threads).
        if workers <= 1 || len > u32::MAX as usize {
            return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }

        let mut results: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
        // SAFETY: `MaybeUninit` needs no initialization; the length is
        // within the just-reserved capacity.
        unsafe { results.set_len(len) };
        let out = SlotWriter {
            ptr: results.as_mut_ptr(),
            len,
        };

        // Pre-split the index space into one contiguous range per worker.
        let ranges: Vec<Range> = (0..workers)
            .map(|w| {
                let start = len * w / workers;
                let end = len * (w + 1) / workers;
                Range::new(start as u32, end as u32)
            })
            .collect();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let ranges = &ranges;
                let out = &out;
                let f = &f;
                scope.spawn(move || {
                    let own = w;
                    loop {
                        // Drain the owned range one index at a time.
                        while let Some(i) = ranges[own].claim_one() {
                            let i = i as usize;
                            // SAFETY: every index is claimed exactly once
                            // across all workers (ranges are disjoint and
                            // stealing removes indices from the victim
                            // before the thief sees them), so each slot is
                            // written once.
                            unsafe { out.write(i, f(i, &items[i])) };
                        }
                        // Steal the upper half of the fullest range.
                        let Some(victim) = (0..workers)
                            .filter(|&v| v != own)
                            .max_by_key(|&v| ranges[v].remaining())
                            .filter(|&v| ranges[v].remaining() > 0)
                        else {
                            break;
                        };
                        match ranges[victim].steal_half() {
                            Some((start, end)) => {
                                // Adopt the stolen interval: the CAS above
                                // removed it from the victim, so publishing
                                // it as our own range hands other thieves a
                                // consistent view.
                                ranges[own].publish(start, end);
                            }
                            None => {
                                // Lost the race; rescan. Another worker is
                                // making progress, so this spin is bounded
                                // by the remaining work.
                                std::hint::spin_loop();
                            }
                        }
                    }
                });
            }
        });

        // All workers joined without panicking: every slot is initialized.
        let mut results = ManuallyDrop::new(results);
        // SAFETY: `MaybeUninit<U>` and `U` share layout; all `len` slots
        // were written exactly once above.
        unsafe { Vec::from_raw_parts(results.as_mut_ptr() as *mut U, len, results.capacity()) }
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
    /// An inert token that can never cancel (the zero-cost default).
    pub fn inert() -> CancelToken {
        CancelToken::default()
    }

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
    /// node-pair, per job) — one relaxed load on the warm path.
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

/// Shared pointer to the output slots. Indices are partitioned across
/// workers by the claiming protocol, so concurrent writes never alias.
struct SlotWriter<U> {
    ptr: *mut MaybeUninit<U>,
    len: usize,
}

// SAFETY: workers write disjoint slots (each index claimed once) and the
// buffer outlives the scope; `U: Send` moves the values across threads.
unsafe impl<U: Send> Send for SlotWriter<U> {}
unsafe impl<U: Send> Sync for SlotWriter<U> {}

impl<U> SlotWriter<U> {
    /// Writes slot `i`.
    ///
    /// # Safety
    /// `i < len`, and no other call (on any thread) writes the same `i`.
    unsafe fn write(&self, i: usize, value: U) {
        debug_assert!(i < self.len);
        unsafe { self.ptr.add(i).write(MaybeUninit::new(value)) };
    }
}

/// A contiguous index interval `[head, tail)` packed into one `AtomicU64`
/// (`head` high, `tail` low) so claim and steal are single-word CAS ops.
struct Range(AtomicU64);

impl Range {
    fn new(head: u32, tail: u32) -> Range {
        Range(AtomicU64::new(pack(head, tail)))
    }

    /// Indices left in the interval (a racy snapshot — callers only use it
    /// as a victim-selection heuristic).
    fn remaining(&self) -> u32 {
        let (head, tail) = unpack(self.0.load(Ordering::Relaxed));
        tail.saturating_sub(head)
    }

    /// Claims the next index from the front, if any.
    fn claim_one(&self) -> Option<u32> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(cur);
            if head >= tail {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head + 1, tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Steals the upper half (at least one index) of the interval. `None`
    /// when the interval emptied or the CAS raced.
    fn steal_half(&self) -> Option<(u32, u32)> {
        let cur = self.0.load(Ordering::Acquire);
        let (head, tail) = unpack(cur);
        if head >= tail {
            return None;
        }
        let mid = head + (tail - head) / 2;
        self.0
            .compare_exchange(cur, pack(head, mid), Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| (mid, tail))
    }

    /// Replaces the interval wholesale (adopting a stolen one). Only the
    /// owner publishes, and only while its own interval is empty, so no
    /// claimable index is ever lost.
    fn publish(&self, head: u32, tail: u32) {
        self.0.store(pack(head, tail), Ordering::Release);
    }
}

fn pack(head: u32, tail: u32) -> u64 {
    ((head as u64) << 32) | tail as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        // One pathologically heavy item at the front of the first worker's
        // range: the rest of that range must get stolen and finished.
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

    #[test]
    fn range_claim_and_steal_protocol() {
        let r = Range::new(0, 10);
        assert_eq!(r.claim_one(), Some(0));
        let (s, e) = r.steal_half().expect("nonempty");
        // After one claim the interval is [1, 10): thief takes [5, 10).
        assert_eq!((s, e), (5, 10));
        assert_eq!(r.remaining(), 4);
        let mut rest: Vec<u32> = Vec::new();
        while let Some(i) = r.claim_one() {
            rest.push(i);
        }
        assert_eq!(rest, vec![1, 2, 3, 4]);
        assert!(r.steal_half().is_none());
    }
}
