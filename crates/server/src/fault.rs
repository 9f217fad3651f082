//! Deterministic fault injection for the serving stack (the chaos plane).
//!
//! Every build compiles it; a server without a plan (the default) pays one
//! `Option` check per draw site. A [`FaultPlan`] is attached to a
//! server through `ServerConfig::fault_plan`; the connection loop then
//! draws from it at three named sites — before reading a request, around
//! the handler, and before writing the response — and a draw may come
//! back as a delay, a dropped connection, a mid-frame truncation, or an
//! injected handler panic.
//!
//! Draws are seeded (splitmix64 over a global draw counter), so a chaos
//! run with a fixed seed injects the same fault *mix* every time, and
//! per-action counters let the harness assert exactly how much chaos it
//! actually exercised. `set_enabled(false)` turns the plan off atomically
//! mid-run — the `chaos_replay` test (`cargo test --test chaos_replay`)
//! uses that for its final fault-free wave over the same live server.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Where in the request lifecycle a fault is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Before reading the next request off the connection.
    PreRead,
    /// Around the request handler (inside the `catch_unwind` boundary).
    Handler,
    /// After the handler, before writing the response.
    PreWrite,
}

/// What an unlucky draw does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this long at the site (stalls the connection thread; with a
    /// request deadline in force this forces 408s).
    DelayMs(u64),
    /// Close the connection without reading or writing anything further.
    DropConnection,
    /// Write only the first half of the response bytes, then close —
    /// the client sees a frame cut mid-body.
    TruncateResponse,
    /// Panic inside the handler (isolated by `catch_unwind`, surfaced to
    /// the client as a typed 500).
    Panic,
}

/// Per-action injection counts, snapshotted by [`FaultPlan::injected`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected delays.
    pub delays: u64,
    /// Dropped connections.
    pub drops: u64,
    /// Truncated responses.
    pub truncates: u64,
    /// Injected handler panics.
    pub panics: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.delays + self.drops + self.truncates + self.panics
    }
}

/// The seeded fault schedule. One per server; thread-safe (all state is
/// atomics) and deterministic in its *sequence* of draw outcomes for a
/// given seed — concurrent connections interleave draws
/// nondeterministically, but the harness asserts on counts and typed
/// outcomes, not on which request got which fault.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Fault probability per site visit, parts per million.
    rate_ppm: u32,
    /// Duration of an injected delay.
    delay_ms: u64,
    enabled: AtomicBool,
    draws: AtomicU64,
    delays: AtomicU64,
    drops: AtomicU64,
    truncates: AtomicU64,
    panics: AtomicU64,
}

/// splitmix64: the standard 64-bit finalizer — a cheap, well-mixed
/// stateless PRNG, deterministic without a rand dependency (fault draws
/// here, retry jitter in the client).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan injecting a fault on `rate_ppm` parts-per-million of site
    /// visits, with delays of `delay_ms`.
    pub fn new(seed: u64, rate_ppm: u32, delay_ms: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rate_ppm: rate_ppm.min(1_000_000),
            delay_ms,
            enabled: AtomicBool::new(true),
            draws: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            truncates: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Turns injection on or off atomically (off: every draw is a no-op,
    /// counters freeze).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Whether the plan is currently injecting.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// One draw at `site`: `None` almost always, a fault on the seeded
    /// `rate_ppm` fraction of visits. Only actions meaningful at the site
    /// are drawn (e.g. a panic only inside the handler boundary).
    pub fn draw(&self, site: FaultSite) -> Option<FaultAction> {
        if !self.is_enabled() {
            return None;
        }
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let r = splitmix64(self.seed ^ ((site as u64) << 56) ^ n);
        if (r % 1_000_000) as u32 >= self.rate_ppm {
            return None;
        }
        let pick = splitmix64(r);
        let action = match site {
            FaultSite::PreRead => {
                if pick.is_multiple_of(2) {
                    FaultAction::DelayMs(self.delay_ms)
                } else {
                    FaultAction::DropConnection
                }
            }
            FaultSite::Handler => {
                if pick.is_multiple_of(2) {
                    FaultAction::DelayMs(self.delay_ms)
                } else {
                    FaultAction::Panic
                }
            }
            FaultSite::PreWrite => match pick % 3 {
                0 => FaultAction::DelayMs(self.delay_ms),
                1 => FaultAction::DropConnection,
                _ => FaultAction::TruncateResponse,
            },
        };
        let counter = match action {
            FaultAction::DelayMs(_) => &self.delays,
            FaultAction::DropConnection => &self.drops,
            FaultAction::TruncateResponse => &self.truncates,
            FaultAction::Panic => &self.panics,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(action)
    }

    /// Snapshot of how many faults of each kind have been injected.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            delays: self.delays.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            truncates: self.truncates.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires_and_counts_freeze() {
        let plan = FaultPlan::new(7, 1_000_000, 1);
        assert!(plan.draw(FaultSite::Handler).is_some());
        plan.set_enabled(false);
        for _ in 0..100 {
            assert!(plan.draw(FaultSite::PreRead).is_none());
        }
        assert_eq!(plan.injected().total(), 1);
    }

    #[test]
    fn rate_is_roughly_respected_and_deterministic() {
        let a = FaultPlan::new(42, 100_000, 1); // 10%
        let b = FaultPlan::new(42, 100_000, 1);
        let hits_a: Vec<Option<FaultAction>> =
            (0..2000).map(|_| a.draw(FaultSite::PreWrite)).collect();
        let hits_b: Vec<Option<FaultAction>> =
            (0..2000).map(|_| b.draw(FaultSite::PreWrite)).collect();
        assert_eq!(hits_a, hits_b, "same seed, same schedule");
        let fired = hits_a.iter().flatten().count();
        assert!((100..300).contains(&fired), "10% of 2000 ≈ {fired}");
        assert_eq!(a.injected().total(), fired as u64);
        // A handler-site draw never yields truncation, a pre-write draw
        // never yields a panic.
        let c = FaultPlan::new(1, 1_000_000, 1);
        for _ in 0..50 {
            let action = c.draw(FaultSite::Handler).unwrap();
            assert!(!matches!(
                action,
                FaultAction::TruncateResponse | FaultAction::DropConnection
            ));
            let action = c.draw(FaultSite::PreWrite).unwrap();
            assert!(!matches!(action, FaultAction::Panic));
        }
    }
}
