//! Per-request serving metrics: latency histograms, counters, gauges.
//!
//! Everything is lock-free atomics — the observe path is a handful of
//! relaxed fetch-adds, cheap enough to wrap every request including the
//! memo-served ~0.1 ms learns. `/metrics` renders Prometheus-style text:
//! per-endpoint request/error counters and latency quantiles (estimated
//! from log₂ histograms), the admission in-flight/queued gauges and
//! rejection counter, session lifecycle gauges, and the shared
//! `DagCache` hit/miss counters of every hosted engine (cache
//! effectiveness under live traffic is the serving stack's whole reason
//! to exist, so it is first-class here).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Log₂-bucketed latency histogram over nanoseconds: bucket `i` covers
/// `[2^i, 2^(i+1))` ns, 40 buckets ≈ 18 minutes of range.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; Self::BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    const BUCKETS: usize = 40;

    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed latencies, ns.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (0 < q ≤ 1) in nanoseconds by linear
    /// interpolation inside the holding bucket; 0 with no observations.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let here = bucket.load(Ordering::Relaxed);
            if seen + here >= rank {
                let lo = 1u64 << i;
                let hi = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                let frac = (rank - seen) as f64 / here as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += here;
        }
        u64::MAX
    }
}

/// The endpoints the server meters, with their metric label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/{engine}/learn`.
    Learn,
    /// `POST /v1/{engine}/apply`.
    Apply,
    /// `POST /v1/{engine}/sessions`.
    SessionCreate,
    /// `GET /v1/{engine}/sessions/{id}`.
    SessionAttach,
    /// `POST /v1/{engine}/sessions/{id}/examples`.
    AddExamples,
    /// `POST /v1/{engine}/sessions/{id}/inputs`.
    WatchInputs,
    /// `GET /v1/{engine}/sessions/{id}/status`.
    Status,
    /// `POST /v1/{engine}/sessions/{id}/run_column`.
    RunColumn,
    /// `DELETE /v1/{engine}/sessions/{id}`.
    SessionClose,
    /// Everything else (`/metrics`, `/healthz`, unroutable paths).
    Other,
}

impl Endpoint {
    /// Every metered endpoint, in render order.
    pub const ALL: [Endpoint; 10] = [
        Endpoint::Learn,
        Endpoint::Apply,
        Endpoint::SessionCreate,
        Endpoint::SessionAttach,
        Endpoint::AddExamples,
        Endpoint::WatchInputs,
        Endpoint::Status,
        Endpoint::RunColumn,
        Endpoint::SessionClose,
        Endpoint::Other,
    ];

    /// The metric label.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Learn => "learn",
            Endpoint::Apply => "apply",
            Endpoint::SessionCreate => "session_create",
            Endpoint::SessionAttach => "session_attach",
            Endpoint::AddExamples => "add_examples",
            Endpoint::WatchInputs => "watch_inputs",
            Endpoint::Status => "status",
            Endpoint::RunColumn => "run_column",
            Endpoint::SessionClose => "session_close",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        Endpoint::ALL
            .iter()
            .position(|e| *e == self)
            .expect("endpoint is in ALL")
    }
}

/// Per-endpoint counters + histogram.
#[derive(Debug, Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

/// The server's metric registry. One instance per server, shared across
/// connection threads.
#[derive(Debug)]
pub struct Metrics {
    endpoints: Vec<EndpointMetrics>,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    timeouts: AtomicU64,
    panics: AtomicU64,
    retries: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            endpoints: Endpoint::ALL.iter().map(|_| Default::default()).collect(),
            rejected: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Records one finished request: its endpoint, wall-clock, and
    /// whether it answered 2xx.
    pub fn observe(&self, endpoint: Endpoint, elapsed: Duration, ok: bool) {
        let m = &self.endpoints[endpoint.index()];
        m.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.latency.observe(elapsed);
    }

    /// Records one admission-control rejection (also observed as an
    /// error by [`Metrics::observe`]).
    pub fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests rejected by admission control.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Records one request whose deadline expired (a typed 408 — either a
    /// cooperatively cancelled synthesis or a mid-request read stall).
    pub fn deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Total deadline-exceeded (408) answers.
    pub fn deadline_exceeded_total(&self) -> u64 {
        self.deadline_exceeded.load(Ordering::Relaxed)
    }

    /// Records one socket-level timeout (a peer that stalled mid-request
    /// past the read budget).
    pub fn timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Total mid-request socket timeouts.
    pub fn timeouts_total(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Records one handler panic isolated by the per-request
    /// `catch_unwind` boundary (answered as a typed 500).
    pub fn panic_caught(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Total isolated handler panics.
    pub fn panics_total(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Records one request that declared itself a client retry
    /// (`x-retry-attempt` header).
    pub fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests that were client retries.
    pub fn retries_total(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Renders the endpoint section of `/metrics` (the caller appends the
    /// gauge and cache sections it owns the state for).
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("# TYPE sst_requests_total counter\n");
        out.push_str("# TYPE sst_request_errors_total counter\n");
        out.push_str("# TYPE sst_request_latency_ns summary\n");
        for endpoint in Endpoint::ALL {
            let m = &self.endpoints[endpoint.index()];
            let requests = m.requests.load(Ordering::Relaxed);
            if requests == 0 {
                continue;
            }
            let label = endpoint.name();
            let _ = writeln!(out, "sst_requests_total{{endpoint=\"{label}\"}} {requests}");
            let _ = writeln!(
                out,
                "sst_request_errors_total{{endpoint=\"{label}\"}} {}",
                m.errors.load(Ordering::Relaxed)
            );
            for (q, qn) in [(0.5, "0.5"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "sst_request_latency_ns{{endpoint=\"{label}\",quantile=\"{qn}\"}} {}",
                    m.latency.quantile_ns(q)
                );
            }
            let _ = writeln!(
                out,
                "sst_request_latency_ns_sum{{endpoint=\"{label}\"}} {}",
                m.latency.sum_ns()
            );
            let _ = writeln!(
                out,
                "sst_request_latency_ns_count{{endpoint=\"{label}\"}} {}",
                m.latency.count()
            );
        }
        let _ = writeln!(out, "# TYPE sst_rejected_total counter");
        let _ = writeln!(out, "sst_rejected_total {}", self.rejected());
        let _ = writeln!(out, "# TYPE sst_deadline_exceeded_total counter");
        let _ = writeln!(
            out,
            "sst_deadline_exceeded_total {}",
            self.deadline_exceeded_total()
        );
        let _ = writeln!(out, "# TYPE sst_timeouts_total counter");
        let _ = writeln!(out, "sst_timeouts_total {}", self.timeouts_total());
        let _ = writeln!(out, "# TYPE sst_panics_total counter");
        let _ = writeln!(out, "sst_panics_total {}", self.panics_total());
        let _ = writeln!(out, "# TYPE sst_retries_total counter");
        let _ = writeln!(out, "sst_retries_total {}", self.retries_total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.observe(Duration::from_micros(us));
        }
        let p50 = h.quantile_ns(0.5);
        // The median observation is 50 µs; its bucket is [32, 64) µs.
        assert!((32_000..64_000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99);
        // The tail observation is 10 ms; its bucket is [8.4, 16.8) ms.
        assert!(p99 > 8_000_000, "p99 = {p99}");
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.count(), 0);
    }
}
