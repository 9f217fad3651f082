//! Server-side session registry with idle eviction.
//!
//! Sessions hold example state between requests, so a remote front door
//! must bound how long an abandoned conversation can pin memory. Every
//! session remembers when a request last named it; touching it pushes its
//! idle deadline (`last touch + ttl`) forward. The server's sweeper thread
//! calls [`SessionStore::sweep`] once per granularity, which drops every
//! session idle for at least the ttl in one pass over the map, and
//! [`SessionStore::touch`] checks the deadline itself, so an access
//! between sweeps cannot resurrect an expired session.
//!
//! Requests naming an evicted (or never-created) session get the typed
//! [`ServiceError::SessionNotFound`] — over the wire, an HTTP 404 with
//! that error as the body. Eviction never tears a request in half: a
//! handler holds the session's `Arc`, so an in-flight request on a
//! just-evicted session completes against the still-live state and only
//! the *next* attach sees the 404.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sst_service::{ServiceError, Session};

/// One registered session.
#[derive(Debug)]
struct Entry {
    session: Arc<Mutex<Session>>,
    /// When a request last named the session.
    touched: Instant,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<u64, Entry>,
    next_id: u64,
}

/// The registry. See the module docs.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<Inner>,
    /// Idle time after which a session expires (at least one granularity).
    ttl: Duration,
    granularity: Duration,
    evicted: AtomicU64,
}

impl SessionStore {
    /// A store evicting sessions idle for `ttl`, swept at `granularity`
    /// intervals (both floored to sane minimums).
    pub fn new(ttl: Duration, granularity: Duration) -> SessionStore {
        let granularity = granularity.max(Duration::from_millis(1));
        SessionStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                next_id: 1,
            }),
            ttl: ttl.max(granularity),
            granularity,
            evicted: AtomicU64::new(0),
        }
    }

    /// The eviction granularity (the sweeper thread's tick interval).
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn expired(&self, entry: &Entry, now: Instant) -> bool {
        now.duration_since(entry.touched) >= self.ttl
    }

    /// Registers a session, returning its id.
    pub fn create(&self, session: Session) -> u64 {
        let touched = Instant::now();
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let session = Arc::new(Mutex::new(session));
        inner.map.insert(id, Entry { session, touched });
        id
    }

    /// Fetches a live session and pushes its idle deadline forward.
    /// Evicted, closed and never-created ids all answer the same typed
    /// not-found.
    pub fn touch(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServiceError> {
        let now = Instant::now();
        let mut inner = self.lock();
        let entry = inner
            .map
            .get_mut(&id)
            .ok_or(ServiceError::SessionNotFound(id))?;
        // The sweeper only runs every granularity: an access between
        // sweeps must not resurrect an expired session.
        if self.expired(entry, now) {
            inner.map.remove(&id);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::SessionNotFound(id));
        }
        entry.touched = now;
        Ok(Arc::clone(&entry.session))
    }

    /// Closes a session explicitly.
    pub fn close(&self, id: u64) -> Result<(), ServiceError> {
        self.lock()
            .map
            .remove(&id)
            .map(drop)
            .ok_or(ServiceError::SessionNotFound(id))
    }

    /// Evicts every session idle for at least the ttl. Called by the
    /// server's sweeper thread.
    pub fn sweep(&self) {
        self.sweep_at(Instant::now());
    }

    fn sweep_at(&self, now: Instant) {
        let mut inner = self.lock();
        let before = inner.map.len();
        inner.map.retain(|_, entry| !self.expired(entry, now));
        let evicted = (before - inner.map.len()) as u64;
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Live sessions right now.
    pub fn live(&self) -> usize {
        self.lock().map.len()
    }

    /// Sessions evicted by the idle deadline so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    use sst_service::Engine;
    use sst_tables::{Database, Table};

    fn engine() -> Engine {
        let table = Table::new("T", vec!["A", "B"], vec![vec!["a", "b"]]).unwrap();
        Engine::new(StdArc::new(Database::from_tables(vec![table]).unwrap()))
    }

    #[test]
    fn touch_extends_the_deadline_and_eviction_fires_after_it() {
        let engine = engine();
        let store = SessionStore::new(Duration::from_millis(60), Duration::from_millis(5));
        let id = store.create(engine.session());
        // Keep touching within the ttl: the session must survive well
        // past one ttl of wall-clock.
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(25));
            store.touch(id).expect("touched session stays live");
        }
        // Now go idle past the ttl: the sweep evicts it.
        std::thread::sleep(Duration::from_millis(90));
        store.sweep();
        assert_eq!(store.live(), 0);
        assert_eq!(store.evicted(), 1);
        assert!(matches!(
            store.touch(id),
            Err(ServiceError::SessionNotFound(i)) if i == id
        ));
    }

    #[test]
    fn one_sweep_evicts_exactly_the_expired_sessions() {
        let engine = engine();
        let ttl = Duration::from_secs(60);
        let store = SessionStore::new(ttl, Duration::from_millis(10));
        // Four sessions at different idle ages: each is created strictly
        // after the previous one's creation finished.
        let mut created = Vec::new();
        for _ in 0..4 {
            let id = store.create(engine.session());
            created.push((id, Instant::now()));
            std::thread::sleep(Duration::from_millis(2));
        }
        // At the second session's deadline the first two have been idle
        // for the whole ttl and the last two have not.
        store.sweep_at(created[1].1 + ttl);
        assert_eq!(store.live(), 2);
        assert_eq!(store.evicted(), 2);
        for &(id, _) in &created[..2] {
            assert!(store.touch(id).is_err(), "session {id} outlived its ttl");
        }
        for &(id, _) in &created[2..] {
            store.touch(id).expect("younger sessions stay live");
        }
        assert_eq!(store.evicted(), 2, "a swept session is counted once");
    }

    #[test]
    fn access_between_sweeps_cannot_resurrect_an_expired_session() {
        let engine = engine();
        // No sweep runs during the test, so the deadline check in `touch`
        // does the work.
        let store = SessionStore::new(Duration::from_millis(30), Duration::from_millis(10));
        let id = store.create(engine.session());
        std::thread::sleep(Duration::from_millis(75));
        assert!(store.touch(id).is_err());
        assert_eq!(store.live(), 0);
    }

    #[test]
    fn close_is_immediate_and_idempotent() {
        let engine = engine();
        let store = SessionStore::new(Duration::from_secs(60), Duration::from_millis(10));
        let id = store.create(engine.session());
        assert_eq!(store.live(), 1);
        store.close(id).expect("close live session");
        assert!(matches!(
            store.close(id),
            Err(ServiceError::SessionNotFound(_))
        ));
        assert_eq!(store.live(), 0);
        // Closed-then-swept: a closed session is not an eviction.
        std::thread::sleep(Duration::from_millis(20));
        store.sweep();
        assert_eq!(store.evicted(), 0);
    }
}
