//! Server-side session registry with deadline-wheel idle eviction.
//!
//! Sessions hold example state between requests, so a remote front door
//! must bound how long an abandoned conversation can pin memory. Every
//! session carries an idle deadline (`last touch + ttl`); touching it
//! (any request naming the session) pushes the deadline forward. Expiry
//! is tracked by a classic hashed timing wheel: time is divided into
//! granularity-sized ticks, the wheel has one slot per tick across the
//! ttl span, and arming a deadline is one `Vec::push` into
//! `slot[deadline % slots]` — no sorted structure, no per-session timer.
//! A session is armed once, at creation; a touch only moves its deadline.
//! A sweep (driven by the server's sweeper thread, and opportunistically
//! by any access) advances the cursor one tick at a time, draining each
//! slot it passes; a drained arming whose session was closed is dropped,
//! one whose deadline really passed evicts the session, and one whose
//! session was touched since is pushed into the slot of its new deadline.
//! The wheel thus holds one arming per session, not one per request: with
//! a five-minute ttl, arming every touch would keep a wheel entry for
//! every request of the last five minutes.
//!
//! Requests naming an evicted (or never-created) session get the typed
//! [`ServiceError::SessionNotFound`] — over the wire, an HTTP 404 with
//! that error as the body. Eviction never tears a request in half: a
//! handler holds the session's `Arc`, so an in-flight request on a
//! just-evicted session completes against the still-live state and only
//! the *next* attach sees the 404.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sst_service::{ServiceError, Session};

/// One registered session.
#[derive(Debug)]
struct Entry {
    session: Arc<Mutex<Session>>,
    /// Tick at which the session expires unless touched again. Its one
    /// wheel arming sits at or before this tick.
    deadline: u64,
}

#[derive(Debug)]
struct Inner {
    map: HashMap<u64, Entry>,
    /// `slots[deadline % slots.len()]` holds the ids of the sessions
    /// armed for that deadline.
    slots: Vec<Vec<u64>>,
    /// The last tick the sweep fully processed.
    cursor: u64,
    next_id: u64,
}

/// The registry. See the module docs.
#[derive(Debug)]
pub struct SessionStore {
    inner: Mutex<Inner>,
    /// Idle ttl in ticks (≥ 1).
    ttl_ticks: u64,
    granularity: Duration,
    epoch: Instant,
    evicted: AtomicU64,
}

impl SessionStore {
    /// A store evicting sessions idle for `ttl`, checked at `granularity`
    /// resolution (both floored to sane minimums).
    pub fn new(ttl: Duration, granularity: Duration) -> SessionStore {
        let granularity = granularity.max(Duration::from_millis(1));
        let ttl_ticks = (ttl.as_nanos() / granularity.as_nanos()).max(1) as u64;
        // One slot per tick across the ttl span, plus slack so a deadline
        // armed "now + ttl" never lands on the slot the cursor is
        // draining.
        let slots = (ttl_ticks + 2) as usize;
        SessionStore {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slots: vec![Vec::new(); slots],
                cursor: 0,
                next_id: 1,
            }),
            ttl_ticks,
            granularity,
            epoch: Instant::now(),
            evicted: AtomicU64::new(0),
        }
    }

    /// The eviction granularity (the sweeper thread's tick interval).
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    fn tick(&self, now: Instant) -> u64 {
        (now.duration_since(self.epoch).as_nanos() / self.granularity.as_nanos()) as u64
    }

    /// Registers a session, returning its id.
    pub fn create(&self, session: Session) -> u64 {
        let now = self.tick(Instant::now());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.sweep_locked(&mut inner, now);
        let id = inner.next_id;
        inner.next_id += 1;
        let deadline = now + self.ttl_ticks;
        let slot = (deadline % inner.slots.len() as u64) as usize;
        inner.slots[slot].push(id);
        inner.map.insert(
            id,
            Entry {
                session: Arc::new(Mutex::new(session)),
                deadline,
            },
        );
        id
    }

    /// Fetches a live session and pushes its idle deadline forward.
    /// Evicted, closed and never-created ids all answer the same typed
    /// not-found.
    pub fn touch(&self, id: u64) -> Result<Arc<Mutex<Session>>, ServiceError> {
        let now = self.tick(Instant::now());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.sweep_locked(&mut inner, now);
        let entry = inner
            .map
            .get_mut(&id)
            .ok_or(ServiceError::SessionNotFound(id))?;
        // The sweep above already evicted anything past-deadline, but the
        // deadline check stays: the sweeper only runs every granularity,
        // and an access between ticks must not resurrect an expired
        // session.
        if entry.deadline <= now {
            let session = inner.map.remove(&id);
            drop(session);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::SessionNotFound(id));
        }
        // The arming stays where it is; the sweep re-arms on reaching it.
        entry.deadline = now + self.ttl_ticks;
        Ok(Arc::clone(&entry.session))
    }

    /// Closes a session explicitly.
    pub fn close(&self, id: u64) -> Result<(), ServiceError> {
        let now = self.tick(Instant::now());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.sweep_locked(&mut inner, now);
        inner
            .map
            .remove(&id)
            .map(drop)
            .ok_or(ServiceError::SessionNotFound(id))
    }

    /// Advances the wheel to `now`, evicting everything whose deadline
    /// passed. Called by the sweeper thread; accesses also sweep
    /// opportunistically.
    pub fn sweep(&self) {
        let now = self.tick(Instant::now());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.sweep_locked(&mut inner, now);
    }

    fn sweep_locked(&self, inner: &mut Inner, now: u64) {
        let slots = inner.slots.len() as u64;
        while inner.cursor < now {
            inner.cursor += 1;
            let cursor = inner.cursor;
            let slot = (cursor % slots) as usize;
            let drained = std::mem::take(&mut inner.slots[slot]);
            for id in drained {
                let Some(entry) = inner.map.get(&id) else {
                    continue; // closed since arming
                };
                if entry.deadline <= cursor {
                    inner.map.remove(&id);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Touched since arming: re-arm at the new deadline. A
                    // slot the cursor reaches before the deadline (after a
                    // catch-up sweep) only re-arms it once more.
                    let slot = (entry.deadline % slots) as usize;
                    inner.slots[slot].push(id);
                }
            }
        }
    }

    /// Live sessions right now.
    pub fn live(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
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
    fn touches_move_the_deadline_without_arming_again() {
        let engine = engine();
        let store = SessionStore::new(Duration::from_secs(60), Duration::from_millis(10));
        let id = store.create(engine.session());
        for _ in 0..1000 {
            store.touch(id).expect("touched session stays live");
        }
        let inner = store.inner.lock().expect("no panics under the lock");
        let armings: usize = inner.slots.iter().map(Vec::len).sum();
        assert_eq!(armings, 1, "one wheel arming per session, not per touch");
    }

    #[test]
    fn access_between_sweeps_cannot_resurrect_an_expired_session() {
        let engine = engine();
        // Coarse granularity: the wheel cursor barely moves during the
        // test, so the deadline check in `touch` does the work.
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
        // Closed-then-swept: the stale wheel arming must not double-count
        // an eviction.
        std::thread::sleep(Duration::from_millis(20));
        store.sweep();
        assert_eq!(store.evicted(), 0);
    }
}
