//! Admission control: a bounded-queue semaphore over the engine pool.
//!
//! The synthesis work behind `/learn`, `/apply`, `/status` and
//! `/run_column` fans out across the engine's one shared `Pool`; connection
//! threads are cheap but that pool is not, so the server bounds how much
//! work may execute ([`max_in_flight`](Admission)) and how much may wait
//! ([`max_queue`](Admission)). A request arriving past both bounds is
//! rejected *immediately* with the typed
//! [`ServiceError::Overloaded`] — the HTTP 429 body — instead of
//! queueing without limit and timing everyone out. Admitted requests are
//! never dropped: a permit is released only by its guard's `Drop`, so
//! saturation tests can assert `completed + rejected == sent` exactly.

use std::sync::{Condvar, Mutex, PoisonError};

use sst_service::ServiceError;

#[derive(Debug, Default)]
struct State {
    /// Requests currently holding an execution slot.
    in_flight: usize,
    /// Requests waiting for a slot.
    queued: usize,
}

/// The bounded-queue semaphore. See the module docs.
#[derive(Debug)]
pub struct Admission {
    max_in_flight: usize,
    max_queue: usize,
    state: Mutex<State>,
    freed: Condvar,
}

impl Admission {
    /// Admission control with `max_in_flight` execution slots and a wait
    /// queue of `max_queue` (both clamped to at least 1 slot / 0 queue).
    pub fn new(max_in_flight: usize, max_queue: usize) -> Admission {
        Admission {
            max_in_flight: max_in_flight.max(1),
            max_queue,
            state: Mutex::new(State::default()),
            freed: Condvar::new(),
        }
    }

    /// Acquires an execution slot, waiting in the bounded queue if all
    /// slots are busy. Returns the typed overload error when the queue is
    /// full too.
    pub fn admit(&self) -> Result<AdmitPermit<'_>, ServiceError> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.in_flight < self.max_in_flight {
            state.in_flight += 1;
            return Ok(AdmitPermit { admission: self });
        }
        if state.queued >= self.max_queue {
            return Err(ServiceError::Overloaded {
                in_flight: state.in_flight,
                queued: state.queued,
            });
        }
        state.queued += 1;
        while state.in_flight >= self.max_in_flight {
            state = self
                .freed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.queued -= 1;
        state.in_flight += 1;
        Ok(AdmitPermit { admission: self })
    }

    /// Requests currently executing (the in-flight gauge).
    pub fn in_flight(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .in_flight
    }

    /// Requests currently waiting for a slot.
    pub fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queued
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.in_flight -= 1;
        drop(state);
        self.freed.notify_one();
    }
}

/// An execution slot; releasing is its `Drop`, so a panicking handler
/// still frees the slot (the connection thread catches the unwind at the
/// response boundary).
#[derive(Debug)]
pub struct AdmitPermit<'a> {
    admission: &'a Admission,
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        self.admission.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admits_up_to_capacity_then_rejects() {
        let admission = Admission::new(2, 0);
        let a = admission.admit().expect("slot 1");
        let b = admission.admit().expect("slot 2");
        match admission.admit() {
            Err(ServiceError::Overloaded { in_flight, queued }) => {
                assert_eq!((in_flight, queued), (2, 0));
            }
            other => panic!("expected overload, got {other:?}"),
        }
        drop(a);
        let _c = admission.admit().expect("slot freed by drop");
        drop(b);
        assert_eq!(admission.in_flight(), 1);
    }

    #[test]
    fn queue_waits_and_drains_in_bounded_order() {
        let admission = Arc::new(Admission::new(1, 2));
        let held = admission.admit().expect("slot");
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let admission = Arc::clone(&admission);
                std::thread::spawn(move || {
                    let permit = admission.admit().expect("queued admit");
                    drop(permit);
                })
            })
            .collect();
        // Both workers end up queued; a third admit overflows.
        while admission.queued() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(
            admission.admit(),
            Err(ServiceError::Overloaded { queued: 2, .. })
        ));
        drop(held);
        for worker in workers {
            worker.join().expect("worker");
        }
        assert_eq!(admission.in_flight(), 0);
        assert_eq!(admission.queued(), 0);
    }
}
