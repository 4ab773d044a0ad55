//! A keyed compute-once map, shared by [`crate::trace_cache::TraceCache`]
//! and [`crate::result_cache::ResultCache`].
//!
//! The first caller for a key claims it with a [`Slot::Pending`] marker,
//! releases the lock, computes the value and publishes [`Slot::Ready`].
//! Distinct keys therefore compute in parallel, while concurrent callers
//! for the *same* key park on a condvar until the claimant publishes
//! instead of computing a duplicate. If the computation panics, a guard
//! clears the claim and wakes the waiters, so one of them re-runs it
//! rather than parking forever.
//!
//! The map is a `BTreeMap`: [`SingleFlight::fold_ready`] visits values in
//! key order, never hash order.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

/// One map slot.
#[derive(Debug)]
enum Slot<V> {
    /// Some thread is computing this key right now.
    Pending,
    /// The published value.
    Ready(V),
}

/// A thread-safe compute-once map from string keys to `V`.
#[derive(Debug)]
pub(crate) struct SingleFlight<V> {
    slots: Mutex<BTreeMap<String, Slot<V>>>,
    ready: Condvar,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight { slots: Mutex::new(BTreeMap::new()), ready: Condvar::new() }
    }
}

impl<V: Clone> SingleFlight<V> {
    /// Poison-tolerant lock: a panic elsewhere never takes the map down
    /// (the unclaim guard keeps the slots consistent).
    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Slot<V>>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the value for `key`, running `make` (unlocked) if no other
    /// caller has published or claimed it. The flag is `true` when this
    /// call ran `make`, `false` when it was served a published value,
    /// possibly after waiting for another caller's run.
    pub(crate) fn run_once(&self, key: &str, make: impl FnOnce() -> V) -> (V, bool) {
        {
            let mut map = self.lock();
            loop {
                match map.get(key) {
                    Some(Slot::Ready(v)) => return (v.clone(), false),
                    Some(Slot::Pending) => {
                        map = self.ready.wait(map).unwrap_or_else(|e| e.into_inner());
                    }
                    None => {
                        map.insert(key.to_owned(), Slot::Pending);
                        break;
                    }
                }
            }
        }
        let mut guard = Unclaim { flight: self, key, armed: true };
        let value = make();
        guard.armed = false;
        let mut map = self.lock();
        map.insert(key.to_owned(), Slot::Ready(value.clone()));
        self.ready.notify_all();
        (value, true)
    }

    /// Folds the published values in key order; in-flight claims are
    /// skipped.
    pub(crate) fn fold_ready<A>(&self, init: A, mut f: impl FnMut(A, &V) -> A) -> A {
        self.lock().values().fold(init, |acc, slot| match slot {
            Slot::Ready(v) => f(acc, v),
            Slot::Pending => acc,
        })
    }
}

/// Claim guard: if `make` unwinds, clear the `Pending` marker and wake
/// the waiters so one of them can reclaim the key.
struct Unclaim<'a, V> {
    flight: &'a SingleFlight<V>,
    key: &'a str,
    armed: bool,
}

impl<V> Drop for Unclaim<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut map = self.flight.slots.lock().unwrap_or_else(|e| e.into_inner());
            map.remove(self.key);
            self.flight.ready.notify_all();
        }
    }
}
