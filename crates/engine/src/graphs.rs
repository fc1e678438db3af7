//! One reduced graph per [`GraphKey`] per campaign.
//!
//! [`GraphSlots`] registers one slot per distinct key among the jobs a
//! campaign dispatches. The first job that needs a slot's graph builds
//! it; sharers that ask meanwhile block until it is ready instead of
//! building it again. The build result, an error included, is handed to
//! every sharer as is. A panicking build leaves its slot empty for the
//! next caller (`OnceLock` never stores a value from a closure that
//! unwound), and the slot's lock guards only counters, so nothing is
//! poisoned. When the last registered job releases the slot, the slot
//! drops its graph.

use crate::scenario::GraphKey;
use llamp_core::{ReducedGraph, ReductionStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// What a slot holds once built: the graph, or the build's error.
type Built = Result<Arc<ReducedGraph>, String>;

struct Slot {
    key: GraphKey,
    /// Jobs registered for the slot (reported on the build's span).
    sharers: usize,
    state: Mutex<SlotState>,
}

struct SlotState {
    /// `None` until first asked for, and again after the last release.
    cell: Option<Arc<OnceLock<Built>>>,
    /// Registered jobs that have not released the slot yet.
    pending: usize,
}

/// The campaign's graph slots (see the module docs).
pub(crate) struct GraphSlots {
    slots: Vec<Slot>,
    /// Graphs built so far, and their reduction counters summed once
    /// each.
    totals: Mutex<(usize, ReductionStats)>,
}

/// Lock one of the slots' mutexes. Every update under them is a single
/// assignment or counter bump, so the data is valid even after a panic
/// elsewhere poisoned the lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl GraphSlots {
    /// One slot per distinct key, in first-seen order; returns the slots
    /// and each job's slot index.
    pub(crate) fn register(keys: impl IntoIterator<Item = GraphKey>) -> (Self, Vec<usize>) {
        let mut index: HashMap<GraphKey, usize> = HashMap::new();
        let mut distinct: Vec<GraphKey> = Vec::new();
        let of_job: Vec<usize> = keys
            .into_iter()
            .map(|key| {
                *index.entry(key).or_insert_with(|| {
                    distinct.push(key);
                    distinct.len() - 1
                })
            })
            .collect();
        let mut sharers = vec![0; distinct.len()];
        for &i in &of_job {
            sharers[i] += 1;
        }
        let slots = distinct
            .into_iter()
            .zip(sharers)
            .map(|(key, sharers)| Slot {
                key,
                sharers,
                state: Mutex::new(SlotState {
                    cell: None,
                    pending: sharers,
                }),
            })
            .collect();
        let totals = Mutex::new((0, ReductionStats::default()));
        (Self { slots, totals }, of_job)
    }

    /// The graph of slot `i`, built on first use.
    pub(crate) fn get(&self, i: usize) -> Built {
        self.get_with(i, GraphKey::build)
    }

    /// [`GraphSlots::get`] with the build supplied, so tests can
    /// substitute a failing or panicking one.
    fn get_with(
        &self,
        i: usize,
        build: impl FnOnce(&GraphKey, usize) -> Result<ReducedGraph, String>,
    ) -> Built {
        let slot = &self.slots[i];
        let cell = Arc::clone(lock(&slot.state).cell.get_or_insert_with(Default::default));
        cell.get_or_init(|| {
            let graph = Arc::new(build(&slot.key, slot.sharers)?);
            let mut totals = lock(&self.totals);
            totals.0 += 1;
            if slot.key.reduce {
                totals.1.merge(graph.stats());
            }
            Ok(graph)
        })
        .clone()
    }

    /// One registered job is done with slot `i`; the last one drops the
    /// slot's graph (a caller still holding it keeps its own `Arc`).
    pub(crate) fn release(&self, i: usize) {
        let mut state = lock(&self.slots[i].state);
        state.pending = state.pending.saturating_sub(1);
        if state.pending == 0 {
            state.cell = None;
        }
    }

    /// Graphs built so far, and their reduction counters (each built
    /// graph counted once; unreduced graphs contribute nothing).
    pub(crate) fn totals(&self) -> (usize, ReductionStats) {
        *lock(&self.totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_workloads::App;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn key(reduce: bool) -> GraphKey {
        GraphKey {
            app: App::Cloverleaf,
            ranks: 4,
            iters: 1,
            rndv_threshold: 256 * 1024,
            reduce,
        }
    }

    #[test]
    fn a_sharer_asking_mid_build_waits_for_that_build() {
        let (slots, of_job) = GraphSlots::register([key(true), key(false), key(true)]);
        assert_eq!(of_job, vec![0, 1, 0]);
        let calls = AtomicUsize::new(0);
        let started = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| {
                slots.get_with(0, |k, n| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    started.wait();
                    k.build(n)
                })
            });
            // The second sharer asks only once the first is inside its
            // build.
            let b = s.spawn(|| {
                started.wait();
                slots.get_with(0, |k, n| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    k.build(n)
                })
            });
            (a.join().unwrap().unwrap(), b.join().unwrap().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the waiter never rebuilt");
        let raw = slots.get(1).unwrap();
        let (builds, reduction) = slots.totals();
        assert_eq!(builds, 2);
        assert_eq!(
            reduction,
            *a.stats(),
            "the raw graph adds no reduction counters"
        );
        assert!(raw.graph().num_vertices() > a.graph().num_vertices());
    }

    #[test]
    fn a_build_error_is_stored_and_shared() {
        let (slots, _) = GraphSlots::register([key(true), key(true)]);
        let calls = AtomicUsize::new(0);
        let fail = |_: &GraphKey, _: usize| -> Result<ReducedGraph, String> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err("graph build failed: boom".into())
        };
        assert_eq!(
            slots.get_with(0, fail).unwrap_err(),
            "graph build failed: boom"
        );
        assert_eq!(
            slots.get_with(0, fail).unwrap_err(),
            "graph build failed: boom"
        );
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "the error is stored, not rebuilt"
        );
        assert_eq!(slots.totals().0, 0, "a failed build is no graph");
    }

    #[test]
    fn a_panicking_build_leaves_the_slot_empty_for_the_retry() {
        let (slots, _) = GraphSlots::register([key(true), key(true)]);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            slots.get_with(0, |_, _| panic!("build exploded"))
        }));
        assert!(panicked.is_err());
        // Nothing is poisoned: the retry builds and stores the graph.
        let g = slots.get(0).unwrap();
        assert!(Arc::ptr_eq(&g, &slots.get(0).unwrap()));
        assert_eq!(slots.totals().0, 1);
    }

    #[test]
    fn the_last_release_drops_the_graph() {
        let (slots, _) = GraphSlots::register([key(true), key(true)]);
        let g = slots.get(0).unwrap();
        slots.release(0);
        assert_eq!(
            Arc::strong_count(&g),
            2,
            "one sharer left: the slot keeps it"
        );
        slots.release(0);
        assert_eq!(
            Arc::strong_count(&g),
            1,
            "no sharer left: the slot dropped it"
        );
    }
}
