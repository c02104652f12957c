//! Model-aware thread spawn/join.
//!
//! From an uncontrolled thread this is a thin wrapper over `std::thread`.
//! From inside a model-checking run, `spawn` registers the child with the
//! scheduler (the spawn is a schedule point, so the child may run before
//! the parent's next operation) and `join` blocks at a schedule point
//! until the child has finished, establishing happens-before from the
//! child's final state.

use crate::model;
use std::sync::Arc;

enum Inner<T> {
    Real(std::thread::JoinHandle<T>),
    Model {
        exec: Arc<model::Execution>,
        tid: usize,
        slot: Arc<parking_lot::Mutex<Option<T>>>,
    },
}

/// Handle to a spawned thread; see [`spawn`].
pub struct JoinHandle<T>(Inner<T>);

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            Inner::Real(h) => h.join(),
            Inner::Model { exec, tid, slot } => {
                let c =
                    model::current_ctx().expect("model JoinHandle joined from uncontrolled thread");
                exec.join_thread(c.tid, tid);
                Ok(slot.lock().take().expect("joined thread left no result"))
            }
        }
    }
}

/// Spawn a thread that participates in the current model-checking run (or
/// a plain OS thread when no run is active).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match model::current_ctx() {
        None => JoinHandle(Inner::Real(std::thread::spawn(f))),
        Some(c) => {
            let slot = Arc::new(parking_lot::Mutex::new(None));
            let s2 = slot.clone();
            let tid = model::model_spawn(
                &c.exec,
                c.tid,
                Box::new(move || {
                    *s2.lock() = Some(f());
                }),
            );
            JoinHandle(Inner::Model {
                exec: c.exec,
                tid,
                slot,
            })
        }
    }
}

/// Yield from a spin-wait: in a model run the token passes to another
/// thread that can run, if one can, without spending a preemption, so a
/// waiter cannot starve the thread it waits for (no-op outside a model run
/// beyond the OS hint).
pub fn yield_now() {
    match model::current_ctx() {
        Some(c) => c.exec.spin(c.tid),
        None => std::thread::yield_now(),
    }
}
