//! The Strand interface as dispatcher events (Figure 4).
//!
//! "This interface describes the scheduling events affecting control flow
//! that can be raised within the kernel. Application-specific schedulers
//! and thread packages install handlers on these events, which are raised
//! on behalf of particular strands. A trusted thread package and scheduler
//! provide default implementations of these operations, and ensure that
//! extensions do not install handlers on strands for which they do not
//! possess a capability."
//!
//! [`StrandEvents::attach`] defines `Strand.Block`, `Strand.Unblock`,
//! `Strand.Checkpoint` and `Strand.Resume` on a dispatcher and wires the
//! executor to raise them at the corresponding transitions. A thread
//! package limits a handler to the strands it holds capabilities for by
//! installing it behind a guard (`Event::install_guarded`).

use crate::executor::{Executor, StrandId};
use spin_core::{Dispatcher, Event, Identity};
use std::sync::Arc;

/// Event argument: the strand a scheduling transition concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrandRef(pub StrandId);

/// The four events of the Strand interface.
#[derive(Clone)]
pub struct StrandEvents {
    /// "Signal to a scheduler that s is not runnable."
    pub block: Event<StrandRef, ()>,
    /// "Signal to a scheduler that s is runnable."
    pub unblock: Event<StrandRef, ()>,
    /// "Signal that s is being descheduled and that it should save any
    /// processor state required for subsequent rescheduling."
    pub checkpoint: Event<StrandRef, ()>,
    /// "Signal that s is being placed on a processor."
    pub resume: Event<StrandRef, ()>,
}

impl StrandEvents {
    /// Defines the strand events on `dispatcher` and arms the executor's
    /// transition hooks to raise them.
    pub fn attach(exec: &Arc<Executor>, dispatcher: &Dispatcher) -> StrandEvents {
        let owner_id = Identity::kernel("Strand");
        let (block, block_owner) =
            dispatcher.define::<StrandRef, ()>("Strand.Block", owner_id.clone());
        let (unblock, unblock_owner) =
            dispatcher.define::<StrandRef, ()>("Strand.Unblock", owner_id.clone());
        let (checkpoint, cp_owner) =
            dispatcher.define::<StrandRef, ()>("Strand.Checkpoint", owner_id.clone());
        let (resume, resume_owner) = dispatcher.define::<StrandRef, ()>("Strand.Resume", owner_id);

        // The trusted default implementations: the executor itself performs
        // the state change; the events exist so stacked schedulers and
        // thread packages can observe and react.
        for owner in [&block_owner, &unblock_owner, &cp_owner, &resume_owner] {
            owner.set_primary(|_| ()).expect("fresh event");
        }

        let ev = StrandEvents {
            block: block.clone(),
            unblock: unblock.clone(),
            checkpoint: checkpoint.clone(),
            resume: resume.clone(),
        };
        let (b, u, c, r) = (block, unblock, checkpoint, resume);
        exec.set_hooks(
            Box::new(move |s| {
                let _ = b.raise(StrandRef(s));
            }),
            Box::new(move |s| {
                let _ = u.raise(StrandRef(s));
            }),
            Box::new(move |s| {
                let _ = c.raise(StrandRef(s));
            }),
            Box::new(move |s| {
                let _ = r.raise(StrandRef(s));
            }),
        );
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::Mutex;
    use spin_sal::SimBoard;
    use std::collections::HashSet;

    fn rig() -> (Arc<Executor>, Dispatcher, StrandEvents) {
        let board = SimBoard::new();
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        let disp = Dispatcher::on(board.clock.clone());
        let events = StrandEvents::attach(&exec, &disp);
        (exec, disp, events)
    }

    #[test]
    fn transitions_raise_events() {
        let (exec, _disp, events) = rig();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, ev) in [("block", &events.block), ("unblock", &events.unblock)] {
            let log = log.clone();
            ev.install(Identity::extension("observer"), move |s: &StrandRef| {
                log.lock().push((name, s.0));
            })
            .unwrap();
        }
        let e2 = exec.clone();
        let target = exec.spawn("sleeper", |ctx| ctx.block()).id();
        exec.spawn("waker", move |_| e2.unblock(target));
        exec.run_until_idle();
        let l = log.lock();
        assert!(l.contains(&("block", target)));
        assert!(l.contains(&("unblock", target)));
    }

    #[test]
    fn checkpoint_and_resume_bracket_every_slice() {
        let (exec, disp, events) = rig();
        let _ = disp;
        let resumes = Arc::new(Mutex::new(0u32));
        let r2 = resumes.clone();
        events
            .resume
            .install(Identity::extension("profiler"), move |_| {
                *r2.lock() += 1;
            })
            .unwrap();
        exec.spawn("a", |ctx| ctx.yield_now());
        exec.run_until_idle();
        // Two slices: before and after the yield.
        assert_eq!(*resumes.lock(), 2);
    }

    #[test]
    fn capability_guard_limits_visibility_to_owned_strands() {
        let (exec, _disp, events) = rig();
        let seen = Arc::new(Mutex::new(Vec::new()));

        let e2 = exec.clone();
        let mine = exec.spawn("mine", |ctx| ctx.block()).id();
        let other = exec.spawn("other", |ctx| ctx.block()).id();

        // The app-specific package owns only `mine`.
        let mut owned = HashSet::new();
        owned.insert(mine);
        // Re-arm the auth with a capability check, then install.
        // (In the kernel this is done by the trusted package at attach
        // time; here we emulate by installing a guarded handler.)
        let seen2 = seen.clone();
        let owned2 = owned.clone();
        events
            .unblock
            .install_guarded(
                Identity::extension("mypkg"),
                move |s: &StrandRef| owned2.contains(&s.0),
                move |s: &StrandRef| {
                    seen2.lock().push(s.0);
                },
            )
            .unwrap();

        exec.spawn("waker", move |_| {
            e2.unblock(other);
            e2.unblock(mine);
        });
        exec.run_until_idle();
        assert_eq!(*seen.lock(), vec![mine], "guard must hide other strands");
    }
}
