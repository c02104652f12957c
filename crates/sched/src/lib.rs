//! `spin-sched` — extensible thread management for the SPIN reproduction.
//!
//! This crate implements §4.2 of the paper:
//!
//! * **strands** and the deterministic [`Executor`] that multiplexes them
//!   on the virtual timeline (a real OS thread per strand that may block,
//!   an inline call per slice for run-to-completion strands, exactly one
//!   running at a time, preemption at safe points when the quantum
//!   expires). [`Executor::spawn`] returns a [`Strand`] handle, Modula-3's
//!   `Thread.Join`: read after the run, it holds what the body returned or
//!   the panic that ended it. The executor contains a strand's panic like
//!   an extension fault but does not hide it: [`Executor::run_until_idle`]
//!   is the one place that decides a run finished, and it panics, naming
//!   the outcome, unless every strand completed. A rig that expects a
//!   panicked or deadlocked strand runs with [`Executor::run_until`] and
//!   asserts [`IdleOutcome::Panicked`] or `Deadlock` by name;
//! * **one way to wait** ([`WaitQueue`], [`StrandCtx::wait`]): every
//!   blocking wait in the kernel polls its state under that state's lock
//!   and parks on a queue inside it, so a wakeup cannot be lost and a
//!   wait refused inside a run-to-completion slice leaves nothing queued;
//! * the **Strand interface events** — `Block`, `Unblock`, `Checkpoint`,
//!   `Resume` — raised through the central dispatcher so stacked
//!   schedulers and thread packages can observe control flow
//!   ([`StrandEvents`]);
//! * the **global scheduler**: "a round-robin, preemptive, priority
//!   policy", replaceable through [`Executor::set_policy`] as a trusted
//!   operation;
//! * **thread packages** built directly on strands: the three SPIN
//!   packages of Table 3 as one model that differs only in each
//!   operation's path ([`ThreadPackage`]: the trusted in-kernel Modula-3
//!   package, and user-level C-Threads layered vs integrated, measured by
//!   [`measure_fork_join`] and [`measure_ping_pong`]), and the DEC OSF/1
//!   kernel-thread interface used by vendor drivers ([`OsfThreads`]);
//! * the protected cross-address-space call path of Table 2
//!   ([`measure_xas_call`]);
//! * **per-core kernel shards**: one executor per simulated host, pumped
//!   concurrently by real OS threads under a conservative virtual-time
//!   barrier with deterministic cross-shard mail ([`Multicore`]).

#![forbid(unsafe_code)]

mod async_runner;
mod cthreads;
mod events;
mod executor;
mod group;
mod osf_threads;
mod shard;
mod sync;
mod user;
mod wait;

pub use async_runner::install_async_runner;
pub use cthreads::{measure_fork_join, measure_ping_pong, ThreadPackage};
pub use events::{StrandEvents, StrandRef};
pub use executor::{
    Executor, IdleOutcome, SchedQuotaHook, SchedulerPolicy, Step, Strand, StrandCtx, StrandId,
};
pub use group::{PackageStats, TaskPackage};
pub use osf_threads::{OsfThreads, WaitChannel};
pub use shard::{Multicore, MulticoreStats, Shard};
pub use sync::KChannel;
pub use user::measure_xas_call;
pub use wait::{WaitQueue, Wakeups};
