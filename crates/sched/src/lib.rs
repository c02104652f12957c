//! `spin-sched` — extensible thread management for the SPIN reproduction.
//!
//! This crate implements §4.2 of the paper:
//!
//! * **strands** and the deterministic [`Executor`] that multiplexes them
//!   on the virtual timeline (a real OS thread per strand that may block,
//!   an inline call per slice for run-to-completion strands, exactly one
//!   running at a time, preemption at safe points when the quantum
//!   expires);
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
//! * **thread packages** built directly on strands: the trusted in-kernel
//!   Modula-3 package ([`M3Threads`]), the DEC OSF/1 kernel-thread
//!   interface used by vendor drivers ([`OsfThreads`]), and the two
//!   user-level C-Threads structures of Table 3 ([`CThreads`], layered vs
//!   integrated);
//! * **user-level contexts** and the protected cross-address-space call
//!   path of Table 2 ([`UserProcess`], [`XasService`]);
//! * **per-core kernel shards**: one executor per simulated host, pumped
//!   concurrently by real OS threads under a conservative virtual-time
//!   barrier with deterministic cross-shard mail ([`Multicore`]).

#![forbid(unsafe_code)]

pub mod async_runner;
pub mod cthreads;
pub mod events;
pub mod executor;
pub mod group;
pub mod kthread;
pub mod lottery;
pub mod osf_threads;
pub mod shard;
pub mod sync;
pub mod user;
pub mod wait;

pub use async_runner::install_async_runner;
pub use cthreads::{measure_fork_join, measure_ping_pong, CThreads, CThreadsImpl};
pub use events::{StrandEvents, StrandRef};
pub use executor::{
    Executor, IdleOutcome, RoundRobinPriority, SchedQuotaHook, SchedulerPolicy, Step, StrandCtx,
    StrandId,
};
pub use group::{PackageStats, TaskPackage};
pub use kthread::{measure_kernel_fork_join, measure_kernel_ping_pong, M3Threads};
pub use lottery::{LotteryPolicy, TicketBook};
pub use osf_threads::{OsfThreads, WaitChannel};
pub use shard::{Multicore, MulticoreStats, Shard};
pub use sync::{KChannel, KCondition, KMutex};
pub use user::{measure_xas_call, UserProcess, XasClient, XasService};
pub use wait::{WaitQueue, Wakeups};
