//! `spin-core` — the extensibility machinery of the SPIN operating system.
//!
//! This crate is the paper's `sys` component: "the extensibility machinery,
//! domains, naming, linking, and dispatching" (§5.1, Table 1). It
//! implements the four techniques of §1.1 in Rust:
//!
//! * **Co-location** — extensions are Rust values living in the kernel's
//!   (process's) address space; calling them is a procedure call.
//! * **Enforced modularity** — Rust's type system and privacy stand in for
//!   Modula-3's compiler-enforced interfaces: an extension holding an
//!   opaque handle cannot reach its fields, and a [`Symbol`] can only be
//!   recovered at its exported type.
//! * **Logical protection domains** — [`Domain`] with `create`,
//!   `create_from_module`, `resolve` and `combine`, fed by compiler-signed
//!   [`ObjectFile`]s and coordinated by the [`NameServer`] with per-import
//!   authorization.
//! * **Dynamic call binding** — the central [`Dispatcher`] with typed
//!   [`Event`]s, owner-authorized installation, guards, synchronous /
//!   asynchronous / time-bounded constraints, result reducers, and a
//!   direct-procedure-call fast path.
//!
//! The [`Kernel`] ties these to a simulated host from `spin-sal` and adds
//! the `Trap.SystemCall` path and `SpinPublic` linkage domain.

#![forbid(unsafe_code)]

pub mod capability;
pub mod dispatch;
pub mod domain;
pub mod error;
pub mod fault;
/// Hook registration primitives (API v2): every subsystem's observability /
/// fault / clock hook point goes through [`hooks::HookSlot`] or
/// [`hooks::HookRegistry`] instead of hand-rolled `OnceLock` patterns. The
/// implementation lives in `spin-check` (the bottom of the dependency
/// stack) so `sal` and `sched` share it; this is the kernel-facing name.
pub mod hooks {
    pub use spin_check::hooks::{HookId, HookRegistry, HookSlot};
}
pub mod identity;
pub mod interface;
pub mod kernel;
pub mod nameserver;
pub mod objfile;
pub mod quota;

pub use capability::{ExternRef, ExternTable};
pub use dispatch::{
    AsyncInvocation, Constraints, Dispatcher, Event, EventOwner, EventStats, GatedEvent, Guard,
    GuardSpec, Handler, HandlerId, HandlerMode, HoldStats, InstallDecision, InstallRequest,
    InstallSpec, KeyFn, RebindReceipt, Reducer, XcallRouter,
};
pub use domain::{Domain, ResolveReport};
pub use error::{CoreError, DispatchError, SymbolConflict};
pub use fault::{
    BlockedInStep, Containment, ContainmentPolicy, DeadlineExceeded, DomainFaultInfo, FaultKind,
    FaultSink, HandlerFault,
};
pub use identity::{Identity, IdentityKind};
pub use interface::{Interface, Symbol};
pub use kernel::{Kernel, SysResult, Syscall, ENOSYS};
pub use nameserver::{Authorizer, ExportRebind, NameServer, ServiceRef};
pub use objfile::{ImportDecl, ImportSlot, ObjectFile, ObjectFileBuilder, Provenance};
pub use quota::{
    post_with_backpressure, BackoffPolicy, EscalationSink, PostOutcome, QuotaBreach, QuotaCell,
    QuotaLedger, QuotaSnapshot, QuotaSpec, QuotaState, QuotaVerdict,
};
