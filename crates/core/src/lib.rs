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

mod capability;
mod dispatch;
mod domain;
mod error;
mod fault;
mod identity;
mod interface;
mod kernel;
mod nameserver;
mod objfile;
mod quota;

pub use capability::{ExternRef, ExternTable};
pub use dispatch::{
    AsyncInvocation, Constraints, Dispatcher, Event, EventOwner, EventStats, GatedEvent, Guard,
    GuardSpec, Handler, HandlerId, HandlerMode, HandlerResults, HoldStats, InstallDecision,
    InstallRequest, InstallSpec, KeyFn, KeyHasher, RebindReceipt, HOLD_CAPACITY,
};
pub use domain::{Domain, ResolveReport};
pub use error::{CoreError, DispatchError, SymbolConflict};
pub use fault::panic_message;
pub use fault::{
    BlockedInStep, Containment, ContainmentPolicy, DeadlineExceeded, DomainFaultInfo, FaultKind,
    FaultSink, HandlerFault,
};
pub use identity::{Identity, IdentityKind};
pub use interface::{Interface, Symbol};
pub use kernel::{Kernel, SysResult, Syscall};
pub use nameserver::{Authorizer, NameServer, ServiceRef};
pub use objfile::{ImportSlot, ObjectFile, ObjectFileBuilder};
pub use quota::{
    post_with_backpressure, PostOutcome, QuotaBreach, QuotaCell, QuotaLedger, QuotaSnapshot,
    QuotaSpec, QuotaState, QuotaVerdict,
};
