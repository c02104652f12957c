//! The kernel: boot, the `SpinPublic` domain, extension loading, and the
//! system-call trap path.
//!
//! A [`Kernel`] ties together one simulated host's hardware, the central
//! dispatcher, the nameserver, and the garbage-collected kernel heap. It
//! reproduces two specific mechanisms from the paper:
//!
//! * "the domain `SpinPublic` combines the system's public interfaces into
//!   a single domain available to extensions" (§3.1) — extensions loaded
//!   with [`Kernel::load_extension`] are resolved against it;
//! * "the kernel's trap handler raises a `Trap.SystemCall` event which is
//!   dispatched to a Modula-3 procedure installed as a handler" (§5.2) —
//!   [`Kernel::syscall`] charges the trap crossing and raises
//!   [`Kernel::trap_syscall`], on which extensions install guarded handlers
//!   to define *application-specific system calls*.

use crate::capability::ExternTable;
use crate::dispatch::{Dispatcher, Event, HandlerId};
use crate::domain::Domain;
use crate::error::{CoreError, DispatchError};
use crate::fault::{Containment, ContainmentPolicy};
use crate::identity::Identity;
use crate::nameserver::NameServer;
use crate::objfile::{ObjectFile, Provenance};
use spin_check::sync::Mutex;
use spin_check::sync::{Arc, AtomicU64, Ordering};
use spin_obs::{Obs, ObsHook, TraceKind};
use spin_rt::KernelHeap;
use spin_sal::Host;
use std::ops::Range;

/// Arguments of a system-call trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Syscall {
    pub number: u64,
    pub args: [u64; 6],
}

/// The result of a system call (negative values are errors, as in OSF/1).
pub type SysResult = i64;

/// Returned by [`Kernel::syscall`] when no handler claimed the number.
const ENOSYS: SysResult = -78;

struct KernelInner {
    host: Host,
    dispatcher: Dispatcher,
    nameserver: NameServer,
    heap: KernelHeap,
    spin_public: Domain,
    trap_syscall: Event<Syscall, SysResult>,
    asserted_safe: AtomicU64,
    /// System calls trapped: the kernel domain's `syscalls` row.
    syscalls: Arc<AtomicU64>,
    extensions: Mutex<Vec<Domain>>,
    /// Observability hook (kernel domain): absent until wired via
    /// [`Kernel::install_obs`]; the trap path then pays one atomic load.
    obs: spin_check::hooks::HookSlot<ObsHook>,
}

/// One booted SPIN kernel.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<KernelInner>,
}

impl Kernel {
    /// Boots a kernel on `host`.
    pub fn boot(host: Host) -> Kernel {
        let dispatcher = Dispatcher::new(host.clock.clone(), host.profile.clone());
        let nameserver = NameServer::new();
        let spin_public = Domain::combine("SpinPublic", &[]).expect("empty combine");
        let (trap_syscall, _owner) =
            dispatcher.define::<Syscall, SysResult>("Trap.SystemCall", Identity::kernel("Trap"));
        nameserver
            .register(
                "SpinPublic",
                spin_public.clone(),
                Identity::kernel("kernel"),
            )
            .expect("fresh nameserver");
        Kernel {
            inner: Arc::new(KernelInner {
                host,
                dispatcher,
                nameserver,
                heap: KernelHeap::new(),
                spin_public,
                trap_syscall,
                asserted_safe: AtomicU64::new(0),
                syscalls: Arc::new(AtomicU64::new(0)),
                extensions: Mutex::new(Vec::new()),
                obs: spin_check::hooks::HookSlot::new(),
            }),
        }
    }

    /// Wires the observability subsystem into the kernel, dogfooding the
    /// paper's machinery on the way:
    ///
    /// * the dispatcher and the trap path get their accounting hooks;
    /// * trace records are stamped with this host's virtual clock;
    /// * an `Obs.Snapshot` event is defined whose primary handler renders
    ///   the Prometheus accounting text — any holder of the returned
    ///   [`Event`] (e.g. the in-kernel `/metrics` HTTP extension) raises
    ///   it like any other kernel procedure;
    /// * an `ObsService` domain exporting the subsystem handle and the
    ///   snapshot event is registered with the nameserver, so extensions
    ///   import observability exactly like every other kernel interface.
    ///
    /// Returns the `Obs.Snapshot` event handle. Idempotent wiring: hooks
    /// are one-shot, but each call defines a fresh snapshot event.
    pub fn install_obs(&self, obs: &Obs) -> Event<(), String> {
        let clock = self.inner.host.clock.clone();
        obs.set_time_source(Arc::new(move || clock.now()));
        self.inner.dispatcher.set_obs(obs.domain("dispatcher"));
        self.inner.heap.set_obs(obs.domain("gc"));
        let kernel = obs.domain("kernel");
        if self.inner.obs.set(kernel.clone()) {
            let book = self.inner.syscalls.clone();
            kernel.read(move |t| t.syscalls += book.load(Ordering::Relaxed)); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }

        let (snapshot, snap_owner) = self
            .inner
            .dispatcher
            .define::<(), String>("Obs.Snapshot", Identity::kernel("obs"));
        let render_obs = obs.clone();
        snap_owner
            .set_primary(move |_| render_obs.render_prometheus())
            .expect("fresh Obs.Snapshot event");

        let iface = crate::interface::Interface::new("ObsService")
            .export("obs", Arc::new(obs.clone()))
            .export("snapshot", Arc::new(snapshot.clone()));
        let domain = Domain::create_from_module("ObsService", vec![iface]);
        // Re-wiring (tests boot several kernels against one obs) keeps the
        // first registration.
        let _ = self
            .inner
            .nameserver
            .register("ObsService", domain, Identity::kernel("obs"));
        snapshot
    }

    /// Installs the standard fault-containment policy: the circuit
    /// breaker becomes the dispatcher's fault sink and quarantine is
    /// armed against this kernel's nameserver, so a repeatedly faulting
    /// extension loses its handlers *and* its exported interfaces. See
    /// [`Containment`] for the supervision story (`Core.DomainFault`).
    pub fn install_fault_containment(&self, policy: ContainmentPolicy) -> Arc<Containment> {
        Containment::install(&self.inner.dispatcher, Some(&self.inner.nameserver), policy)
    }

    /// The simulated hardware this kernel runs on.
    pub fn host(&self) -> &Host {
        &self.inner.host
    }

    /// The central event dispatcher.
    pub fn dispatcher(&self) -> &Dispatcher {
        &self.inner.dispatcher
    }

    /// The in-kernel nameserver.
    pub fn nameserver(&self) -> &NameServer {
        &self.inner.nameserver
    }

    /// The garbage-collected kernel heap.
    pub fn heap(&self) -> &KernelHeap {
        &self.inner.heap
    }

    /// The aggregate domain of public kernel interfaces.
    pub fn spin_public(&self) -> &Domain {
        &self.inner.spin_public
    }

    /// Exports an interface into `SpinPublic` (done by core services as
    /// they initialize).
    pub fn publish(&self, interface: crate::interface::Interface) {
        self.inner.spin_public.add_export(interface);
    }

    /// The `Trap.SystemCall` event.
    pub fn trap_syscall(&self) -> &Event<Syscall, SysResult> {
        &self.inner.trap_syscall
    }

    /// Loads an extension: creates a domain from `objfile` (counting
    /// asserted-safe files), links it against `SpinPublic`, and requires it
    /// to be fully resolved before it is registered.
    pub fn load_extension(&self, objfile: ObjectFile) -> Result<Domain, CoreError> {
        if objfile.provenance() == Provenance::AssertedSafe {
            self.inner.asserted_safe.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }
        let domain = Domain::create(objfile)?;
        Domain::resolve(&self.inner.spin_public, &domain)?;
        domain.require_resolved()?;
        self.inner.extensions.lock().push(domain.clone());
        Ok(domain)
    }

    /// How many object files were trusted by assertion rather than by the
    /// compiler (the paper tracks these as disproportionate bug sources).
    pub fn asserted_safe_count(&self) -> u64 {
        self.inner.asserted_safe.load(Ordering::Relaxed) // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
    }

    /// Creates a fresh externalized-reference table for an application.
    pub fn new_extern_table(&self) -> ExternTable {
        ExternTable::new()
    }

    /// Installs a handler for a range of system-call numbers — an
    /// application-specific system call (§5.2's VM benchmarks use these).
    pub fn register_syscalls(
        &self,
        installer: Identity,
        numbers: Range<u64>,
        handler: impl Fn(&Syscall) -> SysResult + Send + Sync + 'static,
    ) -> Result<HandlerId, DispatchError> {
        self.inner.trap_syscall.install_guarded(
            installer,
            move |sc: &Syscall| numbers.contains(&sc.number),
            handler,
        )
    }

    /// The user→kernel→user system-call path: charges the trap crossing
    /// and raises `Trap.SystemCall`.
    pub fn syscall(&self, number: u64, args: [u64; 6]) -> SysResult {
        let profile = &self.inner.host.profile;
        let clock = &self.inner.host.clock;
        self.inner.syscalls.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        if let Some(obs) = self.inner.obs.get() {
            obs.trace(TraceKind::SyscallTrap, number, 0);
        }
        clock.advance(profile.trap_entry);
        let result = self
            .inner
            .trap_syscall
            .raise(Syscall { number, args })
            .unwrap_or(ENOSYS);
        clock.advance(profile.trap_exit);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::Interface;
    use crate::objfile::ObjectFileBuilder;
    use spin_sal::SimBoard;

    fn kernel() -> Kernel {
        let board = SimBoard::new();
        Kernel::boot(board.new_host(256))
    }

    #[test]
    fn boot_registers_spin_public() {
        let k = kernel();
        assert!(k.nameserver().names().contains(&"SpinPublic".to_string()));
        assert_eq!(k.spin_public().name(), "SpinPublic");
    }

    #[test]
    fn extensions_link_against_spin_public() {
        let k = kernel();
        k.publish(Interface::new("Math").export("answer", Arc::new(42u32)));
        let mut b = ObjectFileBuilder::new("ext");
        let slot = b.import::<u32>("Math", "answer");
        let d = k.load_extension(b.sign()).unwrap();
        assert!(d.fully_resolved());
        assert_eq!(*slot.get().unwrap(), 42);
        assert_eq!(k.inner.extensions.lock().len(), 1);
    }

    #[test]
    fn extension_with_missing_import_fails_to_load() {
        let k = kernel();
        let mut b = ObjectFileBuilder::new("ext");
        let _slot = b.import::<u32>("NoSuch", "thing");
        assert!(matches!(
            k.load_extension(b.sign()),
            Err(CoreError::Unresolved { .. })
        ));
        assert_eq!(k.inner.extensions.lock().len(), 0);
    }

    #[test]
    fn asserted_safe_files_are_counted() {
        let k = kernel();
        let f = ObjectFile::unsigned("vendor_tcp", vec![]).assert_safe();
        k.load_extension(f).unwrap();
        assert_eq!(k.asserted_safe_count(), 1);
    }

    #[test]
    fn syscalls_dispatch_to_guarded_handlers() {
        let k = kernel();
        k.register_syscalls(Identity::extension("vmext"), 100..110, |sc| {
            (sc.number as i64) + (sc.args[0] as i64)
        })
        .unwrap();
        assert_eq!(k.syscall(105, [1, 0, 0, 0, 0, 0]), 106);
        assert_eq!(k.syscall(5, [0; 6]), ENOSYS);
    }

    #[test]
    fn spin_syscall_costs_about_four_microseconds() {
        let k = kernel();
        k.register_syscalls(Identity::extension("null"), 0..1, |_| 0)
            .unwrap();
        let clock = k.host().clock.clone();
        let t0 = clock.now();
        k.syscall(0, [0; 6]);
        let us = (clock.now() - t0) as f64 / 1000.0;
        // Table 2: SPIN's null system call is 4 µs.
        assert!((3.5..4.8).contains(&us), "syscall cost {us} µs");
    }
}
