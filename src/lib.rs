//! # spin-os — a Rust reproduction of the SPIN operating system
//!
//! This workspace reproduces *Extensibility, Safety and Performance in the
//! SPIN Operating System* (Bershad et al., SOSP 1995) as a deterministic
//! user-space simulation calibrated to the paper's 133 MHz DEC Alpha
//! testbed. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for paper-vs-measured results for every table and figure.
//!
//! The facade re-exports each subsystem crate, and it is the one path by
//! which this package's tests, examples and docs name them. Each crate's
//! modules are private: its root `pub use` list is its whole interface.
//!
//! * [`sal`] — simulated hardware: virtual clock, cost model, MMU,
//!   devices, wire;
//! * [`core`] — the extensibility machinery: domains, the in-kernel
//!   linker, the nameserver, capabilities, and the event dispatcher;
//! * [`rt`] — the mostly-copying garbage collector;
//! * [`sched`] — strands, the deterministic executor, schedulers, thread
//!   packages;
//! * [`vm`] — the PhysAddr/VirtAddr/Translation services and extensions;
//! * [`fs`] — the buffer cache and file system;
//! * [`net`] — the extensible protocol stack and its extensions;
//! * [`obs`] — the flight recorder and per-domain accounting;
//! * [`fault`] — the deterministic fault-injection plan driving the
//!   containment and quarantine machinery in [`core`];
//! * [`swap`] — live domain hot-swap;
//! * [`dsm`] — distributed shared memory over the fault events;
//! * [`unix`] — a UNIX server on the thread, VM and file-system
//!   extensions;
//! * [`baseline`] — the DEC OSF/1 and Mach 3.0 comparison models.
//!
//! ## Quickstart
//!
//! ```
//! use spin_os::core::{Identity, Interface, Kernel, ObjectFileBuilder};
//! use spin_os::sal::SimBoard;
//! use std::sync::Arc;
//!
//! // Boot a kernel on a simulated Alpha workstation.
//! let board = SimBoard::new();
//! let kernel = Kernel::boot(board.new_host(256));
//!
//! // A core service exports an interface into SpinPublic.
//! kernel.publish(Interface::new("Math").export("answer", Arc::new(42u32)));
//!
//! // An extension (a compiler-signed object file) imports it and is
//! // dynamically linked into the kernel.
//! let mut module = ObjectFileBuilder::new("my-extension");
//! let answer = module.import::<u32>("Math", "answer");
//! kernel.load_extension(module.sign()).unwrap();
//! assert_eq!(*answer.get().unwrap(), 42);
//!
//! // Extensions define application-specific system calls.
//! kernel
//!     .register_syscalls(Identity::extension("my-extension"), 100..101, |sc| {
//!         sc.args[0] as i64 * 2
//!     })
//!     .unwrap();
//! assert_eq!(kernel.syscall(100, [21, 0, 0, 0, 0, 0]), 42);
//! ```

pub use spin_baseline as baseline;
pub use spin_core as core;
pub use spin_dsm as dsm;
pub use spin_fault as fault;
pub use spin_fs as fs;
pub use spin_net as net;
pub use spin_obs as obs;
pub use spin_rt as rt;
pub use spin_sal as sal;
pub use spin_sched as sched;
pub use spin_swap as swap;
pub use spin_unix as unix;
pub use spin_vm as vm;
