//! `spin-vm` — extensible memory management for the SPIN reproduction.
//!
//! "The SPIN memory management interface decomposes memory services into
//! three basic components: physical storage, naming, and translation"
//! (§4.1, Figure 3):
//!
//! * [`PhysAddrService`] — physical pages as capabilities, allocation
//!   attributes (color, contiguity), and the `PhysAddr.Reclaim` event;
//! * [`VirtAddrService`] — virtual address regions as capabilities;
//! * [`TranslationService`] — addressing contexts, mappings into the MMU,
//!   and the fault events `PageNotPresent`, `BadAddress`,
//!   `ProtectionFault`.
//!
//! Higher-level models are *extensions* composed from these:
//! [`UnixAsExtension`] (UNIX address spaces with copy-on-write fork),
//! [`MachTaskExtension`] (Mach's task abstraction), and [`DiskPager`]
//! (demand paging). [`VmWorkbench`] packages the Table 4 benchmark
//! workloads.

#![forbid(unsafe_code)]

mod address_space;
mod mach_task;
mod pager;
mod phys;
mod service;
mod translation;
mod virt;
mod workloads;

pub use address_space::{UnixAddressSpace, UnixAsExtension};
pub use mach_task::{MachTask, MachTaskExtension};
pub use pager::{DiskPager, PagerStats};
pub use phys::{PhysAddrService, PhysAttrib, PhysError, PhysRegion, ReclaimRequest};
pub use service::VmService;
pub use translation::{
    FaultAction, FaultInfo, FaultKind, TranslationEvents, TranslationService, VmError,
};
pub use virt::{VirtAddrService, VirtError, VirtRegion};
pub use workloads::VmWorkbench;
