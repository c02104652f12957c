//! `spin-sal` — the System Abstraction Layer for the SPIN reproduction.
//!
//! The paper's `sal` component "implements a low-level interface to device
//! drivers and the MMU, offering functionality such as 'install a page table
//! entry', 'get a character from the console', and 'read block 22 from SCSI
//! unit 0'" (§5.1). The original was a trimmed DEC OSF/1 kernel running on a
//! 133 MHz DEC Alpha AXP 3000/400; this crate substitutes a deterministic
//! simulation of that machine:
//!
//! * a global **virtual clock** ([`Clock`]) that all simulated work advances,
//! * a constant **cost table** ([`Cost`]) calibrated to the paper's
//!   hardware, so higher layers charge for traps, copies, context switches,
//!   wire time and disk time by name, in a structurally faithful way,
//! * **physical memory** ([`PhysMem`]) and an **MMU** ([`Mmu`]) with page
//!   tables, protection bits and a TLB,
//! * **devices**: a console, a seek-model disk, and three network interfaces
//!   matching the paper's testbed (Lance Ethernet, FORE ATM with programmed
//!   I/O, and the experimental T3 DMA adapter),
//! * a **wire** connecting simulated hosts, delivering frames through the
//!   shared timer queue, and
//! * an **interrupt controller** per host.
//!
//! Everything here is passive: devices and the MMU account costs and move
//! bytes, while the executor in `spin-sched` pumps timers and interrupts.
//! Determinism comes from the single timeline, sequence-numbered timers and
//! the absence of wall-clock or unseeded randomness.

#![forbid(unsafe_code)]

mod board;
mod buf;
mod clock;
mod cost;
mod devices;
mod irq;
mod mailbox;
mod mem;
mod mmu;
mod wire;

pub use board::{vectors, Host, HostId, MulticoreBoard, SimBoard};
pub use buf::BufChain;
pub use clock::{AdvanceHookId, Charge, Clock, Nanos, TimerId, TimerQueue};
pub use cost::{Cost, MachineProfile};
pub use devices::console::Console;
pub use devices::disk::{BlockId, Disk, DiskRequest, BLOCK_SIZE};
pub use devices::nic::{Frame, IoKind, Nic, NicError, NicModel, SPARE_FRAMES};
pub use irq::{IrqController, IrqVector};
pub use mailbox::{lanes, Envelope, MailFate, Mailbox};
pub use mem::{FrameId, PhysMem};
pub use mmu::{Access, ContextId, Mmu, MmuFault, Protection, Pte};
pub use wire::{Wire, WireEndpoint};

/// The Alpha AXP page size used throughout the simulation (8 KB).
pub const PAGE_SIZE: usize = 8192;

/// Number of bits in the page offset (`log2(PAGE_SIZE)`).
pub const PAGE_SHIFT: u32 = 13;

/// Converts an address to its offset within a page.
#[inline]
pub const fn page_offset(addr: u64) -> usize {
    (addr & (PAGE_SIZE as u64 - 1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_offset_is_the_low_bits() {
        let addr = 3 * PAGE_SIZE as u64 + 17;
        assert_eq!(page_offset(addr), 17);
    }

    #[test]
    fn page_size_is_power_of_two() {
        assert_eq!(1usize << PAGE_SHIFT, PAGE_SIZE);
    }
}
