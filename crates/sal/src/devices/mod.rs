//! Simulated devices: console, disk, and network interfaces.
//!
//! These are the vendor devices of the paper's testbed. SPIN dynamically
//! linked DEC OSF/1 drivers for them ("SPIN's lowest level device interface
//! is identical to the DEC OSF/1 driver interface", §3.1); our equivalents
//! expose small submit/complete interfaces, post interrupts through the
//! host's [`IrqController`](crate::IrqController), and charge the
//! [`Cost`](crate::Cost) table for driver, copy, PIO/DMA and media time.

pub(crate) mod console;
pub(crate) mod disk;
pub(crate) mod nic;
