//! `spin-unix` — a UNIX server on SPIN.
//!
//! "We have used SPIN to implement a UNIX operating system server. The
//! bulk of the server ... executes within its own address space (as do
//! applications). The server consists of a large body of code that
//! implements the DEC OSF/1 system call interface, and a small number of
//! SPIN extensions that provide the thread, virtual memory, and device
//! interfaces required by the server" (§1.2).
//!
//! This crate is that server: a process model (fork with copy-on-write via
//! the `UnixAsExtension`, exit/waitpid, brk), file descriptors over the
//! `FileSystem`, and pipes over the kernel channel primitive. The server
//! registers a band of system-call numbers on `Trap.SystemCall` for the
//! calls that carry their arguments in registers; richer calls are invoked
//! through the server interface, as the paper's server is by its C
//! library.

#![forbid(unsafe_code)]

mod pipe;
mod proc;
mod server;

pub use proc::Pid;
pub use server::{UnixError, UnixServer, SYSCALL_BASE};
