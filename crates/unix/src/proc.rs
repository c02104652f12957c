//! Process-table types for the UNIX server.

use crate::pipe::Pipe;
use spin_sched::WaitQueue;
use spin_vm::UnixAddressSpace;
use std::collections::HashMap;
use std::sync::Arc;

/// A process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// A file descriptor's referent.
#[derive(Clone)]
pub(crate) enum Fd {
    /// An open regular file with a cursor.
    File { path: String, offset: u64 },
    /// The read end of a pipe.
    PipeRead(Arc<Pipe>),
    /// The write end of a pipe.
    PipeWrite(Arc<Pipe>),
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Running,
    /// Exited with a status; waiting to be reaped.
    Zombie(i32),
}

pub(crate) struct Proc {
    pub pid: Pid,
    pub parent: Option<Pid>,
    pub space: Arc<UnixAddressSpace>,
    pub fds: HashMap<i32, Fd>,
    pub next_fd: i32,
    pub state: ProcState,
    /// Strands blocked in waitpid on this process's children.
    pub waiters: WaitQueue,
}

impl Proc {
    pub(crate) fn new(pid: Pid, parent: Option<Pid>, space: Arc<UnixAddressSpace>) -> Proc {
        Proc {
            pid,
            parent,
            space,
            fds: HashMap::new(),
            next_fd: 3, // 0/1/2 reserved for stdio
            state: ProcState::Running,
            waiters: WaitQueue::default(),
        }
    }

    pub(crate) fn alloc_fd(&mut self, fd: Fd) -> i32 {
        let n = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(n, fd);
        n
    }
}
