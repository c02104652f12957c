//! The UNIX server proper: the OSF/1-flavoured call interface.
//!
//! The server composes three SPIN extensions exactly as §1.2 describes —
//! threads (strands via the executor), virtual memory (the UNIX
//! address-space extension with copy-on-write fork), and storage (the file
//! system) — behind a classic system-call surface: `fork`, `exit`,
//! `waitpid`, `getpid`, `brk`, `open`, `close`, `read`, `write`, `pipe`.
//!
//! Register-only calls are also installed on `Trap.SystemCall` in the
//! number band starting at [`SYSCALL_BASE`], the way the paper's server
//! hooks the kernel.

use crate::pipe::Pipe;
use crate::proc::{Fd, Pid, Proc, ProcState};
use spin_check::sync::Counter;
use spin_check::sync::Mutex;
use spin_core::{Identity, Kernel};
use spin_fs::{FileSystem, FsError};
use spin_sal::Protection;
use spin_sched::{Executor, StrandCtx};
use spin_vm::{UnixAsExtension, VmError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::task::Poll;

/// First system-call number of the server's band on `Trap.SystemCall`.
pub const SYSCALL_BASE: u64 = 1000;

/// Errors from server calls (errno-flavoured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnixError {
    /// ESRCH — no such process.
    NoSuchProcess,
    /// EBADF — bad file descriptor.
    BadFd,
    /// ECHILD — no children to wait for.
    NoChildren,
    /// EPIPE — broken pipe.
    BrokenPipe,
    /// ENOMEM — address-space allocation failed.
    NoMemory,
    /// A file-system error, carried through.
    Fs(FsError),
}

impl From<FsError> for UnixError {
    fn from(e: FsError) -> Self {
        UnixError::Fs(e)
    }
}

impl From<VmError> for UnixError {
    fn from(_: VmError) -> Self {
        UnixError::NoMemory
    }
}

struct ServerState {
    procs: BTreeMap<Pid, Proc>,
}

/// The UNIX server.
#[derive(Clone)]
pub struct UnixServer {
    exec: Arc<Executor>,
    vm: UnixAsExtension,
    fs: FileSystem,
    state: Arc<Mutex<ServerState>>,
    next_pid: Arc<Counter>,
}

impl UnixServer {
    /// Starts the server over the given extensions and registers its
    /// register-only system calls on the kernel's trap path.
    pub fn start(
        kernel: &Kernel,
        exec: Arc<Executor>,
        vm: UnixAsExtension,
        fs: FileSystem,
    ) -> UnixServer {
        let server = UnixServer {
            exec,
            vm,
            fs,
            state: Arc::new(Mutex::new(ServerState {
                procs: BTreeMap::new(),
            })),
            next_pid: Arc::new(Counter::new(1)),
        };
        // getpid(pid) and brk-query are pure register calls; install them
        // in the server's band as the paper's server does.
        let srv = server.clone();
        kernel
            .register_syscalls(
                Identity::extension("unix-server"),
                SYSCALL_BASE..SYSCALL_BASE + 2,
                move |sc| {
                    match sc.number - SYSCALL_BASE {
                        0 => {
                            // getpid: identity, validated against the table.
                            let pid = Pid(sc.args[0] as u32);
                            if srv.state.lock().procs.contains_key(&pid) {
                                pid.0 as i64
                            } else {
                                -3 // ESRCH
                            }
                        }
                        1 => srv.state.lock().procs.len() as i64, // "ps" count
                        _ => -78,
                    }
                },
            )
            .expect("syscall band free");
        server
    }

    /// Creates the initial process (the paper's server boots `init`).
    pub fn spawn_init(&self) -> Pid {
        let pid = Pid(self.next_pid.fetch_add(1) as u32);
        let space = self.vm.create();
        self.state
            .lock()
            .procs
            .insert(pid, Proc::new(pid, None, space));
        pid
    }

    /// `fork`: a child with a copy-on-write image of the parent and
    /// duplicated descriptors.
    pub fn fork(&self, parent: Pid) -> Result<Pid, UnixError> {
        let child_pid = Pid(self.next_pid.fetch_add(1) as u32);
        let (child_space, fds) = {
            let st = self.state.lock();
            let p = st.procs.get(&parent).ok_or(UnixError::NoSuchProcess)?;
            (self.vm.copy(&p.space)?, p.fds.clone())
        };
        // Pipe ends gain references.
        for fd in fds.values() {
            match fd {
                Fd::PipeRead(p) => p.add_reader(),
                Fd::PipeWrite(p) => p.add_writer(),
                Fd::File { .. } => {}
            }
        }
        let mut child = Proc::new(child_pid, Some(parent), child_space);
        child.fds = fds;
        child.next_fd = self.state.lock().procs[&parent].next_fd;
        self.state.lock().procs.insert(child_pid, child);
        Ok(child_pid)
    }

    /// `exit`: become a zombie and wake any waiting parent.
    pub fn exit(&self, pid: Pid, status: i32) {
        let (waiters, fds) = {
            let mut st = self.state.lock();
            let (parent, fds) = match st.procs.get_mut(&pid) {
                Some(p) => {
                    p.state = ProcState::Zombie(status);
                    (p.parent, p.fds.drain().map(|(_, f)| f).collect::<Vec<_>>())
                }
                None => return,
            };
            let waiters = parent
                .and_then(|pp| st.procs.get_mut(&pp))
                .map(|pp| pp.waiters.wake_all())
                .unwrap_or_default();
            (waiters, fds)
        };
        for fd in fds {
            self.release_fd(fd);
        }
        waiters.unblock(&self.exec);
    }

    fn release_fd(&self, fd: Fd) {
        match fd {
            Fd::PipeRead(p) => p.drop_reader(),
            Fd::PipeWrite(p) => p.drop_writer(),
            Fd::File { .. } => {}
        }
    }

    /// `waitpid(-1)`: blocks until any child of `parent` exits; reaps it.
    pub fn waitpid(&self, ctx: &StrandCtx, parent: Pid) -> Result<(Pid, i32), UnixError> {
        ctx.wait(
            &self.state,
            |st| &mut st.procs.get_mut(&parent).expect("polled above").waiters,
            |st| {
                if !st.procs.contains_key(&parent) {
                    return Poll::Ready(Err(UnixError::NoSuchProcess));
                }
                let zombie = st
                    .procs
                    .values()
                    .find(|p| p.parent == Some(parent) && matches!(p.state, ProcState::Zombie(_)))
                    .map(|p| p.pid);
                if let Some(child) = zombie {
                    let status = match st.procs.remove(&child).map(|p| p.state) {
                        Some(ProcState::Zombie(s)) => s,
                        _ => 0,
                    };
                    return Poll::Ready(Ok((child, status)));
                }
                if st.procs.values().any(|p| p.parent == Some(parent)) {
                    Poll::Pending
                } else {
                    Poll::Ready(Err(UnixError::NoChildren))
                }
            },
        )
    }

    /// `brk`-style allocation: extends the process image by `pages`,
    /// returning the base address.
    pub fn sbrk(&self, pid: Pid, pages: u64) -> Result<u64, UnixError> {
        let space = {
            let st = self.state.lock();
            st.procs
                .get(&pid)
                .ok_or(UnixError::NoSuchProcess)?
                .space
                .clone()
        };
        Ok(self.vm.allocate(&space, pages, Protection::READ_WRITE)?)
    }

    /// Writes into a process's memory (the server moving data to an app).
    pub fn copyout(&self, pid: Pid, va: u64, data: &[u8]) -> Result<(), UnixError> {
        let space = {
            let st = self.state.lock();
            st.procs
                .get(&pid)
                .ok_or(UnixError::NoSuchProcess)?
                .space
                .clone()
        };
        Ok(self.vm.write(&space, va, data)?)
    }

    /// Reads from a process's memory.
    pub fn copyin(&self, pid: Pid, va: u64, buf: &mut [u8]) -> Result<(), UnixError> {
        let space = {
            let st = self.state.lock();
            st.procs
                .get(&pid)
                .ok_or(UnixError::NoSuchProcess)?
                .space
                .clone()
        };
        Ok(self.vm.read(&space, va, buf)?)
    }

    /// `open` (creating if absent).
    pub fn open(&self, pid: Pid, path: &str) -> Result<i32, UnixError> {
        if self.fs.size_of(path).is_err() {
            self.fs.create(path)?;
        }
        let mut st = self.state.lock();
        let p = st.procs.get_mut(&pid).ok_or(UnixError::NoSuchProcess)?;
        Ok(p.alloc_fd(Fd::File {
            path: path.to_string(),
            offset: 0,
        }))
    }

    /// `close`.
    pub fn close(&self, pid: Pid, fd: i32) -> Result<(), UnixError> {
        let f = {
            let mut st = self.state.lock();
            let p = st.procs.get_mut(&pid).ok_or(UnixError::NoSuchProcess)?;
            p.fds.remove(&fd).ok_or(UnixError::BadFd)?
        };
        self.release_fd(f);
        Ok(())
    }

    /// `pipe`: returns (read fd, write fd).
    pub fn pipe(&self, pid: Pid) -> Result<(i32, i32), UnixError> {
        let pipe = Pipe::new(self.exec.clone());
        let mut st = self.state.lock();
        let p = st.procs.get_mut(&pid).ok_or(UnixError::NoSuchProcess)?;
        let r = p.alloc_fd(Fd::PipeRead(pipe.clone()));
        let w = p.alloc_fd(Fd::PipeWrite(pipe));
        Ok((r, w))
    }

    /// `write`.
    pub fn write(
        &self,
        ctx: &StrandCtx,
        pid: Pid,
        fd: i32,
        data: &[u8],
    ) -> Result<usize, UnixError> {
        let f = {
            let st = self.state.lock();
            st.procs
                .get(&pid)
                .ok_or(UnixError::NoSuchProcess)?
                .fds
                .get(&fd)
                .ok_or(UnixError::BadFd)?
                .clone()
        };
        match f {
            Fd::File { path, offset } => {
                // Read-modify-write of the whole file (simple server).
                let mut content = self.fs.read_file(ctx, &path).unwrap_or_default();
                let end = offset as usize + data.len();
                if content.len() < end {
                    content.resize(end, 0);
                }
                content[offset as usize..end].copy_from_slice(data);
                self.fs.write_file(ctx, &path, &content)?;
                let mut st = self.state.lock();
                if let Some(Fd::File { offset, .. }) =
                    st.procs.get_mut(&pid).and_then(|p| p.fds.get_mut(&fd))
                {
                    *offset = end as u64;
                }
                Ok(data.len())
            }
            Fd::PipeWrite(p) => p.write(ctx, data).ok_or(UnixError::BrokenPipe),
            Fd::PipeRead(_) => Err(UnixError::BadFd),
        }
    }

    /// `read`.
    pub fn read(
        &self,
        ctx: &StrandCtx,
        pid: Pid,
        fd: i32,
        max: usize,
    ) -> Result<Vec<u8>, UnixError> {
        let f = {
            let st = self.state.lock();
            st.procs
                .get(&pid)
                .ok_or(UnixError::NoSuchProcess)?
                .fds
                .get(&fd)
                .ok_or(UnixError::BadFd)?
                .clone()
        };
        match f {
            Fd::File { path, offset } => {
                let data = self.fs.read_at(ctx, &path, offset, max)?;
                let mut st = self.state.lock();
                if let Some(Fd::File { offset, .. }) =
                    st.procs.get_mut(&pid).and_then(|p| p.fds.get_mut(&fd))
                {
                    *offset += data.len() as u64;
                }
                Ok(data)
            }
            Fd::PipeRead(p) => Ok(p.read(ctx, max)),
            Fd::PipeWrite(_) => Err(UnixError::BadFd),
        }
    }

    /// Live process count.
    pub fn process_count(&self) -> usize {
        self.state.lock().procs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_fs::{BufferCache, LruPolicy};
    use spin_sal::SimBoard;
    use spin_vm::VmService;

    struct Rig {
        kernel: Kernel,
        exec: Arc<Executor>,
        server: UnixServer,
    }

    fn rig() -> Rig {
        let board = SimBoard::new();
        let host = board.new_host(512);
        let exec = Executor::for_host(&host);
        let kernel = Kernel::boot(host.clone());
        let vm = VmService::install(&kernel);
        let unix_vm = UnixAsExtension::install(
            vm.trans.clone(),
            vm.phys.clone(),
            vm.virt.clone(),
            host.mem.clone(),
        );
        let cache = BufferCache::new(
            host.disk.clone(),
            exec.clone(),
            64,
            Box::new(LruPolicy::default()),
        );
        let fs = FileSystem::format(cache, 0, 400);
        let server = UnixServer::start(&kernel, exec.clone(), unix_vm, fs);
        Rig {
            kernel,
            exec,
            server,
        }
    }

    #[test]
    fn fork_gives_cow_isolated_images() {
        let r = rig();
        let srv = r.server.clone();
        r.exec.spawn("init", move |_ctx| {
            let init = srv.spawn_init();
            let base = srv.sbrk(init, 1).unwrap();
            srv.copyout(init, base, b"parent data").unwrap();
            let child = srv.fork(init).unwrap();
            // Child sees, then diverges.
            let mut buf = [0u8; 11];
            srv.copyin(child, base, &mut buf).unwrap();
            assert_eq!(&buf, b"parent data");
            srv.copyout(child, base, b"child  data").unwrap();
            srv.copyin(init, base, &mut buf).unwrap();
            assert_eq!(&buf, b"parent data", "COW isolates the parent");
        });
        r.exec.run_until_idle();
    }

    #[test]
    fn exit_and_waitpid_reap_children() {
        let r = rig();
        let srv = r.server.clone();
        let exec2 = r.exec.clone();
        r.exec.spawn("init", move |ctx| {
            let init = srv.spawn_init();
            let child = srv.fork(init).unwrap();
            // The child "runs" on its own strand and exits with status 7.
            let srv2 = srv.clone();
            exec2.spawn("child", move |cctx| {
                cctx.sleep(1_000_000);
                srv2.exit(child, 7);
            });
            let (reaped, status) = srv.waitpid(ctx, init).unwrap();
            assert_eq!(reaped, child);
            assert_eq!(status, 7);
            assert_eq!(srv.process_count(), 1, "only init remains");
            assert!(matches!(srv.waitpid(ctx, init), Err(UnixError::NoChildren)));
        });
        r.exec.run_until_idle();
    }

    #[test]
    fn files_read_and_write_through_descriptors() {
        let r = rig();
        let srv = r.server.clone();
        // `open` creates a missing file, not a missing directory: the
        // file lives in the root.
        let app = r.exec.spawn("app", move |ctx| {
            let p = srv.spawn_init();
            let fd = srv.open(p, "/motd").unwrap();
            let written = srv.write(ctx, p, fd, b"welcome to SPIN").unwrap();
            srv.close(p, fd).unwrap();
            let fd = srv.open(p, "/motd").unwrap();
            let reads = [7, 100].map(|n| srv.read(ctx, p, fd, n).unwrap());
            srv.close(p, fd).unwrap();
            (written, reads, srv.read(ctx, p, fd, 1))
        });
        r.exec.run_until_idle();
        let (written, [first, rest], closed) = app.join().expect("the app finishes");
        assert_eq!(written, 15);
        assert_eq!(first, b"welcome");
        assert_eq!(rest, b" to SPIN");
        assert!(matches!(closed, Err(UnixError::BadFd)));
    }

    #[test]
    fn pipes_connect_forked_processes() {
        let r = rig();
        let srv = r.server.clone();
        let exec2 = r.exec.clone();
        r.exec.spawn("shell", move |ctx| {
            let p = srv.spawn_init();
            let (rfd, wfd) = srv.pipe(p).unwrap();
            let child = srv.fork(p).unwrap();
            // Child writes into the pipe and exits.
            let srv2 = srv.clone();
            exec2.spawn("producer", move |cctx| {
                srv2.write(cctx, child, wfd, b"piped through").unwrap();
                srv2.close(child, wfd).unwrap();
                srv2.close(child, rfd).unwrap();
                srv2.exit(child, 0);
            });
            // Parent closes its write end and drains.
            srv.close(p, wfd).unwrap();
            let mut got = Vec::new();
            loop {
                let chunk = srv.read(ctx, p, rfd, 64).unwrap();
                if chunk.is_empty() {
                    break;
                }
                got.extend_from_slice(&chunk);
            }
            assert_eq!(&got, b"piped through");
            let _ = srv.waitpid(ctx, p).unwrap();
        });
        r.exec.run_until_idle();
    }

    #[test]
    fn register_only_syscalls_reach_the_server_band() {
        let r = rig();
        let pid = r.server.spawn_init();
        assert_eq!(
            r.kernel
                .syscall(SYSCALL_BASE, [pid.0 as u64, 0, 0, 0, 0, 0]),
            pid.0 as i64
        );
        assert_eq!(r.kernel.syscall(SYSCALL_BASE, [999, 0, 0, 0, 0, 0]), -3);
        assert_eq!(r.kernel.syscall(SYSCALL_BASE + 1, [0; 6]), 1);
    }
}
