//! The network-based file system (§5.1 lists one among the `core`
//! services, next to the disk-based file system).
//!
//! An NFS-flavoured design over the in-kernel [`Rpc`] package: the server
//! extension exports `lookup` / `read` / `write` / `create` / `mkdir` /
//! `list` / `unlink` procedures backed by a local [`FileSystem`]; the
//! client extension offers the same blocking file API against a remote
//! host. Both halves run entirely inside their kernels, as the paper's
//! services do.

use crate::pkt::IpAddr;
use crate::rpc::{Rpc, RpcError};
use bytes::{BufMut, Bytes, BytesMut};
use spin_check::sync::Mutex;
use spin_fs::{FileSystem, FsError};
use spin_sched::{Executor, KChannel, StrandCtx};
use std::sync::Arc;

/// Errors seen by network file system clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFsError {
    /// The remote file system reported an error.
    Remote(String),
    /// The transport failed.
    Rpc(RpcError),
    /// The reply was malformed.
    Protocol,
}

fn encode_path_and(path: &str, rest: &[u8]) -> Vec<u8> {
    let mut b = BytesMut::with_capacity(2 + path.len() + rest.len());
    b.put_u16(path.len() as u16);
    b.extend_from_slice(path.as_bytes());
    b.extend_from_slice(rest);
    b.to_vec()
}

fn decode_path(args: &[u8]) -> Option<(String, &[u8])> {
    if args.len() < 2 {
        return None;
    }
    let n = u16::from_be_bytes(args[0..2].try_into().ok()?) as usize;
    if args.len() < 2 + n {
        return None;
    }
    let path = String::from_utf8_lossy(&args[2..2 + n]).into_owned();
    Some((path, &args[2 + n..]))
}

fn ok_reply(body: &[u8]) -> Vec<u8> {
    let mut v = vec![0u8];
    v.extend_from_slice(body);
    v
}

fn err_reply(e: &FsError) -> Vec<u8> {
    let mut v = vec![1u8];
    v.extend_from_slice(format!("{e:?}").as_bytes());
    v
}

/// The server half: exports a local file system over RPC.
pub struct NetFsServer {
    served: Arc<Mutex<u64>>,
}

impl NetFsServer {
    /// Exports `fs` through `rpc`. File data RPCs run on the protocol
    /// thread, so reads are served from a worker strand pool to keep the
    /// thread from blocking on disk: each request is bounced to a worker
    /// through a channel.
    pub fn export(rpc: &Rpc, fs: FileSystem, exec: &Arc<Executor>) -> Arc<NetFsServer> {
        let served = Arc::new(Mutex::new(0u64));

        // Worker: performs blocking file-system work.
        type Job = Box<dyn FnOnce(&StrandCtx) + Send>;
        let jobs: Arc<KChannel<Job>> = KChannel::new(exec.clone(), 64);
        let j2 = jobs.clone();
        let worker = exec.spawn("netfs-worker", move |ctx| {
            while let Some(job) = j2.recv(ctx) {
                job(ctx);
            }
        });
        exec.set_daemon(worker);

        // Non-blocking metadata procedures answer inline; data procedures
        // hop to the worker and reply through a oneshot channel. Because
        // the RPC layer expects a synchronous result, data procedures are
        // implemented with an in-kernel continuation: the RPC handler
        // blocks *its own* reply by polling a cell the worker fills. To
        // keep the protocol thread non-blocking we instead serve data
        // directly: the buffer cache only blocks on a miss, and the
        // server's cache is warm for benchmark workloads; a cold read
        // falls back to the worker path below.
        macro_rules! proc {
            ($name:expr, $body:expr) => {
                rpc.register($name, $body);
            };
        }

        let fs2 = fs.clone();
        proc!("netfs.create", move |args: &[u8]| {
            match decode_path(args) {
                Some((path, _)) => match fs2.create(&path) {
                    Ok(()) => ok_reply(&[]),
                    Err(e) => err_reply(&e),
                },
                None => err_reply(&FsError::NotFound { path: "?".into() }),
            }
        });
        let fs2 = fs.clone();
        proc!("netfs.mkdir", move |args: &[u8]| {
            match decode_path(args) {
                Some((path, _)) => match fs2.mkdir(&path) {
                    Ok(()) => ok_reply(&[]),
                    Err(e) => err_reply(&e),
                },
                None => err_reply(&FsError::NotFound { path: "?".into() }),
            }
        });
        let fs2 = fs.clone();
        proc!("netfs.size", move |args: &[u8]| {
            match decode_path(args) {
                Some((path, _)) => match fs2.size_of(&path) {
                    Ok(n) => ok_reply(&n.to_be_bytes()),
                    Err(e) => err_reply(&e),
                },
                None => err_reply(&FsError::NotFound { path: "?".into() }),
            }
        });
        let fs2 = fs.clone();
        proc!("netfs.list", move |args: &[u8]| {
            match decode_path(args) {
                Some((path, _)) => match fs2.list(&path) {
                    Ok(names) => ok_reply(names.join("\n").as_bytes()),
                    Err(e) => err_reply(&e),
                },
                None => err_reply(&FsError::NotFound { path: "?".into() }),
            }
        });
        let fs2 = fs.clone();
        proc!("netfs.unlink", move |args: &[u8]| {
            match decode_path(args) {
                Some((path, _)) => match fs2.unlink(&path) {
                    Ok(()) => ok_reply(&[]),
                    Err(e) => err_reply(&e),
                },
                None => err_reply(&FsError::NotFound { path: "?".into() }),
            }
        });

        // Data procedures: executed on the worker strand, so the protocol
        // thread never blocks on the disk. The handler answers EAGAIN
        // until the worker deposits the completed reply in the pending
        // table; the client's retry then collects it.
        use std::collections::HashMap;
        enum ReadState {
            InFlight,
            Done(Vec<u8>),
        }
        let pending: Arc<Mutex<HashMap<String, ReadState>>> = Arc::new(Mutex::new(HashMap::new()));
        let fs2 = fs.clone();
        let jobs2 = jobs.clone();
        let served2 = served.clone();
        proc!("netfs.read", move |args: &[u8]| {
            *served2.lock() += 1;
            let (path, _) = match decode_path(args) {
                Some(p) => p,
                None => return err_reply(&FsError::NotFound { path: "?".into() }),
            };
            {
                let mut pend = pending.lock();
                match pend.get(&path) {
                    Some(ReadState::Done(_)) => {
                        if let Some(ReadState::Done(reply)) = pend.remove(&path) {
                            return reply;
                        }
                        unreachable!("checked Done above");
                    }
                    Some(ReadState::InFlight) => return vec![2u8], // EAGAIN
                    None => {
                        pend.insert(path.clone(), ReadState::InFlight);
                    }
                }
            }
            let (fs3, pend2) = (fs2.clone(), pending.clone());
            jobs2.try_push(Box::new(move |ctx| {
                let reply = match fs3.read_file(ctx, &path) {
                    Ok(data) => ok_reply(&data),
                    Err(e) => err_reply(&e),
                };
                pend2.lock().insert(path, ReadState::Done(reply));
            }));
            vec![2u8] // EAGAIN: the worker is reading
        });
        let fs2 = fs.clone();
        let jobs2 = jobs.clone();
        proc!("netfs.write", move |args: &[u8]| {
            let (path, data) = match decode_path(args) {
                Some(p) => p,
                None => return err_reply(&FsError::NotFound { path: "?".into() }),
            };
            let data = data.to_vec();
            let fs3 = fs2.clone();
            let path2 = path.clone();
            jobs2.try_push(Box::new(move |ctx| {
                let _ = fs3.write_file(ctx, &path2, &data);
            }));
            ok_reply(&[]) // write-behind: acknowledged once queued
        });

        Arc::new(NetFsServer { served })
    }

    /// Data requests served (including EAGAIN rounds).
    pub fn requests(&self) -> u64 {
        *self.served.lock()
    }
}

/// The client half: a blocking remote file API.
pub struct NetFsClient {
    rpc: Rpc,
    server: IpAddr,
}

impl NetFsClient {
    /// Mounts the file system exported by `server`.
    // paper: README.md, the network file system extension (its client's one constructor).
    pub fn mount(rpc: &Rpc, server: IpAddr) -> NetFsClient {
        NetFsClient {
            rpc: rpc.clone(),
            server,
        }
    }

    fn call(&self, ctx: &StrandCtx, proc_name: &str, args: &[u8]) -> Result<Bytes, NetFsError> {
        // Retry through EAGAIN while the server's worker completes disk
        // I/O (bounded to keep errors surfacing).
        for _ in 0..32 {
            let reply = self
                .rpc
                .call(ctx, self.server, proc_name, args)
                .map_err(NetFsError::Rpc)?;
            match reply.first() {
                Some(0) => return Ok(Bytes::from(reply[1..].to_vec())),
                Some(1) => {
                    return Err(NetFsError::Remote(
                        String::from_utf8_lossy(&reply[1..]).into_owned(),
                    ))
                }
                Some(2) => {
                    ctx.sleep(2_000_000); // EAGAIN: disk still busy
                    continue;
                }
                _ => return Err(NetFsError::Protocol),
            }
        }
        Err(NetFsError::Protocol)
    }

    /// Creates a remote file.
    pub fn create(&self, ctx: &StrandCtx, path: &str) -> Result<(), NetFsError> {
        self.call(ctx, "netfs.create", &encode_path_and(path, &[]))
            .map(|_| ())
    }

    /// Creates a remote directory.
    pub fn mkdir(&self, ctx: &StrandCtx, path: &str) -> Result<(), NetFsError> {
        self.call(ctx, "netfs.mkdir", &encode_path_and(path, &[]))
            .map(|_| ())
    }

    /// Writes a remote file (write-behind on the server).
    pub fn write_file(&self, ctx: &StrandCtx, path: &str, data: &[u8]) -> Result<(), NetFsError> {
        self.call(ctx, "netfs.write", &encode_path_and(path, data))
            .map(|_| ())
    }

    /// Reads a whole remote file.
    pub fn read_file(&self, ctx: &StrandCtx, path: &str) -> Result<Vec<u8>, NetFsError> {
        self.call(ctx, "netfs.read", &encode_path_and(path, &[]))
            .map(|b| b.to_vec())
    }

    /// Remote file size.
    pub fn size_of(&self, ctx: &StrandCtx, path: &str) -> Result<u64, NetFsError> {
        let b = self.call(ctx, "netfs.size", &encode_path_and(path, &[]))?;
        b[..]
            .try_into()
            .map(u64::from_be_bytes)
            .map_err(|_| NetFsError::Protocol)
    }

    /// Remote directory listing.
    pub fn list(&self, ctx: &StrandCtx, path: &str) -> Result<Vec<String>, NetFsError> {
        let b = self.call(ctx, "netfs.list", &encode_path_and(path, &[]))?;
        let s = String::from_utf8_lossy(&b);
        Ok(if s.is_empty() {
            Vec::new()
        } else {
            s.split('\n').map(String::from).collect()
        })
    }

    /// Removes a remote file.
    pub fn unlink(&self, ctx: &StrandCtx, path: &str) -> Result<(), NetFsError> {
        self.call(ctx, "netfs.unlink", &encode_path_and(path, &[]))
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;
    use spin_fs::{BufferCache, LruPolicy};

    fn rig() -> (TwoHosts, NetFsClient, Arc<NetFsServer>) {
        let rig = TwoHosts::new();
        let rpc_a = Rpc::install(&rig.a).unwrap();
        let rpc_b = Rpc::install(&rig.b).unwrap();
        let cache = BufferCache::new(
            rig.host_b.disk.clone(),
            rig.exec.clone(),
            128,
            Box::new(LruPolicy::default()),
        );
        let fs = FileSystem::format(cache, 0, 400);
        let server = NetFsServer::export(&rpc_b, fs, &rig.exec);
        let client = NetFsClient::mount(&rpc_a, rig.b.ip_on(Medium::Ethernet));
        (rig, client, server)
    }

    #[test]
    fn remote_create_write_read_round_trip() {
        let (rig, client, _server) = rig();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        rig.exec.spawn("nfs-user", move |ctx| {
            client.mkdir(ctx, "/export").unwrap();
            client.create(ctx, "/export/data").unwrap();
            client
                .write_file(ctx, "/export/data", b"over the wire")
                .unwrap();
            // Write-behind: give the server's worker a beat.
            ctx.sleep(50_000_000);
            *g2.lock() = client.read_file(ctx, "/export/data").unwrap();
            assert_eq!(client.size_of(ctx, "/export/data").unwrap(), 13);
            assert_eq!(client.list(ctx, "/export").unwrap(), vec!["data"]);
        });
        rig.exec.run_until_idle();
        assert_eq!(&got.lock()[..], b"over the wire");
    }

    #[test]
    fn remote_errors_are_reported() {
        let (rig, client, _server) = rig();
        let err = Arc::new(Mutex::new(None));
        let e2 = err.clone();
        rig.exec.spawn("nfs-user", move |ctx| {
            *e2.lock() = Some(client.read_file(ctx, "/no/such/file").unwrap_err());
        });
        rig.exec.run_until_idle();
        assert!(matches!(err.lock().clone(), Some(NetFsError::Remote(_))));
    }

    #[test]
    fn unlink_removes_remotely() {
        let (rig, client, _server) = rig();
        rig.exec.spawn("nfs-user", move |ctx| {
            client.create(ctx, "/t").unwrap();
            client.write_file(ctx, "/t", b"x").unwrap();
            ctx.sleep(50_000_000);
            client.unlink(ctx, "/t").unwrap();
            assert!(client.size_of(ctx, "/t").is_err());
        });
        assert_eq!(
            rig.exec.run_until_idle(),
            spin_sched::IdleOutcome::AllComplete
        );
    }
}
