//! The network debugger (§5.1's `core` includes "a network debugger
//! \[Redell 88\]" — Topaz-style teledebugging).
//!
//! A small kernel extension that answers debugging requests arriving over
//! UDP: peek physical memory (through capabilities the operator granted
//! it), read kernel statistics, and list the event topology. A
//! remote workstation can debug this one even when its local console is
//! wedged — the protocol thread and the stack are all that must survive.

use crate::pkt::IpAddr;
use crate::stack::NetStack;
use bytes::{Bytes, BytesMut};
use spin_core::DispatchError;
use spin_sal::{FrameId, PhysMem};
use spin_sched::StrandCtx;
use std::sync::Arc;

/// The UDP port the debugger listens on.
const DEBUG_PORT: u16 = 2345;

const OP_PEEK: u8 = 1;
const OP_STATS: u8 = 3;
const OP_TOPOLOGY: u8 = 4;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// The in-kernel debugger extension.
// paper: README.md, the network debugger extension (§5.1's teledebugging).
pub struct NetDebugger;

impl NetDebugger {
    /// Installs the debugger on `stack`, with access to `mem` limited to
    /// frames below `frame_limit` (the operator's grant).
    pub fn install(stack: &NetStack, mem: PhysMem, frame_limit: u32) -> Result<(), DispatchError> {
        let stack2 = stack.clone();
        let topo = stack.topology().clone();
        crate::socket::UdpSocket::bind_with(stack, DEBUG_PORT, "NetDbg", move |p| {
            let reply = Self::handle(&stack2, &mem, frame_limit, &topo, &p.payload);
            let _ = stack2.udp_send(DEBUG_PORT, p.ip.src, p.header.src_port, &reply);
        })?;
        Ok(())
    }

    fn handle(
        stack: &NetStack,
        mem: &PhysMem,
        frame_limit: u32,
        topo: &crate::stack::Topology,
        req: &Bytes,
    ) -> Bytes {
        let mut out = BytesMut::new();
        if req.is_empty() {
            out.extend_from_slice(&[STATUS_ERR]);
            return out.freeze();
        }
        match req[0] {
            OP_PEEK if req.len() >= 11 => {
                let frame = u32::from_be_bytes(req[1..5].try_into().expect("len"));
                let offset = u32::from_be_bytes(req[5..9].try_into().expect("len")) as usize;
                let len = u16::from_be_bytes(req[9..11].try_into().expect("len")) as usize;
                if frame >= frame_limit || len > 1024 || offset + len > spin_sal::PAGE_SIZE {
                    out.extend_from_slice(&[STATUS_ERR]);
                } else {
                    let mut buf = vec![0u8; len];
                    mem.read(FrameId(frame), offset, &mut buf);
                    out.extend_from_slice(&[STATUS_OK]);
                    out.extend_from_slice(&buf);
                }
            }
            OP_STATS => {
                let s = stack.stats();
                out.extend_from_slice(&[STATUS_OK]);
                for v in [s.frames_in, s.frames_out, s.bytes_in, s.bytes_out] {
                    out.extend_from_slice(&v.to_be_bytes());
                }
            }
            OP_TOPOLOGY => {
                out.extend_from_slice(&[STATUS_OK]);
                out.extend_from_slice(topo.render().as_bytes());
            }
            _ => out.extend_from_slice(&[STATUS_ERR]),
        }
        out.freeze()
    }
}

/// A remote debugging client.
pub struct DebugClient {
    stack: NetStack,
    target: IpAddr,
    replies: Arc<crate::socket::UdpSocket>,
}

impl DebugClient {
    /// Attaches to `target`'s debugger from `stack`.
    pub fn attach(stack: &NetStack, target: IpAddr) -> Result<DebugClient, DispatchError> {
        let replies = crate::socket::UdpSocket::bind(stack, DEBUG_PORT + 1, "NetDbg client", 8)?;
        Ok(DebugClient {
            stack: stack.clone(),
            target,
            replies,
        })
    }

    fn transact(&self, ctx: &StrandCtx, req: &[u8]) -> Option<Bytes> {
        self.stack
            .udp_send(DEBUG_PORT + 1, self.target, DEBUG_PORT, req)
            .ok()?;
        let reply = self.replies.recv(ctx)?;
        if reply.payload.first() == Some(&STATUS_OK) {
            Some(reply.payload.slice(1..))
        } else {
            None
        }
    }

    /// Reads `len` bytes at (frame, offset) of the target's memory.
    pub fn peek(&self, ctx: &StrandCtx, frame: u32, offset: u32, len: u16) -> Option<Vec<u8>> {
        let mut req = vec![OP_PEEK];
        req.extend_from_slice(&frame.to_be_bytes());
        req.extend_from_slice(&offset.to_be_bytes());
        req.extend_from_slice(&len.to_be_bytes());
        self.transact(ctx, &req).map(|b| b.to_vec())
    }

    /// Fetches the target's network counters (in, out, bytes in, bytes out).
    pub fn stats(&self, ctx: &StrandCtx) -> Option<[u64; 4]> {
        let b = self.transact(ctx, &[OP_STATS])?;
        if b.len() < 32 {
            return None;
        }
        let mut out = [0u64; 4];
        for (i, v) in out.iter_mut().enumerate() {
            *v = u64::from_be_bytes(b[i * 8..(i + 1) * 8].try_into().ok()?);
        }
        Some(out)
    }

    /// Fetches the target's Figure 5 topology as text.
    pub fn topology(&self, ctx: &StrandCtx) -> Option<String> {
        self.transact(ctx, &[OP_TOPOLOGY])
            .map(|b| String::from_utf8_lossy(&b).into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;
    use spin_check::sync::Mutex;

    fn rig() -> (TwoHosts, DebugClient) {
        let rig = TwoHosts::new();
        NetDebugger::install(&rig.b, rig.host_b.mem.clone(), 16).unwrap();
        let client = DebugClient::attach(&rig.a, rig.b.ip_on(Medium::Ethernet)).unwrap();
        (rig, client)
    }

    #[test]
    fn peek_reads_target_memory_remotely() {
        let (rig, client) = rig();
        rig.host_b.mem.write(FrameId(3), 100, b"panic log here");
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        rig.exec.spawn("operator", move |ctx| {
            *g2.lock() = client.peek(ctx, 3, 100, 14).expect("granted frame");
        });
        rig.exec.run_until_idle();
        assert_eq!(&*got.lock(), b"panic log here");
    }

    #[test]
    fn grants_are_enforced() {
        let (rig, client) = rig();
        let denied = Arc::new(Mutex::new(false));
        let d2 = denied.clone();
        rig.exec.spawn("attacker", move |ctx| {
            // Frame 99 is outside the operator's grant of 16 frames.
            *d2.lock() = client.peek(ctx, 99, 0, 8).is_none();
        });
        rig.exec.run_until_idle();
        assert!(*denied.lock());
    }

    #[test]
    fn stats_and_topology_are_readable() {
        let (rig, client) = rig();
        let got = Arc::new(Mutex::new((None, None)));
        let g2 = got.clone();
        rig.exec.spawn("operator", move |ctx| {
            let stats = client.stats(ctx);
            let topo = client.topology(ctx);
            *g2.lock() = (stats, topo);
        });
        rig.exec.run_until_idle();
        let g = got.lock();
        let stats = g.0.expect("stats");
        assert!(stats[0] >= 1, "the target saw at least our request frames");
        assert!(g.1.as_ref().expect("topology").contains("IP.PacketArrived"));
    }
}
