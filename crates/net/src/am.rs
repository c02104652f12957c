//! Active messages as a kernel extension (Figure 5's "A.M." box).
//!
//! "The RPC and A.M. extensions, for example, implement the network
//! transport for a remote procedure call package and active messages
//! \[von Eicken et al. 92\]" (§5.3). An active message names its handler
//! directly: the receiver dispatches on a small handler index with no
//! intermediate queueing, entirely within the kernel.

use crate::pkt::IpAddr;
use crate::stack::NetStack;
use bytes::{Bytes, BytesMut};
use spin_check::sync::Mutex;
use spin_core::DispatchError;
use std::collections::HashMap;
use std::sync::Arc;

/// The UDP port carrying active messages.
const AM_PORT: u16 = 3000;

/// An active-message handler: receives (source, four word arguments,
/// bulk payload).
type AmHandler = Arc<dyn Fn(IpAddr, [u64; 4], &[u8]) + Send + Sync>;

/// The active-messages extension for one host.
#[derive(Clone)]
pub struct ActiveMessages {
    stack: NetStack,
    handlers: Arc<Mutex<HashMap<u32, AmHandler>>>,
}

impl ActiveMessages {
    /// Installs the extension (binds the AM port).
    pub fn install(stack: &NetStack) -> Result<ActiveMessages, DispatchError> {
        let handlers: Arc<Mutex<HashMap<u32, AmHandler>>> = Arc::new(Mutex::new(HashMap::new()));
        let h2 = handlers.clone();
        crate::socket::UdpSocket::bind_with(stack, AM_PORT, "A.M.", move |p| {
            if p.payload.len() < 36 {
                return;
            }
            let idx = u32::from_be_bytes(p.payload[0..4].try_into().expect("length checked"));
            let mut args = [0u64; 4];
            for (i, a) in args.iter_mut().enumerate() {
                let off = 4 + i * 8;
                *a = u64::from_be_bytes(p.payload[off..off + 8].try_into().expect("length"));
            }
            let handler = h2.lock().get(&idx).cloned();
            if let Some(f) = handler {
                f(p.ip.src, args, &p.payload[36..]);
            }
        })?;
        Ok(ActiveMessages {
            stack: stack.clone(),
            handlers,
        })
    }

    /// Registers the handler for index `idx`.
    pub fn register(&self, idx: u32, f: impl Fn(IpAddr, [u64; 4], &[u8]) + Send + Sync + 'static) {
        self.handlers.lock().insert(idx, Arc::new(f));
    }

    /// Sends an active message invoking handler `idx` on `dst`.
    pub fn send(&self, dst: IpAddr, idx: u32, args: [u64; 4], payload: &[u8]) {
        let mut b = BytesMut::with_capacity(36 + payload.len());
        b.extend_from_slice(&idx.to_be_bytes());
        for a in args {
            b.extend_from_slice(&a.to_be_bytes());
        }
        b.extend_from_slice(payload);
        let msg: Bytes = b.freeze();
        let _ = self.stack.udp_send(AM_PORT, dst, AM_PORT, &msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;

    #[test]
    fn handlers_fire_with_args_and_payload() {
        let rig = TwoHosts::new();
        let am_a = ActiveMessages::install(&rig.a).unwrap();
        let am_b = ActiveMessages::install(&rig.b).unwrap();
        let got = Arc::new(Mutex::new(None));
        let g2 = got.clone();
        am_b.register(7, move |src, args, payload| {
            *g2.lock() = Some((src, args, payload.to_vec()));
        });
        let dst = rig.b_ip(Medium::Atm);
        let a_ip = rig.a.ip_on(Medium::Atm);
        rig.exec.spawn("sender", move |_| {
            am_a.send(dst, 7, [1, 2, 3, 4], b"bulk");
        });
        rig.exec.run_until_idle();
        let g = got.lock().clone().expect("message delivered");
        assert_eq!(g.0, a_ip);
        assert_eq!(g.1, [1, 2, 3, 4]);
        assert_eq!(g.2, b"bulk");
    }

    #[test]
    fn unregistered_indices_are_dropped() {
        let rig = TwoHosts::new();
        let am_a = ActiveMessages::install(&rig.a).unwrap();
        let _am_b = ActiveMessages::install(&rig.b).unwrap();
        let dst = rig.b_ip(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            am_a.send(dst, 99, [0; 4], b"");
        });
        // Nothing to assert beyond "no panic / clean completion".
        rig.exec.run_until_idle();
    }

    #[test]
    fn round_trip_reply_via_active_message() {
        let rig = TwoHosts::new();
        let am_a = ActiveMessages::install(&rig.a).unwrap();
        let am_b = ActiveMessages::install(&rig.b).unwrap();
        // B's handler 1 replies with handler 2 to the source.
        let am_b2 = am_b.clone();
        am_b.register(1, move |src, args, _| {
            am_b2.send(src, 2, [args[0] + 1, 0, 0, 0], b"");
        });
        let got = Arc::new(Mutex::new(0u64));
        let g2 = got.clone();
        am_a.register(2, move |_, args, _| {
            *g2.lock() = args[0];
        });
        let dst = rig.b_ip(Medium::Ethernet);
        rig.exec.spawn("sender", move |_| {
            am_a.send(dst, 1, [41, 0, 0, 0], b"");
        });
        rig.exec.run_until_idle();
        assert_eq!(*got.lock(), 42);
    }
}
