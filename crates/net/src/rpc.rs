//! A remote procedure call package over UDP (Figure 5's "RPC" box).
//!
//! Procedures are registered by name; calls carry a request id, block the
//! calling strand until the reply, and retransmit on timeout (the usual
//! at-least-once datagram RPC). Both stub directions run entirely in the
//! kernel, as in the paper.
//!
//! Degraded-mode operation: retransmissions back off exponentially on the
//! virtual clock up to a configurable cap ([`RpcConfig`]), so a lossy or
//! fault-injected wire converges instead of hammering. Every retransmit
//! is counted in [`RpcStats`] and, when observability is wired on the
//! stack, in the net domain's `retries` counter.

use crate::pkt::IpAddr;
use crate::stack::NetStack;
use bytes::{Bytes, BytesMut};
use spin_check::sync::Mutex;
use spin_check::sync::{AtomicU64, Ordering};
use spin_core::DispatchError;
use spin_sal::Nanos;
use spin_sched::{KChannel, StrandCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// The UDP port carrying RPC traffic.
pub const RPC_PORT: u16 = 3001;

/// Reply timeout before a retransmission.
const RPC_TIMEOUT: Nanos = 100_000_000;

/// Retries before giving up.
const RPC_RETRIES: u32 = 3;

/// Retry and backoff policy for [`Rpc::call`]. All timing is virtual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcConfig {
    /// Reply timeout for the first attempt.
    pub base_timeout: Nanos,
    /// Cap on the per-attempt timeout as backoff doubles it.
    pub max_timeout: Nanos,
    /// Total attempts (the first transmission plus retransmissions).
    pub attempts: u32,
}

impl Default for RpcConfig {
    fn default() -> RpcConfig {
        RpcConfig {
            base_timeout: RPC_TIMEOUT,
            max_timeout: 4 * RPC_TIMEOUT,
            attempts: RPC_RETRIES,
        }
    }
}

/// Cumulative call/retry counters for one [`Rpc`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcStats {
    /// Calls issued.
    pub calls: u64,
    /// Retransmissions (attempts beyond each call's first).
    pub retries: u64,
    /// Calls that exhausted every attempt.
    pub timeouts: u64,
}

#[derive(Default)]
struct AtomicRpcStats {
    calls: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
}

/// RPC errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No reply after all retries.
    Timeout,
    /// The remote had no such procedure.
    NoProcedure(String),
}

/// A server-side procedure.
pub type Procedure = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

const TAG_CALL: u8 = 0;
const TAG_REPLY: u8 = 1;
const TAG_NO_PROC: u8 = 2;

/// In-flight calls awaiting replies, keyed by call id.
type PendingCalls = HashMap<u64, Arc<KChannel<(u8, Bytes)>>>;

/// The RPC package bound to one host's stack.
#[derive(Clone)]
pub struct Rpc {
    stack: NetStack,
    procedures: Arc<Mutex<HashMap<String, Procedure>>>,
    pending: Arc<Mutex<PendingCalls>>,
    next_id: Arc<AtomicU64>,
    config: RpcConfig,
    stats: Arc<AtomicRpcStats>,
}

impl Rpc {
    /// Installs the package (binds the RPC port) with the default policy.
    pub fn install(stack: &NetStack) -> Result<Rpc, DispatchError> {
        Rpc::install_with(stack, RpcConfig::default())
    }

    /// Installs the package with an explicit retry/backoff policy.
    pub fn install_with(stack: &NetStack, config: RpcConfig) -> Result<Rpc, DispatchError> {
        let rpc = Rpc {
            stack: stack.clone(),
            procedures: Arc::new(Mutex::new(HashMap::new())),
            pending: Arc::new(Mutex::new(HashMap::new())),
            next_id: Arc::new(AtomicU64::new(1)),
            config,
            stats: Arc::new(AtomicRpcStats::default()),
        };
        let rpc2 = rpc.clone();
        crate::socket::UdpSocket::bind_with(stack, RPC_PORT, "RPC", move |p| {
            rpc2.on_datagram(p.ip.src, &p.payload);
        })?;
        Ok(rpc)
    }

    /// Cumulative call/retry counters.
    pub fn stats(&self) -> RpcStats {
        RpcStats {
            calls: self.stats.calls.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            retries: self.stats.retries.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            timeouts: self.stats.timeouts.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }
    }

    /// Registers a named procedure.
    pub fn register(&self, name: &str, f: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static) {
        self.procedures.lock().insert(name.to_string(), Arc::new(f));
    }

    fn on_datagram(&self, src: IpAddr, payload: &Bytes) {
        if payload.len() < 9 {
            return;
        }
        let tag = payload[0];
        let id = u64::from_be_bytes(payload[1..9].try_into().expect("length checked"));
        match tag {
            TAG_CALL => {
                // name-len(2) name args...
                if payload.len() < 11 {
                    return;
                }
                let nlen = u16::from_be_bytes(payload[9..11].try_into().expect("len")) as usize;
                if payload.len() < 11 + nlen {
                    return;
                }
                let name = String::from_utf8_lossy(&payload[11..11 + nlen]).into_owned();
                let args = &payload[11 + nlen..];
                let proc = self.procedures.lock().get(&name).cloned();
                let (tag, body) = match proc {
                    Some(f) => (TAG_REPLY, f(args)),
                    None => (TAG_NO_PROC, name.into_bytes()),
                };
                let mut b = BytesMut::with_capacity(9 + body.len());
                b.extend_from_slice(&[tag]);
                b.extend_from_slice(&id.to_be_bytes());
                b.extend_from_slice(&body);
                let _ = self.stack.udp_send(RPC_PORT, src, RPC_PORT, &b.freeze());
            }
            TAG_REPLY | TAG_NO_PROC => {
                let waiter = self.pending.lock().get(&id).cloned();
                if let Some(ch) = waiter {
                    ch.try_push((tag, payload.slice(9..)));
                }
            }
            _ => {}
        }
    }

    /// Calls `name` on `dst`, blocking until the reply (with retries).
    pub fn call(
        &self,
        ctx: &StrandCtx,
        dst: IpAddr,
        name: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, RpcError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
        let ch = KChannel::new(self.stack.executor().clone(), 1);
        self.pending.lock().insert(id, ch.clone());

        let mut b = BytesMut::with_capacity(11 + name.len() + args.len());
        b.extend_from_slice(&[TAG_CALL]);
        b.extend_from_slice(&id.to_be_bytes());
        b.extend_from_slice(&(name.len() as u16).to_be_bytes());
        b.extend_from_slice(name.as_bytes());
        b.extend_from_slice(args);
        let request = b.freeze();

        self.stats.calls.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        let result = (|| {
            let mut timeout = self.config.base_timeout;
            for attempt in 0..self.config.attempts {
                if attempt > 0 {
                    self.stats.retries.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                    if let Some(obs) = self.stack.obs() {
                        obs.counters.retries.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
                    }
                }
                let _ = self.stack.udp_send(RPC_PORT, dst, RPC_PORT, &request);
                // Either the reply or the timeout wakes us.
                let got = ch.recv_deadline(ctx, ctx.executor().clock().now() + timeout);
                // Capped exponential backoff: each retransmission waits
                // twice as long, up to the configured ceiling.
                timeout = (timeout * 2).min(self.config.max_timeout);
                match got {
                    Some((TAG_REPLY, body)) => return Ok(body.to_vec()),
                    Some((_, body)) => {
                        return Err(RpcError::NoProcedure(
                            String::from_utf8_lossy(&body).into_owned(),
                        ))
                    }
                    None => continue, // retransmit
                }
            }
            self.stats.timeouts.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            Err(RpcError::Timeout)
        })();
        self.pending.lock().remove(&id);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;

    fn rig() -> (TwoHosts, Rpc, Rpc) {
        let rig = TwoHosts::new();
        let a = Rpc::install(&rig.a).unwrap();
        let b = Rpc::install(&rig.b).unwrap();
        (rig, a, b)
    }

    #[test]
    fn call_returns_the_procedure_result() {
        let (rig, a, b) = rig();
        b.register("sum", |args| {
            let total: u64 = args.iter().map(|&x| x as u64).sum();
            total.to_be_bytes().to_vec()
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(0u64));
        let g2 = got.clone();
        rig.exec.spawn("caller", move |ctx| {
            let reply = a.call(ctx, dst, "sum", &[1, 2, 3]).unwrap();
            *g2.lock() = u64::from_be_bytes(reply.try_into().unwrap());
        });
        rig.exec.run_until_idle();
        assert_eq!(*got.lock(), 6);
    }

    #[test]
    fn a_reply_wakes_the_caller_before_its_timeout() {
        let (rig, a, b) = rig();
        b.register("echo", |args| args.to_vec());
        let dst = rig.b_ip(Medium::Ethernet);
        let clock = rig.exec.clock().clone();
        let elapsed = Arc::new(Mutex::new(0));
        let e2 = elapsed.clone();
        rig.exec.spawn("caller", move |ctx| {
            let t0 = clock.now();
            assert_eq!(a.call(ctx, dst, "echo", b"ping").unwrap(), b"ping");
            *e2.lock() = clock.now() - t0;
        });
        assert_eq!(
            rig.exec.run_until_idle(),
            spin_sched::IdleOutcome::AllComplete
        );
        let e = *elapsed.lock();
        assert!(e < RPC_TIMEOUT / 100, "one round trip, not a timeout: {e}");
    }

    #[test]
    fn unknown_procedure_is_reported() {
        let (rig, a, _b) = rig();
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(None));
        let g2 = got.clone();
        rig.exec.spawn("caller", move |ctx| {
            *g2.lock() = Some(a.call(ctx, dst, "nope", &[]));
        });
        rig.exec.run_until_idle();
        assert_eq!(
            got.lock().clone().unwrap(),
            Err(RpcError::NoProcedure("nope".to_string()))
        );
    }

    #[test]
    fn retries_back_off_exponentially_and_are_counted() {
        let rig = TwoHosts::new();
        let a = Rpc::install_with(
            &rig.a,
            RpcConfig {
                base_timeout: 100_000_000,
                max_timeout: 400_000_000,
                attempts: 4,
            },
        )
        .unwrap();
        let b = Rpc::install(&rig.b).unwrap();
        // Drop the first two requests: the call succeeds on attempt 3,
        // after 100 ms + 200 ms of backed-off waiting.
        rig.board.ethernet.set_drop_filter(|i| i < 2);
        b.register("echo", |args| args.to_vec());
        let dst = rig.b_ip(Medium::Ethernet);
        let clock = rig.exec.clock().clone();
        let elapsed = Arc::new(Mutex::new(0u64));
        let e2 = elapsed.clone();
        let a2 = a.clone();
        rig.exec.spawn("caller", move |ctx| {
            let t0 = clock.now();
            a2.call(ctx, dst, "echo", b"degraded").unwrap();
            *e2.lock() = clock.now() - t0;
        });
        rig.exec.run_until_idle();
        let stats = a.stats();
        assert_eq!(stats.calls, 1);
        assert_eq!(stats.retries, 2, "two retransmissions before success");
        assert_eq!(stats.timeouts, 0);
        // Two timed-out waits, 100 ms and then a doubled 200 ms, and then
        // the reply to the third attempt wakes the caller.
        let e = *elapsed.lock();
        assert!(e >= 300_000_000, "backoff doubled the second wait, got {e}");
        assert!(e < 400_000_000, "the reply ended the third wait, got {e}");
    }

    #[test]
    fn exhausted_attempts_time_out_and_are_counted() {
        let rig = TwoHosts::new();
        let a = Rpc::install_with(
            &rig.a,
            RpcConfig {
                base_timeout: 10_000_000,
                max_timeout: 20_000_000,
                attempts: 3,
            },
        )
        .unwrap();
        let _b = Rpc::install(&rig.b).unwrap();
        rig.board.ethernet.set_drop_filter(|_| true); // dead wire
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(None));
        let g2 = got.clone();
        let a2 = a.clone();
        rig.exec.spawn("caller", move |ctx| {
            *g2.lock() = Some(a2.call(ctx, dst, "echo", b"x"));
        });
        rig.exec.run_until_idle();
        assert_eq!(got.lock().clone().unwrap(), Err(RpcError::Timeout));
        let stats = a.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn lost_requests_are_retransmitted() {
        let (rig, a, b) = rig();
        // Drop the first two frames on the wire: the first call attempt
        // (request) and its retry's request... then let traffic through.
        rig.board.ethernet.set_drop_filter(|i| i < 1);
        b.register("echo", |args| args.to_vec());
        let dst = rig.b_ip(Medium::Ethernet);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        rig.exec.spawn("caller", move |ctx| {
            *g2.lock() = a.call(ctx, dst, "echo", b"persist").unwrap();
        });
        rig.exec.run_until_idle();
        assert_eq!(&got.lock()[..], b"persist");
    }
}
