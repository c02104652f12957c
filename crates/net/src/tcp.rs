//! TCP as a kernel extension.
//!
//! The paper's stack includes TCP among the in-kernel protocol extensions
//! (Figure 5; Table 7 lists a 5077-line TCP). The original "use\[d\] the DEC
//! OSF/1 TCP engine as a SPIN extension, and manually assert\[ed\] that the
//! code, which is written in C, is safe" (§5.3 n.2); here TCP is written
//! natively. The implementation covers what the experiments exercise:
//!
//! * three-way handshake and active/passive open,
//! * cumulative ACKs, in-order delivery with an out-of-order reassembly
//!   buffer,
//! * sender flow control from the peer's advertised window,
//! * slow start / congestion avoidance with an ssthresh halved on loss,
//! * timeout-driven retransmission,
//! * FIN close (TIME_WAIT collapsed to CLOSED; no simultaneous-open).
//!
//! Segments are processed on the protocol thread, which must never block:
//! handler work is send-and-signal only; blocking waits happen on the
//! caller's strand.

use crate::pkt::{proto, IpAddr, TcpFlags, TcpHeader};
use crate::poll::{interest, Pollable, ReadyQueue, Registration};
use crate::stack::{NetStack, TcpSegment};
use bytes::Bytes;
use spin_check::sync::Counter;
use spin_check::sync::Mutex;
use spin_core::Identity;
use spin_sal::{BufChain, Nanos};
use spin_sched::{Executor, StrandCtx, WaitQueue};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::task::Poll;

/// Maximum segment size (fits the Ethernet MTU under IP + TCP headers).
const MSS: usize = 1400;

/// Receive window advertised to the peer.
const RECV_WINDOW: u16 = 32_768;

/// Retransmission timeout (virtual time).
const RTO: Nanos = 150_000_000;

/// SYN retry limit before `connect` fails.
const SYN_RETRIES: u32 = 4;

/// Ephemeral port range base (ports wrap within `30_000..58_000`; a port
/// is only recycled after ~28k intervening connects, long after the
/// earlier connection was reaped).
const EPHEMERAL_BASE: u16 = 30_000;
const EPHEMERAL_SPAN: u32 = 28_000;

/// TCP errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpError {
    /// No listener on the destination port (RST received).
    Refused,
    /// The connection is closed.
    Closed,
    /// The handshake timed out.
    Timeout,
    /// Transmission failed (no route).
    Net(String),
}

/// Connection states (RFC 793 subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpState {
    SynSent,
    SynReceived,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ConnKey {
    local_port: u16,
    peer: IpAddr,
    peer_port: u16,
}

struct SendEntry {
    seq: u32,
    data: Bytes,
    fin: bool,
}

struct ConnState {
    state: TcpState,
    snd_una: u32,
    snd_nxt: u32,
    peer_window: u32,
    cwnd: u32,
    ssthresh: u32,
    rcv_nxt: u32,
    /// Out-of-order segments awaiting the gap to fill.
    reassembly: BTreeMap<u32, Bytes>,
    /// Sent but unacknowledged segments, oldest first.
    retransmit: VecDeque<SendEntry>,
    /// Strands blocked waiting for window space, and in `connect` for the
    /// handshake's end.
    send_waiters: WaitQueue,
    /// Strands blocked in [`TcpConn::close`] until the state is `Closed`.
    /// Not `send_waiters`: the ACK that takes `FinWait1` to `FinWait2`
    /// drains that list, and a closer must sleep through it.
    close_waiters: WaitQueue,
    rto_timer: Option<spin_sal::TimerId>,
    retransmissions: u64,
}

/// One TCP connection. Its host's protocol strand and the strands using
/// it run one at a time, so `state` is never contended: the lock is there
/// for `Sync`. An inbound segment takes it once; a send takes it to slice
/// the window and again, after the burst has left, to arm the timer.
pub struct TcpConn {
    key: ConnKey,
    stack: NetStack,
    exec: Arc<Executor>,
    state: Mutex<ConnState>,
    /// In-order data delivered to the application: arrival notes
    /// `READABLE`; the queue closes, noting `CLOSED`, at end of stream
    /// (the peer's FIN, or the state reaching `Closed`).
    incoming: ReadyQueue<Bytes>,
}

impl TcpConn {
    /// The connection's current state.
    #[cfg(test)]
    pub(crate) fn state(&self) -> TcpState {
        self.state.lock().state
    }

    /// Total retransmissions performed.
    pub fn retransmissions(&self) -> u64 {
        self.state.lock().retransmissions
    }

    /// The peer address and port.
    pub fn peer(&self) -> (IpAddr, u16) {
        (self.key.peer, self.key.peer_port)
    }

    /// Received chunks buffered and not yet read (diagnostics).
    pub(crate) fn incoming_len(&self) -> usize {
        self.incoming.len()
    }

    /// One segment: the header in front of `payload`, which is shared with
    /// the retransmit queue, not copied (empty for control segments).
    /// `rcv_nxt` is the caller's reading of the state it already holds the
    /// lock on; nothing here locks.
    fn segment(&self, flags: TcpFlags, seq: u32, rcv_nxt: u32, payload: Bytes) -> BufChain {
        TcpHeader {
            src_port: self.key.local_port,
            dst_port: self.key.peer_port,
            seq,
            ack: if flags.ack { rcv_nxt } else { 0 },
            flags,
            window: RECV_WINDOW,
        }
        .encode_chain(payload)
    }

    /// Sends [`TcpConn::segment`] — with the state lock released: the send
    /// runs the `SendPacket` graph.
    fn send_segment(&self, flags: TcpFlags, seq: u32, rcv_nxt: u32, payload: Bytes) {
        let seg = self.segment(flags, seq, rcv_nxt, payload);
        let _ = self.stack.send_ip(self.key.peer, proto::TCP, seg);
    }

    fn usable_window(st: &ConnState) -> u32 {
        let in_flight = st.snd_nxt.wrapping_sub(st.snd_una);
        st.peer_window.min(st.cwnd).saturating_sub(in_flight)
    }

    /// Arms the retransmission timer, unless it is armed or nothing is in
    /// flight. Called after the send it covers, whose charges set the
    /// instant it counts from.
    fn arm_rto(self: &Arc<Self>) {
        let mut st = self.state.lock();
        if st.rto_timer.is_some() || st.retransmit.is_empty() {
            return;
        }
        let me = self.clone();
        let at = self.exec.clock().now() + RTO;
        st.rto_timer = Some(self.exec.timers().schedule_at(at, move |_| me.on_rto()));
    }

    fn on_rto(self: &Arc<Self>) {
        let (seq, data, fin, rcv_nxt) = {
            let mut st = self.state.lock();
            st.rto_timer = None;
            if st.retransmit.is_empty() || st.state == TcpState::Closed {
                return;
            }
            // Loss: halve into ssthresh, restart slow start.
            let in_flight = st.snd_nxt.wrapping_sub(st.snd_una);
            st.ssthresh = (in_flight / 2).max(2 * MSS as u32);
            st.cwnd = MSS as u32;
            st.retransmissions += 1;
            let e = st.retransmit.front().expect("checked non-empty");
            (e.seq, e.data.clone(), e.fin, st.rcv_nxt)
        };
        self.send_segment(
            TcpFlags {
                ack: true,
                fin,
                ..Default::default()
            },
            seq,
            rcv_nxt,
            data,
        );
        self.arm_rto();
    }

    /// Sends `data`, blocking for window space as needed (copies once
    /// into a [`Bytes`]).
    pub fn send(self: &Arc<Self>, ctx: &StrandCtx, data: &[u8]) -> Result<(), TcpError> {
        self.send_buf(ctx, Bytes::copy_from_slice(data))
    }

    /// Sends `data` without copying it above the device boundary: each
    /// segment is a `Bytes` slice of the buffer behind a header held inline
    /// in its [`BufChain`] (no allocation per segment here; the retransmit
    /// queue shares the same slice), and each window's worth goes to the
    /// stack as one burst (`send_ip_burst`), amortizing the `SendPacket`
    /// raise across the window. The one copy a byte pays is into its frame.
    pub(crate) fn send_buf(self: &Arc<Self>, ctx: &StrandCtx, data: Bytes) -> Result<(), TcpError> {
        let ack = TcpFlags {
            ack: true,
            ..Default::default()
        };
        let mut offset = 0;
        while offset < data.len() {
            // Wait for window space, and under the lock it is found under
            // slice as many segments as it permits into one burst.
            let batch = ctx.wait(
                &self.state,
                |st| &mut st.send_waiters,
                |st| {
                    match st.state {
                        TcpState::Established | TcpState::CloseWait => {}
                        _ => return Poll::Ready(Err(TcpError::Closed)),
                    }
                    let mut window = Self::usable_window(st) as usize;
                    if window == 0 {
                        return Poll::Pending;
                    }
                    let mut batch: Vec<(IpAddr, u8, BufChain)> = Vec::new();
                    while offset < data.len() && window > 0 {
                        let n = (data.len() - offset).min(MSS).min(window);
                        let chunk = data.slice(offset..offset + n);
                        let seq = st.snd_nxt;
                        st.snd_nxt = st.snd_nxt.wrapping_add(n as u32);
                        st.retransmit.push_back(SendEntry {
                            seq,
                            data: chunk.clone(),
                            fin: false,
                        });
                        let seg = self.segment(ack, seq, st.rcv_nxt, chunk);
                        batch.push((self.key.peer, proto::TCP, seg));
                        offset += n;
                        window -= n;
                    }
                    Poll::Ready(Ok(batch))
                },
            )?;
            let _ = self.stack.send_ip_burst(batch);
            self.arm_rto();
        }
        Ok(())
    }

    /// Receives the next in-order chunk, blocking until the protocol
    /// thread delivers one; `None` once the peer has closed and all data
    /// is drained.
    pub fn recv(&self, ctx: &StrandCtx) -> Option<Bytes> {
        self.incoming.recv(ctx)
    }

    /// Takes a queued in-order chunk without blocking (the poller-driven
    /// read path: drain after a `READABLE` readiness event).
    pub fn try_recv(&self) -> Option<Bytes> {
        self.incoming.try_recv()
    }

    /// Fires the FIN without waiting for the close handshake — the
    /// poller-driven close: the caller (a server strand multiplexing many
    /// connections) must not block per connection. Returns whether a FIN
    /// was actually sent.
    pub(crate) fn begin_close(self: &Arc<Self>) -> bool {
        let (fin_seq, rcv_nxt) = {
            let mut st = self.state.lock();
            match st.state {
                TcpState::Established => st.state = TcpState::FinWait1,
                TcpState::CloseWait => st.state = TcpState::LastAck,
                _ => return false,
            }
            let seq = st.snd_nxt;
            st.snd_nxt = st.snd_nxt.wrapping_add(1);
            st.retransmit.push_back(SendEntry {
                seq,
                data: Bytes::new(),
                fin: true,
            });
            (seq, st.rcv_nxt)
        };
        self.send_segment(
            TcpFlags {
                fin: true,
                ack: true,
                ..Default::default()
            },
            fin_seq,
            rcv_nxt,
            Bytes::new(),
        );
        self.arm_rto();
        true
    }

    /// Closes the send side and waits for the close handshake: until the
    /// final ACK, the peer's FIN or an RST takes the state to `Closed`.
    pub fn close(self: &Arc<Self>, ctx: &StrandCtx) {
        if !self.begin_close() {
            return;
        }
        ctx.wait(
            &self.state,
            |st| &mut st.close_waiters,
            |st| match st.state {
                TcpState::Closed => Poll::Ready(()),
                _ => Poll::Pending,
            },
        );
    }

    /// Handles an inbound segment (protocol-thread context; must not
    /// block) under one taking of the state lock. Returns whether the
    /// segment closed the connection, which the stack then reaps.
    fn on_segment(self: &Arc<Self>, seg: &TcpSegment) -> bool {
        let h = &seg.header;
        let mut wake_senders = false;
        let mut deliver: Vec<Bytes> = Vec::new();
        let mut send_ack = false;
        let mut now_closed = false;
        let mut fin_arrived = false;
        let (snd_nxt, rcv_nxt, senders, closers) = {
            let mut st = self.state.lock();
            if h.flags.rst {
                st.state = TcpState::Closed;
                now_closed = true;
                wake_senders = true;
            } else {
                // Handshake transitions.
                match st.state {
                    TcpState::SynSent if h.flags.syn && h.flags.ack => {
                        st.rcv_nxt = h.seq.wrapping_add(1);
                        st.snd_una = h.ack;
                        st.state = TcpState::Established;
                        send_ack = true;
                        wake_senders = true;
                    }
                    TcpState::SynReceived if h.flags.ack && !h.flags.syn => {
                        st.snd_una = h.ack;
                        st.state = TcpState::Established;
                    }
                    _ => {}
                }
                st.peer_window = h.window as u32;

                // ACK processing.
                if h.flags.ack && seq_le(st.snd_una, h.ack) && seq_le(h.ack, st.snd_nxt) {
                    let advanced = h.ack != st.snd_una;
                    st.snd_una = h.ack;
                    while let Some(front) = st.retransmit.front() {
                        let end = front
                            .seq
                            .wrapping_add(front.data.len() as u32)
                            .wrapping_add(front.fin as u32);
                        if seq_le(end, h.ack) {
                            st.retransmit.pop_front();
                        } else {
                            break;
                        }
                    }
                    if advanced {
                        // Congestion growth: slow start then linear.
                        if st.cwnd < st.ssthresh {
                            st.cwnd += MSS as u32;
                        } else {
                            st.cwnd += (MSS * MSS) as u32 / st.cwnd.max(1);
                        }
                        if let Some(t) = st.rto_timer.take() {
                            self.exec.timers().cancel(t);
                        }
                        wake_senders = true;
                        // Close-handshake progress.
                        if st.retransmit.is_empty() {
                            match st.state {
                                TcpState::FinWait1 => st.state = TcpState::FinWait2,
                                TcpState::LastAck => {
                                    st.state = TcpState::Closed;
                                    now_closed = true;
                                }
                                _ => {}
                            }
                        }
                    }
                }

                // Data and FIN processing.
                if !seg.payload.is_empty() || h.flags.fin {
                    if h.seq == st.rcv_nxt {
                        if !seg.payload.is_empty() {
                            st.rcv_nxt = st.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                            deliver.push(seg.payload.clone());
                        }
                        // Pull contiguous reassembly.
                        while let Some((&s, _)) = st.reassembly.first_key_value() {
                            if s == st.rcv_nxt {
                                let (_, data) = st.reassembly.pop_first().expect("peeked");
                                st.rcv_nxt = st.rcv_nxt.wrapping_add(data.len() as u32);
                                deliver.push(data);
                            } else {
                                break;
                            }
                        }
                        if h.flags.fin {
                            st.rcv_nxt = st.rcv_nxt.wrapping_add(1);
                            fin_arrived = true;
                            match st.state {
                                TcpState::Established => st.state = TcpState::CloseWait,
                                TcpState::FinWait2 | TcpState::FinWait1 => {
                                    st.state = TcpState::Closed;
                                    now_closed = true;
                                }
                                _ => {}
                            }
                        }
                        send_ack = true;
                    } else if seq_lt(st.rcv_nxt, h.seq) && !seg.payload.is_empty() {
                        st.reassembly.insert(h.seq, seg.payload.clone());
                        send_ack = true; // duplicate ACK for the gap
                    } else {
                        send_ack = true; // old segment: re-ACK
                    }
                }
            }
            let senders = wake_senders.then(|| st.send_waiters.wake_all());
            let closers = now_closed.then(|| st.close_waiters.wake_all());
            (st.snd_nxt, st.rcv_nxt, senders, closers)
        };
        // The order below is the order of the wake-ups and sends it makes:
        // each `unblock` charges and takes a place in the ready queue.
        for b in deliver {
            self.incoming.push(b);
        }
        if fin_arrived {
            // No more data will arrive: wake any blocked receiver. Queued
            // chunks are still drained before `recv` reports end-of-stream.
            self.incoming.close();
        }
        if send_ack {
            self.send_segment(
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
                snd_nxt,
                rcv_nxt,
                Bytes::new(),
            );
        }
        if let Some(senders) = senders {
            senders.unblock(&self.exec);
        }
        if let Some(closers) = closers {
            self.incoming.close();
            closers.unblock(&self.exec);
        }
        now_closed
    }
}

impl Pollable for TcpConn {
    fn register(&self, r: Registration) -> u8 {
        self.incoming.register(r)
    }
}

/// A passive listener: pollable (readiness `ACCEPT`), with a bounded
/// backlog of established-but-unaccepted connections.
pub struct TcpListenerSocket {
    accept_ch: ReadyQueue<Arc<TcpConn>>,
    pub port: u16,
}

impl TcpListenerSocket {
    /// Accepts the next established connection, blocking.
    pub fn accept(&self, ctx: &StrandCtx) -> Option<Arc<TcpConn>> {
        self.accept_ch.recv(ctx)
    }

    /// Accepts without blocking (the poller-driven path: drain after an
    /// `ACCEPT` readiness event).
    pub fn try_accept(&self) -> Option<Arc<TcpConn>> {
        self.accept_ch.try_recv()
    }

    /// Connections currently queued for accept.
    pub fn backlog(&self) -> usize {
        self.accept_ch.len()
    }
}

impl Pollable for TcpListenerSocket {
    fn register(&self, r: Registration) -> u8 {
        self.accept_ch.register(r)
    }
}

/// A stack's connections and listeners. Everything that reads or writes
/// them — the host's protocol strand routing a segment, a client strand in
/// `connect`, set-up calling `listen` — runs on the host's executor one at
/// a time, so one plain lock covers both maps (DESIGN.md decision 20).
#[derive(Default)]
struct Tables {
    conns: BTreeMap<ConnKey, Arc<TcpConn>>,
    listeners: BTreeMap<u16, Arc<TcpListenerSocket>>,
}

/// The per-host TCP extension.
#[derive(Clone)]
pub struct TcpStack {
    stack: NetStack,
    exec: Arc<Executor>,
    tables: Arc<Mutex<Tables>>,
    next_port: Arc<Counter>,
    isn: Arc<Counter>,
}

impl TcpStack {
    /// Installs TCP on a stack: a handler on `TCP.PktArrived` routes
    /// segments to connections and listeners.
    pub fn install(stack: &NetStack) -> TcpStack {
        let tcp = TcpStack {
            stack: stack.clone(),
            exec: stack.executor().clone(),
            tables: Arc::default(),
            next_port: Arc::default(),
            isn: Arc::new(Counter::new(1_000)),
        };
        let tcp2 = tcp.clone();
        stack
            .events()
            .tcp_arrived
            .install(Identity::kernel("TCPConn"), move |seg: &TcpSegment| {
                tcp2.on_segment(seg);
            })
            .expect("install TCP segment router");
        stack.topology().note("TCP.PktArrived", "TCP connections");
        tcp
    }

    fn new_conn(&self, key: ConnKey, state: TcpState, snd_nxt: u32, rcv_nxt: u32) -> Arc<TcpConn> {
        Arc::new(TcpConn {
            key,
            stack: self.stack.clone(),
            exec: self.exec.clone(),
            state: Mutex::new(ConnState {
                state,
                snd_una: snd_nxt,
                snd_nxt,
                peer_window: RECV_WINDOW as u32,
                cwnd: 2 * MSS as u32,
                ssthresh: 64 * 1024,
                rcv_nxt,
                reassembly: BTreeMap::new(),
                retransmit: VecDeque::new(),
                send_waiters: WaitQueue::default(),
                close_waiters: WaitQueue::default(),
                rto_timer: None,
                retransmissions: 0,
            }),
            incoming: ReadyQueue::new(self.exec.clone(), 1024, interest::READABLE),
        })
    }

    /// Starts listening on `port` with the default backlog (64).
    pub fn listen(&self, port: u16) -> Arc<TcpListenerSocket> {
        self.listen_backlog(port, 64)
    }

    /// Starts listening on `port` with an explicit backlog depth. A SYN
    /// arriving with the backlog full is dropped (the client's SYN retry
    /// recovers), so storm-scale servers size this to their drain rate.
    pub(crate) fn listen_backlog(&self, port: u16, depth: usize) -> Arc<TcpListenerSocket> {
        let listener = Arc::new(TcpListenerSocket {
            accept_ch: ReadyQueue::new(self.exec.clone(), depth, interest::ACCEPT),
            port,
        });
        self.tables.lock().listeners.insert(port, listener.clone());
        listener
    }

    /// Opens a connection to `dst:port`, blocking through the handshake.
    pub fn connect(
        &self,
        ctx: &StrandCtx,
        dst: IpAddr,
        port: u16,
    ) -> Result<Arc<TcpConn>, TcpError> {
        let n = self.next_port.fetch_add(1) as u32;
        let local_port = EPHEMERAL_BASE + (n % EPHEMERAL_SPAN) as u16;
        let isn = self.isn.fetch_add(64_000) as u32;
        let key = ConnKey {
            local_port,
            peer: dst,
            peer_port: port,
        };
        let conn = self.new_conn(key, TcpState::SynSent, isn.wrapping_add(1), 0);
        self.tables.lock().conns.insert(key, conn.clone());

        for _attempt in 0..SYN_RETRIES {
            conn.send_segment(
                TcpFlags {
                    syn: true,
                    ..Default::default()
                },
                isn,
                0,
                Bytes::new(),
            );
            // Wait for establishment, refusal, or the attempt's timeout. A
            // timed-out attempt's entry stays queued; the SYN-ACK wakes it too.
            let deadline = self.exec.clock().now() + RTO;
            let answer = ctx.wait_deadline(
                &conn.state,
                |st| &mut st.send_waiters,
                deadline,
                |st| match st.state {
                    TcpState::SynSent => Poll::Pending,
                    state => Poll::Ready(state),
                },
            );
            match answer {
                Poll::Ready(TcpState::Established) => return Ok(conn),
                // The RST that closed it has had it reaped already.
                Poll::Ready(TcpState::Closed) => return Err(TcpError::Refused),
                _ => {}
            }
        }
        self.tables.lock().conns.remove(&key);
        Err(TcpError::Timeout)
    }

    fn on_segment(&self, seg: &TcpSegment) {
        let key = ConnKey {
            local_port: seg.header.dst_port,
            peer: seg.ip.src,
            peer_port: seg.header.src_port,
        };
        let mut tables = self.tables.lock();
        if let Some(conn) = tables.conns.get(&key).cloned() {
            drop(tables);
            // Reap fully closed connections.
            if conn.on_segment(seg) {
                self.tables.lock().conns.remove(&key);
            }
            return;
        }
        if seg.header.flags.syn && !seg.header.flags.ack {
            if let Some(listener) = tables.listeners.get(&key.local_port).cloned() {
                // Passive open: SYN-RECEIVED, send SYN-ACK.
                let isn = self.isn.fetch_add(64_000) as u32;
                let rcv_nxt = seg.header.seq.wrapping_add(1);
                let conn = self.new_conn(key, TcpState::SynReceived, isn.wrapping_add(1), rcv_nxt);
                tables.conns.insert(key, conn.clone());
                drop(tables);
                conn.send_segment(
                    TcpFlags {
                        syn: true,
                        ack: true,
                        ..Default::default()
                    },
                    isn,
                    rcv_nxt,
                    Bytes::new(),
                );
                listener.accept_ch.push(conn);
                return;
            }
        }
        drop(tables);
        // No connection, no listener: refuse.
        if !seg.header.flags.rst {
            let reply = TcpHeader {
                src_port: key.local_port,
                dst_port: key.peer_port,
                seq: seg.header.ack,
                ack: seg.header.seq.wrapping_add(1),
                flags: TcpFlags {
                    rst: true,
                    ack: true,
                    ..Default::default()
                },
                window: 0,
            }
            .encode_chain(Bytes::new());
            let _ = self.stack.send_ip(key.peer, proto::TCP, reply);
        }
    }
}

#[inline]
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

#[inline]
fn seq_le(a: u32, b: u32) -> bool {
    a == b || seq_lt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::NetPoller;
    use crate::stack::Medium;
    use crate::testrig::TwoHosts;
    use spin_check::sync::{AtomicBool, Ordering};
    use spin_sched::IdleOutcome;

    fn tcp_rig() -> (TwoHosts, TcpStack, TcpStack) {
        let rig = TwoHosts::new();
        let a = TcpStack::install(&rig.a);
        let b = TcpStack::install(&rig.b);
        (rig, a, b)
    }

    #[test]
    fn connect_and_exchange_data() {
        let (rig, a, b) = tcp_rig();
        let listener = b.listen(80);
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("one client");
            let req = conn.recv(ctx).expect("request");
            assert_eq!(&req[..], b"ping");
            conn.send(ctx, b"pong").unwrap();
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let done = Arc::new(Mutex::new(false));
        let d2 = done.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = a.connect(ctx, dst, 80).expect("handshake");
            assert_eq!(conn.state(), TcpState::Established);
            conn.send(ctx, b"ping").unwrap();
            let reply = conn.recv(ctx).expect("reply");
            assert_eq!(&reply[..], b"pong");
            *d2.lock() = true;
        });
        rig.exec.run_until_idle();
        assert!(*done.lock());
    }

    #[test]
    fn connect_to_closed_port_is_refused() {
        let (rig, a, _b) = tcp_rig();
        let dst = rig.b_ip(Medium::Ethernet);
        let result = Arc::new(Mutex::new(None));
        let r2 = result.clone();
        rig.exec.spawn("client", move |ctx| {
            *r2.lock() = Some(a.connect(ctx, dst, 81).err());
        });
        rig.exec.run_until_idle();
        assert_eq!(result.lock().clone().flatten(), Some(TcpError::Refused));
    }

    #[test]
    fn bulk_transfer_is_ordered_and_complete() {
        let (rig, a, b) = tcp_rig();
        let listener = b.listen(80);
        let received = Arc::new(Mutex::new(Vec::new()));
        let r2 = received.clone();
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("client");
            while let Some(chunk) = conn.recv(ctx) {
                r2.lock().extend_from_slice(&chunk);
            }
        });
        let dst = rig.b_ip(Medium::Atm);
        let payload: Vec<u8> = (0..20_000).map(|i| (i % 241) as u8).collect();
        let p2 = payload.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = a.connect(ctx, dst, 80).unwrap();
            conn.send(ctx, &p2).unwrap();
            conn.close(ctx);
        });
        rig.exec.run_until_idle();
        assert_eq!(*received.lock(), payload);
    }

    #[test]
    fn retransmission_recovers_from_loss() {
        let (rig, a, b) = tcp_rig();
        // Drop every 5th frame each host puts on the Ethernet.
        rig.board.ethernet.set_drop_filter(|_, i| i % 5 == 4);
        let listener = b.listen(80);
        let received = Arc::new(Mutex::new(Vec::new()));
        let r2 = received.clone();
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("client");
            while let Some(chunk) = conn.recv(ctx) {
                r2.lock().extend_from_slice(&chunk);
            }
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 199) as u8).collect();
        let p2 = payload.clone();
        let retx = Arc::new(Mutex::new(0u64));
        let rt2 = retx.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = a.connect(ctx, dst, 80).unwrap();
            conn.send(ctx, &p2).unwrap();
            // Give retransmissions time to drain before closing.
            ctx.sleep(2 * RTO * (SYN_RETRIES as u64));
            *rt2.lock() = conn.retransmissions();
            conn.close(ctx);
        });
        rig.exec.run_until_idle();
        assert_eq!(
            *received.lock(),
            payload,
            "all data must arrive despite loss"
        );
        assert!(*retx.lock() > 0, "loss must have forced retransmission");
    }

    #[test]
    fn close_handshake_reaps_connections() {
        let (rig, a, b) = tcp_rig();
        let listener = b.listen(80);
        let b2 = b.clone();
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("client");
            // Drain to FIN, then close our side.
            while conn.recv(ctx).is_some() {}
            conn.close(ctx);
            let _ = b2;
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let a2 = a.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = a2.connect(ctx, dst, 80).unwrap();
            conn.send(ctx, b"bye").unwrap();
            conn.close(ctx);
        });
        rig.exec.run_until_idle();
        assert_eq!(a.tables.lock().conns.len(), 0);
        assert_eq!(b.tables.lock().conns.len(), 0);
    }

    #[test]
    fn a_blocked_close_is_released_by_the_final_ack() {
        let (rig, a, b) = tcp_rig();
        let listener = b.listen(80);
        let clock = rig.exec.clock().clone();
        let closes = Arc::new(Mutex::new(Vec::new()));
        let (c2, b2) = (closes.clone(), b.clone());
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("client");
            while conn.recv(ctx).is_some() {}
            // The peer's FIN is in: `close` sends ours from CLOSE-WAIT and
            // sleeps in LAST-ACK until the ACK that answers it.
            let t0 = clock.now();
            conn.close(ctx);
            c2.lock()
                .push((conn.state(), clock.now() > t0, b2.tables.lock().conns.len()));
            // Closed already: nothing to send, nothing to wait for.
            let t1 = clock.now();
            conn.close(ctx);
            assert_eq!(clock.now(), t1, "a second close returns at once");
        });
        let dst = rig.b_ip(Medium::Ethernet);
        rig.exec.spawn("client", move |ctx| {
            let conn = a.connect(ctx, dst, 80).unwrap();
            conn.send(ctx, b"bye").unwrap();
            conn.close(ctx);
            assert_eq!(conn.state(), TcpState::Closed);
        });
        assert_eq!(rig.exec.run_until_idle(), IdleOutcome::AllComplete);
        assert_eq!(*closes.lock(), [(TcpState::Closed, true, 0)]);
    }

    #[test]
    fn a_blocked_close_is_released_by_a_reset() {
        const RESET_AFTER: Nanos = 1_000_000_000;
        let (rig, a, b) = tcp_rig();
        let _listener = b.listen(80);
        let (src, dst) = (rig.a.ip_on(Medium::Ethernet), rig.b_ip(Medium::Ethernet));
        let (stack, wire, a2) = (rig.a.clone(), rig.board.ethernet.clone(), a.clone());
        let released = Arc::new(Mutex::new(None));
        let r2 = released.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = a2.connect(ctx, dst, 80).unwrap();
            // From here the wire eats every frame: the FIN is retransmitted
            // and never answered, so only the reset can end the wait.
            wire.set_drop_filter(|_, _| true);
            let exec = ctx.executor().clone();
            let reset = TcpSegment {
                ip: crate::pkt::Ipv4Header {
                    src: dst,
                    dst: src,
                    protocol: proto::TCP,
                    ttl: 64,
                    total_len: 40,
                },
                header: TcpHeader {
                    src_port: 80,
                    dst_port: conn.key.local_port,
                    seq: 0,
                    ack: 0,
                    flags: TcpFlags {
                        rst: true,
                        ..Default::default()
                    },
                    window: 0,
                },
                payload: Bytes::new(),
            };
            let t0 = exec.clock().now();
            exec.timers().schedule_at(t0 + RESET_AFTER, move |_| {
                let _ = stack.events().tcp_arrived.raise(reset);
            });
            conn.close(ctx);
            *r2.lock() = Some((conn.state(), exec.clock().now() - t0));
        });
        assert_eq!(rig.exec.run_until_idle(), IdleOutcome::AllComplete);
        let (state, waited) = released.lock().expect("close returned");
        assert_eq!(state, TcpState::Closed);
        assert!(waited >= RESET_AFTER, "released after {waited} ns");
        assert_eq!(a.tables.lock().conns.len(), 0, "the reset reaped it");
    }

    #[test]
    fn churn_of_every_connect_outcome_leaves_the_table_empty() {
        let (rig, a, b) = tcp_rig();
        let listener = b.listen(80);
        rig.exec.spawn("server", move |ctx| {
            while let Some(conn) = listener.accept(ctx) {
                while conn.recv(ctx).is_some() {}
                conn.close(ctx);
            }
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let (a2, wire) = (a.clone(), rig.board.ethernet.clone());
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let o2 = outcomes.clone();
        let client = rig.exec.spawn("client", move |ctx| {
            for _ in 0..3 {
                let conn = a2.connect(ctx, dst, 80).expect("listening");
                conn.send(ctx, b"hello").unwrap();
                conn.close(ctx);
                o2.lock().push(a2.connect(ctx, dst, 81).err());
            }
            // Every SYN from here on is lost: the attempts time out.
            wire.set_drop_filter(|_, _| true);
            for _ in 0..2 {
                o2.lock().push(a2.connect(ctx, dst, 80).err());
            }
        });
        // The server strand is left in `accept`; the client must finish.
        rig.exec.run_until_idle();
        assert!(rig.exec.is_done(client) && !rig.exec.panicked(client));
        let (refused, timed_out) = (Some(TcpError::Refused), Some(TcpError::Timeout));
        let expect = [&refused, &refused, &refused, &timed_out, &timed_out];
        assert!(outcomes.lock().iter().eq(expect), "{outcomes:?}");
        assert_eq!(
            (a.tables.lock().conns.len(), b.tables.lock().conns.len()),
            (0, 0)
        );
    }

    #[test]
    fn a_listener_registered_after_connections_queued_reports_accept() {
        let (rig, a, b) = tcp_rig();
        let listener = b.listen(80);
        let dst = rig.b_ip(Medium::Ethernet);
        rig.exec.spawn("client", move |ctx| {
            a.connect(ctx, dst, 80).expect("handshake");
        });
        rig.exec.run_until_idle();
        assert_eq!(listener.backlog(), 1);
        let poller = NetPoller::new(&rig.b);
        poller.add(listener.as_ref(), 3, interest::ACCEPT);
        assert_eq!(poller.try_wait(), [(3, interest::ACCEPT)]);
    }

    /// One data segment lost in a window of eight: the retransmission
    /// timer halves the flight into `ssthresh` and restarts slow start from
    /// one segment. Read right after the timer fires, before the
    /// retransmitted segment's ACK grows the window again.
    #[test]
    fn a_lost_segment_halves_ssthresh_and_resets_cwnd_at_the_rto() {
        const BURST: usize = 8 * MSS;
        let (rig, a, b) = tcp_rig();
        // Drops the first frame put on the Ethernet after `armed` is set.
        let armed = Arc::new(AtomicBool::new(false));
        let trigger = armed.clone();
        rig.board.ethernet.set_drop_filter(move |_, _| {
            // ordering: AcqRel — pairs with the client's Release arming store.
            trigger.swap(false, Ordering::AcqRel)
        });
        let listener = b.listen(80);
        rig.exec.spawn("server", move |ctx| {
            let conn = listener.accept(ctx).expect("client");
            while conn.recv(ctx).is_some() {}
        });
        let dst = rig.b_ip(Medium::Ethernet);
        let seen = Arc::new(Mutex::new(None));
        let s2 = seen.clone();
        rig.exec.spawn("client", move |ctx| {
            let conn = a.connect(ctx, dst, 80).unwrap();
            // A loss-free burst first, so slow start opens the window past
            // the eight segments the lossy one puts in flight.
            conn.send(ctx, &[1; BURST]).unwrap();
            ctx.sleep(RTO / 10);
            let cwnd = conn.state.lock().cwnd;
            assert!(cwnd >= BURST as u32, "slow start opened to {cwnd}");
            // ordering: Release — pairs with the wire's AcqRel swap.
            armed.store(true, Ordering::Release);
            conn.send(ctx, &[2; BURST]).unwrap();
            ctx.sleep(RTO - RTO / 100);
            while conn.retransmissions() == 0 {
                ctx.sleep(10_000);
            }
            let st = conn.state.lock();
            *s2.lock() = Some((st.cwnd, st.ssthresh, st.snd_nxt.wrapping_sub(st.snd_una)));
            drop(st);
            conn.close(ctx);
        });
        rig.exec.run_until_idle();
        let (cwnd, ssthresh, in_flight) = seen.lock().expect("the RTO fired");
        assert_eq!(
            in_flight, BURST as u32,
            "nothing acknowledged past the hole"
        );
        assert_eq!(cwnd, MSS as u32, "slow start restarts from one segment");
        assert_eq!(ssthresh, (in_flight / 2).max(2 * MSS as u32));
        assert!(
            ssthresh > 2 * MSS as u32,
            "the halving, not the floor, set it"
        );
    }

    #[test]
    fn sequence_comparisons_wrap() {
        assert!(seq_lt(u32::MAX - 1, 2));
        assert!(seq_le(5, 5));
        assert!(!seq_lt(2, u32::MAX - 1));
    }
}
