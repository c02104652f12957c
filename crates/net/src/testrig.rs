//! The standard testbeds used throughout the networking tests and
//! benchmarks: two or three hosts on one board (shared timeline), or n
//! kernel shards under the multicore barrier — every host attached to
//! Ethernet, ATM and T3, each with an installed [`NetStack`].

use crate::pkt::IpAddr;
use crate::stack::{AddressMap, Medium, NetStack};
use spin_core::Dispatcher;
use spin_sal::{Host, MulticoreBoard, Nanos, SimBoard};
use spin_sched::{Executor, Multicore};
use std::sync::Arc;

/// The two-host rig.
pub struct TwoHosts {
    pub board: SimBoard,
    pub exec: Arc<Executor>,
    pub dispatcher: Dispatcher,
    pub addrs: AddressMap,
    pub host_a: Host,
    pub host_b: Host,
    pub a: NetStack,
    pub b: NetStack,
}

impl Default for TwoHosts {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoHosts {
    /// Builds the rig with conventional addresses: host A is 10.x.0.1,
    /// host B is 10.x.0.2 (x = 0 Ethernet, 1 ATM, 2 T3).
    pub fn new() -> TwoHosts {
        let board = SimBoard::new();
        let host_a = board.new_host(256);
        let host_b = board.new_host(256);
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        exec.add_irq_controller(host_a.irqs.clone());
        exec.add_irq_controller(host_b.irqs.clone());
        let dispatcher = Dispatcher::on(board.clock.clone());
        let addrs = AddressMap::new();
        let a = NetStack::install(
            &host_a,
            &exec,
            &dispatcher,
            &addrs,
            IpAddr::new(10, 0, 0, 1),
            IpAddr::new(10, 1, 0, 1),
            IpAddr::new(10, 2, 0, 1),
        );
        let b = NetStack::install(
            &host_b,
            &exec,
            &dispatcher,
            &addrs,
            IpAddr::new(10, 0, 0, 2),
            IpAddr::new(10, 1, 0, 2),
            IpAddr::new(10, 2, 0, 2),
        );
        TwoHosts {
            board,
            exec,
            dispatcher,
            addrs,
            host_a,
            host_b,
            a,
            b,
        }
    }

    /// The IP of stack `b` on `medium` (the usual target).
    pub fn b_ip(&self, medium: Medium) -> IpAddr {
        self.b.ip_on(medium)
    }

    /// Wires an observability subsystem across the whole rig: trace
    /// records stamp the shared board clock, the executor accounts to the
    /// sched domain, both stacks to the net domain.
    pub fn wire_obs(&self, obs: &spin_obs::Obs) {
        let clock = self.board.clock.clone();
        obs.set_time_source(Arc::new(move || clock.now()));
        self.exec.set_obs(obs.domain("sched"));
        self.a.set_obs(obs.domain("net"));
        self.b.set_obs(obs.domain("net"));
        self.dispatcher.set_obs(obs.domain("dispatcher"));
    }
}

/// One kernel shard of a [`ShardRig`]: a host with its own executor,
/// dispatcher and installed [`NetStack`].
#[derive(Clone)]
pub struct RigShard {
    pub host: Host,
    pub exec: Arc<Executor>,
    pub dispatcher: Dispatcher,
    pub stack: NetStack,
}

/// An n-workstation rig in multicore mode: each host is a kernel shard
/// with its own executor, dispatcher, clock and timer queue, all pumped
/// by the [`Multicore`] barrier. Wire frames cross shards through
/// mailboxes; every virtual-time output is identical at any worker count.
pub struct ShardRig {
    pub board: MulticoreBoard,
    pub mc: Multicore,
    pub addrs: AddressMap,
    pub shards: Vec<RigShard>,
}

impl ShardRig {
    /// Builds `shards` kernel shards pumped by `workers` OS threads. Shard
    /// `i` is 10.x.0.`i+1` (x = 0 Ethernet, 1 ATM, 2 T3), as in
    /// [`TwoHosts`]; every dispatcher can `raise_on` every shard.
    pub fn new(workers: usize, shards: u8) -> ShardRig {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(workers, board.lookahead());
        let addrs = AddressMap::new();
        let hosts: Vec<(Host, Arc<Executor>)> = (0..shards)
            .map(|_| {
                let host = board.new_host(256);
                let exec = mc.add_host(host.clone());
                (host, exec)
            })
            .collect();
        let shards = (1..=shards)
            .zip(hosts)
            .map(|(n, (host, exec))| {
                let dispatcher = Dispatcher::on(host.clock.clone());
                mc.wire_dispatcher(&dispatcher, host.id);
                let stack = NetStack::install(
                    &host,
                    &exec,
                    &dispatcher,
                    &addrs,
                    IpAddr::new(10, 0, 0, n),
                    IpAddr::new(10, 1, 0, n),
                    IpAddr::new(10, 2, 0, n),
                );
                RigShard {
                    host,
                    exec,
                    dispatcher,
                    stack,
                }
            })
            .collect();
        ShardRig {
            board,
            mc,
            addrs,
            shards,
        }
    }

    /// Every shard's clock, in shard order.
    pub fn clocks(&self) -> Vec<Nanos> {
        self.shards.iter().map(|s| s.host.clock.now()).collect()
    }
}

/// A three-workstation rig (client, forwarder, server) for the Table 6
/// protocol-forwarding experiments.
pub struct ThreeHosts {
    pub board: SimBoard,
    pub exec: Arc<Executor>,
    pub dispatcher: Dispatcher,
    pub addrs: AddressMap,
    pub a: NetStack,
    pub b: NetStack,
    pub c: NetStack,
}

impl Default for ThreeHosts {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreeHosts {
    /// Builds the rig; host X is 10.m.0.X on medium m.
    pub fn new() -> ThreeHosts {
        let board = SimBoard::new();
        let hosts: Vec<Host> = (0..3).map(|_| board.new_host(256)).collect();
        let exec = Executor::on(board.clock.clone(), board.timers.clone());
        let dispatcher = Dispatcher::on(board.clock.clone());
        let addrs = AddressMap::new();
        let mut stacks = Vec::new();
        for (i, host) in hosts.iter().enumerate() {
            exec.add_irq_controller(host.irqs.clone());
            let n = (i + 1) as u8;
            stacks.push(NetStack::install(
                host,
                &exec,
                &dispatcher,
                &addrs,
                IpAddr::new(10, 0, 0, n),
                IpAddr::new(10, 1, 0, n),
                IpAddr::new(10, 2, 0, n),
            ));
        }
        let c = stacks.pop().expect("three stacks");
        let b = stacks.pop().expect("two stacks");
        let a = stacks.pop().expect("one stack");
        ThreeHosts {
            board,
            exec,
            dispatcher,
            addrs,
            a,
            b,
            c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::Mutex;
    use spin_sched::IdleOutcome;

    /// UDP ping-pong across two kernel shards: every virtual arrival
    /// time, reply time and mailbox count is identical at 1, 2 and 4
    /// workers.
    #[test]
    fn sharded_udp_ping_pong_is_worker_count_invariant() {
        let run = |workers: usize| -> (Vec<Nanos>, Nanos, u64) {
            let rig = ShardRig::new(workers, 2);
            let (a, b) = (&rig.shards[0], &rig.shards[1]);
            let echo = b.stack.clone();
            let _echo_sock = crate::socket::UdpSocket::bind_with(&b.stack, 7, "echo", move |p| {
                let src = p.ip.src;
                let port = p.header.src_port;
                echo.udp_send(7, src, port, &p.payload).unwrap();
            })
            .unwrap();
            let arrivals: Arc<Mutex<Vec<Nanos>>> = Arc::new(Mutex::new(Vec::new()));
            let arr = arrivals.clone();
            let clock_a = a.host.clock.clone();
            let _sink = crate::socket::UdpSocket::bind_with(&a.stack, 9, "pong-sink", move |_| {
                arr.lock().push(clock_a.now())
            })
            .unwrap();
            let pinger = a.stack.clone();
            let dst = b.stack.ip_on(Medium::Ethernet);
            a.exec.spawn("pinger", move |ctx| {
                for _ in 0..4 {
                    pinger.udp_send(9, dst, 7, b"ping").unwrap();
                    ctx.sleep(200_000);
                }
            });
            assert_eq!(rig.mc.run_until_idle(), IdleOutcome::AllComplete);
            let arrivals = arrivals.lock().clone();
            assert_eq!(arrivals.len(), 4, "all four pongs arrived");
            let st = rig.mc.stats();
            (arrivals, b.host.clock.now(), st.mail_posted)
        };
        let base = run(1);
        assert_eq!(run(2), base, "2 workers diverged");
        assert_eq!(run(4), base, "4 workers diverged");
    }
}
