//! Multicore shard integration: cross-shard raises racing handler churn,
//! global deadlock aggregation, deterministic fault injection on the
//! mailbox edge and a deep backlog of equal-instant frames — all
//! byte-identical at 1, 2 and 4 worker threads.

use spin_core::{Dispatcher, Identity};
use spin_net::{Forwarder, Medium, ShardRig, UdpSocket};
use spin_sal::{MailFate, MulticoreBoard, Nanos};
use spin_sched::{IdleOutcome, KChannel, Multicore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Cross-shard raises from shard A race a handler install/uninstall churn
/// loop on shard B. Every raise is delivered on B's timeline at a
/// deterministic virtual time, so the set of raises that see the extra
/// handler — and therefore the exact hit count — is a pure function of
/// virtual time, not of the OS scheduler.
#[test]
fn cross_shard_raises_race_handler_churn_deterministically() {
    let run = |workers: usize| -> (u64, u64, Nanos, Nanos, u64) {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(workers, board.lookahead());
        let a = board.new_host(16);
        let b = board.new_host(16);
        let (a_id, b_id) = (a.id, b.id);
        let disp_a = Dispatcher::new(a.clock.clone(), a.profile.clone());
        let disp_b = Dispatcher::new(b.clock.clone(), b.profile.clone());
        let ea = mc.add_host(a);
        let eb = mc.add_host(b);
        mc.wire_dispatcher(&disp_a, a_id);
        mc.wire_dispatcher(&disp_b, b_id);

        let (ev, owner) = disp_b.define::<u64, u64>("Churn.Tick", Identity::kernel("b"));
        let primary_hits = Arc::new(AtomicU64::new(0));
        let extra_hits = Arc::new(AtomicU64::new(0));
        let p2 = primary_hits.clone();
        owner
            .set_primary(move |x| {
                p2.fetch_add(1, Ordering::Relaxed);
                *x
            })
            .expect("fresh event");

        // Shard B: install/uninstall a secondary handler in a tight churn
        // loop, exercising the dispatcher's snapshot plan swap from the
        // same shard the deliveries land on.
        let churn_ev = ev.clone();
        let churn_disp = disp_b.clone();
        let churn_extra = extra_hits.clone();
        eb.spawn("churner", move |ctx| {
            for _ in 0..12 {
                let e2 = churn_extra.clone();
                let id = churn_ev
                    .install(Identity::extension("churn"), move |x: &u64| {
                        e2.fetch_add(1, Ordering::Relaxed);
                        *x
                    })
                    .expect("install");
                ctx.sleep(40_000);
                churn_disp
                    .uninstall(&churn_ev, id, &Identity::extension("churn"))
                    .expect("uninstall");
                ctx.sleep(40_000);
            }
        });

        // Shard A: fire cross-shard raises into the churn window.
        ea.spawn("raiser", move |ctx| {
            for _ in 0..25 {
                let posted = disp_a.raise_on(b_id, &ev, 1).expect("routed");
                assert!(posted.is_none(), "cross-shard raises are async");
                ctx.sleep(30_000);
            }
        });

        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        let st = mc.stats();
        (
            primary_hits.load(Ordering::Relaxed),
            extra_hits.load(Ordering::Relaxed),
            mc.shard(a_id).expect("shard a").host.clock.now(),
            mc.shard(b_id).expect("shard b").host.clock.now(),
            st.mail_posted,
        )
    };
    let base = run(1);
    assert_eq!(base.0, 25, "every cross-shard raise reached the primary");
    assert!(base.4 >= 25, "raises travelled via the mailbox");
    assert_eq!(run(2), base, "2 workers diverged");
    assert_eq!(run(4), base, "4 workers diverged");
}

/// A strand blocked forever on one shard is reported in the *global*
/// deadlock verdict — only once every shard is idle and no cross-shard
/// mail is in flight that could still wake it.
#[test]
fn global_deadlock_aggregates_blocked_strands_across_shards() {
    let board = MulticoreBoard::new();
    let mut mc = Multicore::new(2, board.lookahead());
    let ea = mc.add_host(board.new_host(16));
    let eb = mc.add_host(board.new_host(16));
    ea.spawn("worker", |ctx| ctx.work(50_000));
    let never_sent = KChannel::<()>::new(eb.clone(), 1);
    eb.spawn("stuck", move |ctx| {
        never_sent.recv(ctx);
    });
    match mc.run_until_idle() {
        IdleOutcome::Deadlock { blocked } => assert_eq!(blocked, vec!["stuck".to_string()]),
        other => panic!("expected a global deadlock, got {other:?}"),
    }
}

/// Injected delays on the mailbox edge shift deliveries by a
/// deterministic draw, so the delayed timeline is *also* identical at
/// every worker count — fault injection composes with the barrier.
#[test]
fn mailbox_delay_injection_stays_worker_count_invariant() {
    let run = |workers: usize| -> (u64, Nanos, u64) {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(workers, board.lookahead());
        let a = board.new_host(16);
        let b = board.new_host(16);
        let (a_id, b_id) = (a.id, b.id);
        let disp_a = Dispatcher::new(a.clock.clone(), a.profile.clone());
        let disp_b = Dispatcher::new(b.clock.clone(), b.profile.clone());
        let ea = mc.add_host(a);
        let _eb = mc.add_host(b);
        mc.wire_dispatcher(&disp_a, a_id);
        mc.wire_dispatcher(&disp_b, b_id);
        let plan = spin_fault::FaultPlan::new(42);
        plan.configure(
            spin_fault::SITE_MAILBOX,
            spin_fault::SiteConfig {
                delay_every: 2,
                delay_ns: 500_000,
                ..Default::default()
            },
        );
        mc.set_fault_hook(plan.hook(spin_fault::SITE_MAILBOX));

        let (ev, owner) = disp_b.define::<u64, u64>("Delayed.Tick", Identity::kernel("b"));
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = hits.clone();
        owner
            .set_primary(move |x| {
                h2.fetch_add(1, Ordering::Relaxed);
                *x
            })
            .expect("fresh event");
        ea.spawn("raiser", move |ctx| {
            for _ in 0..8 {
                let _ = disp_a.raise_on(b_id, &ev, 1).expect("routed");
                ctx.sleep(100_000);
            }
        });
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        let delays = plan
            .report()
            .into_iter()
            .find(|r| r.site == spin_fault::SITE_MAILBOX)
            .expect("site configured")
            .delays;
        (
            hits.load(Ordering::Relaxed),
            mc.shard(b_id).expect("shard b").host.clock.now(),
            delays,
        )
    };
    let base = run(1);
    assert_eq!(base.0, 8, "delays shift deliveries, never lose them");
    assert!(base.2 >= 1, "the plan actually injected delays");
    assert_eq!(run(2), base, "2 workers diverged");
    assert_eq!(run(4), base, "4 workers diverged");
}

/// Two envelopes with the same `deliver_at` from different lanes fire in
/// lane order at every worker count, whichever worker's host thread posts
/// first. The host sleeps force the schedule that used to tell them apart:
/// at four workers shard 4 is worker 0's second shard (after slow shard
/// 0), so it starts its share of the first epoch after shard 3 has posted
/// and long before shard 1 has. Mail is delivered by the coordinator at
/// the barrier, so neither envelope reaches shard 4's timer queue before
/// both are in its mailbox.
#[test]
fn equal_deadline_mail_fires_in_lane_order_whatever_the_host_timing() {
    let run = |workers: usize| -> Vec<u64> {
        let board = MulticoreBoard::new();
        let mut mc = Multicore::new(workers, board.lookahead());
        let shards: Vec<_> = (0..6)
            .map(|_| {
                let host = board.new_host(16);
                let disp = Dispatcher::new(host.clock.clone(), host.profile.clone());
                (host.id, disp, mc.add_host(host))
            })
            .collect();
        for (id, disp, _) in &shards {
            mc.wire_dispatcher(disp, *id);
        }
        let target = shards[4].0;
        let (ev, owner) = shards[4]
            .1
            .define::<u64, u64>("Tie.Break", Identity::kernel("t"));
        let order = Arc::new(Mutex::new(Vec::new()));
        let seen = order.clone();
        owner
            .set_primary(move |x| {
                seen.lock().expect("no poisoning").push(*x);
                *x
            })
            .expect("fresh event");
        for (i, (_, disp, exec)) in shards.into_iter().enumerate() {
            let ev = ev.clone();
            exec.spawn("poster", move |ctx| {
                std::thread::sleep(Duration::from_millis([40, 120, 0, 0, 0, 0][i]));
                if i == 1 || i == 3 {
                    let posted = disp.raise_on(target, &ev, i as u64).expect("routed");
                    assert!(posted.is_none(), "cross-shard raises are async");
                }
                ctx.sleep(50_000);
            });
        }
        assert_eq!(mc.run_until_idle(), IdleOutcome::AllComplete);
        let fired = order.lock().expect("no poisoning").clone();
        fired
    };
    let base = run(1);
    assert_eq!(base, [1, 3], "equal instants fire in lane order");
    assert_eq!(run(2), base, "2 workers diverged");
    assert_eq!(run(4), base, "4 workers diverged");
}

/// Two open-loop senders at the two ends of a three-shard chain each push
/// `FRAMES` datagrams through the middle shard, which forwards each flow to
/// the far end. The senders start together and pace alike, so the middle
/// shard's mailbox holds a deep backlog in which the two senders' lanes
/// tie on most instants (at least half, asserted). Every virtual output — each sink's
/// arrival order and times, the shards' clocks and the barrier's counters —
/// is identical at 1, 2 and 4 workers, and hashes to the digest pinned
/// here, which the per-envelope delivery path produced before drains were
/// scheduled as runs (DESIGN.md decision 27).
#[test]
fn a_deep_backlog_of_equal_instant_frames_is_worker_count_invariant() {
    const FRAMES: u64 = 2_500;
    const GAP: Nanos = 1_000;
    const PINNED: u64 = 11_965_521_532_018_742_367;
    let run = |workers: usize| -> String {
        let rig = ShardRig::new(workers, 3);
        let medium = Medium::Ethernet;
        // Every post to the middle shard: its instant and how many
        // envelopes were already waiting.
        let posted = Arc::new(Mutex::new(Vec::new()));
        let (seen, middle) = (posted.clone(), rig.shards[1].host.mailbox.clone());
        rig.shards[1].host.mailbox.set_post_hook(move |at| {
            seen.lock().expect("no poisoning").push((at, middle.len()));
            MailFate::Deliver(at)
        });
        let stacks: Vec<_> = rig.shards.iter().map(|s| s.stack.clone()).collect();
        // Port 7 flows 0 → 1 → 2 and port 8 flows 2 → 1 → 0.
        let flows = [(0, 2, 7u16), (2, 0, 8u16)];
        // Each sink's (sequence number, arrival time) log.
        type Arrivals = Arc<Mutex<Vec<(u64, Nanos)>>>;
        let arrivals: Vec<Arrivals> = flows.iter().map(|_| Arc::default()).collect();
        for (&(from, to, port), log) in flows.iter().zip(&arrivals) {
            let _ = Forwarder::install_udp(&stacks[1], port, stacks[to].ip_on(medium));
            let (log, clock) = (log.clone(), rig.shards[to].host.clock.clone());
            UdpSocket::bind_with(&stacks[to], port, "sink", move |p| {
                let seq = u64::from_le_bytes(p.payload[..8].try_into().expect("8 bytes"));
                log.lock().expect("no poisoning").push((seq, clock.now()));
            })
            .expect("bind sink");
            let (sender, via) = (stacks[from].clone(), stacks[1].ip_on(medium));
            rig.shards[from].exec.spawn("sender", move |ctx| {
                for seq in 0..FRAMES {
                    sender
                        .udp_send(port, via, port, &seq.to_le_bytes())
                        .expect("send");
                    ctx.work(GAP);
                }
            });
        }
        assert_eq!(rig.mc.run_until_idle(), IdleOutcome::AllComplete);
        let posted = posted.lock().expect("no poisoning").clone();
        assert_eq!(posted.len() as u64, 2 * FRAMES, "both flows cross shard 1");
        let depth = posted.iter().map(|&(_, waiting)| waiting).max();
        assert!(
            depth >= Some(FRAMES as usize),
            "a deep backlog: {depth:?} envelopes waited at most"
        );
        let mut instants: Vec<Nanos> = posted.iter().map(|&(at, _)| at).collect();
        instants.sort_unstable();
        let ties = instants.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        assert!(ties >= FRAMES / 2, "only {ties} equal-instant pairs");
        let mut out = format!("{:?} {:?}\n", rig.clocks(), rig.mc.stats());
        for log in &arrivals {
            let log = log.lock().expect("no poisoning");
            assert!(
                log.iter().map(|&(seq, _)| seq).eq(0..FRAMES),
                "every frame arrives once, in order"
            );
            out += &format!("{log:?}\n");
        }
        out
    };
    let base = run(1);
    let digest = base.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    assert_eq!(digest, PINNED, "the virtual outputs moved");
    assert!(run(2) == base, "2 workers diverged");
    assert!(run(4) == base, "4 workers diverged");
}
