//! The slice meter against the per-charge book it replaced.
//!
//! The executor charges a slice as `clock.now() - slice_start`, read where
//! the charge is wanted, and preempts on that difference at safe points
//! (DESIGN.md decision 26). Until that decision it subscribed to its clock
//! and kept a book per charge: every charge made while a strand was
//! current went onto the slice's `quantum_used`, and one that took it past
//! the quantum set a `preempt_pending` flag that the next safe point
//! consumed. Here that book is a test-local clock subscriber, and random
//! programs of thread strands and run-to-completion strands — `work`,
//! `yield_now`, `sleep`, `preempt_point`, and blocking and waking through
//! a [`WaitQueue`], with charges of a few percent of the executor's 1 ms
//! quantum up to most of it — are run against both. Checked:
//!
//! * a safe point yields exactly when the book's flag is set;
//! * `cpu_time` and `host_busy` equal the book after every operation, so
//!   at every slice end, and once the run is over;
//! * the final clock is the sum of every charge, made on either kind of
//!   strand or between slices, plus the idle skips — and no skip falls
//!   inside a slice, so a slice's charge is the clock's advance over it.

use proptest::prelude::*;
use spin_check::sync::Mutex;
use spin_sal::{HostId, Nanos, SimBoard};
use spin_sched::{Executor, Step, StrandCtx, StrandId, WaitQueue};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};
use std::task::Poll;

/// One operation of a thread strand's program.
#[derive(Debug, Clone)]
enum Op {
    Work(Nanos),
    Yield,
    Sleep(Nanos),
    Preempt,
    /// Takes a token, blocking on the queue until there is one.
    Wait,
    /// Adds a token and wakes the oldest waiter.
    Signal,
}

/// A strand: a thread strand's operations, or a run-to-completion
/// strand's slices (each a run of charges, an optional signal, and a
/// yield; the last one returns `Done`).
#[derive(Debug, Clone)]
enum Body {
    Thread(Vec<Op>),
    Step(Vec<(Vec<Nanos>, bool)>),
}

/// The executor's preemption quantum, which the book preempts on too.
const QUANTUM: Nanos = 1_000_000;

#[derive(Debug, Clone)]
struct Program {
    /// (host, body), one per strand.
    strands: Vec<(u32, Body)>,
}

fn op() -> impl Strategy<Value = Op> {
    let work = || (15_000u64..900_000).prop_map(Op::Work);
    // Work and safe points twice as likely as the rest.
    prop_oneof![
        work(),
        work(),
        Just(Op::Preempt),
        Just(Op::Preempt),
        Just(Op::Yield),
        (150_000u64..6_000_000).prop_map(Op::Sleep),
        Just(Op::Wait),
        Just(Op::Signal),
    ]
}

fn body() -> impl Strategy<Value = Body> {
    let slice = (
        prop::collection::vec(15_000u64..900_000, 0..4),
        any::<bool>(),
    );
    prop_oneof![
        prop::collection::vec(op(), 1..12).prop_map(Body::Thread),
        prop::collection::vec(slice, 1..5).prop_map(Body::Step),
    ]
}

fn program() -> impl Strategy<Value = Program> {
    prop::collection::vec((0u32..2, body()), 1..5).prop_map(|strands| Program { strands })
}

/// The retired per-charge book, kept by a clock subscriber.
#[derive(Default)]
struct Book {
    /// The running slice's charges (`quantum_used`).
    slice: Nanos,
    /// Set by the charge that took the slice past the quantum
    /// (`preempt_pending`).
    pending: bool,
    cpu: BTreeMap<StrandId, Nanos>,
    host: BTreeMap<HostId, Nanos>,
    /// Every charge, whoever made it.
    charged: Nanos,
    /// Clock movements no charge explains: idle skips.
    skipped: Nanos,
    last_now: Nanos,
    /// Anything the book saw that the executor's design rules out.
    violations: Vec<String>,
}

/// The semaphore strands wait on.
#[derive(Default)]
struct Tokens {
    tokens: u32,
    queue: WaitQueue,
}

fn signal(exec: &Executor, state: &Mutex<Tokens>) {
    let wakeups = {
        let mut st = state.lock();
        st.tokens += 1;
        st.queue.wake_one()
    };
    wakeups.unblock(exec);
}

/// Everything the run saw that disagrees with the book.
type Log = Arc<Mutex<Vec<String>>>;

/// Compares the executor's CPU readers with the book, from inside `me`'s
/// slice.
fn compare(exec: &Executor, book: &Mutex<Book>, me: StrandId, host: HostId, at: &str, log: &Log) {
    let (cpu, busy) = (exec.cpu_time(me), exec.host_busy(host));
    let b = book.lock();
    let want = (
        b.cpu.get(&me).copied().unwrap_or(0),
        b.host.get(&host).copied().unwrap_or(0),
    );
    if (cpu, busy) != want {
        log.lock().push(format!(
            "{me:?} {at}: (cpu, host) {:?}, book {want:?}",
            (cpu, busy)
        ));
    }
}

fn run(p: &Program) {
    let board = SimBoard::new();
    let exec = Executor::on(board.clock.clone(), board.timers.clone());
    let book = Arc::new(Mutex::new(Book::default()));
    let hosts: Arc<Mutex<BTreeMap<StrandId, HostId>>> = Arc::default();
    let (weak, book2, hosts2): (Weak<Executor>, _, _) =
        (Arc::downgrade(&exec), book.clone(), hosts.clone());
    board.clock.add_advance_hook(Box::new(move |charge| {
        let ns = charge.ns;
        let Some(exec) = weak.upgrade() else { return };
        let now = exec.clock().now();
        let mut b = book2.lock();
        let Some(gap) = now.checked_sub(b.last_now + ns) else {
            b.violations
                .push(format!("a charge of {ns} was lost at {now}"));
            return;
        };
        b.last_now = now;
        b.charged += ns;
        match exec.current() {
            None => {
                b.skipped += gap;
                b.slice = 0;
                b.pending = false;
            }
            Some(id) => {
                if gap != 0 {
                    b.violations
                        .push(format!("the clock skipped {gap} inside {id:?}'s slice"));
                }
                b.slice += ns;
                if b.slice > QUANTUM {
                    b.pending = true;
                }
                *b.cpu.entry(id).or_default() += ns;
                let host = hosts2.lock()[&id];
                *b.host.entry(host).or_default() += ns;
            }
        }
    }));

    let tokens = Arc::new(Mutex::new(Tokens::default()));
    let log: Log = Arc::default();
    let mut waits = 0;
    for (n, (host, body)) in p.strands.iter().enumerate() {
        let host = HostId(*host);
        let (book, tokens, log) = (book.clone(), tokens.clone(), log.clone());
        let name = format!("s{n}");
        let id = match body.clone() {
            Body::Thread(ops) => {
                waits += ops.iter().filter(|op| matches!(op, Op::Wait)).count();
                exec.spawn_on(host, &name, 8, move |ctx: &StrandCtx| {
                    let (exec, me) = (ctx.executor(), ctx.id());
                    for (i, op) in ops.iter().enumerate() {
                        match *op {
                            Op::Work(ns) => ctx.work(ns),
                            Op::Yield => ctx.yield_now(),
                            Op::Sleep(ns) => ctx.sleep(ns),
                            Op::Preempt => {
                                let expected = std::mem::take(&mut book.lock().pending);
                                let before = exec.switches();
                                ctx.preempt_point();
                                let yielded = exec.switches() != before;
                                if yielded != expected {
                                    log.lock().push(format!(
                                        "{me:?} op {i}: yielded {yielded}, the book's flag {expected}"
                                    ));
                                }
                            }
                            Op::Wait => ctx.wait(
                                &tokens,
                                |st| &mut st.queue,
                                |st| match st.tokens {
                                    0 => Poll::Pending,
                                    _ => {
                                        st.tokens -= 1;
                                        Poll::Ready(())
                                    }
                                },
                            ),
                            Op::Signal => signal(exec, &tokens),
                        }
                        compare(exec, &book, me, host, &format!("op {i}"), &log);
                    }
                })
            }
            Body::Step(slices) => {
                let mut next = 0;
                exec.spawn_step_on(host, &name, 8, move |ctx| {
                    let (exec, me) = (ctx.executor(), ctx.id());
                    let (charges, wake) = &slices[next];
                    for &ns in charges {
                        ctx.work(ns);
                    }
                    if *wake {
                        signal(exec, &tokens);
                    }
                    compare(exec, &book, me, host, &format!("slice {next}"), &log);
                    next += 1;
                    match next == slices.len() {
                        true => Step::Done,
                        false => Step::Yield,
                    }
                })
            }
        }
        .id();
        hosts.lock().insert(id, host);
    }
    // Below every program strand: hands out one token per wait, one a
    // slice, whenever nothing else is runnable, so no program deadlocks.
    let releaser_tokens = tokens.clone();
    let releaser = exec.spawn_on(HostId(0), "releaser", 1, move |ctx| {
        for _ in 0..waits {
            signal(ctx.executor(), &releaser_tokens);
            ctx.yield_now();
        }
    });
    hosts.lock().insert(releaser.id(), HostId(0));

    // Every strand finished, and none panicked.
    exec.run_until_idle();
    let ids: Vec<StrandId> = hosts.lock().keys().copied().collect();
    prop_assert_eq!(log.lock().clone(), Vec::<String>::new());
    let b = book.lock();
    prop_assert_eq!(b.violations.clone(), Vec::<String>::new());
    for &id in &ids {
        prop_assert_eq!(exec.cpu_time(id), b.cpu.get(&id).copied().unwrap_or(0));
    }
    for host in [HostId(0), HostId(1)] {
        prop_assert_eq!(
            exec.host_busy(host),
            b.host.get(&host).copied().unwrap_or(0)
        );
    }
    prop_assert_eq!(exec.clock().now(), b.charged + b.skipped);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn the_meter_answers_as_the_per_charge_book_did(p in program()) {
        run(&p);
    }
}

/// The executor no longer subscribes to its clock: a charge on it is
/// unobserved until obs is wired, and a charge-coalescing caller (the
/// dispatcher's compiled guard walk) may charge a run of misses at once.
#[test]
fn an_executor_leaves_its_clock_unobserved_until_obs_is_wired() {
    let board = SimBoard::new();
    let exec = Executor::on(board.clock.clone(), board.timers.clone());
    assert!(!board.clock.charges_observed());
    let obs = spin_obs::Obs::new(16);
    exec.set_obs(obs.domain("sched"));
    assert!(board.clock.charges_observed(), "obs accounts every charge");
    drop(exec);
    assert!(!board.clock.charges_observed(), "and unsubscribes on drop");
}
