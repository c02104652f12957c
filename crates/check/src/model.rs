//! Deterministic bounded-DFS concurrency model checker (loom-style).
//!
//! Real OS threads are serialized through a token-passing scheduler: every
//! instrumented operation (see [`crate::instr`]) *announces* itself and
//! parks; the scheduler grants exactly one thread the token, that thread
//! performs its operation under the model lock, runs user code until its
//! next announce, and parks again. Between two schedule points exactly one
//! shared-memory operation executes, so the scheduler's decision sequence
//! fully determines the interleaving.
//!
//! Exploration is depth-first over a persistent decision stack. Two kinds
//! of decision node exist: *thread* choices (which runnable thread executes
//! next) and *value* choices (which store a weakly-ordered load observes).
//! Weak-memory visibility is modeled with vector clocks: each store keeps
//! the full happens-before clock of its storing thread plus an optional
//! release clock; a load may observe any store at or above its coherence
//! floor (per-thread last-read index joined with the newest
//! happens-before-ordered store), and an acquire load joins the chosen
//! store's release clock. This is what makes a `Relaxed` publish actually
//! observable as a torn read instead of being masked by the sequential
//! executor.
//!
//! Pruning: classic sleep sets over an object-granularity independence
//! relation (two operations commute unless they touch the same atomic with
//! at least one write, or the same lock with at least one exclusive side),
//! plus a configurable preemption bound (Musuvathi/Qadeer-style context
//! bounding: once the budget is spent, the running thread keeps the token
//! while it stays enabled).
//!
//! Every decision is recorded; a failing execution reports a seed string
//! that [`Checker::replay`] feeds back verbatim to reproduce the exact
//! interleaving deterministically.

use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Serializes model-checking runs: the instrumented types consult
/// thread-local context, but panic-hook suppression and the step budget are
/// process-global, so two concurrent explorations would interfere.
static MODEL_GATE: Mutex<()> = Mutex::new(());

/// Per-execution step budget; exceeding it means a livelock (e.g. an
/// unbounded spin loop) slipped into modeled code.
const STEP_LIMIT: u64 = 200_000;

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Identity of a controlled thread: which execution it belongs to and its
/// model thread id.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

pub(crate) fn current_ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Panic payload used to unwind controlled threads out of a poisoned
/// execution. Public so embedders' `catch_unwind` wrappers can rethrow it;
/// any instrumented op re-raises it, so a kernel `catch_unwind` that
/// swallows one cannot wedge the executor.
pub struct AbortExecution;

fn abort_execution() -> ! {
    panic::panic_any(AbortExecution)
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct VClock(Vec<u32>);

impl VClock {
    fn new() -> Self {
        VClock(Vec::new())
    }

    fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    fn inc(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, v) in other.0.iter().enumerate() {
            if *v > self.0[i] {
                self.0[i] = *v;
            }
        }
    }

    /// Componentwise `self <= other` (happens-before when clocks are full
    /// thread clocks).
    fn le(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, v)| *v <= other.get(i))
    }
}

// ---------------------------------------------------------------------------
// Pending operations and independence
// ---------------------------------------------------------------------------

/// The shared-memory operation a parked thread is about to perform.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// A freshly spawned thread waiting for its first grant.
    Start,
    /// A pure schedule point (spawn handoff, explicit yield).
    Yield,
    AtomicLoad {
        obj: u64,
    },
    AtomicStore {
        obj: u64,
    },
    AtomicRmw {
        obj: u64,
    },
    LockAcquire {
        obj: u64,
        shared: bool,
    },
    TryLock {
        obj: u64,
        shared: bool,
    },
    LockRelease {
        obj: u64,
    },
    Join {
        target: usize,
    },
}

impl Op {
    /// Whether the operation is a locked instruction or a lock operation:
    /// a read-modify-write (swap, fetch_*, compare-exchange) or a lock
    /// taken, tried or released. Plain loads and stores are `mov`s on
    /// x86-64 and are not.
    fn is_locked(&self) -> bool {
        matches!(
            self,
            Op::AtomicRmw { .. }
                | Op::LockAcquire { .. }
                | Op::TryLock { .. }
                | Op::LockRelease { .. }
        )
    }
}

/// Object-granularity independence: used both to wake sleeping threads and
/// to keep the sleep sets sound. Conservative where it is cheap to be.
fn dependent(a: &Op, b: &Op) -> bool {
    use Op::*;
    let atomic_obj = |op: &Op| match op {
        AtomicLoad { obj } => Some((*obj, false)),
        AtomicStore { obj } | AtomicRmw { obj } => Some((*obj, true)),
        _ => None,
    };
    let lock_obj = |op: &Op| match op {
        LockAcquire { obj, shared } | TryLock { obj, shared } => Some((*obj, *shared, true)),
        LockRelease { obj } => Some((*obj, false, false)),
        _ => None,
    };
    if let (Some((xa, wa)), Some((xb, wb))) = (atomic_obj(a), atomic_obj(b)) {
        return xa == xb && (wa || wb);
    }
    if let (Some((xa, sa, aa)), Some((xb, sb, ab))) = (lock_obj(a), lock_obj(b)) {
        // Two shared acquisitions of the same RwLock commute; every other
        // same-lock pair does not (release enables acquire, exclusive
        // conflicts with everything).
        return xa == xb && !(sa && sb && aa && ab);
    }
    false
}

// ---------------------------------------------------------------------------
// Modeled objects
// ---------------------------------------------------------------------------

/// One store event in an atomic's modification order.
#[derive(Clone, Debug)]
struct StoreEv {
    value: u64,
    /// Full happens-before clock of the storing thread at the store; a
    /// reader whose clock dominates this may no longer observe *older*
    /// stores.
    store_vc: VClock,
    /// Release clock: `Some` for release stores and for RMWs continuing a
    /// release sequence. An acquire load that observes this store joins it.
    rel_vc: Option<VClock>,
}

#[derive(Debug)]
struct AtomicObj {
    /// Entire modification order (executions are short; no capping).
    stores: Vec<StoreEv>,
    /// Per-thread coherence floor: absolute index of the newest store this
    /// thread has observed (read or written).
    last_read: Vec<usize>,
}

impl AtomicObj {
    fn new(init: u64) -> Self {
        AtomicObj {
            stores: vec![StoreEv {
                value: init,
                store_vc: VClock::new(),
                rel_vc: Some(VClock::new()),
            }],
            last_read: Vec::new(),
        }
    }

    fn floor_for(&self, tid: usize, vc: &VClock) -> usize {
        let mut floor = self.last_read.get(tid).copied().unwrap_or(0);
        for (i, st) in self.stores.iter().enumerate() {
            if i > floor && st.store_vc.le(vc) {
                floor = i;
            }
        }
        floor
    }

    fn note_read(&mut self, tid: usize, idx: usize) {
        if self.last_read.len() <= tid {
            self.last_read.resize(tid + 1, 0);
        }
        self.last_read[tid] = self.last_read[tid].max(idx);
    }
}

#[derive(Debug, Default)]
struct LockObj {
    writer: Option<usize>,
    readers: Vec<usize>,
    /// Accumulated release clock; joined by every acquirer.
    vc: VClock,
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    Finished,
}

#[derive(Debug)]
struct ThreadSt {
    run: Run,
    /// `Some` while parked at a schedule point; `None` while running user
    /// code (only ever true of the token holder).
    pending: Option<Op>,
    vc: VClock,
}

/// One decision point on the persistent DFS stack.
#[derive(Debug)]
struct Node {
    /// Remaining candidate values (tids for thread nodes, absolute store
    /// indices for value nodes), already sleep-set filtered at creation.
    options: Vec<u64>,
    idx: usize,
    /// Sleep set at node creation (thread nodes only).
    sleep: Vec<usize>,
    is_thread: bool,
}

#[derive(Clone, Debug)]
pub struct Failure {
    pub message: String,
    pub seed: String,
}

struct ExecState {
    threads: Vec<ThreadSt>,
    active: usize,
    last_active: usize,
    preemptions: u32,
    atomics: HashMap<u64, AtomicObj>,
    locks: HashMap<u64, LockObj>,
    /// Decision index within the current execution.
    depth: usize,
    /// Values taken at each decision this execution (the seed).
    taken: Vec<u64>,
    cur_sleep: Vec<usize>,
    /// Sleep-set pruned: the rest of this execution is redundant; follow
    /// first options without recording nodes.
    pruned: bool,
    poisoned: bool,
    done: bool,
    failure: Option<Failure>,
    steps: u64,
    /// Of `steps`, the locked ones (see `Op::is_locked`).
    locked: u64,
    /// Persistent DFS stack (survives `reset`).
    stack: Vec<Node>,
    /// Replay plan: decision values to follow verbatim.
    replay: Option<Vec<u64>>,
    bound: u32,
}

fn push_unique(v: &mut Vec<usize>, t: usize) {
    if !v.contains(&t) {
        v.push(t);
    }
}

/// Resolve one decision point: replay > prune > stack revisit > new node.
fn decide(g: &mut ExecState, is_thread: bool, options: Vec<u64>) -> u64 {
    debug_assert!(!options.is_empty());
    let d = g.depth;
    g.depth += 1;
    if let Some(plan) = &g.replay {
        let v = plan.get(d).copied().unwrap_or(options[0]);
        let v = if options.contains(&v) { v } else { options[0] };
        g.taken.push(v);
        return v;
    }
    if g.pruned {
        g.taken.push(options[0]);
        return options[0];
    }
    if d < g.stack.len() {
        let node = &g.stack[d];
        let v = node.options[node.idx];
        assert!(
            options.contains(&v),
            "spin-check internal: divergent re-execution at depth {d}"
        );
        if node.is_thread {
            // Rebuild the sleep set: siblings already fully explored from
            // this node sleep for the remainder of this branch.
            let mut base = node.sleep.clone();
            for &t in &node.options[..node.idx] {
                push_unique(&mut base, t as usize);
            }
            g.cur_sleep = base;
        }
        g.taken.push(v);
        return v;
    }
    let (opts, sleep) = if is_thread {
        let filtered: Vec<u64> = options
            .iter()
            .copied()
            .filter(|&t| !g.cur_sleep.contains(&(t as usize)))
            .collect();
        if filtered.is_empty() {
            // Every candidate sleeps: this subtree is covered elsewhere.
            g.pruned = true;
            g.taken.push(options[0]);
            return options[0];
        }
        (filtered, g.cur_sleep.clone())
    } else {
        (options, Vec::new())
    };
    let v = opts[0];
    g.stack.push(Node {
        options: opts,
        idx: 0,
        sleep,
        is_thread,
    });
    g.taken.push(v);
    v
}

fn encode_seed(bound: u32, taken: &[u64]) -> String {
    let mut s = format!("pb{bound}");
    for v in taken {
        s.push('-');
        s.push_str(&v.to_string());
    }
    s
}

fn parse_seed(seed: &str) -> Option<(u32, Vec<u64>)> {
    let rest = seed.strip_prefix("pb")?;
    let mut parts = rest.split('-');
    let bound: u32 = parts.next()?.parse().ok()?;
    let mut plan = Vec::new();
    for p in parts {
        plan.push(p.parse().ok()?);
    }
    Some((bound, plan))
}

// ---------------------------------------------------------------------------
// Execution: scheduler + modeled operations
// ---------------------------------------------------------------------------

pub(crate) struct Execution {
    mx: Mutex<ExecState>,
    cv: Condvar,
    reals: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Execution {
    fn new(bound: u32) -> Self {
        Execution {
            mx: Mutex::new(ExecState {
                threads: Vec::new(),
                active: 0,
                last_active: 0,
                preemptions: 0,
                atomics: HashMap::new(),
                locks: HashMap::new(),
                depth: 0,
                taken: Vec::new(),
                cur_sleep: Vec::new(),
                pruned: false,
                poisoned: false,
                done: false,
                failure: None,
                steps: 0,
                locked: 0,
                stack: Vec::new(),
                replay: None,
                bound,
            }),
            cv: Condvar::new(),
            reals: Mutex::new(Vec::new()),
        }
    }

    fn reset(&self, replay: Option<Vec<u64>>) {
        let mut g = self.mx.lock();
        let mut vc = VClock::new();
        vc.inc(0);
        g.threads = vec![ThreadSt {
            run: Run::Runnable,
            pending: None,
            vc,
        }];
        g.active = 0;
        g.last_active = 0;
        g.preemptions = 0;
        g.atomics.clear();
        g.locks.clear();
        g.depth = 0;
        g.taken.clear();
        g.cur_sleep.clear();
        g.pruned = false;
        g.poisoned = false;
        g.done = false;
        g.failure = None;
        g.steps = 0;
        g.locked = 0;
        g.replay = replay;
    }

    fn op_enabled(g: &ExecState, t: usize) -> bool {
        match &g.threads[t].pending {
            Some(Op::LockAcquire { obj, shared }) => match g.locks.get(obj) {
                None => true,
                Some(l) => l.writer.is_none() && (*shared || l.readers.is_empty()),
            },
            Some(Op::Join { target }) => g.threads[*target].run == Run::Finished,
            Some(_) => true,
            // `None` + Runnable is the token holder itself; never a grant
            // candidate from a schedule call.
            None => false,
        }
    }

    fn fail(&self, g: &mut ExecState, msg: String) {
        if g.failure.is_none() {
            g.failure = Some(Failure {
                message: msg,
                seed: encode_seed(g.bound, &g.taken),
            });
        }
        g.poisoned = true;
    }

    /// Pick and grant the next thread. Called with the caller parked (its
    /// `pending` set) or finished.
    fn schedule(&self, g: &mut ExecState) {
        if g.threads.iter().all(|t| t.run == Run::Finished) {
            g.done = true;
            return;
        }
        if g.done || g.poisoned {
            return;
        }
        let enabled: Vec<usize> = (0..g.threads.len())
            .filter(|&t| g.threads[t].run == Run::Runnable && Self::op_enabled(g, t))
            .collect();
        if enabled.is_empty() {
            self.fail(g, "deadlock: every live thread is blocked".to_string());
            return;
        }
        let choice = if enabled.len() == 1 {
            enabled[0]
        } else if g.preemptions >= g.bound && enabled.contains(&g.last_active) {
            // Preemption budget spent: the previous holder keeps the token.
            g.last_active
        } else {
            decide(g, true, enabled.iter().map(|&t| t as u64).collect()) as usize
        };
        let op = g.threads[choice].pending.clone().unwrap_or(Op::Yield);
        let mut sleep = std::mem::take(&mut g.cur_sleep);
        sleep.retain(|&s| {
            s != choice
                && s < g.threads.len()
                && !dependent(g.threads[s].pending.as_ref().unwrap_or(&Op::Yield), &op)
        });
        g.cur_sleep = sleep;
        if choice != g.last_active && enabled.contains(&g.last_active) {
            g.preemptions += 1;
        }
        g.last_active = choice;
        g.active = choice;
    }

    /// Core announce-park-perform protocol for every instrumented op.
    fn announce_and<R>(
        &self,
        me: usize,
        op: Op,
        perform: impl FnOnce(&mut ExecState, usize) -> R,
    ) -> R {
        let mut g = self.mx.lock();
        if g.poisoned {
            drop(g);
            abort_execution();
        }
        let locked = op.is_locked();
        g.threads[me].pending = Some(op);
        self.schedule(&mut g);
        if g.active != me || g.poisoned || g.done {
            self.cv.notify_all();
        }
        while g.active != me {
            if g.poisoned {
                drop(g);
                abort_execution();
            }
            self.cv.wait(&mut g);
        }
        if g.poisoned {
            drop(g);
            abort_execution();
        }
        g.steps += 1;
        g.locked += u64::from(locked);
        if g.steps > STEP_LIMIT {
            self.fail(
                &mut g,
                "step limit exceeded: possible livelock in modeled code".to_string(),
            );
            self.cv.notify_all();
            drop(g);
            abort_execution();
        }
        let r = perform(&mut g, me);
        g.threads[me].pending = None;
        r
    }

    /// Thread wrap-up: mark finished, record a real panic as a failure,
    /// hand the token onward.
    fn finish(&self, me: usize, failure: Option<String>) {
        let mut g = self.mx.lock();
        g.threads[me].run = Run::Finished;
        g.threads[me].pending = None;
        if let Some(msg) = failure {
            self.fail(&mut g, msg);
        }
        self.schedule(&mut g);
        self.cv.notify_all();
    }

    // -- atomics ----------------------------------------------------------

    pub(crate) fn atomic_load(&self, me: usize, id: u64, ord: Ordering, init: u64) -> u64 {
        self.announce_and(me, Op::AtomicLoad { obj: id }, |g, me| {
            g.threads[me].vc.inc(me);
            let vc = g.threads[me].vc.clone();
            let obj = g.atomics.entry(id).or_insert_with(|| AtomicObj::new(init));
            let floor = obj.floor_for(me, &vc);
            let hi = obj.stores.len() - 1;
            let options: Vec<u64> = (floor..=hi).map(|i| i as u64).collect();
            let chosen = if options.len() == 1 {
                options[0] as usize
            } else {
                decide(g, false, options) as usize
            };
            let obj = g.atomics.get_mut(&id).expect("object present");
            obj.note_read(me, chosen);
            let st = &obj.stores[chosen];
            let val = st.value;
            let rel = st.rel_vc.clone();
            if is_acquire(ord) {
                if let Some(r) = rel {
                    g.threads[me].vc.join(&r);
                }
            }
            val
        })
    }

    pub(crate) fn atomic_store(
        &self,
        me: usize,
        id: u64,
        ord: Ordering,
        init: u64,
        new: u64,
        write_real: impl FnOnce(u64),
    ) {
        self.announce_and(me, Op::AtomicStore { obj: id }, |g, me| {
            g.threads[me].vc.inc(me);
            let vc = g.threads[me].vc.clone();
            let obj = g.atomics.entry(id).or_insert_with(|| AtomicObj::new(init));
            let rel_vc = is_release(ord).then(|| vc.clone());
            obj.stores.push(StoreEv {
                value: new,
                store_vc: vc,
                rel_vc,
            });
            let idx = obj.stores.len() - 1;
            obj.note_read(me, idx);
            write_real(new);
        })
    }

    /// Unconditional RMW (swap / fetch_*). Reads the newest store
    /// (RMW atomicity), continues release sequences.
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        id: u64,
        ord: Ordering,
        init: u64,
        f: impl FnOnce(u64) -> u64,
        write_real: impl FnOnce(u64),
    ) -> u64 {
        self.announce_and(me, Op::AtomicRmw { obj: id }, |g, me| {
            g.threads[me].vc.inc(me);
            let obj = g.atomics.entry(id).or_insert_with(|| AtomicObj::new(init));
            let last = obj.stores.len() - 1;
            let old = obj.stores[last].value;
            let prev_rel = obj.stores[last].rel_vc.clone();
            if is_acquire(ord) {
                if let Some(r) = &prev_rel {
                    g.threads[me].vc.join(r);
                }
            }
            let new = f(old);
            let vc = g.threads[me].vc.clone();
            let rel_vc = if is_release(ord) {
                Some(vc.clone())
            } else {
                prev_rel
            };
            let obj = g.atomics.get_mut(&id).expect("object present");
            obj.stores.push(StoreEv {
                value: new,
                store_vc: vc,
                rel_vc,
            });
            let idx = obj.stores.len() - 1;
            obj.note_read(me, idx);
            write_real(new);
            old
        })
    }

    /// Compare-exchange against the newest store.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        id: u64,
        success: Ordering,
        failure: Ordering,
        init: u64,
        expected: u64,
        new: u64,
        write_real: impl FnOnce(u64),
    ) -> Result<u64, u64> {
        self.announce_and(me, Op::AtomicRmw { obj: id }, |g, me| {
            g.threads[me].vc.inc(me);
            let obj = g.atomics.entry(id).or_insert_with(|| AtomicObj::new(init));
            let last = obj.stores.len() - 1;
            let old = obj.stores[last].value;
            let prev_rel = obj.stores[last].rel_vc.clone();
            if old != expected {
                if is_acquire(failure) {
                    if let Some(r) = &prev_rel {
                        g.threads[me].vc.join(r);
                    }
                }
                let obj = g.atomics.get_mut(&id).expect("object present");
                obj.note_read(me, last);
                return Err(old);
            }
            if is_acquire(success) {
                if let Some(r) = &prev_rel {
                    g.threads[me].vc.join(r);
                }
            }
            let vc = g.threads[me].vc.clone();
            let rel_vc = if is_release(success) {
                Some(vc.clone())
            } else {
                prev_rel
            };
            let obj = g.atomics.get_mut(&id).expect("object present");
            obj.stores.push(StoreEv {
                value: new,
                store_vc: vc,
                rel_vc,
            });
            let idx = obj.stores.len() - 1;
            obj.note_read(me, idx);
            write_real(new);
            Ok(old)
        })
    }

    // -- locks ------------------------------------------------------------

    pub(crate) fn lock_acquire(&self, me: usize, id: u64, shared: bool) {
        self.announce_and(me, Op::LockAcquire { obj: id, shared }, |g, me| {
            g.threads[me].vc.inc(me);
            let lock = g.locks.entry(id).or_default();
            if shared {
                lock.readers.push(me);
            } else {
                debug_assert!(lock.writer.is_none() && lock.readers.is_empty());
                lock.writer = Some(me);
            }
            let lvc = lock.vc.clone();
            g.threads[me].vc.join(&lvc);
        })
    }

    pub(crate) fn try_lock_acquire(&self, me: usize, id: u64, shared: bool) -> bool {
        self.announce_and(me, Op::TryLock { obj: id, shared }, |g, me| {
            g.threads[me].vc.inc(me);
            let lock = g.locks.entry(id).or_default();
            let free = lock.writer.is_none() && (shared || lock.readers.is_empty());
            if free {
                if shared {
                    lock.readers.push(me);
                } else {
                    lock.writer = Some(me);
                }
                let lvc = lock.vc.clone();
                g.threads[me].vc.join(&lvc);
            }
            free
        })
    }

    /// Lock release never panics: it runs from guard `Drop`, possibly
    /// during a user-panic unwind, where a second panic would abort the
    /// process. On poison it silently skips the model release (the
    /// execution is being torn down anyway).
    pub(crate) fn lock_release(&self, me: usize, id: u64, shared: bool) {
        let mut g = self.mx.lock();
        if g.poisoned || g.done || g.threads[me].run == Run::Finished {
            return;
        }
        g.threads[me].pending = Some(Op::LockRelease { obj: id });
        self.schedule(&mut g);
        if g.active != me || g.poisoned || g.done {
            self.cv.notify_all();
        }
        while g.active != me {
            if g.poisoned {
                return;
            }
            self.cv.wait(&mut g);
        }
        if g.poisoned {
            return;
        }
        g.steps += 1;
        g.locked += 1;
        g.threads[me].vc.inc(me);
        let vc = g.threads[me].vc.clone();
        if let Some(lock) = g.locks.get_mut(&id) {
            if shared {
                lock.readers.retain(|&r| r != me);
            } else {
                lock.writer = None;
            }
            lock.vc.join(&vc);
        }
        g.threads[me].pending = None;
    }

    // -- threads ----------------------------------------------------------

    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        self.announce_and(me, Op::Join { target }, |g, me| {
            let tvc = g.threads[target].vc.clone();
            g.threads[me].vc.join(&tvc);
            g.threads[me].vc.inc(me);
        })
    }

    pub(crate) fn yield_now(&self, me: usize) {
        self.announce_and(me, Op::Yield, |_, _| {});
    }
}

/// Spawn a controlled thread; returns its model tid. The spawn itself is a
/// schedule point so the child may run before the parent's next op.
pub(crate) fn model_spawn(
    exec: &Arc<Execution>,
    parent: usize,
    f: Box<dyn FnOnce() + Send>,
) -> usize {
    let child = {
        let mut g = exec.mx.lock();
        let child = g.threads.len();
        let mut vc = g.threads[parent].vc.clone();
        vc.inc(child);
        g.threads.push(ThreadSt {
            run: Run::Runnable,
            pending: Some(Op::Start),
            vc,
        });
        child
    };
    let e2 = exec.clone();
    let handle = std::thread::Builder::new()
        .name(format!("spin-check-{child}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    exec: e2.clone(),
                    tid: child,
                })
            });
            // Gate: wait for the first grant before touching user code.
            {
                let mut g = e2.mx.lock();
                while g.active != child {
                    if g.poisoned {
                        drop(g);
                        e2.finish(child, None);
                        return;
                    }
                    e2.cv.wait(&mut g);
                }
                if g.poisoned {
                    drop(g);
                    e2.finish(child, None);
                    return;
                }
                g.steps += 1;
                g.threads[child].pending = None;
            }
            match panic::catch_unwind(AssertUnwindSafe(f)) {
                Ok(()) => e2.finish(child, None),
                Err(p) if p.downcast_ref::<AbortExecution>().is_some() => e2.finish(child, None),
                Err(p) => e2.finish(child, Some(panic_message(p.as_ref()))),
            }
        })
        .expect("spawn controlled thread");
    exec.reals.lock().push(handle);
    exec.yield_now(parent);
    child
}

// ---------------------------------------------------------------------------
// Checker driver
// ---------------------------------------------------------------------------

/// Exploration configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Context-switch budget per execution (Musuvathi/Qadeer bounding).
    pub preemption_bound: u32,
    /// Hard cap on explored executions (`complete` is false if hit).
    pub max_executions: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: 2,
            max_executions: 1_000_000,
        }
    }
}

/// Result of an exploration or replay.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Interleavings actually executed.
    pub executions: u64,
    /// True when the bounded schedule space was exhausted (or the replay
    /// ran) without hitting `max_executions`.
    pub complete: bool,
    /// First failure found, with its replay seed.
    pub failure: Option<Failure>,
    /// Deepest decision stack seen.
    pub max_depth: usize,
    /// Total instrumented operations executed across all interleavings.
    pub steps: u64,
    /// Of `steps`, the locked ones: read-modify-writes and lock
    /// acquisitions, tries and releases.
    pub locked: u64,
}

/// Bounded-DFS model checker entry point.
#[derive(Clone, Debug, Default)]
pub struct Checker {
    config: Config,
}

impl Checker {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_bound(preemption_bound: u32) -> Self {
        Checker {
            config: Config {
                preemption_bound,
                ..Config::default()
            },
        }
    }

    pub fn max_executions(mut self, n: u64) -> Self {
        self.config.max_executions = n;
        self
    }

    /// Explore the bounded schedule space of `f`. Every execution runs `f`
    /// from scratch on a fresh root thread; `f` builds its own structures
    /// and spawns workers via [`crate::thread::spawn`].
    pub fn check(&self, f: impl Fn() + Send + Sync + 'static) -> Report {
        self.run(Arc::new(f), None)
    }

    /// Re-run the single interleaving a failure seed describes.
    pub fn replay(&self, seed: &str, f: impl Fn() + Send + Sync + 'static) -> Report {
        let (bound, plan) = parse_seed(seed).expect("malformed spin-check seed");
        let checker = Checker {
            config: Config {
                preemption_bound: bound,
                ..self.config.clone()
            },
        };
        checker.run(Arc::new(f), Some(plan))
    }

    fn run(&self, f: Arc<dyn Fn() + Send + Sync>, replay: Option<Vec<u64>>) -> Report {
        let _serial = MODEL_GATE.lock();
        let prev_hook = panic::take_hook();
        // Failing and aborted executions unwind by design; keep the
        // default hook from spraying backtraces for every explored branch.
        panic::set_hook(Box::new(|_| {}));
        let exec = Arc::new(Execution::new(self.config.preemption_bound));
        let replaying = replay.is_some();
        let mut report = Report::default();
        loop {
            exec.reset(replay.clone());
            let e2 = exec.clone();
            let f2 = f.clone();
            let root = std::thread::Builder::new()
                .name("spin-check-0".to_string())
                .spawn(move || {
                    CTX.with(|c| {
                        *c.borrow_mut() = Some(Ctx {
                            exec: e2.clone(),
                            tid: 0,
                        })
                    });
                    match panic::catch_unwind(AssertUnwindSafe(|| f2())) {
                        Ok(()) => e2.finish(0, None),
                        Err(p) if p.downcast_ref::<AbortExecution>().is_some() => {
                            e2.finish(0, None)
                        }
                        Err(p) => e2.finish(0, Some(panic_message(p.as_ref()))),
                    }
                })
                .expect("spawn root thread");
            exec.reals.lock().push(root);
            {
                let mut g = exec.mx.lock();
                while !g.done {
                    exec.cv.wait(&mut g);
                }
            }
            for h in exec.reals.lock().drain(..) {
                let _ = h.join();
            }
            report.executions += 1;
            let mut g = exec.mx.lock();
            report.steps += g.steps;
            report.locked += g.locked;
            report.max_depth = report.max_depth.max(g.taken.len());
            if let Some(fl) = g.failure.clone() {
                report.failure = Some(fl);
                // A replay terminates the search whatever the outcome.
                report.complete = replaying;
                break;
            }
            if replaying {
                report.complete = true;
                break;
            }
            if !advance(&mut g.stack) {
                report.complete = true;
                break;
            }
            if report.executions >= self.config.max_executions {
                break;
            }
        }
        panic::set_hook(prev_hook);
        report
    }
}

fn advance(stack: &mut Vec<Node>) -> bool {
    while let Some(n) = stack.last_mut() {
        n.idx += 1;
        if n.idx < n.options.len() {
            return true;
        }
        stack.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AtomicBool, AtomicU64, Mutex, OnceLock};
    use crate::thread;
    use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};

    #[test]
    fn message_passing_release_acquire_passes() {
        let report = Checker::new().check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(42, Relaxed);
                f2.store(true, Release);
            });
            if flag.load(Acquire) {
                assert_eq!(data.load(Relaxed), 42, "acquire must see the payload");
            }
            t.join().unwrap();
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
        assert!(report.executions > 1, "must actually branch");
    }

    #[test]
    fn relaxed_publish_is_caught_and_replays() {
        let scenario = || {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d2, f2) = (data.clone(), flag.clone());
            let t = thread::spawn(move || {
                d2.store(42, Relaxed);
                // Bug under test: the publish is relaxed, so the payload
                // write is not ordered before the flag.
                f2.store(true, Relaxed);
            });
            if flag.load(Acquire) {
                assert_eq!(data.load(Relaxed), 42, "stale payload observed");
            }
            t.join().unwrap();
        };
        let report = Checker::new().check(scenario);
        let failure = report.failure.expect("relaxed publish must be caught");
        assert!(failure.message.contains("stale payload"), "{failure:?}");
        assert!(!failure.seed.is_empty());
        let replay = Checker::new().replay(&failure.seed, scenario);
        let refail = replay.failure.expect("seed must reproduce the failure");
        assert_eq!(refail.message, failure.message);
        assert_eq!(replay.executions, 1, "replay runs exactly one schedule");
    }

    #[test]
    fn store_buffering_weak_outcome_is_explored() {
        // Under acquire/release (no SeqCst) both loads may see zero; a
        // checker that only interleaved sequentially would never find it.
        let report = Checker::new().check(|| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x2, y2) = (x.clone(), y.clone());
            let t = thread::spawn(move || {
                x2.store(1, Release);
                y2.load(Acquire)
            });
            y.store(1, Release);
            let r2 = x.load(Acquire);
            let r1 = t.join().unwrap();
            assert!(!(r1 == 0 && r2 == 0), "store buffering observed");
        });
        let failure = report.failure.expect("SB outcome must be reachable");
        assert!(failure.message.contains("store buffering"));
    }

    #[test]
    fn lost_update_without_lock_is_caught() {
        let report = Checker::new().check(|| {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = n.clone();
            let t = thread::spawn(move || {
                let v = n2.load(Relaxed);
                n2.store(v + 1, Relaxed);
            });
            let v = n.load(Relaxed);
            n.store(v + 1, Relaxed);
            t.join().unwrap();
            assert_eq!(n.load(Relaxed), 2, "lost update");
        });
        assert!(
            report.failure.is_some(),
            "load/store race must lose updates"
        );
    }

    #[test]
    fn mutex_protected_counter_passes() {
        let report = Checker::new().check(|| {
            let n = Arc::new(Mutex::new(0u64));
            let n2 = n.clone();
            let t = thread::spawn(move || {
                *n2.lock() += 1;
            });
            *n.lock() += 1;
            t.join().unwrap();
            assert_eq!(*n.lock(), 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
    }

    #[test]
    fn ab_ba_deadlock_is_detected() {
        let report = Checker::new().check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_ga, _gb));
            t.join().unwrap();
        });
        let failure = report.failure.expect("AB/BA must deadlock somewhere");
        assert!(failure.message.contains("deadlock"), "{failure:?}");
    }

    #[test]
    fn oncelock_races_settle_to_one_writer() {
        let report = Checker::new().check(|| {
            let cell = Arc::new(OnceLock::new());
            let c2 = cell.clone();
            let t = thread::spawn(move || c2.set(1u32).is_ok());
            let mine = cell.set(2u32).is_ok();
            let theirs = t.join().unwrap();
            assert!(mine ^ theirs, "exactly one set wins");
            let v = *cell.get().expect("someone won");
            assert!(v == 1 || v == 2);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
    }

    #[test]
    fn preemption_bound_prunes_the_space() {
        let scenario = || {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x2, y2) = (x.clone(), y.clone());
            let t = thread::spawn(move || {
                x2.store(1, Release);
                y2.load(Acquire)
            });
            y.store(1, Release);
            x.load(Acquire);
            t.join().unwrap();
        };
        let loose = Checker::with_bound(3).check(scenario);
        let tight = Checker::with_bound(0).check(scenario);
        assert!(loose.complete && tight.complete);
        assert!(
            tight.executions < loose.executions,
            "bound 0 ({}) must explore fewer schedules than bound 3 ({})",
            tight.executions,
            loose.executions
        );
    }

    #[test]
    fn rwlock_readers_share_writers_exclude() {
        let report = Checker::new().check(|| {
            let l = Arc::new(crate::instr::RwLock::new(0u64));
            let l2 = l.clone();
            let t = thread::spawn(move || {
                *l2.write() += 1;
            });
            let seen = *l.read();
            assert!(seen == 0 || seen == 1);
            t.join().unwrap();
            assert_eq!(*l.read(), 1);
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.complete);
    }

    #[test]
    fn seed_roundtrip() {
        let s = encode_seed(2, &[3, 0, 7]);
        assert_eq!(s, "pb2-3-0-7");
        assert_eq!(parse_seed(&s), Some((2, vec![3, 0, 7])));
        assert_eq!(parse_seed("pb4"), Some((4, vec![])));
        assert_eq!(parse_seed("nope"), None);
    }
}
