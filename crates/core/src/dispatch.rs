//! The central event dispatcher — SPIN's dynamic call binding.
//!
//! "An extension installs a handler on an event by explicitly registering
//! the handler with the event through a central dispatcher that routes
//! events to handlers" (§3.2). The reproduction keeps every behaviour the
//! paper describes:
//!
//! * **procedure = event**: an [`Event`] is a typed value that can be
//!   exported through an interface like any procedure; holding it is the
//!   right to raise it;
//! * **primary implementation module**: [`EventOwner`] is held by the
//!   module that statically exports the procedure; installs by others are
//!   authorized by the owner, which "can deny or allow the installation"
//!   and "can provide a guard to be associated with the handler";
//! * **guards**: predicates evaluated before handler invocation, stackable
//!   by the handler's installer, enabling per-instance dispatch (e.g. the
//!   IP module guards each handler on the packet's protocol type);
//! * **constraints**: synchronous/asynchronous execution and a bounded time
//!   quantum, "each ... reflects a different degree of trust";
//! * **result reduction**: "a single result can be communicated back to the
//!   raiser by associating with each event a procedure that ultimately
//!   determines the final result. By default, the dispatcher mimics
//!   procedure call semantics ... and returns the result of the final
//!   handler executed";
//! * **the fast path**: "the dispatcher exploits this similarity to
//!   optimize event raise as a direct procedure call where there is only
//!   one handler for a given event" — reproduced both structurally (the
//!   guard loop is skipped) and in the cost model (a raise with a single
//!   unguarded synchronous handler charges one inter-module call, 0.13 µs).
//!
//! # One raise path
//!
//! Raising is the hot path of the whole reproduction — every packet in the
//! §5.3 protocol graph, every VM fault and every scheduler transition goes
//! through it — so there is exactly one way through it, as close to a
//! direct procedure call as the language allows. [`Dispatcher::raise`] is
//! one item and [`Dispatcher::raise_batch`] a loop of items over the same
//! code:
//!
//! 1. **One prologue per call** (`Raise::enter`). The [`Event`] handle
//!    holds the event state — no global table, no lock, no refcount. The
//!    call counts itself in flight and takes **one snapshot** of the
//!    event's published record (`Published`, below) — one refcount
//!    increment under a read lock, never a deep copy, and raisers never
//!    block other raisers — and loads the obs/fault hooks.
//! 2. **One step per item** (`Raise::item`): answer a tombstone with
//!    [`DispatchError::UnknownEvent`], park behind a closed gate, pass
//!    admission control, count, trace, dispatch, release the admission. A
//!    burst amortizes the prologue and settles its raises in one increment
//!    of one counter; every item charges exactly the virtual time a lone
//!    raise would.
//! 3. **One dispatch** (`Raise::dispatch`): the paper's direct call when
//!    the plan holds a single synchronous unguarded unbounded handler and
//!    no reducer (precomputed at plan build), otherwise one walk over the
//!    compiled plan (below). The walk stays off the heap: handlers borrow
//!    the arguments unless an asynchronous one must outlive the raise, the
//!    default reduction keeps one result, and the selected entries sit in
//!    a small inline buffer.
//! 4. **One contained call** (`Raise::contained`): every synchronous
//!    handler, fast path included, runs in the same unwind-isolated
//!    region with the same fault-site draw.
//!
//! # One published record
//!
//! Everything a raise must know about its event is one value, `Published`,
//! behind one `RwLock`: whether the event is live or a tombstone, whether
//! the quiesce gate is closed, the plan generation, and the immutable
//! `Arc`'d `RaisePlan` — handlers, guards, reducer, compiled tables and
//! the bound [`QuotaCell`]. Each writer publishes under the write lock and
//! each raise reads it exactly once, so no raise can combine one moment's
//! gate with another moment's plan: there is no seam between independently
//! published facts to reason about.
//!
//! The write side is as single: install, uninstall, rebind, restore,
//! purge and reducer each hand `EventState::edit` a change to the handler
//! list; it rebuilds the plan and publishes it with the generation bumped
//! by one. An installed entry is immutable but for its sticky fault flag,
//! so the write side and every plan share it by `Arc`: a rebuild copies
//! one pointer per handler and re-derives only the compiled tables, and
//! the plan it replaces is dropped after the locks are released, never
//! under them. `quiesce`, `resume` and `bind_quota` publish their one field
//! and leave the generation alone (it versions the handler set), and
//! `destroy` is one publish of the tombstone — and, because every handle
//! holds the event state, the moment the state gives up what it owns
//! (handlers, reducer, authorizer, quota binding, parked raises). Locks
//! nest write side → record and hold queue → record, never the other way.
//! [`EventStats`] counters are atomics, settled once per raise, and a
//! counter that would move by zero is not touched.
//!
//! The virtual-time cost model is charged independently of all of this
//! (see DESIGN.md: "cost-model charges are independent of the real-time
//! optimisation") — the machinery buys real nanoseconds, not simulated
//! microseconds.
//!
//! # Guard-set compilation
//!
//! The paper's dispatcher *interprets* guards: a raise walks every
//! installed handler and calls each opaque guard closure in turn, so
//! per-raise cost grows linearly with installed guards (§5.5). Production
//! in-kernel event systems (eBPF, Rex) compile predicates instead.
//! [`GuardSpec`] introduces *structured* guards — [`GuardSpec::KeyEq`] and
//! [`GuardSpec::KeyRange`] over a shared [`KeyFn`]
//! key extractor (e.g. a packet's destination port), with
//! [`GuardSpec::Opaque`] as the catch-all — and every plan build
//! partitions the handlers:
//!
//! * entries whose **first** guard is key-matchable go into a per-`KeyFn`
//!   dispatch table (hash map for `KeyEq`, a short list for
//!   `KeyRange`); a raise extracts the key once and selects the matching
//!   subset with one lookup;
//! * everything else (unguarded entries, opaque-guarded entries) stays on
//!   a sequential *scan list*.
//!
//! The walk visits the selected entries and the scan list in install
//! order. A plan with nothing key-matchable has no tables and a scan list
//! holding every entry, so the paper's sequential walk is this same walk's
//! degenerate case, not a second one.
//!
//! The cost model is untouched by compilation: `guard_eval` is charged per
//! **logically evaluated** guard — a key-indexed entry whose key does not
//! match still charges one `guard_eval` (its failing key guard), exactly
//! as a sequential walk would, and in the same per-entry order, so every
//! virtual-time output is byte-identical whether guards are structured or
//! opaque. Consecutive misses are charged as one batched `Clock::advance`
//! only when nobody can observe the difference (no clock advance hooks, no
//! obs tracing); otherwise the charges are replayed one by one.
//!
//! # Fault containment
//!
//! Language safety is not liveness: a type-safe handler can still panic.
//! Every handler invocation runs unwind-isolated behind `catch_unwind`; a
//! panic becomes a typed [`HandlerFault`](crate::fault::HandlerFault)
//! delivered to the dispatcher's fault sink (see
//! [`crate::fault::Containment`]), the faulted result is skipped, sibling
//! handlers still run, and the handler is demoted off the direct-call fast
//! path for good (its entry carries a sticky fault flag consulted at
//! plan-build time). Time-bound aborts are reported through the same sink.
//! None of this charges virtual time.

use crate::error::DispatchError;
use crate::fault::{panic_message, DeadlineExceeded, FaultKind, FaultSink, HandlerFault};
use crate::identity::Identity;
use crate::quota::QuotaCell;
use spin_check::sync::Arc;
use spin_check::sync::{AtomicBool, AtomicU64, Ordering};
use spin_check::sync::{Mutex, RwLock};
use spin_fault::{FaultHook, Injection};
use spin_obs::{ObsHook, TraceKind};
use spin_sal::{Clock, HostId, MachineProfile, Nanos};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A handler procedure for an event with arguments `A` and result `R`.
pub type Handler<A, R> = Arc<dyn Fn(&A) -> R + Send + Sync>;

/// A guard predicate over the event arguments.
pub type Guard<A> = Arc<dyn Fn(&A) -> bool + Send + Sync>;

/// Global identity allocator for [`KeyFn`]s.
static NEXT_KEYFN: AtomicU64 = AtomicU64::new(1);

/// A key-extraction function with identity.
///
/// Guards built from the *same* `KeyFn` value (clones included) are
/// recognized by the plan compiler as indexable over one key space and
/// collapse into a single dispatch-table lookup per raise. Two `KeyFn`s
/// built from textually identical closures are still distinct keys — share
/// the value, not the code.
pub struct KeyFn<A> {
    id: u64,
    f: Arc<dyn Fn(&A) -> u64 + Send + Sync>,
}

impl<A> Clone for KeyFn<A> {
    fn clone(&self) -> Self {
        KeyFn {
            id: self.id,
            f: self.f.clone(),
        }
    }
}

impl<A> std::fmt::Debug for KeyFn<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyFn#{}", self.id)
    }
}

impl<A> KeyFn<A> {
    /// Wraps a key extractor, allocating a fresh identity.
    // uncharged: constructor; key extraction runs inside the already-charged raise path.
    pub fn new(f: impl Fn(&A) -> u64 + Send + Sync + 'static) -> KeyFn<A> {
        KeyFn {
            id: NEXT_KEYFN.fetch_add(1, Ordering::Relaxed), // ordering: Relaxed — allocates a unique id; the value carrying it is published separately.
            f: Arc::new(f),
        }
    }

    /// Extracts the key from an argument value.
    // uncharged: runs inside the raise path, whose per-handler charge covers key/guard evaluation.
    pub fn extract(&self, args: &A) -> u64 {
        (self.f)(args)
    }
}

/// A structured guard: what the plan compiler can see through.
///
/// One `GuardSpec` is one *logical* guard — it charges exactly one
/// `guard_eval` when (logically) evaluated, whether the evaluation was a
/// closure call, a hash lookup, or a skipped entry the lookup ruled out.
pub enum GuardSpec<A> {
    /// Passes iff the extracted key equals the value.
    KeyEq(KeyFn<A>, u64),
    /// Passes iff `lo <= key <= hi` (inclusive).
    KeyRange(KeyFn<A>, u64, u64),
    /// An arbitrary predicate; never indexed.
    Opaque(Guard<A>),
}

impl<A> Clone for GuardSpec<A> {
    fn clone(&self) -> Self {
        match self {
            GuardSpec::KeyEq(f, v) => GuardSpec::KeyEq(f.clone(), *v),
            GuardSpec::KeyRange(f, lo, hi) => GuardSpec::KeyRange(f.clone(), *lo, *hi),
            GuardSpec::Opaque(g) => GuardSpec::Opaque(g.clone()),
        }
    }
}

impl<A> GuardSpec<A> {
    /// Evaluates the guard directly (the sequential / residual path).
    fn eval(&self, args: &A) -> bool {
        match self {
            GuardSpec::Opaque(g) => g(args),
            GuardSpec::KeyEq(f, v) => f.extract(args) == *v,
            GuardSpec::KeyRange(f, lo, hi) => {
                let k = f.extract(args);
                *lo <= k && k <= *hi
            }
        }
    }

    /// The key function, when this guard is indexable.
    fn key_fn(&self) -> Option<&KeyFn<A>> {
        match self {
            GuardSpec::KeyEq(f, _) | GuardSpec::KeyRange(f, _, _) => Some(f),
            GuardSpec::Opaque(_) => None,
        }
    }
}

/// Combines the results of all executed synchronous handlers.
pub type Reducer<R> = Arc<dyn Fn(Vec<R>) -> R + Send + Sync>;

/// One asynchronous handler invocation, handed to the [`AsyncRunner`].
pub struct AsyncInvocation {
    /// The contained handler body: runs the handler, catches panics and
    /// settles fault/abort accounting. The runner just calls it.
    pub run: Box<dyn FnOnce() + Send>,
    /// The handler's `time_bound`, if any. A runner that can preempt (the
    /// scheduler's) should abort the invocation once this much virtual
    /// time has passed; the abort is classified and counted by `run`
    /// itself when the unwind carries a [`DeadlineExceeded`] payload.
    pub time_bound: Option<Nanos>,
}

/// Runs asynchronous handler invocations (injected by the scheduler so this
/// crate does not depend on it; the default runs inline).
pub type AsyncRunner = Arc<dyn Fn(AsyncInvocation) + Send + Sync>;

/// How and under what trust a handler executes (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraints {
    /// Synchronous handlers run on the raiser's thread and contribute
    /// results; asynchronous ones are isolated from the raiser.
    pub mode: HandlerMode,
    /// If set, a synchronous handler exceeding this budget is aborted: its
    /// result is discarded and the abort is counted.
    pub time_bound: Option<Nanos>,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            mode: HandlerMode::Synchronous,
            time_bound: None,
        }
    }
}

/// Execution mode for a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerMode {
    Synchronous,
    Asynchronous,
}

/// Identifier of an installed handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(u64);

/// A request to install a handler, shown to the event owner's authorizer.
pub struct InstallRequest {
    pub event: String,
    pub installer: Identity,
}

/// The owner's decision about an installation.
pub enum InstallDecision<A: ?Sized> {
    /// Refuse the installation.
    Deny,
    /// Accept, optionally imposing an owner guard and constraints.
    Allow {
        owner_guard: Option<Guard<A>>,
        constraints: Option<Constraints>,
    },
}

impl<A> InstallDecision<A> {
    /// Plain acceptance with defaults.
    // uncharged: pure value constructor (authorizer protocol data).
    pub fn allow() -> Self {
        InstallDecision::Allow {
            owner_guard: None,
            constraints: None,
        }
    }
}

type AuthFn<A> = Arc<dyn Fn(&InstallRequest) -> InstallDecision<A> + Send + Sync>;

/// One installed handler: immutable once installed, except for its fault
/// flag, which is what lets every holder share one `Arc` of it.
struct Entry<A, R> {
    id: HandlerId,
    handler: Handler<A, R>,
    guards: Vec<GuardSpec<A>>,
    constraints: Constraints,
    installer: Identity,
    is_primary: bool,
    /// Sticky "has ever panicked" flag. Every plan holds this same entry,
    /// so a fault observed mid-raise is seen by the next plan build and
    /// demotes the handler off the fast path.
    fault_flag: AtomicBool,
}

/// Per-event dispatch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    pub raises: u64,
    pub fast_path_raises: u64,
    pub guard_evaluations: u64,
    pub handlers_run: u64,
    pub handlers_aborted: u64,
    pub async_dispatches: u64,
    /// Handler invocations that panicked and were contained (sync and
    /// async). Aborts for exceeding `time_bound` are counted separately
    /// in `handlers_aborted`.
    pub handler_faults: u64,
    /// Slow-path raises served by a compiled (key-indexed) plan.
    pub compiled_raises: u64,
    /// Guard closure calls the compiled plan avoided: logically-evaluated
    /// key guards resolved by the dispatch-table lookup instead of a
    /// predicate call. Always `<= guard_evaluations`.
    pub guards_elided: u64,
    /// Raises delivered through [`Dispatcher::raise_batch`] (a subset of
    /// `raises`).
    pub batched_raises: u64,
}

/// Lock-free counters backing [`EventStats`].
#[derive(Default)]
struct AtomicEventStats {
    /// Raises that took the walk. A call settles its raises into this or
    /// into `fast_path_raises` — one counter, by its plan's `fast` flag —
    /// and [`EventStats::raises`] is their sum.
    slow_raises: AtomicU64,
    fast_path_raises: AtomicU64,
    guard_evaluations: AtomicU64,
    handlers_run: AtomicU64,
    handlers_aborted: AtomicU64,
    async_dispatches: AtomicU64,
    handler_faults: AtomicU64,
    compiled_raises: AtomicU64,
    guards_elided: AtomicU64,
    batched_raises: AtomicU64,
}

impl AtomicEventStats {
    fn snapshot(&self) -> EventStats {
        let fast_path_raises = self.fast_path_raises.load(Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        EventStats {
            raises: fast_path_raises + self.slow_raises.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            fast_path_raises,
            guard_evaluations: self.guard_evaluations.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            handlers_run: self.handlers_run.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            handlers_aborted: self.handlers_aborted.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            async_dispatches: self.async_dispatches.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            handler_faults: self.handler_faults.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            compiled_raises: self.compiled_raises.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            guards_elided: self.guards_elided.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
            batched_raises: self.batched_raises.load(Ordering::Relaxed), // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
        }
    }
}

/// Hashes a dispatch-table key by one multiplication (Fibonacci hashing,
/// the high half folded down for the table's bucket index) where the
/// default SipHash, seeded per process, cost more than the rest of a keyed
/// lookup. The tables are only ever looked up, never iterated, so nothing
/// observable depends on the hash; their keys are the guard values that
/// installed handlers chose, which the event owner already authorizes.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, k: u64) {
        let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One key space's dispatch table inside a [`Compiled`] plan: every entry
/// whose first guard keys off the same [`KeyFn`] (by identity).
struct KeyGroup<A> {
    key: KeyFn<A>,
    /// Exact-match table: key value → `KeyEq` entry indices, in install
    /// order.
    eq: HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHasher>>,
    /// Inclusive `KeyRange` intervals, scanned after the map lookup.
    ranges: Vec<(u64, u64, u32)>,
}

/// The compiled form of a guard set, built once per plan mutation — for
/// every plan, so the raise path has one walk.
///
/// An entry is *indexed* when its first guard is key-matchable; a raise
/// extracts each group's key once and selects the matching entries by
/// lookup instead of calling their guard closures. Everything else is on
/// the `scan` list and evaluated sequentially. A plan with nothing
/// indexable is the degenerate case: no groups, every entry on `scan`, and
/// the walk is the paper's sequential one. The virtual-time charges of a
/// sequential walk are reproduced from the `indexed_prefix` counts: a
/// non-matching indexed entry still charges one `guard_eval` (its failing
/// key guard) in per-entry order.
struct Compiled<A> {
    /// One dispatch table per key space; empty iff no entry is indexed.
    groups: Vec<KeyGroup<A>>,
    /// Entry indices with no indexable first guard (install order).
    scan: Vec<u32>,
    /// `indexed_prefix[i]` = number of indexed entries among `entries[..i]`
    /// (length `entries.len() + 1`), so the misses in any entry range — and
    /// whether entry `i` itself is indexed — are O(1) lookups.
    indexed_prefix: Vec<u32>,
}

impl<A> Compiled<A> {
    fn build<R>(entries: &[Arc<Entry<A, R>>]) -> Compiled<A> {
        let mut groups: Vec<KeyGroup<A>> = Vec::new();
        let mut scan: Vec<u32> = Vec::new();
        let mut indexed_prefix: Vec<u32> = Vec::with_capacity(entries.len() + 1);
        indexed_prefix.push(0);
        for (i, entry) in entries.iter().enumerate() {
            let idx = i as u32;
            let indexed = match entry.guards.first().and_then(|spec| spec.key_fn()) {
                Some(kf) => {
                    let gi = match groups.iter().position(|g| g.key.id == kf.id) {
                        Some(gi) => gi,
                        None => {
                            // Sized from a count of its keys before it is
                            // filled, so no insert below rehashes it.
                            let keys = entries[i..]
                                .iter()
                                .filter_map(|e| e.guards.first())
                                .filter(|spec| spec.key_fn().is_some_and(|k| k.id == kf.id))
                                .filter(|spec| matches!(spec, GuardSpec::KeyEq(..)))
                                .count();
                            groups.push(KeyGroup {
                                key: kf.clone(),
                                eq: HashMap::with_capacity_and_hasher(keys, Default::default()),
                                ranges: Vec::new(),
                            });
                            groups.len() - 1
                        }
                    };
                    match &entry.guards[0] {
                        GuardSpec::KeyEq(_, v) => groups[gi].eq.entry(*v).or_default().push(idx),
                        GuardSpec::KeyRange(_, lo, hi) => groups[gi].ranges.push((*lo, *hi, idx)),
                        GuardSpec::Opaque(_) => unreachable!("key_fn() returned Some"),
                    }
                    true
                }
                None => false,
            };
            if !indexed {
                scan.push(idx);
            }
            let prev = *indexed_prefix.last().expect("seeded with 0");
            indexed_prefix.push(prev + u32::from(indexed));
        }
        Compiled {
            groups,
            scan,
            indexed_prefix,
        }
    }

    /// The entries a raise of `args` must visit, in install order: the
    /// scan list plus each group's table hits (one key extraction and
    /// lookup per group).
    fn select(&self, args: &A) -> Selection {
        let mut active = Selection::Inline([0; SELECT_INLINE], 0);
        for &idx in &self.scan {
            active.push(idx);
        }
        for group in &self.groups {
            let k = group.key.extract(args);
            for &idx in group.eq.get(&k).map_or(&[][..], Vec::as_slice) {
                active.push(idx);
            }
            for &(lo, hi, idx) in &group.ranges {
                if lo <= k && k <= hi {
                    active.push(idx);
                }
            }
        }
        active.sort();
        active
    }

    /// Whether entry `i` is served by a dispatch table.
    fn is_indexed(&self, i: usize) -> bool {
        self.indexed_prefix[i + 1] > self.indexed_prefix[i]
    }

    /// Indexed entries in `entries[from..to]` — the key misses to charge
    /// when the table rules that whole range out.
    fn misses_in(&self, from: usize, to: usize) -> u64 {
        u64::from(self.indexed_prefix[to] - self.indexed_prefix[from])
    }
}

/// How many selected entries a raise holds on its stack before it takes to
/// the heap. The protocol graph's keyed events select one or two; the walk
/// runs on every strand thread's stack, so the buffer is kept to 32 bytes.
const SELECT_INLINE: usize = 7;

/// What [`Compiled::select`] selected: entry indices, ascending once
/// sorted. Inline up to [`SELECT_INLINE`] of them, so the common keyed
/// raise allocates nothing.
enum Selection {
    Inline([u32; SELECT_INLINE], u8),
    Spilled(Vec<u32>),
}

impl Selection {
    fn push(&mut self, idx: u32) {
        match self {
            Selection::Inline(buf, len) if usize::from(*len) < SELECT_INLINE => {
                buf[usize::from(*len)] = idx;
                *len += 1;
            }
            Selection::Inline(buf, _) => {
                let mut spilled = Vec::with_capacity(4 * SELECT_INLINE);
                spilled.extend_from_slice(buf);
                spilled.push(idx);
                *self = Selection::Spilled(spilled);
            }
            Selection::Spilled(spilled) => spilled.push(idx),
        }
    }

    fn sort(&mut self) {
        match self {
            Selection::Inline(buf, len) => buf[..usize::from(*len)].sort_unstable(),
            Selection::Spilled(spilled) => spilled.sort_unstable(),
        }
    }
}

impl Deref for Selection {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match self {
            Selection::Inline(buf, len) => &buf[..usize::from(*len)],
            Selection::Spilled(spilled) => spilled,
        }
    }
}

/// The immutable part of an event's published record: everything a
/// dispatch needs, built once per mutation instead of once per raise. It
/// shares its entries with the write side and with every other plan that
/// holds them: what a build copies is one pointer per handler.
struct RaisePlan<A, R> {
    entries: Box<[Arc<Entry<A, R>>]>,
    reducer: Option<Reducer<R>>,
    /// Quota cell the event's raises are metered under (see
    /// [`crate::quota`]). It rides the plan's `Arc`, so a metered raise
    /// pays no refcount bump of its own; absent — the overwhelming default
    /// — no admission logic runs.
    quota: Option<Arc<QuotaCell>>,
    /// Whether the event qualifies for the paper's direct-call fast path:
    /// exactly one synchronous, unguarded, unbounded handler (`entries[0]`)
    /// and no reducer. Precomputed here so the raise checks a single flag.
    fast: bool,
    /// Whether any entry is asynchronous. Only then does a raise put its
    /// arguments behind an `Arc` for the invocations that outlive it;
    /// otherwise handlers borrow them from the raiser's stack.
    has_async: bool,
    /// The guard-set compiler's output (see the module docs).
    compiled: Compiled<A>,
}

impl<A, R> RaisePlan<A, R> {
    fn build(ws: &WriteSide<A, R>) -> Arc<RaisePlan<A, R>> {
        let fast = matches!(
            &ws.handlers[..],
            [only] if only.guards.is_empty()
                && only.constraints.mode == HandlerMode::Synchronous
                && only.constraints.time_bound.is_none()
                && ws.reducer.is_none()
                // A handler that has ever faulted is permanently
                // demoted to the guarded slow path.
                // ordering: Relaxed — demotion hint; the rebuild lock is the real barrier.
                && !only.fault_flag.load(Ordering::Relaxed)
        );
        Arc::new(RaisePlan {
            entries: ws.handlers.to_vec().into_boxed_slice(),
            reducer: ws.reducer.clone(),
            quota: ws.quota.clone(),
            fast,
            has_async: ws
                .handlers
                .iter()
                .any(|e| e.constraints.mode == HandlerMode::Asynchronous),
            compiled: Compiled::build(&ws.handlers),
        })
    }
}

/// Slow-path accumulators for one raise: settled into the event's atomic
/// statistics in a single batch after the walk (one `fetch_add` per
/// counter per raise, not per entry).
struct SlowAcc<R> {
    /// Every synchronous result, for the reducer — `Some` iff the plan has
    /// one; the default reduction keeps only `last`.
    reduced: Option<Vec<R>>,
    /// "The result of the final handler executed".
    last: Option<R>,
    guard_evals: u64,
    /// Guard closure calls avoided by the compiled plan (key hits resolved
    /// by lookup + key misses ruled out by it). Always `<= guard_evals`.
    elided: u64,
    run: u64,
    aborted: u64,
    async_count: u64,
    faulted: u64,
}

/// The mutable write side of an event: mutated under a mutex by the rare
/// install/uninstall/configure operations, then republished as a fresh
/// [`RaisePlan`]. An edit moves `Arc`s of entries in and out of the list;
/// no edit changes an entry.
struct WriteSide<A, R> {
    handlers: Vec<Arc<Entry<A, R>>>,
    auth: Option<AuthFn<A>>,
    reducer: Option<Reducer<R>>,
    quota: Option<Arc<QuotaCell>>,
}

impl<A, R> Default for WriteSide<A, R> {
    fn default() -> Self {
        WriteSide {
            handlers: Vec::new(),
            auth: None,
            reducer: None,
            quota: None,
        }
    }
}

impl<A, R> WriteSide<A, R> {
    /// Where the handler with the given id sits in the list.
    fn position(&self, id: HandlerId) -> Result<usize, DispatchError> {
        let pos = self.handlers.iter().position(|e| e.id == id);
        pos.ok_or(DispatchError::NoSuchHandler)
    }
}

/// Counters for an event's hold queue (the quiesce/park/replay path of a
/// hot swap). All monotonic; reconciles against [`EventStats`] as
/// `attempts = (raises - replayed) + held + overflowed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HoldStats {
    /// Raises parked while the event was quiesced.
    pub held: u64,
    /// Parked raises dispatched by a resume (each also counts in
    /// `EventStats::raises` when it replays).
    pub replayed: u64,
    /// Raises dropped because the bounded hold queue was full.
    pub overflowed: u64,
}

/// The hold queue proper and its counters, guarded by a mutex the raise
/// hot path never touches (parking is reached only behind the quiesce
/// gate). A plain FIFO: raises park under the lock, so queue order is
/// arrival order — the order an uninterrupted run would have dispatched
/// them in.
struct HoldSide<A> {
    queue: Vec<A>,
    capacity: usize,
    stats: HoldStats,
}

impl<A> Default for HoldSide<A> {
    fn default() -> Self {
        HoldSide {
            queue: Vec::new(),
            capacity: 65_536,
            stats: HoldStats::default(),
        }
    }
}

/// One handler to install during an [`Event::rebind`]: the new version's
/// replacement for the old version's handlers, applied in the same atomic
/// plan swap that removes them.
pub struct InstallSpec<A, R> {
    /// The identity the new handlers are installed under (the new
    /// version's domain identity — quarantine and fault attribution key
    /// off it).
    pub installer: Identity,
    /// The handler procedure.
    pub handler: Handler<A, R>,
    /// Structured guards, exactly as [`Dispatcher::install_spec`] takes.
    pub guards: Vec<GuardSpec<A>>,
    /// Execution constraints.
    pub constraints: Constraints,
}

/// Undo record for one [`Event::rebind`]: the removed entries themselves
/// (their sticky fault flags with them) with their plan positions, and the
/// ids the rebind installed. Feeding it to
/// [`Event::restore`] reverses the rebind in one plan swap.
pub struct RebindReceipt<A, R> {
    old_installer: Identity,
    removed: Vec<(usize, Arc<Entry<A, R>>)>,
    installed: Vec<HandlerId>,
}

impl<A, R> RebindReceipt<A, R> {
    /// Handler ids the rebind installed (the new version's handlers).
    // uncharged: receipt accessor.
    pub fn installed(&self) -> &[HandlerId] {
        &self.installed
    }

    /// The identity whose handlers were removed.
    // uncharged: receipt accessor.
    pub fn old_installer(&self) -> &Identity {
        &self.old_installer
    }
}

/// RAII marker counting one raise (or one posted async invocation) as
/// in-flight for the quiesce drain. `S` is how the marker reaches the
/// event state: a synchronous raise borrows it, a posted invocation owns
/// the `Arc` it needs anyway — neither pays a refcount for the count.
struct FlightGuard<S: Deref<Target: InFlight>>(S);

/// What a [`FlightGuard`] counts on: an event state of any type.
trait InFlight {
    fn in_flight(&self) -> &AtomicU64;
}

impl<A, R> InFlight for EventState<A, R> {
    fn in_flight(&self) -> &AtomicU64 {
        &self.in_flight
    }
}

impl<S: Deref<Target: InFlight>> FlightGuard<S> {
    fn enter(state: S) -> Self {
        // The quiesce protocol pairs increment-then-snapshot (here, then
        // `Raise::enter`) with publish-then-load-count (`Event::quiesce`,
        // then `Event::drain_in_flight`), and the record's lock orders the
        // pair: a snapshot that precedes the publish leaves its increment
        // visible to the drain, and one that follows it sees the closed
        // gate and parks. Either way no raise slips past the drain.
        // ordering: SeqCst — kept from the lock-free gate: the hot-swap models drain only after the raiser has joined, so spin-check cannot vouch for anything weaker.
        state.in_flight().fetch_add(1, Ordering::SeqCst);
        FlightGuard(state)
    }
}

impl<S: Deref<Target: InFlight>> Drop for FlightGuard<S> {
    fn drop(&mut self) {
        // ordering: Release — publishes the dispatch's effects before the
        // drain's zero-read (Acquire-or-stronger) can observe the count.
        self.0.in_flight().fetch_sub(1, Ordering::Release);
    }
}

/// An event's published record: the one fact a raise reads, once, to know
/// what state its event is in. Writers change it under the write lock of
/// [`EventState::plan`]; a raise copies what it needs out under the read
/// lock — one refcount bump — and never looks at the event again.
struct Published<A, R> {
    /// What a raise dispatches against; `None` is the tombstone `destroy`
    /// leaves, which nothing ever replaces.
    plan: Option<Arc<RaisePlan<A, R>>>,
    /// Quiesce gate: while closed, raises park in `held` instead of
    /// dispatching. Ignored on a tombstone.
    gated: bool,
    /// Version of the handler set: bumped once per [`EventState::edit`]
    /// (so one rebind — or one rollback — is exactly one bump) and by
    /// nothing else.
    generation: u64,
}

impl<A, R> Published<A, R> {
    /// Whether a raise that finds this record parks: a live event behind a
    /// closed gate.
    fn parks(&self) -> bool {
        self.gated && self.plan.is_some()
    }
}

struct EventState<A, R> {
    owner: Identity,
    write: Mutex<WriteSide<A, R>>,
    /// The published record (see [`Published`]). Taken after `write` or
    /// `held`, never before either.
    plan: RwLock<Published<A, R>>,
    stats: AtomicEventStats,
    /// Dispatches currently between snapshot and settle, plus async
    /// invocations posted but not finished (see [`FlightGuard`]).
    in_flight: AtomicU64,
    /// Parked raises and their counters; only touched behind the gate.
    held: Mutex<HoldSide<A>>,
}

impl<A, R> EventState<A, R> {
    /// The one write path for the handler set: locks the write side,
    /// applies `change` and — if it went through — publishes the rebuilt
    /// [`RaisePlan`], bumping the generation. An `Err` from `change` means
    /// nothing was changed and nothing is republished.
    fn edit<T>(
        &self,
        change: impl FnOnce(&mut WriteSide<A, R>) -> Result<T, DispatchError>,
    ) -> Result<T, DispatchError> {
        let mut ws = self.write.lock();
        let out = change(&mut ws)?;
        let displaced = self.republish(&mut ws, 1);
        // Whatever was released drops outside the write lock.
        drop(ws);
        drop(displaced);
        Ok(out)
    }

    /// Publishes the plan rebuilt from the (locked) write side, moving the
    /// generation on by `edits`, and hands back the plan it replaced. A
    /// tombstone stays a tombstone: a writer that lost the race to
    /// `destroy` publishes nothing and hands back what it wrote instead —
    /// a destroyed event owns no closures, however long its handles live.
    /// Either way the caller drops it once it has let go of the write
    /// side: the replaced plan may be the last owner of an uninstalled
    /// handler, whose closure may raise or install on this very event.
    fn republish(&self, ws: &mut WriteSide<A, R>, edits: u64) -> Displaced<A, R> {
        // Built before the record's lock is taken, and the old plan dropped
        // after it is released: raisers wait out a pointer store, never a
        // guard-set compilation or a handler's destruction.
        let plan = RaisePlan::build(ws);
        let mut published = self.plan.write();
        match published.plan.take() {
            Some(old) => {
                published.plan = Some(plan);
                published.generation += edits;
                Ok(old)
            }
            None => Err(std::mem::take(ws)),
        }
    }

    /// Ends the event: publishes the tombstone — one publish, after which
    /// every snapshot resolves to `UnknownEvent` — and takes everything the
    /// state owns out of it: the plan, the handlers, reducer, authorizer
    /// and quota binding, and the raises parked behind a closed gate. The
    /// caller drops them with no lock held. Handles are strong, so this —
    /// not the last handle going away — is when an event's closures die;
    /// only a raise still in flight keeps the plan it snapshotted.
    #[must_use]
    fn release(&self) -> Released<A, R> {
        let (plan, ws) = {
            let mut ws = self.write.lock();
            let plan = self.plan.write().plan.take();
            (plan, std::mem::take(&mut *ws))
        };
        // After the tombstone: a parker that takes the hold lock from here
        // on re-reads the record, finds it does not park, and leaves.
        let parked = std::mem::take(&mut self.held.lock().queue);
        (plan, ws, parked)
    }
}

/// What a destroyed event gave up: its last plan, its write side and the
/// raises it had parked.
type Released<A, R> = (Option<Arc<RaisePlan<A, R>>>, WriteSide<A, R>, Vec<A>);

/// What a republish displaced: the plan it replaced, or — the event was
/// destroyed under it — the write side it could not publish.
type Displaced<A, R> = Result<Arc<RaisePlan<A, R>>, WriteSide<A, R>>;

/// Type-erased event state: what the dispatcher's global table stores.
/// It carries the operations quarantine needs to act across events of
/// unknown types.
trait AnyEventState: Send + Sync {
    /// Removes every handler installed by `who`; returns how many.
    fn purge_installer(&self, who: &Identity) -> usize;
    /// Removes one handler by id.
    fn remove_handler(&self, id: HandlerId) -> bool;
}

impl<A, R> AnyEventState for EventState<A, R>
where
    A: Send + Sync + 'static,
    R: Send + 'static,
{
    fn purge_installer(&self, who: &Identity) -> usize {
        self.edit(|ws| {
            let before = ws.handlers.len();
            ws.handlers.retain(|e| e.installer != *who);
            match before - ws.handlers.len() {
                0 => Err(DispatchError::NoSuchHandler),
                removed => Ok(removed),
            }
        })
        .unwrap_or(0)
    }

    fn remove_handler(&self, id: HandlerId) -> bool {
        self.edit(|ws| {
            let pos = ws.position(id)?;
            ws.handlers.remove(pos);
            Ok(())
        })
        .is_ok()
    }
}

/// A typed event. Holding an `Event` value is the right to raise it; the
/// value can be exported through interfaces and passed across domains.
pub struct Event<A, R> {
    id: u64,
    name: Arc<str>,
    dispatcher: Dispatcher,
    /// The event state itself, so a raise touches neither the dispatcher's
    /// global table nor a refcount. Whether the event still exists is the
    /// published record's to say (its tombstone), and `destroy` empties
    /// the state, so a handle kept past it pins a husk, not closures.
    state: Arc<EventState<A, R>>,
}

impl<A, R> Clone for Event<A, R> {
    fn clone(&self) -> Self {
        Event {
            id: self.id,
            name: self.name.clone(),
            dispatcher: self.dispatcher.clone(),
            state: self.state.clone(),
        }
    }
}

impl<A, R> std::fmt::Debug for Event<A, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event({})", self.name)
    }
}

/// The capability of the event's primary implementation module.
pub struct EventOwner<A, R> {
    event: Event<A, R>,
    token: Identity,
}

/// Routes a cross-core raise to another shard (multicore mode): posts an
/// action into the target shard's mailbox for delivery at a virtual time.
/// Installed once by the multicore runtime; absent on a shared timeline.
pub struct XcallRouter {
    /// The shard this dispatcher lives on.
    pub home: HostId,
    /// `(target, deliver_at, action)` — returns `false` if the envelope was
    /// dropped (fault injection or unknown target).
    #[allow(clippy::type_complexity)]
    pub post: Arc<dyn Fn(HostId, Nanos, Box<dyn FnOnce(Nanos) + Send>) -> bool + Send + Sync>,
}

struct DispatcherInner {
    events: Mutex<BTreeMap<u64, Arc<dyn AnyEventState>>>,
    next_event: AtomicU64,
    next_handler: AtomicU64,
    async_runner: RwLock<AsyncRunner>,
    clock: Clock,
    profile: Arc<MachineProfile>,
    /// Cross-core raise router: absent until the multicore runtime wires
    /// it, and the local-raise fast path is then a single atomic load.
    xcall: crate::hooks::HookSlot<XcallRouter>,
    /// Observability hook (dispatcher domain): absent until wired, and the
    /// per-raise fast path is then a single atomic load. Nothing recorded
    /// through it charges virtual time.
    obs: crate::hooks::HookSlot<ObsHook>,
    /// Deterministic fault-injection hook (`core.dispatch` site): absent
    /// until wired; a disabled plan's draw is one relaxed load.
    faults: crate::hooks::HookSlot<FaultHook>,
    /// Invoked — outside every dispatcher lock — for each contained
    /// handler panic and time-bound abort.
    fault_sink: RwLock<Option<FaultSink>>,
}

/// The central dispatcher.
#[derive(Clone)]
pub struct Dispatcher {
    inner: Arc<DispatcherInner>,
}

impl Dispatcher {
    /// Creates a dispatcher charging costs to `clock` per `profile`.
    // uncharged: construction is control-plane, not the measured dispatch path.
    pub fn new(clock: Clock, profile: Arc<MachineProfile>) -> Self {
        Dispatcher {
            inner: Arc::new(DispatcherInner {
                events: Mutex::new(BTreeMap::new()),
                next_event: AtomicU64::new(1),
                next_handler: AtomicU64::new(1),
                async_runner: RwLock::new(Arc::new(|inv: AsyncInvocation| (inv.run)())),
                clock,
                profile,
                xcall: crate::hooks::HookSlot::new(),
                obs: crate::hooks::HookSlot::new(),
                faults: crate::hooks::HookSlot::new(),
                fault_sink: RwLock::new(None),
            }),
        }
    }

    /// A dispatcher with a private clock (unit tests, examples).
    // uncharged: test/example constructor.
    pub fn unmetered() -> Self {
        Self::new(Clock::new(), Arc::new(MachineProfile::alpha_axp_3000_400()))
    }

    /// The clock costs are charged to.
    // uncharged: accessor.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Installs the runner used for asynchronous handlers (the scheduler
    /// provides one that runs the closure on a fresh kernel strand).
    // uncharged: one-shot control-plane wiring.
    pub fn set_async_runner(&self, runner: AsyncRunner) {
        *self.inner.async_runner.write() = runner;
    }

    /// Wires the observability subsystem: raises, guard outcomes and
    /// handler runs are traced and accounted to the dispatcher domain.
    /// One-shot; charges zero virtual time.
    // uncharged: one-shot control-plane wiring.
    pub fn set_obs(&self, hook: ObsHook) {
        let _ = self.inner.obs.set(hook);
    }

    /// Wires deterministic fault injection (the `core.dispatch` site):
    /// draws happen inside each handler's containment region, so injected
    /// panics surface as ordinary handler faults. One-shot; charges zero
    /// virtual time and, while the plan is disabled, costs one relaxed
    /// atomic load per handler invocation.
    // uncharged: one-shot control-plane wiring.
    pub fn set_fault_hook(&self, hook: FaultHook) {
        let _ = self.inner.faults.set(hook);
    }

    /// Installs the sink notified of every contained handler fault
    /// (panic or time-bound abort). Called with no dispatcher locks held,
    /// so the sink may uninstall handlers, purge installers or re-raise.
    /// Replaces any previous sink.
    // uncharged: control-plane wiring.
    pub fn set_fault_sink(&self, sink: FaultSink) {
        *self.inner.fault_sink.write() = Some(sink);
    }

    /// Removes every handler installed by `who`, across all events, via
    /// the usual rebuild-and-swap republish. Returns how many handlers
    /// were dropped. This is the quarantine primitive.
    // uncharged: quarantine control plane; not on the per-raise hot path.
    pub fn purge_installer(&self, who: &Identity) -> usize {
        // Purge in event-definition order: the quarantine path must be
        // deterministic so a fault schedule replays identically (the
        // spin-check model checker rejects divergent re-executions). The
        // `BTreeMap` iterates in key order, so no sort is needed.
        let states: Vec<Arc<dyn AnyEventState>> =
            self.inner.events.lock().values().map(Arc::clone).collect();
        states.iter().map(|s| s.purge_installer(who)).sum()
    }

    /// Removes one handler by its id on the event with the given raw id
    /// (no typed handle needed — used by the circuit breaker).
    pub(crate) fn remove_handler_by_id(&self, event_id: u64, id: HandlerId) -> bool {
        let state = self.inner.events.lock().get(&event_id).cloned();
        state.is_some_and(|s| s.remove_handler(id))
    }

    /// Defines a new event. The returned [`EventOwner`] is the primary
    /// implementation module's capability; the [`Event`] is the raisable,
    /// exportable value.
    // uncharged: event definition is control-plane; only raises are metered (Table 2).
    pub fn define<A, R>(&self, name: &str, owner: Identity) -> (Event<A, R>, EventOwner<A, R>)
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        let id = self.inner.next_event.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
        let name: Arc<str> = name.into();
        let ws = WriteSide::default();
        let state: Arc<EventState<A, R>> = Arc::new(EventState {
            owner: owner.clone(),
            plan: RwLock::new(Published {
                plan: Some(RaisePlan::build(&ws)),
                gated: false,
                generation: 0,
            }),
            write: Mutex::new(ws),
            stats: AtomicEventStats::default(),
            in_flight: AtomicU64::new(0),
            held: Mutex::new(HoldSide::default()),
        });
        self.inner
            .events
            .lock()
            .insert(id, state.clone() as Arc<dyn AnyEventState>);
        let event = Event {
            id,
            name,
            dispatcher: self.clone(),
            state,
        };
        let owner = EventOwner {
            event: event.clone(),
            token: owner,
        };
        (event, owner)
    }

    /// Installs a handler on `ev` on behalf of `installer`.
    ///
    /// The event owner's authorizer is consulted; it may deny, attach an
    /// owner guard, or constrain the handler. The installer may stack
    /// additional guards of its own.
    // uncharged: handler installation is control-plane; only raises are metered.
    pub fn install<A, R>(
        &self,
        ev: &Event<A, R>,
        installer: Identity,
        handler: Handler<A, R>,
        installer_guards: Vec<Guard<A>>,
    ) -> Result<HandlerId, DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        self.install_spec(
            ev,
            installer,
            handler,
            installer_guards
                .into_iter()
                .map(GuardSpec::Opaque)
                .collect(),
        )
    }

    /// Installs a handler with *structured* installer guards, letting the
    /// plan compiler index key-matchable ones (see [`GuardSpec`]). The
    /// authorization protocol and semantics are exactly those of
    /// [`Dispatcher::install`].
    // uncharged: handler installation is control-plane; only raises are metered.
    pub fn install_spec<A, R>(
        &self,
        ev: &Event<A, R>,
        installer: Identity,
        handler: Handler<A, R>,
        installer_guards: Vec<GuardSpec<A>>,
    ) -> Result<HandlerId, DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        let state = ev.live()?;
        // The authorizer runs outside the write lock: it is arbitrary
        // owner code and may re-enter the dispatcher.
        let auth = state.write.lock().auth.clone();
        let decision = match auth {
            Some(auth) => auth(&InstallRequest {
                event: ev.name.to_string(),
                installer: installer.clone(),
            }),
            None => InstallDecision::allow(),
        };
        let (owner_guard, constraints) = match decision {
            InstallDecision::Deny => {
                return Err(DispatchError::InstallDenied {
                    name: ev.name.to_string(),
                    installer: installer.name().to_string(),
                })
            }
            InstallDecision::Allow {
                owner_guard,
                constraints,
            } => (owner_guard, constraints.unwrap_or_default()),
        };
        let mut guards = Vec::new();
        if let Some(g) = owner_guard {
            // The owner guard stays opaque (it is arbitrary policy code) and
            // stacks first, so an owner-guarded entry is never indexed.
            guards.push(GuardSpec::Opaque(g));
        }
        guards.extend(installer_guards);
        let spec = InstallSpec {
            installer,
            handler,
            guards,
            constraints,
        };
        let entry = self.new_entry(spec, false);
        let id = entry.id;
        state.edit(|ws| {
            ws.handlers.push(entry);
            Ok(id)
        })
    }

    /// Makes a write-side entry under a freshly allocated handler id — the
    /// one place an [`Entry`] is built.
    fn new_entry<A, R>(&self, spec: InstallSpec<A, R>, is_primary: bool) -> Arc<Entry<A, R>> {
        Arc::new(Entry {
            id: HandlerId(self.inner.next_handler.fetch_add(1, Ordering::Relaxed)), // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
            handler: spec.handler,
            guards: spec.guards,
            constraints: spec.constraints,
            installer: spec.installer,
            is_primary,
            fault_flag: AtomicBool::new(false),
        })
    }

    /// Removes a handler. Allowed for the handler's installer and for the
    /// event owner (who passes the owner identity).
    // uncharged: handler removal is control-plane; only raises are metered.
    pub fn uninstall<A, R>(
        &self,
        ev: &Event<A, R>,
        id: HandlerId,
        caller: &Identity,
    ) -> Result<(), DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        let state = ev.live()?;
        state.edit(|ws| {
            let pos = ws.position(id)?;
            if ws.handlers[pos].installer != *caller && state.owner != *caller {
                return Err(DispatchError::NotOwner);
            }
            ws.handlers.remove(pos);
            Ok(())
        })
    }

    /// Wires the cross-core raise router (multicore mode). One-shot; until
    /// wired — and always on a shared timeline — [`Dispatcher::raise_on`]
    /// degenerates to a local [`Dispatcher::raise`].
    // uncharged: one-shot control-plane wiring.
    pub fn set_xcall_router(
        &self,
        home: HostId,
        post: impl Fn(HostId, Nanos, Box<dyn FnOnce(Nanos) + Send>) -> bool + Send + Sync + 'static,
    ) {
        let _ = self.inner.xcall.set(XcallRouter {
            home,
            post: Arc::new(post),
        });
    }

    /// Raises `ev` on a target core. Call this on the *caller's* shard
    /// dispatcher: when `target` is its home core (or no router is
    /// installed) this is a synchronous co-located [`Dispatcher::raise`]
    /// returning `Some(result)`. Cross-core, the sender charges one sync
    /// op to its own clock and posts the raise to the target shard's
    /// mailbox for delivery one cross-call latency later; `None` is
    /// returned — the result, like the paper's asynchronous handlers, is
    /// not observable by the sender. The delivered raise goes through the
    /// event's defining dispatcher, which must be homed on `target` for
    /// costs to land on the right clock.
    pub fn raise_on<A, R>(
        &self,
        target: HostId,
        ev: &Event<A, R>,
        args: A,
    ) -> Result<Option<R>, DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
        Event<A, R>: Send,
    {
        match self.inner.xcall.get() {
            Some(router) if router.home != target => {
                // The sender pays the posting cost; the flight time is
                // virtual and charged to nobody's CPU.
                self.inner.clock.advance(self.inner.profile.sync_op);
                let deliver_at = self.inner.clock.now() + self.inner.profile.xcall_latency;
                let ev = ev.clone();
                (router.post)(
                    target,
                    deliver_at,
                    Box::new(move |_| {
                        // Raise through the event's *defining* dispatcher —
                        // homed on the target shard, so the handlers charge
                        // the target clock on the target thread.
                        let _ = ev.raise(args);
                    }),
                );
                Ok(None)
            }
            _ => self.raise(ev, args).map(Some),
        }
    }

    /// Raises an event: evaluates guards, runs handlers under their
    /// constraints, and reduces the synchronous results.
    ///
    /// This is the hot path, and it has a budget (DESIGN.md decision 18,
    /// pinned by `spin-check`'s `a_raise_stays_within_its_budget`). It
    /// copies no handler and takes no mutex; on the direct-call path it
    /// makes eight locked read-modify-writes — the in-flight count up and
    /// down, the record's read lock taken and released, the plan's refcount
    /// up and down (together: the snapshot), one raise counter and the
    /// clock charge — and, unless the plan holds an asynchronous handler or
    /// a reducer or the key selects more than a handful of entries, no heap
    /// allocation.
    pub fn raise<A, R>(&self, ev: &Event<A, R>, args: A) -> Result<R, DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        Raise::enter(&self.inner, ev, false).item(args)
    }

    /// Raises a burst of events against a single plan snapshot.
    ///
    /// Semantically this is `batch.into_iter().map(|a| raise(ev, a))` —
    /// each item charges exactly the virtual time a lone [`raise`] would,
    /// a metered item is admitted or refused in place, a gated item parks
    /// in burst order — but the per-raise constants amortize: the event
    /// resolves once, the plan snapshots once, the obs/fault hooks load
    /// once, and the raise counters settle in one batched increment.
    ///
    /// The burst runs against *one* snapshot: a plan republished mid-batch
    /// (install/uninstall from a handler, fast-path demotion after a
    /// panic) is observed by the next call, not by later items of this
    /// burst.
    ///
    /// [`raise`]: Dispatcher::raise
    pub fn raise_batch<A, R>(
        &self,
        ev: &Event<A, R>,
        batch: Vec<A>,
    ) -> Vec<Result<R, DispatchError>>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        let call = Raise::enter(&self.inner, ev, true);
        let out = batch.into_iter().map(|args| call.item(args)).collect();
        call.settle();
        out
    }

    /// Statistics for an event.
    // uncharged: diagnostics snapshot.
    pub fn stats<A, R>(&self, ev: &Event<A, R>) -> Result<EventStats, DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        Ok(ev.live()?.stats.snapshot())
    }

    /// Number of handlers currently installed on an event.
    // uncharged: diagnostics snapshot.
    pub fn handler_count<A, R>(&self, ev: &Event<A, R>) -> Result<usize, DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        Ok(ev.live()?.write.lock().handlers.len())
    }

    /// Destroys an event: later raises, installs and queries on any handle
    /// fail with [`DispatchError::UnknownEvent`]. Only the owner identity
    /// may destroy. The name may subsequently be redefined (fresh state,
    /// fresh statistics).
    // uncharged: control-plane teardown.
    pub fn destroy<A, R>(&self, ev: &Event<A, R>, caller: &Identity) -> Result<(), DispatchError>
    where
        A: Send + Sync + 'static,
        R: Send + 'static,
    {
        let state = ev.live()?;
        if state.owner != *caller {
            return Err(DispatchError::NotOwner);
        }
        // Planted bug for the model checker (`--cfg spin_check_mutant`):
        // destroying in two publishes — the cleared plan, then the
        // tombstone — lets a racing raise snapshot a live event with no
        // handlers and run zero of them instead of settling to
        // `UnknownEvent`. The raise-vs-destroy check must catch this.
        #[cfg(spin_check_mutant)]
        state.edit(|ws| {
            ws.handlers.clear();
            Ok(())
        })?;
        // Every handle holds the state, so the tombstone — not the table
        // entry dropped below — is what ends the event. There is no
        // intermediate record for a racing raise to see.
        let released = state.release();
        self.inner.events.lock().remove(&ev.id);
        drop(released);
        Ok(())
    }
}

/// Adds to a monotonic statistic. Most of a raise's counters move by zero
/// on most raises, and a `lock xadd` of zero costs what one of one does.
#[inline]
fn count(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed); // ordering: Relaxed — monotonic statistic; readers take a snapshot, not a sync point.
    }
}

/// One `raise` or `raise_batch` call in progress: what the call resolves
/// once and every item of it borrows. [`Raise::enter`] is the only place
/// one is built and [`Raise::item`] the only way a raise is dispatched.
struct Raise<'a, A, R> {
    inner: &'a DispatcherInner,
    ev: &'a Event<A, R>,
    /// Counts the call in-flight for the quiesce drain until it returns.
    _flight: FlightGuard<&'a EventState<A, R>>,
    /// The event's published record as the call found it — `plan` and
    /// `gated` are one reading, the only one the call takes. `None` is
    /// the tombstone of a destroyed event; otherwise every item
    /// dispatches against this plan, metered by its quota cell.
    plan: Option<Arc<RaisePlan<A, R>>>,
    /// The quiesce gate in that same reading: closed, the items park.
    gated: bool,
    obs: Option<&'a ObsHook>,
    faults: Option<&'a FaultHook>,
    /// Whether the items are a `raise_batch` burst, whose counters the
    /// caller settles once, or a lone raise, counted before it dispatches.
    batched: bool,
    /// Items admitted but not yet settled into the raise counters.
    admitted: Cell<u64>,
}

impl<'a, A, R> Raise<'a, A, R>
where
    A: Send + Sync + 'static,
    R: Send + 'static,
{
    /// The raise prologue. `enter`, `item` and `contained` are inlined into
    /// their callers: as calls of their own the per-call state travels
    /// through memory, measured at ≈4 % of a fast-path raise.
    #[inline(always)]
    fn enter(inner: &'a DispatcherInner, ev: &'a Event<A, R>, batched: bool) -> Self {
        // Count this call in-flight *before* the snapshot: a quiescer
        // whose publish the snapshot missed will see the count and wait
        // for the dispatch to settle (see `FlightGuard::enter`).
        let flight = FlightGuard::enter(&*ev.state);
        // The snapshot: one refcount bump; handlers run outside any lock
        // (they may install/uninstall or re-raise).
        let published = ev.state.plan.read();
        let (plan, gated) = (published.plan.clone(), published.gated);
        drop(published);
        Raise {
            inner,
            ev,
            _flight: flight,
            plan,
            gated,
            obs: inner.obs.get(),
            faults: inner.faults.get(),
            batched,
            admitted: Cell::new(0),
        }
    }

    /// One raise of the call, start to finish: answer a tombstone, park
    /// behind a closed gate, admit, count, trace, dispatch against the
    /// call's snapshot, release the admission.
    #[inline(always)]
    fn item(&self, args: A) -> Result<R, DispatchError> {
        let clock = &self.inner.clock;
        // Tombstone before gate: a destroyed event has no hold queue
        // anybody will ever resume, so a raise that saw it destroyed is
        // `UnknownEvent` whatever the gate said — and never `NoHandlerRan`
        // or a stale result, because a tombstone carries no plan.
        let plan = self.plan.as_ref().ok_or_else(|| self.ev.unknown())?;
        let quota = plan.quota.as_ref();
        if self.gated {
            // Parked items of a burst keep their order in the hold queue
            // and replay as individual raises on resume.
            return self.park(quota, args);
        }
        // Admission control: an over-budget domain gets a typed refusal
        // *before* any virtual time is charged or stats are counted —
        // throttled raises never dispatched, so they are ledger entries,
        // not event raises, and a burst's refused items surface in place.
        if let Some(q) = quota {
            if let Err(verdict) = q.admit(clock.now()) {
                return Err(verdict.into_error(&self.ev.name, q.name()));
            }
        }
        self.admitted.set(self.admitted.get() + 1);
        if !self.batched {
            self.settle();
        }
        if let Some(obs) = self.obs {
            obs.trace(TraceKind::EventRaise, self.ev.id, plan.entries.len() as u64);
        }
        let Some(q) = quota else {
            return self.dispatch(plan, args);
        };
        // Bracket the dispatch so the synchronous virtual time it
        // charged lands on the domain's window, then release the
        // admission slot.
        let before = clock.now();
        let out = self.dispatch(plan, args);
        q.complete(clock.now().saturating_sub(before));
        out
    }

    /// Settles the admitted items into the raise counters: a lone raise
    /// right after its admission, a burst in one increment after its last
    /// item. Every item of a call shares its plan, so one counter takes
    /// them all — the direct-call one or the walk's.
    fn settle(&self) {
        // A tombstone admitted nothing.
        let Some(plan) = self.plan.as_ref() else {
            return;
        };
        let n = self.admitted.take();
        let stats = &self.ev.state.stats;
        let raises = if plan.fast {
            &stats.fast_path_raises
        } else {
            &stats.slow_raises
        };
        count(raises, n);
        if self.batched {
            count(&stats.batched_raises, n);
        }
        if let Some(obs) = self.obs {
            count(&obs.counters.events_raised, n);
            if self.batched {
                count(&obs.counters.dispatch_batched, n);
            }
        }
    }

    /// Parks one raise behind the quiesce gate: [`DispatchError::Held`]
    /// with the raise queued, or [`DispatchError::HoldOverflow`] with it
    /// dropped and counted. If the record changed between the call's
    /// snapshot and the hold lock — gate reopened, or event destroyed —
    /// the raise is taken again from the top instead.
    ///
    /// Parking charges no virtual time — the full dispatch cost is
    /// charged when the raise replays, so a resumed timeline carries
    /// exactly the charges an uninterrupted run would.
    fn park(&self, quota: Option<&Arc<QuotaCell>>, args: A) -> Result<R, DispatchError> {
        let (ev, state, clock) = (self.ev, &self.ev.state, &self.inner.clock);
        let mut held = state.held.lock();
        // Re-read the record under the hold lock (hold → record, the one
        // order these two nest in): `resume` reopens the gate under this
        // same lock, so a record that still parks here proves the queue
        // has not been taken yet and this raise cannot be stranded.
        if !state.plan.read().parks() {
            // The resume that reopened the gate already replayed everything
            // parked before us, so dispatch normally — as a call of its
            // own, whose snapshot postdates the reopening (or shows the
            // tombstone, and answers `UnknownEvent`).
            drop(held);
            let again = Raise::enter(self.inner, ev, self.batched);
            let out = again.item(args);
            again.settle();
            return out;
        }
        // The hold-queue budget: a metered domain may not flood the gate's
        // queue past its `max_held` — refusals walk the ladder (throttle,
        // then shed) instead of parking.
        if let Some(q) = quota {
            if q.hold_over_budget(held.queue.len()) {
                let verdict = q.refuse(clock.now());
                return Err(verdict.into_error(&ev.name, q.name()));
            }
        }
        if held.queue.len() >= held.capacity {
            held.stats.overflowed += 1;
            return Err(DispatchError::HoldOverflow {
                name: ev.name.to_string(),
            });
        }
        held.queue.push(args);
        held.stats.held += 1;
        if let Some(q) = quota {
            q.note_held();
        }
        Err(DispatchError::Held {
            name: ev.name.to_string(),
        })
    }

    /// Dispatches one admitted, counted raise against the snapshot: the
    /// direct call when the plan is fast, otherwise the walk. All
    /// virtual-time charges happen here.
    fn dispatch(&self, plan: &RaisePlan<A, R>, args: A) -> Result<R, DispatchError> {
        let (ev, state, obs) = (self.ev, &self.ev.state, self.obs);
        let profile = &self.inner.profile;
        let clock = &self.inner.clock;
        let stats = &state.stats;

        // Fast path: a single synchronous unguarded unbounded handler is a
        // direct procedure call (eligibility precomputed at plan build).
        // Still unwind-isolated: the first panic demotes the handler off
        // this path for good.
        if plan.fast {
            clock.advance(profile.inter_module_call);
            let entry = &plan.entries[0];
            return match self.contained(entry, &args) {
                Ok(r) => {
                    if let Some(obs) = obs {
                        count(&obs.counters.handlers_run, 1);
                    }
                    Ok(r)
                }
                Err(kind) => {
                    count(&stats.handler_faults, 1);
                    // Demote immediately: rebuild the plan (the entry's
                    // fault flag is set) so the very next raise takes the
                    // slow path.
                    let _ = state.edit(|_| Ok(()));
                    self.fault_report(entry).deliver(kind);
                    Err(DispatchError::NoHandlerRan {
                        name: ev.name.to_string(),
                    })
                }
            };
        }

        clock.advance(profile.event_raise_base);
        // Handlers borrow the arguments from this frame; only invocations
        // that may outlive it (asynchronous entries) need them shared.
        let (owned, shared);
        let args: &A = if plan.has_async {
            shared = Some(Arc::new(args));
            shared.as_deref().expect("just shared")
        } else {
            (owned, shared) = (args, None);
            &owned
        };
        let mut acc = SlowAcc::<R> {
            reduced: plan.reducer.as_ref().map(|_| Vec::new()),
            last: None,
            guard_evals: 0,
            elided: 0,
            run: 0,
            aborted: 0,
            async_count: 0,
            faulted: 0,
        };

        // The walk: one key extraction + lookup per group selects the
        // indexed entries and the scan list joins them in install order; a
        // plan with no groups walks its scan list — every entry — as it
        // stands. Missed indexed entries still charge their failing key
        // guard — batched into one `advance` only when nobody can see the
        // granularity (no obs tracing, no clock advance hooks); otherwise
        // replayed one by one so the trace stream and hook firings match a
        // sequential walk exactly.
        let c = &plan.compiled;
        let charge_misses = |acc: &mut SlowAcc<R>, m: u64| {
            if m == 0 {
                return;
            }
            acc.elided += m;
            if obs.is_some() || clock.charges_observed() {
                for _ in 0..m {
                    self.guard(acc, || false);
                }
            } else {
                acc.guard_evals += m;
                clock.advance(m * profile.guard_eval);
            }
        };
        let compiled = !c.groups.is_empty();
        let selected;
        let active: &[u32] = if compiled {
            selected = c.select(args);
            &selected
        } else {
            &c.scan
        };
        let mut cursor = 0usize;
        for &idx in active {
            let idx = idx as usize;
            charge_misses(&mut acc, c.misses_in(cursor, idx));
            let entry = &plan.entries[idx];
            let skip = if c.is_indexed(idx) {
                // The lookup proved the key guard passes: charge it as a
                // hit and evaluate only the residual guards.
                self.guard(&mut acc, || true);
                acc.elided += 1;
                1
            } else {
                0
            };
            self.run_entry(entry, args, shared.as_ref(), skip, &mut acc);
            cursor = idx + 1;
        }
        charge_misses(&mut acc, c.misses_in(cursor, plan.entries.len()));

        count(&stats.guard_evaluations, acc.guard_evals);
        count(&stats.handlers_run, acc.run);
        count(&stats.handlers_aborted, acc.aborted);
        count(&stats.async_dispatches, acc.async_count);
        count(&stats.handler_faults, acc.faulted);
        if compiled {
            count(&stats.compiled_raises, 1);
            count(&stats.guards_elided, acc.elided);
        }
        if let Some(obs) = obs {
            count(&obs.counters.guards_evaluated, acc.guard_evals);
            count(&obs.counters.handlers_run, acc.run + acc.async_count);
            if compiled {
                count(&obs.counters.dispatch_compiled_raises, 1);
                count(&obs.counters.dispatch_compiled_elided, acc.elided);
            }
        }

        let out = match plan.reducer.as_ref().zip(acc.reduced) {
            Some((reduce, all)) => (!all.is_empty()).then(|| reduce(all)),
            // Default: "returns the result of the final handler executed".
            None => acc.last,
        };
        out.ok_or_else(|| DispatchError::NoHandlerRan {
            name: ev.name.to_string(),
        })
    }

    /// Charges and traces one logical guard evaluation and returns its
    /// outcome — a predicate call, or the constant the dispatch table has
    /// already proved.
    fn guard(&self, acc: &mut SlowAcc<R>, outcome: impl FnOnce() -> bool) -> bool {
        self.inner.clock.advance(self.inner.profile.guard_eval);
        acc.guard_evals += 1;
        let ok = outcome();
        if let Some(obs) = self.obs {
            obs.trace(TraceKind::GuardEval, self.ev.id, u64::from(ok));
        }
        ok
    }

    /// Evaluates one entry's guards (from `skip_guards` on — the walk has
    /// already charged an index-proven first guard) and, if they pass,
    /// runs the handler under its constraints, settling all accounting
    /// into `acc`.
    fn run_entry(
        &self,
        entry: &Arc<Entry<A, R>>,
        args: &A,
        shared: Option<&Arc<A>>,
        skip_guards: usize,
        acc: &mut SlowAcc<R>,
    ) {
        let (ev, obs) = (self.ev, self.obs);
        let profile = &self.inner.profile;
        let clock = &self.inner.clock;
        for guard in &entry.guards[skip_guards..] {
            if !self.guard(acc, || guard.eval(args)) {
                return;
            }
        }
        match entry.constraints.mode {
            HandlerMode::Asynchronous => {
                // "A handler may be asynchronous, which causes it to
                // execute in a separate thread from the raiser."
                let runner = self.inner.async_runner.read().clone();
                acc.async_count += 1;
                let args = shared.expect("a plan with an asynchronous entry shares its arguments");
                runner(self.async_invocation(entry, args));
            }
            HandlerMode::Synchronous => {
                clock.advance(profile.handler_invoke + profile.inter_module_call);
                let t0 = clock.now();
                match self.contained(entry, args) {
                    Ok(r) => {
                        acc.run += 1;
                        if let Some(obs) = obs {
                            obs.trace(TraceKind::HandlerRun, ev.id, entry.id.0);
                        }
                        let elapsed = clock.now().saturating_sub(t0);
                        match entry.constraints.time_bound {
                            Some(bound) if elapsed > bound => {
                                // Aborted: the result is discarded, and only
                                // the misbehaving handler's client is affected.
                                acc.aborted += 1;
                                self.fault_report(entry)
                                    .deliver(FaultKind::TimeBound { bound, elapsed });
                            }
                            _ => match acc.reduced.as_mut() {
                                Some(all) => all.push(r),
                                None => acc.last = Some(r),
                            },
                        }
                    }
                    Err(kind) => {
                        // Contained: the faulted result is skipped and
                        // sibling handlers still run.
                        acc.faulted += 1;
                        self.fault_report(entry).deliver(kind);
                    }
                }
            }
        }
    }

    /// The one contained synchronous call: draws the `core.dispatch` fault
    /// site and runs the handler inside a single unwind-isolated region. A
    /// panic sets the entry's sticky fault flag and comes back as the
    /// fault to report; counting and delivering it is the caller's.
    #[inline(always)]
    fn contained(&self, entry: &Entry<A, R>, args: &A) -> Result<R, FaultKind> {
        let faults = self.faults;
        catch_unwind(AssertUnwindSafe(|| {
            match faults.and_then(|h| h.draw()) {
                Some(Injection::Panic) => faults.expect("drawn").fire_panic(),
                Some(Injection::Delay(ns)) => self.inner.clock.advance(ns),
                Some(Injection::Fail) | None => {}
            }
            (entry.handler)(args)
        }))
        .map_err(|payload| {
            entry.fault_flag.store(true, Ordering::Relaxed); // ordering: Relaxed — demotion hint; the plan-rebuild lock is the real barrier.
            FaultKind::Panic {
                message: panic_message(payload.as_ref()),
            }
        })
    }

    /// Who a fault of `entry` is attributed to and where it is reported,
    /// captured so a detached async invocation can carry it along.
    fn fault_report(&self, entry: &Entry<A, R>) -> FaultReport {
        FaultReport {
            sink: self.inner.fault_sink.read().clone(),
            clock: self.inner.clock.clone(),
            event: self.ev.name.clone(),
            event_id: self.ev.id,
            handler: entry.id,
            installer: entry.installer.clone(),
        }
    }

    /// Builds the contained closure for one asynchronous invocation: the
    /// handler runs under `catch_unwind` on whatever strand the runner
    /// chooses, and fault/abort accounting is settled here after the
    /// fact — whether the runner preempted the handler at its deadline
    /// (the unwind carries [`DeadlineExceeded`]) or let it finish late.
    fn async_invocation(&self, entry: &Arc<Entry<A, R>>, args: &Arc<A>) -> AsyncInvocation {
        let entry = entry.clone();
        let args = args.clone();
        let report = self.fault_report(&entry);
        let bound = entry.constraints.time_bound;
        // The invocation stays in-flight for the quiesce drain until the
        // runner finishes it (or drops it unrun — the guard's Drop still
        // settles the count).
        let flight = FlightGuard::enter(self.ev.state.clone());
        AsyncInvocation {
            time_bound: bound,
            run: Box::new(move || {
                let state = &flight.0;
                let t0 = report.clock.now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let _ = (entry.handler)(&args);
                }));
                let elapsed = report.clock.now().saturating_sub(t0);
                let fault = match outcome {
                    Ok(()) => match bound {
                        Some(b) if elapsed > b => {
                            // Finished, but late (async results are never
                            // reduced, so there is nothing to discard).
                            count(&state.stats.handlers_aborted, 1);
                            Some(FaultKind::TimeBound { bound: b, elapsed })
                        }
                        _ => None,
                    },
                    Err(payload) if payload.downcast_ref::<DeadlineExceeded>().is_some() => {
                        // The executor unwound the strand at its deadline:
                        // an abort, not an organic fault.
                        count(&state.stats.handlers_aborted, 1);
                        Some(FaultKind::TimeBound {
                            bound: bound.unwrap_or(0),
                            elapsed,
                        })
                    }
                    Err(payload) => {
                        count(&state.stats.handler_faults, 1);
                        entry.fault_flag.store(true, Ordering::Relaxed); // ordering: Relaxed — demotion hint; the plan-rebuild lock is the real barrier.
                        Some(FaultKind::Panic {
                            message: panic_message(payload.as_ref()),
                        })
                    }
                };
                if let Some(kind) = fault {
                    report.deliver(kind);
                }
            }),
        }
    }
}

/// A contained fault's attribution and destination. Delivery runs with no
/// dispatcher locks held and reads, but never advances, the clock.
struct FaultReport {
    sink: Option<FaultSink>,
    clock: Clock,
    event: Arc<str>,
    event_id: u64,
    handler: HandlerId,
    installer: Identity,
}

impl FaultReport {
    /// Notifies the fault sink (if any) of the fault.
    fn deliver(self, kind: FaultKind) {
        if let Some(sink) = self.sink {
            sink(&HandlerFault {
                event: self.event.to_string(),
                event_id: self.event_id,
                handler: self.handler,
                installer: self.installer,
                kind,
                at: self.clock.now(),
            });
        }
    }
}

impl<A, R> Event<A, R>
where
    A: Send + Sync + 'static,
    R: Send + 'static,
{
    /// The event's qualified name (e.g. `"IP.PacketArrived"`).
    // uncharged: accessor.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The event state, for the control plane — which, unlike a raise,
    /// takes no snapshot of its own: a destroyed event's handle still
    /// holds its (emptied) state, and is `UnknownEvent` here too.
    fn live(&self) -> Result<&Arc<EventState<A, R>>, DispatchError> {
        if self.state.plan.read().plan.is_none() {
            return Err(self.unknown());
        }
        Ok(&self.state)
    }

    fn unknown(&self) -> DispatchError {
        DispatchError::UnknownEvent {
            name: self.name.to_string(),
        }
    }

    /// Raises this event through its dispatcher.
    pub fn raise(&self, args: A) -> Result<R, DispatchError> {
        self.dispatcher.raise(self, args)
    }

    /// Binds the [`QuotaCell`] this event's raises are metered under:
    /// subsequent raises pass admission control against the cell's
    /// [`crate::QuotaSpec`] budgets and charge their dispatch virtual time
    /// to its window ledger. One-shot; returns `false` if a cell was
    /// already bound (the original binding stays). The cell is published
    /// inside the plan, so unbound events run no admission logic and the
    /// generation — the handler set's version — does not move.
    // uncharged: control-plane wiring.
    pub fn bind_quota(&self, cell: Arc<QuotaCell>) -> Result<bool, DispatchError> {
        let state = self.live()?;
        let mut ws = state.write.lock();
        if ws.quota.is_some() {
            return Ok(false);
        }
        ws.quota = Some(cell);
        let displaced = state.republish(&mut ws, 0);
        drop(ws);
        drop(displaced);
        Ok(true)
    }

    /// Installs a handler (authorized by the owner's policy).
    // uncharged: owner-capability installation is control-plane; only raises are metered.
    pub fn install(
        &self,
        installer: Identity,
        handler: impl Fn(&A) -> R + Send + Sync + 'static,
    ) -> Result<HandlerId, DispatchError> {
        self.dispatcher
            .install(self, installer, Arc::new(handler), Vec::new())
    }

    /// Installs a handler with stacked installer guards.
    // uncharged: owner-capability installation is control-plane; only raises are metered.
    pub fn install_guarded(
        &self,
        installer: Identity,
        guard: impl Fn(&A) -> bool + Send + Sync + 'static,
        handler: impl Fn(&A) -> R + Send + Sync + 'static,
    ) -> Result<HandlerId, DispatchError> {
        self.dispatcher
            .install(self, installer, Arc::new(handler), vec![Arc::new(guard)])
    }

    /// Installs a handler with structured (compilable) installer guards.
    // uncharged: owner-capability installation is control-plane; only raises are metered.
    pub fn install_specs(
        &self,
        installer: Identity,
        guards: Vec<GuardSpec<A>>,
        handler: impl Fn(&A) -> R + Send + Sync + 'static,
    ) -> Result<HandlerId, DispatchError> {
        self.dispatcher
            .install_spec(self, installer, Arc::new(handler), guards)
    }

    /// Installs a handler guarded on `key(args) == value` — the compilable
    /// analogue of [`Event::install_guarded`] for the common
    /// per-instance-dispatch case (a protocol number, a port).
    // uncharged: owner-capability installation is control-plane; only raises are metered.
    pub fn install_keyed(
        &self,
        installer: Identity,
        key: &KeyFn<A>,
        value: u64,
        handler: impl Fn(&A) -> R + Send + Sync + 'static,
    ) -> Result<HandlerId, DispatchError> {
        self.dispatcher.install_spec(
            self,
            installer,
            Arc::new(handler),
            vec![GuardSpec::KeyEq(key.clone(), value)],
        )
    }

    /// Raises a burst through this event's dispatcher against one plan
    /// snapshot (see [`Dispatcher::raise_batch`]).
    pub fn raise_batch(&self, batch: Vec<A>) -> Vec<Result<R, DispatchError>> {
        self.dispatcher.raise_batch(self, batch)
    }

    /// Closes the quiesce gate: subsequent raises park in the bounded
    /// hold queue (the raiser sees [`DispatchError::Held`]) until
    /// [`Event::resume`] replays them. Raises already past the gate check
    /// finish normally — [`Event::drain_in_flight`] waits them out.
    ///
    /// This is phase 1 of the hot-swap protocol (see `spin-swap`): gate,
    /// drain, transfer/rebind at a deterministic virtual instant, resume.
    // uncharged: hot-swap control plane.
    pub fn quiesce(&self) -> Result<(), DispatchError> {
        // Publish-then-load-count against the raise path's increment-
        // then-snapshot: every snapshot taken after this write parks, and
        // every one taken before it is already counted in flight (see
        // `FlightGuard::enter`).
        self.live()?.plan.write().gated = true;
        Ok(())
    }

    /// Spins (yielding) until every in-flight dispatch — including posted
    /// async invocations — has settled. Call after [`Event::quiesce`];
    /// calling it from inside one of this event's own handlers deadlocks,
    /// as would waiting on an async invocation whose runner needs this
    /// thread.
    // uncharged: hot-swap control plane.
    pub fn drain_in_flight(&self) -> Result<(), DispatchError> {
        let state = self.live()?;
        // ordering: SeqCst — pairs with FlightGuard's SeqCst increment (see FlightGuard::enter) and observes its Release decrement.
        while state.in_flight.load(Ordering::SeqCst) != 0 {
            spin_check::thread::yield_now();
        }
        Ok(())
    }

    /// Dispatches currently in flight (diagnostic; racy by nature).
    // uncharged: diagnostics accessor.
    pub fn in_flight(&self) -> Result<u64, DispatchError> {
        // ordering: SeqCst — same protocol as drain_in_flight's probe.
        Ok(self.live()?.in_flight.load(Ordering::SeqCst))
    }

    /// Reopens the gate and replays every parked raise in the order it
    /// parked, so the replayed timeline is exactly the one an
    /// uninterrupted run would have dispatched. Replayed results are
    /// unobservable (like the paper's asynchronous handlers); each replay
    /// charges full dispatch cost at the *current* virtual instant.
    /// Returns how many replayed.
    pub fn resume(&self) -> Result<u64, DispatchError> {
        let state = self.live()?;
        let parked = {
            let mut held = state.held.lock();
            // Reopen the gate *under* the hold lock (hold → record): a
            // parker acquiring the lock after us re-reads an open gate
            // and dispatches itself; one that got in before us is in the
            // queue we take.
            state.plan.write().gated = false;
            held.stats.replayed += held.queue.len() as u64;
            std::mem::take(&mut held.queue)
        };
        let n = parked.len() as u64;
        for args in parked {
            let _ = self.dispatcher.raise(self, args);
        }
        Ok(n)
    }

    /// Raises currently parked in the hold queue.
    // uncharged: diagnostics accessor.
    pub fn held_len(&self) -> Result<usize, DispatchError> {
        Ok(self.live()?.held.lock().queue.len())
    }

    /// Hold-queue counters (see [`HoldStats`]).
    // uncharged: diagnostics accessor.
    pub fn hold_stats(&self) -> Result<HoldStats, DispatchError> {
        Ok(self.live()?.held.lock().stats)
    }

    /// Bounds the hold queue (default 65 536 parked raises); raises
    /// beyond it are dropped with [`DispatchError::HoldOverflow`].
    // uncharged: control-plane configuration.
    pub fn set_hold_capacity(&self, capacity: usize) -> Result<(), DispatchError> {
        self.live()?.held.lock().capacity = capacity;
        Ok(())
    }

    /// The plan generation: bumped once per republished handler set, so
    /// one rebind (or one rollback) is exactly one observable bump;
    /// `quiesce`, `resume` and `bind_quota` leave it alone.
    // uncharged: diagnostics accessor.
    pub fn generation(&self) -> Result<u64, DispatchError> {
        Ok(self.live()?.plan.read().generation)
    }

    /// Atomically replaces every handler installed by `old_installer`
    /// with the given specs, in **one** plan swap (one generation bump):
    /// no raise ever observes a plan with the old version half-removed or
    /// the new one half-installed.
    ///
    /// Allowed for the event owner and for `old_installer` itself (the
    /// swap coordinator acts with the old version's identity). The
    /// owner's install authorizer is *not* consulted — a rebind is a
    /// capability operation, not a third-party installation; guards and
    /// constraints come verbatim from the specs. Returns the undo record
    /// for [`Event::restore`].
    // uncharged: hot-swap control plane (the s8 bench measures the swap at its own grain).
    pub fn rebind(
        &self,
        caller: &Identity,
        old_installer: &Identity,
        installs: Vec<InstallSpec<A, R>>,
    ) -> Result<RebindReceipt<A, R>, DispatchError> {
        let state = self.live()?;
        if state.owner != *caller && old_installer != caller {
            return Err(DispatchError::NotOwner);
        }
        let (removed, installed) = state.edit(|ws| {
            let mut removed = Vec::new();
            let mut kept = Vec::with_capacity(ws.handlers.len());
            for (pos, entry) in ws.handlers.drain(..).enumerate() {
                if entry.installer == *old_installer {
                    removed.push((pos, entry));
                } else {
                    kept.push(entry);
                }
            }
            ws.handlers = kept;
            let mut installed = Vec::with_capacity(installs.len());
            for spec in installs {
                let entry = self.dispatcher.new_entry(spec, false);
                installed.push(entry.id);
                ws.handlers.push(entry);
            }
            Ok((removed, installed))
        })?;
        Ok(RebindReceipt {
            old_installer: old_installer.clone(),
            removed,
            installed,
        })
    }

    /// Reverses a rebind: removes the handlers it installed and restores
    /// the removed entries at their original plan positions — again in
    /// one plan swap. Handler ids, guards, constraints and sticky fault
    /// flags of the restored entries are preserved. Allowed for the event
    /// owner and the receipt's old installer.
    // uncharged: hot-swap rollback control plane.
    pub fn restore(
        &self,
        caller: &Identity,
        receipt: RebindReceipt<A, R>,
    ) -> Result<(), DispatchError> {
        let state = self.live()?;
        if state.owner != *caller && receipt.old_installer != *caller {
            return Err(DispatchError::NotOwner);
        }
        state.edit(|ws| {
            ws.handlers.retain(|e| !receipt.installed.contains(&e.id));
            // `removed` is in ascending original position, so inserting in
            // order lands each entry back where the old plan had it.
            for (pos, entry) in receipt.removed {
                let at = pos.min(ws.handlers.len());
                ws.handlers.insert(at, entry);
            }
            Ok(())
        })
    }
}

/// Type-erased quiesce surface of an [`Event`]: what a hot-swap
/// coordinator holds over the events of a domain whose argument/result
/// types it does not know. Implemented by every `Event<A, R>`; errors
/// (destroyed events) degrade to `false`/`0` — a destroyed event is
/// trivially quiescent.
pub trait GatedEvent: Send + Sync {
    /// The event's qualified name.
    fn gated_name(&self) -> &str;
    /// [`Event::quiesce`]; `false` if the event is gone.
    fn quiesce(&self) -> bool;
    /// [`Event::drain_in_flight`]; `false` if the event is gone.
    fn drain_in_flight(&self) -> bool;
    /// [`Event::resume`]; how many parked raises replayed.
    fn resume(&self) -> u64;
    /// [`Event::held_len`].
    fn held_len(&self) -> usize;
    /// [`Event::hold_stats`].
    fn hold_stats(&self) -> HoldStats;
    /// [`Event::generation`].
    fn generation(&self) -> u64;
}

impl<A, R> GatedEvent for Event<A, R>
where
    A: Send + Sync + 'static,
    R: Send + 'static,
{
    fn gated_name(&self) -> &str {
        self.name()
    }

    fn quiesce(&self) -> bool {
        Event::quiesce(self).is_ok()
    }

    fn drain_in_flight(&self) -> bool {
        Event::drain_in_flight(self).is_ok()
    }

    fn resume(&self) -> u64 {
        Event::resume(self).unwrap_or(0)
    }

    fn held_len(&self) -> usize {
        Event::held_len(self).unwrap_or(0)
    }

    fn hold_stats(&self) -> HoldStats {
        Event::hold_stats(self).unwrap_or_default()
    }

    fn generation(&self) -> u64 {
        Event::generation(self).unwrap_or(0)
    }
}

impl<A, R> EventOwner<A, R>
where
    A: Send + Sync + 'static,
    R: Send + 'static,
{
    /// The owned event.
    // uncharged: accessor.
    pub fn event(&self) -> &Event<A, R> {
        &self.event
    }

    /// The owning identity.
    // uncharged: accessor.
    pub fn identity(&self) -> &Identity {
        &self.token
    }

    /// Installs the default implementation (the primary handler), bypassing
    /// authorization: "the primary right to handle an event is restricted
    /// to the default implementation module".
    // uncharged: owner control-plane operation; only raises are metered.
    pub fn set_primary(
        &self,
        handler: impl Fn(&A) -> R + Send + Sync + 'static,
    ) -> Result<HandlerId, DispatchError> {
        let state = self.event.live()?;
        let spec = InstallSpec {
            installer: self.token.clone(),
            handler: Arc::new(handler),
            guards: Vec::new(),
            constraints: Constraints::default(),
        };
        let entry = self.event.dispatcher.new_entry(spec, true);
        let id = entry.id;
        state.edit(|ws| {
            ws.handlers.push(entry);
            Ok(id)
        })
    }

    /// Sets the authorization policy consulted on every install.
    // uncharged: owner control-plane operation; only raises are metered.
    pub fn set_auth(
        &self,
        auth: impl Fn(&InstallRequest) -> InstallDecision<A> + Send + Sync + 'static,
    ) -> Result<(), DispatchError> {
        self.event.live()?.write.lock().auth = Some(Arc::new(auth));
        Ok(())
    }

    /// Sets the result-combination procedure.
    // uncharged: owner control-plane operation; only raises are metered.
    pub fn set_reducer(
        &self,
        reduce: impl Fn(Vec<R>) -> R + Send + Sync + 'static,
    ) -> Result<(), DispatchError> {
        self.event.live()?.edit(|ws| {
            ws.reducer = Some(Arc::new(reduce));
            Ok(())
        })
    }

    /// Removes the primary handler ("or even remove the primary handler").
    // uncharged: owner control-plane operation; only raises are metered.
    pub fn remove_primary(&self) -> Result<(), DispatchError> {
        self.event.live()?.edit(|ws| {
            let before = ws.handlers.len();
            ws.handlers.retain(|e| !e.is_primary);
            if ws.handlers.len() == before {
                return Err(DispatchError::NoSuchHandler);
            }
            Ok(())
        })
    }

    /// Uninstalls any handler by owner right.
    // uncharged: owner control-plane operation; only raises are metered.
    pub fn uninstall(&self, id: HandlerId) -> Result<(), DispatchError> {
        self.event
            .dispatcher
            .uninstall(&self.event, id, &self.token)
    }

    /// Destroys the owned event (owner right).
    // uncharged: owner control-plane teardown.
    pub fn destroy(self) -> Result<(), DispatchError> {
        self.event.dispatcher.destroy(&self.event, &self.token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::AtomicUsize;

    fn disp() -> Dispatcher {
        Dispatcher::unmetered()
    }

    #[test]
    fn single_handler_behaves_like_a_procedure_call() {
        let d = disp();
        let (ev, owner) = d.define::<u32, u32>("Math.Double", Identity::kernel("math"));
        owner.set_primary(|x| x * 2).unwrap();
        assert_eq!(ev.raise(21), Ok(42));
        let stats = d.stats(&ev).unwrap();
        assert_eq!(stats.raises, 1);
        assert_eq!(stats.fast_path_raises, 1);
    }

    #[test]
    fn fast_path_costs_one_inter_module_call() {
        let clock = Clock::new();
        let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
        let d = Dispatcher::new(clock.clone(), profile.clone());
        let (ev, owner) = d.define::<(), ()>("Null", Identity::kernel("k"));
        owner.set_primary(|_| ()).unwrap();
        let t0 = clock.now();
        ev.raise(()).unwrap();
        assert_eq!(clock.now() - t0, profile.inter_module_call);
    }

    #[test]
    fn raise_with_no_handlers_is_an_error() {
        let d = disp();
        let (ev, _owner) = d.define::<(), ()>("Empty", Identity::kernel("k"));
        assert!(matches!(
            ev.raise(()),
            Err(DispatchError::NoHandlerRan { .. })
        ));
    }

    #[test]
    fn default_reduction_returns_final_handler_result() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        ev.install(Identity::extension("x"), |_| 2).unwrap();
        assert_eq!(ev.raise(()), Ok(2));
    }

    #[test]
    fn custom_reducer_combines_results() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 10).unwrap();
        ev.install(Identity::extension("x"), |_| 32).unwrap();
        owner.set_reducer(|rs| rs.into_iter().sum()).unwrap();
        assert_eq!(ev.raise(()), Ok(42));
    }

    #[test]
    fn guards_gate_handlers_per_instance() {
        let d = disp();
        let (ev, owner) = d.define::<u32, &'static str>("IP.PacketArrived", Identity::kernel("ip"));
        owner.set_primary(|_| "default").unwrap();
        // A handler interested only in protocol 17 (UDP).
        ev.install_guarded(Identity::extension("udp"), |proto| *proto == 17, |_| "udp")
            .unwrap();
        assert_eq!(ev.raise(17), Ok("udp"));
        assert_eq!(ev.raise(6), Ok("default"));
        let stats = d.stats(&ev).unwrap();
        assert_eq!(stats.guard_evaluations, 2);
    }

    #[test]
    fn owner_auth_can_deny_and_can_impose_guards() {
        let d = disp();
        let (ev, owner) = d.define::<u32, u32>("E", Identity::kernel("k"));
        owner.set_primary(|x| *x).unwrap();
        owner
            .set_auth(|req| {
                if req.installer.name() == "rogue" {
                    InstallDecision::Deny
                } else {
                    // Owner-imposed guard: only even arguments.
                    InstallDecision::Allow {
                        owner_guard: Some(Arc::new(|x: &u32| x.is_multiple_of(2))),
                        constraints: None,
                    }
                }
            })
            .unwrap();
        assert!(matches!(
            ev.install(Identity::extension("rogue"), |_| 0),
            Err(DispatchError::InstallDenied { .. })
        ));
        ev.install(Identity::extension("good"), |_| 100).unwrap();
        assert_eq!(ev.raise(2), Ok(100)); // guard passes; final handler wins
        assert_eq!(ev.raise(3), Ok(3)); // guard fails; primary result
    }

    #[test]
    fn handlers_can_be_uninstalled_by_installer_or_owner_only() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        let ext = Identity::extension("x");
        let id = ev.install(ext.clone(), |_| 2).unwrap();
        assert!(matches!(
            d.uninstall(&ev, id, &Identity::extension("other")),
            Err(DispatchError::NotOwner)
        ));
        d.uninstall(&ev, id, &ext).unwrap();
        assert_eq!(ev.raise(()), Ok(1));
        assert!(matches!(
            d.uninstall(&ev, id, &ext),
            Err(DispatchError::NoSuchHandler)
        ));
    }

    #[test]
    fn primary_can_be_removed() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        ev.install(Identity::extension("replacement"), |_| 2)
            .unwrap();
        owner.remove_primary().unwrap();
        assert_eq!(ev.raise(()), Ok(2));
        assert_eq!(d.handler_count(&ev).unwrap(), 1);
    }

    #[test]
    fn async_handlers_run_but_contribute_no_result() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 7).unwrap();
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = ran.clone();
        // Owner constrains this installer to asynchronous execution.
        owner
            .set_auth(|_| InstallDecision::Allow {
                owner_guard: None,
                constraints: Some(Constraints {
                    mode: HandlerMode::Asynchronous,
                    time_bound: None,
                }),
            })
            .unwrap();
        ev.install(Identity::extension("monitor"), move |_| {
            ran2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            99
        })
        .unwrap();
        assert_eq!(ev.raise(()), Ok(7), "async results are not reduced");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "default runner is inline"); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        assert_eq!(d.stats(&ev).unwrap().async_dispatches, 1);
    }

    #[test]
    fn time_bounded_handlers_are_aborted() {
        let clock = Clock::new();
        let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
        let d = Dispatcher::new(clock.clone(), profile);
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        owner
            .set_auth(|_| InstallDecision::Allow {
                owner_guard: None,
                constraints: Some(Constraints {
                    mode: HandlerMode::Synchronous,
                    time_bound: Some(1_000),
                }),
            })
            .unwrap();
        let clock2 = clock.clone();
        ev.install(Identity::extension("slow"), move |_| {
            clock2.advance(50_000); // simulated runaway handler
            1_000_000
        })
        .unwrap();
        // The runaway result is discarded; the primary's result stands.
        assert_eq!(ev.raise(()), Ok(1));
        assert_eq!(d.stats(&ev).unwrap().handlers_aborted, 1);
    }

    #[test]
    fn panicking_handler_is_contained_and_siblings_still_run() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        ev.install(Identity::extension("buggy"), |_| -> u32 {
            panic!("extension bug")
        })
        .unwrap();
        let sibling_ran = Arc::new(AtomicUsize::new(0));
        let s2 = sibling_ran.clone();
        ev.install(Identity::extension("sibling"), move |_| {
            s2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            7
        })
        .unwrap();
        assert_eq!(ev.raise(()), Ok(7), "the sibling's result stands");
        assert_eq!(sibling_ran.load(Ordering::Relaxed), 1); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
        let stats = d.stats(&ev).unwrap();
        assert_eq!(stats.handler_faults, 1);
        assert_eq!(stats.handlers_run, 2, "primary and sibling completed");
        assert_eq!(stats.handlers_aborted, 0);
    }

    #[test]
    fn fault_sink_receives_typed_handler_faults() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("Svc.Event", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        let log: Arc<Mutex<Vec<HandlerFault>>> = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        d.set_fault_sink(Arc::new(move |f: &HandlerFault| l2.lock().push(f.clone())));
        let id = ev
            .install(Identity::extension("buggy"), |_| -> u32 {
                panic!("division by zero")
            })
            .unwrap();
        assert_eq!(ev.raise(()), Ok(1));
        let faults = log.lock();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].event, "Svc.Event");
        assert_eq!(faults[0].handler, id);
        assert_eq!(faults[0].installer.name(), "buggy");
        match &faults[0].kind {
            FaultKind::Panic { message } => assert_eq!(message, "division by zero"),
            other => panic!("expected a panic fault, got {other:?}"),
        }
    }

    #[test]
    fn a_fast_path_panic_demotes_the_handler_for_good() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = calls.clone();
        owner
            .set_primary(move |_| -> u32 {
                c2.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                panic!("primary bug")
            })
            .unwrap();
        // First raise rides the fast path and the panic is contained there.
        assert!(matches!(
            ev.raise(()),
            Err(DispatchError::NoHandlerRan { .. })
        ));
        let s1 = d.stats(&ev).unwrap();
        assert_eq!(s1.fast_path_raises, 1);
        assert_eq!(s1.handler_faults, 1);
        // The handler has faulted once, so it is demoted: later raises take
        // the slow path (still contained, still invoked).
        assert!(matches!(
            ev.raise(()),
            Err(DispatchError::NoHandlerRan { .. })
        ));
        let s2 = d.stats(&ev).unwrap();
        assert_eq!(s2.fast_path_raises, 1, "no fast-path raise after demotion");
        assert_eq!(s2.handler_faults, 2);
        assert_eq!(calls.load(Ordering::Relaxed), 2); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn injected_panics_are_contained_and_attributed() {
        let d = disp();
        let plan = spin_fault::FaultPlan::new(42);
        d.set_fault_hook(plan.hook(spin_fault::SITE_DISPATCH));
        plan.configure(
            spin_fault::SITE_DISPATCH,
            spin_fault::SiteConfig::panic_always(),
        );
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        let log: Arc<Mutex<Vec<HandlerFault>>> = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        d.set_fault_sink(Arc::new(move |f: &HandlerFault| l2.lock().push(f.clone())));
        assert!(ev.raise(()).is_err(), "every handler invocation faults");
        assert_eq!(plan.injected_panics(), 1);
        let faults = log.lock();
        assert_eq!(faults.len(), 1);
        match &faults[0].kind {
            FaultKind::Panic { message } => {
                assert!(
                    message.contains("core.dispatch"),
                    "the injected panic names its site: {message}"
                );
            }
            other => panic!("expected a panic fault, got {other:?}"),
        }
        // Injection off: the same event dispatches cleanly (the faulted
        // primary was demoted but still runs on the slow path).
        plan.set_enabled(false);
        assert_eq!(ev.raise(()), Ok(1));
    }

    #[test]
    fn dispatch_cost_scales_linearly_with_guards() {
        let clock = Clock::new();
        let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
        let d = Dispatcher::new(clock.clone(), profile.clone());
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 0).unwrap();
        for _ in 0..50 {
            ev.install_guarded(Identity::extension("x"), |_| false, |_| 1)
                .unwrap();
        }
        let t0 = clock.now();
        ev.raise(()).unwrap();
        let cost = clock.now() - t0;
        let expected = profile.event_raise_base
            + 50 * profile.guard_eval
            + profile.handler_invoke
            + profile.inter_module_call;
        assert_eq!(cost, expected);
    }

    #[test]
    fn handlers_may_reenter_the_dispatcher() {
        let d = disp();
        let (inner_ev, inner_owner) = d.define::<(), u32>("Inner", Identity::kernel("k"));
        inner_owner.set_primary(|_| 5).unwrap();
        let (outer_ev, outer_owner) = d.define::<(), u32>("Outer", Identity::kernel("k"));
        let inner2 = inner_ev.clone();
        outer_owner
            .set_primary(move |_| inner2.raise(()).unwrap() + 1)
            .unwrap();
        assert_eq!(outer_ev.raise(()), Ok(6));
    }

    #[test]
    fn destroyed_events_become_unknown_on_every_handle() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        let other_handle = ev.clone();
        assert_eq!(ev.raise(()), Ok(1));
        owner.destroy().unwrap();
        for handle in [&ev, &other_handle] {
            assert!(matches!(
                handle.raise(()),
                Err(DispatchError::UnknownEvent { .. })
            ));
        }
        assert!(matches!(
            ev.install(Identity::extension("late"), |_| 2),
            Err(DispatchError::UnknownEvent { .. })
        ));
        assert!(d.stats(&ev).is_err());
    }

    #[test]
    fn destroy_requires_the_owner_identity() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        assert!(matches!(
            d.destroy(&ev, &Identity::extension("rogue")),
            Err(DispatchError::NotOwner)
        ));
        assert_eq!(ev.raise(()), Ok(1), "event survives a denied destroy");
    }

    #[test]
    fn redefining_a_destroyed_name_starts_fresh() {
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        ev.raise(()).unwrap();
        owner.destroy().unwrap();
        let (ev2, owner2) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner2.set_primary(|_| 2).unwrap();
        assert_eq!(ev2.raise(()), Ok(2));
        let stats = d.stats(&ev2).unwrap();
        assert_eq!(stats.raises, 1, "fresh statistics after redefinition");
        assert!(ev.raise(()).is_err(), "stale handles stay unknown");
    }

    #[test]
    fn a_destroyed_event_is_unknown_even_behind_a_closed_gate() {
        // A posted, unrun async invocation keeps the event state alive
        // past `destroy`, so the handle still upgrades and the published
        // record — gate closed, tombstone — is all that answers.
        let d = disp();
        let posted: Arc<Mutex<Vec<AsyncInvocation>>> = Arc::new(Mutex::new(Vec::new()));
        let p2 = posted.clone();
        d.set_async_runner(Arc::new(move |inv| p2.lock().push(inv)));
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        owner.set_primary(|_| 1).unwrap();
        owner
            .set_auth(|_| InstallDecision::Allow {
                owner_guard: None,
                constraints: Some(Constraints {
                    mode: HandlerMode::Asynchronous,
                    time_bound: None,
                }),
            })
            .unwrap();
        ev.install(Identity::extension("monitor"), |_| 0).unwrap();
        assert_eq!(ev.raise(()), Ok(1));
        ev.quiesce().unwrap();
        owner.destroy().unwrap();
        assert_eq!(posted.lock().len(), 1, "the invocation pins the state");
        // Tombstone before gate: not `Held` in a queue nobody will resume.
        assert_eq!(ev.raise(()), Err(ev.unknown()));
        assert_eq!(ev.raise_batch(vec![(), ()]), vec![Err(ev.unknown()); 2]);
        // The control plane reads the same tombstone.
        assert_eq!(ev.held_len(), Err(ev.unknown()));
        assert_eq!(ev.resume(), Err(ev.unknown()));
        assert_eq!(
            ev.install(Identity::extension("late"), |_| 2),
            Err(ev.unknown())
        );
    }

    #[test]
    fn destroy_releases_the_state_while_handles_survive() {
        // Handles are strong: what frees an event's closures and parked
        // arguments is `destroy`, not the last handle going away.
        let d = disp();
        let (ev, owner) = d.define::<Arc<()>, u32>("E", Identity::kernel("k"));
        let probe = Arc::new(());
        let (in_handler, in_guard, in_reducer, in_auth) =
            (probe.clone(), probe.clone(), probe.clone(), probe.clone());
        owner
            .set_primary(move |_| Arc::strong_count(&in_handler) as u32)
            .unwrap();
        owner
            .set_auth(move |_| {
                let _held = &in_auth;
                InstallDecision::allow()
            })
            .unwrap();
        ev.install_guarded(
            Identity::extension("x"),
            move |_| Arc::strong_count(&in_guard) > 0,
            |_| 0,
        )
        .unwrap();
        owner
            .set_reducer(move |rs| {
                rs.into_iter().sum::<u32>() + Arc::strong_count(&in_reducer) as u32
            })
            .unwrap();
        let ledger = crate::quota::QuotaLedger::new();
        let cell = ledger.register("t", Default::default());
        assert_eq!(ev.bind_quota(cell.clone()), Ok(true));
        assert_eq!(ev.raise(Arc::new(())), Ok(10), "every closure is live");

        // An argument parked behind a gate that closed before the destroy.
        let parked = Arc::new(());
        ev.quiesce().unwrap();
        assert!(matches!(
            ev.raise(parked.clone()),
            Err(DispatchError::Held { .. })
        ));
        assert_eq!(Arc::strong_count(&parked), 2);

        let kept = ev.clone();
        owner.destroy().unwrap();
        assert_eq!(
            Arc::strong_count(&probe),
            1,
            "handler, guard, reducer, auth"
        );
        assert_eq!(Arc::strong_count(&parked), 1, "the hold queue");
        assert_eq!(Arc::strong_count(&cell), 2, "ours and the ledger's");
        for handle in [&ev, &kept] {
            assert_eq!(handle.raise(Arc::new(())), Err(handle.unknown()));
        }
    }

    #[test]
    fn generation_moves_only_on_handler_set_edits() {
        let d = disp();
        let owner_id = Identity::kernel("k");
        let (ev, owner) = d.define::<(), u32>("E", owner_id.clone());
        let v1 = Identity::extension("v1");
        owner.set_primary(|_| 1).unwrap();
        ev.install(v1.clone(), |_| 2).unwrap();
        let g = ev.generation().unwrap();
        assert_eq!(g, 2, "one bump per install");

        // The gate, the quota binding and a refused destroy publish their
        // own field of the record and leave the handler set's version be.
        ev.quiesce().unwrap();
        assert!(matches!(ev.raise(()), Err(DispatchError::Held { .. })));
        assert_eq!(ev.resume(), Ok(1));
        let cell = crate::quota::QuotaLedger::new().register("t", Default::default());
        assert_eq!(ev.bind_quota(cell.clone()), Ok(true));
        assert_eq!(ev.bind_quota(cell.clone()), Ok(false), "one-shot");
        assert_eq!(
            d.destroy(&ev, &Identity::extension("rogue")),
            Err(DispatchError::NotOwner)
        );
        assert_eq!(ev.generation(), Ok(g));
        assert_eq!(ev.raise(()), Ok(2), "and the bound event still dispatches");
        assert_eq!(cell.snapshot().admitted, 1, "through the republished cell");

        // One rebind is one bump; one restore is one bump.
        let spec = InstallSpec {
            installer: Identity::extension("v2"),
            handler: Arc::new(|_: &()| 3),
            guards: Vec::new(),
            constraints: Constraints::default(),
        };
        let receipt = ev.rebind(&owner_id, &v1, vec![spec]).unwrap();
        assert_eq!(ev.generation(), Ok(g + 1));
        assert_eq!(ev.raise(()), Ok(3));
        ev.restore(&owner_id, receipt).unwrap();
        assert_eq!(ev.generation(), Ok(g + 2));
        assert_eq!(ev.raise(()), Ok(2));
    }

    /// The entries of the event's published plan, as the plan holds them.
    fn plan_entries<A, R>(ev: &Event<A, R>) -> Vec<Arc<Entry<A, R>>> {
        let published = ev.state.plan.read();
        published
            .plan
            .as_ref()
            .expect("live event")
            .entries
            .to_vec()
    }

    /// Whether two entry lists hold the very same entries, in order.
    fn same_entries<A, R>(a: &[Arc<Entry<A, R>>], b: &[Arc<Entry<A, R>>]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    #[test]
    fn consecutive_plans_share_every_untouched_entry() {
        let d = disp();
        let owner_id = Identity::kernel("k");
        let (ev, owner) = d.define::<u32, u32>("E", owner_id.clone());
        let (v1, v2) = (Identity::extension("v1"), Identity::extension("v2"));
        owner.set_primary(|x| *x).unwrap();
        let key = KeyFn::new(|x: &u32| u64::from(*x));
        ev.install_keyed(v1.clone(), &key, 5, |_| 50).unwrap();
        let base = plan_entries(&ev);

        let id = ev.install(v2.clone(), |_| 2).unwrap();
        let installed = plan_entries(&ev);
        assert!(same_entries(&installed[..2], &base), "install");
        assert_eq!(installed[2].id, id);

        d.uninstall(&ev, id, &v2).unwrap();
        assert!(same_entries(&plan_entries(&ev), &base), "uninstall");

        let spec = InstallSpec {
            installer: v2,
            handler: Arc::new(|_: &u32| 7),
            guards: Vec::new(),
            constraints: Constraints::default(),
        };
        let receipt = ev.rebind(&owner_id, &v1, vec![spec]).unwrap();
        let rebound = plan_entries(&ev);
        assert!(
            same_entries(&rebound[..1], &base[..1]),
            "rebind keeps the primary"
        );
        assert!(
            Arc::ptr_eq(&receipt.removed[0].1, &base[1]),
            "the receipt holds v1's"
        );
        assert_eq!(ev.raise(5), Ok(7));

        ev.restore(&owner_id, receipt).unwrap();
        assert!(same_entries(&plan_entries(&ev), &base), "restore");
        assert_eq!(ev.raise(5), Ok(50));
    }

    #[test]
    fn a_sticky_fault_flag_survives_rebind_and_restore() {
        let d = disp();
        let owner_id = Identity::kernel("k");
        let (ev, _owner) = d.define::<(), u32>("E", owner_id.clone());
        let v1 = Identity::extension("v1");
        ev.install(v1.clone(), |_| -> u32 { panic!("v1 bug") })
            .unwrap();
        assert!(ev.raise(()).is_err(), "faults on the fast path");
        let spec = InstallSpec {
            installer: Identity::extension("v2"),
            handler: Arc::new(|_: &()| 2),
            guards: Vec::new(),
            constraints: Constraints::default(),
        };
        let receipt = ev.rebind(&owner_id, &v1, vec![spec]).unwrap();
        assert_eq!(ev.raise(()), Ok(2), "v2 takes the fast path");
        ev.restore(&owner_id, receipt).unwrap();
        assert!(ev.raise(()).is_err());
        let stats = d.stats(&ev).unwrap();
        assert_eq!(stats.fast_path_raises, 2, "the restored v1 stays demoted");
        assert_eq!(stats.handler_faults, 2);
        // ordering: Relaxed — test plumbing; the raises above are sequential.
        assert!(plan_entries(&ev)[0].fault_flag.load(Ordering::Relaxed));
    }

    #[test]
    fn in_flight_snapshots_are_isolated_from_writers() {
        // A handler that installs another handler mid-raise: the in-flight
        // raise must still see the old snapshot, the next raise the new one.
        let d = disp();
        let (ev, owner) = d.define::<(), u32>("E", Identity::kernel("k"));
        let ev2 = ev.clone();
        let installed = Arc::new(AtomicUsize::new(0));
        let installed2 = installed.clone();
        owner
            .set_primary(move |_| {
                // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
                if installed2.swap(1, Ordering::Relaxed) == 0 {
                    ev2.install(Identity::extension("late"), |_| 99).unwrap();
                }
                1
            })
            .unwrap();
        // First raise: snapshot predates the install; the new handler does
        // not run (the primary's result stands).
        assert_eq!(ev.raise(()), Ok(1));
        // Second raise: the republished snapshot includes it.
        assert_eq!(ev.raise(()), Ok(99));
    }
}
