//! Per-host interrupt controller.
//!
//! Devices *post* interrupts (typically from a timer callback when a disk
//! operation or packet delivery completes); the executor *dispatches* them
//! to registered handlers at safe points, charging the interrupt overhead
//! from the machine profile. Handlers run in interrupt context — in SPIN
//! "protocol processing is done by a separately scheduled kernel thread
//! outside of the interrupt handler" (§5.3), which the network code in
//! `spin-net` reproduces by having its interrupt handlers merely unblock a
//! protocol thread.

use crate::clock::Clock;
use crate::cost::MachineProfile;
use spin_check::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// A device interrupt vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrqVector(pub u32);

type IrqHandler = Arc<dyn Fn() + Send + Sync>;

/// How many pending interrupts one critical section of
/// [`IrqController::dispatch_pending`] takes.
const BATCH: usize = 8;

/// A taken interrupt: its vector and the handler it found.
type Taken = Option<(IrqVector, Option<IrqHandler>)>;

#[derive(Default)]
struct IrqState {
    /// Posted vectors, oldest first.
    pending: VecDeque<IrqVector>,
    /// A host registers a handful of vectors, and each interrupt looks
    /// its own up: a small ordered map, with no hashing.
    handlers: BTreeMap<IrqVector, IrqHandler>,
    /// Interrupts posted for vectors with no handler yet.
    dropped: u64,
    /// Registrations ever made, mirrored in [`Irqs::registrations`].
    registrations: u64,
}

impl IrqState {
    /// The handler `vector` finds now, or `None`, counted dropped.
    fn resolve(&mut self, vector: IrqVector) -> Option<IrqHandler> {
        let handler = self.handlers.get(&vector).cloned();
        self.dropped += u64::from(handler.is_none());
        handler
    }
}

struct Irqs {
    state: Mutex<IrqState>,
    /// `pending.len()`, stored under the lock by whoever changed it: the
    /// executor asks "anything pending?" at every step, and a load answers.
    queued: AtomicUsize,
    /// `registrations`, stored under the lock by `register`: a dispatch
    /// that loads it unchanged after a handler knows the handlers it took
    /// are still the registered ones.
    registrations: AtomicU64,
}

/// The interrupt controller for one simulated host.
#[derive(Clone)]
pub struct IrqController {
    inner: Arc<Irqs>,
    clock: Clock,
    profile: Arc<MachineProfile>,
}

impl IrqController {
    /// Creates a controller with no handlers.
    pub fn new(clock: Clock, profile: Arc<MachineProfile>) -> Self {
        IrqController {
            inner: Arc::new(Irqs {
                state: Mutex::default(),
                queued: AtomicUsize::new(0),
                registrations: AtomicU64::new(0),
            }),
            clock,
            profile,
        }
    }

    /// Registers the handler for a vector, replacing any previous one.
    pub fn register(&self, vector: IrqVector, handler: impl Fn() + Send + Sync + 'static) {
        let mut st = self.inner.state.lock();
        st.handlers.insert(vector, Arc::new(handler));
        st.registrations += 1;
        let published = &self.inner.registrations;
        // ordering: Release — stored under the lock; pairs with dispatch_pending's Acquire load.
        published.store(st.registrations, Ordering::Release);
    }

    /// Posts an interrupt; it stays pending until dispatched.
    pub fn post(&self, vector: IrqVector) {
        let mut st = self.inner.state.lock();
        st.pending.push_back(vector);
        // ordering: Release — stored under the lock; pairs with the lock-free readers' Acquire.
        self.inner.queued.store(st.pending.len(), Ordering::Release);
    }

    /// Whether any interrupt is pending.
    pub fn has_pending(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores made under the lock.
        self.inner.queued.load(Ordering::Acquire) != 0
    }

    /// Dispatches all pending interrupts in posting order, charging the
    /// profile's interrupt overhead for each — one charge and one handler
    /// call per interrupt, never coalesced. Returns how many ran.
    ///
    /// One critical section takes up to eight pending interrupts and
    /// the handler each finds (or counts it dropped); the charges and the
    /// handlers run outside it, so a handler may post further interrupts
    /// — they run after those taken before them, as posting order says —
    /// or register handlers. A registration made by a handler is seen by
    /// every interrupt after it, as if each had found its handler only
    /// when its turn came: the handlers still to run are looked up again.
    /// With nothing pending, a dispatch is one load.
    pub fn dispatch_pending(&self) -> usize {
        let mut dispatched = 0;
        let mut batch: [Taken; BATCH] = Default::default();
        // ordering: Acquire — pairs with the Release stores made under the lock.
        while self.inner.queued.load(Ordering::Acquire) != 0 {
            let (taken, mut seen) = {
                let mut st = self.inner.state.lock();
                let taken = st.pending.len().min(BATCH);
                for slot in &mut batch[..taken] {
                    let vector = st.pending.pop_front().expect("counted pending");
                    *slot = Some((vector, st.resolve(vector)));
                }
                // ordering: Release — stored under the lock; pairs with the lock-free readers' Acquire.
                self.inner.queued.store(st.pending.len(), Ordering::Release);
                (taken, st.registrations)
            };
            for i in 0..taken {
                let (_, handler) = batch[i].take().expect("taken above");
                self.clock.advance(self.profile.interrupt_overhead);
                dispatched += 1;
                let Some(f) = handler else { continue };
                f();
                // ordering: Acquire — pairs with register's Release store.
                if self.inner.registrations.load(Ordering::Acquire) != seen {
                    let mut st = self.inner.state.lock();
                    seen = st.registrations;
                    for (vector, handler) in batch[i + 1..taken].iter_mut().flatten() {
                        st.dropped -= u64::from(handler.is_none());
                        *handler = st.resolve(*vector);
                    }
                }
            }
        }
        dispatched
    }

    /// Number of interrupts dropped for lack of a handler.
    pub fn dropped(&self) -> u64 {
        self.inner.state.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctl() -> IrqController {
        IrqController::new(Clock::new(), Arc::new(MachineProfile::alpha_axp_3000_400()))
    }

    #[test]
    fn dispatch_runs_handlers_in_order() {
        let c = ctl();
        let log = Arc::new(Mutex::new(Vec::new()));
        for v in [1u32, 2] {
            let log = log.clone();
            c.register(IrqVector(v), move || log.lock().push(v));
        }
        c.post(IrqVector(2));
        c.post(IrqVector(1));
        assert!(c.has_pending());
        assert_eq!(c.dispatch_pending(), 2);
        assert_eq!(*log.lock(), vec![2, 1]);
        assert!(!c.has_pending());
    }

    #[test]
    fn unhandled_interrupts_are_counted() {
        let c = ctl();
        c.post(IrqVector(9));
        c.dispatch_pending();
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn handlers_may_post_more_interrupts() {
        let c = ctl();
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let count2 = count.clone();
        c.register(IrqVector(1), move || {
            // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
            if count2.fetch_add(1, Ordering::Relaxed) == 0 {
                c2.post(IrqVector(1));
            }
        });
        c.post(IrqVector(1));
        assert_eq!(c.dispatch_pending(), 2);
        assert_eq!(count.load(Ordering::Relaxed), 2); // ordering: Relaxed — test plumbing; the join/assert sequencing is the sync.
    }

    #[test]
    fn dispatch_charges_interrupt_overhead() {
        let clock = Clock::new();
        let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
        let c = IrqController::new(clock.clone(), profile.clone());
        c.register(IrqVector(1), || {});
        c.post(IrqVector(1));
        c.post(IrqVector(1));
        c.dispatch_pending();
        assert_eq!(clock.now(), 2 * profile.interrupt_overhead);
    }

    /// The retired dispatch — one critical section per interrupt, which
    /// pops it and finds its handler then — kept as the reference the
    /// batched one is checked against.
    #[derive(Clone)]
    struct Retired {
        state: Arc<Mutex<IrqState>>,
        clock: Clock,
        overhead: u64,
    }

    /// What the comparison drives: both controllers behind one face.
    trait Controller: Clone + Send + Sync + 'static {
        fn register(&self, vector: IrqVector, handler: IrqHandler);
        fn post(&self, vector: IrqVector);
        fn dispatch_pending(&self) -> usize;
        fn dropped(&self) -> u64;
        fn has_pending(&self) -> bool;
        fn clock(&self) -> &Clock;
    }

    impl Controller for IrqController {
        fn register(&self, vector: IrqVector, handler: IrqHandler) {
            IrqController::register(self, vector, move || handler())
        }
        fn post(&self, vector: IrqVector) {
            IrqController::post(self, vector)
        }
        fn dispatch_pending(&self) -> usize {
            IrqController::dispatch_pending(self)
        }
        fn dropped(&self) -> u64 {
            IrqController::dropped(self)
        }
        fn has_pending(&self) -> bool {
            IrqController::has_pending(self)
        }
        fn clock(&self) -> &Clock {
            &self.clock
        }
    }

    impl Controller for Retired {
        fn register(&self, vector: IrqVector, handler: IrqHandler) {
            self.state.lock().handlers.insert(vector, handler);
        }
        fn post(&self, vector: IrqVector) {
            self.state.lock().pending.push_back(vector);
        }
        fn dispatch_pending(&self) -> usize {
            let mut dispatched = 0;
            loop {
                let handler = {
                    let mut st = self.state.lock();
                    let Some(vector) = st.pending.pop_front() else {
                        break;
                    };
                    st.resolve(vector)
                };
                self.clock.advance(self.overhead);
                if let Some(f) = handler {
                    f();
                }
                dispatched += 1;
            }
            dispatched
        }
        fn dropped(&self) -> u64 {
            self.state.lock().dropped
        }
        fn has_pending(&self) -> bool {
            !self.state.lock().pending.is_empty()
        }
        fn clock(&self) -> &Clock {
            &self.clock
        }
    }

    /// Each handler call, in order: its vector, its version and the time.
    type Log = Arc<Mutex<Vec<(u32, u32, u64)>>>;

    /// What the n-th handler call does besides logging itself.
    #[derive(Debug, Clone, Copy)]
    enum Then {
        Nothing,
        /// Post this vector.
        Post(u32),
        /// Register a new version of this vector's handler.
        Register(u32),
    }

    fn then() -> impl Strategy<Value = Then> {
        prop_oneof![
            Just(Then::Nothing),
            (0u32..4).prop_map(Then::Post),
            (0u32..4).prop_map(Then::Register),
        ]
    }

    /// Registers version `version` of `vector`'s handler on `c`: it logs
    /// (vector, version, time), then does what `script` says for the
    /// how-many-th handler call this is.
    fn install<C: Controller>(
        c: &C,
        vector: u32,
        version: u32,
        script: &Arc<Vec<Then>>,
        log: &Log,
    ) {
        let (c2, script, log) = (c.clone(), script.clone(), log.clone());
        c.register(
            IrqVector(vector),
            Arc::new(move || {
                let n = {
                    let mut log = log.lock();
                    log.push((vector, version, c2.clock().now()));
                    log.len() - 1
                };
                match script.get(n).copied().unwrap_or(Then::Nothing) {
                    Then::Nothing => {}
                    Then::Post(v) => c2.post(IrqVector(v)),
                    Then::Register(v) => install(&c2, v, n as u32 + 1, &script, &log),
                }
            }),
        );
    }

    /// Registers handlers for the vectors in `registered`, posts `posts`,
    /// dispatches until nothing is pending, and returns everything
    /// observable: each handler call (vector, version, time), each pass's
    /// count, and the dropped total.
    fn transcript<C: Controller>(
        c: C,
        registered: &[u32],
        posts: &[u32],
        script: &[Then],
    ) -> (Vec<(u32, u32, u64)>, Vec<usize>, u64) {
        let (script, log): (_, Log) = (Arc::new(script.to_vec()), Arc::default());
        for &v in registered {
            install(&c, v, 0, &script, &log);
        }
        for &v in posts {
            c.post(IrqVector(v));
        }
        let mut passes = Vec::new();
        while c.has_pending() && passes.len() < 64 {
            passes.push(c.dispatch_pending());
        }
        let log = std::mem::take(&mut *log.lock());
        (log, passes, c.dropped())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The batched dispatch against the one it replaced: over random
        /// posts, with handlers that post further interrupts and register
        /// new handlers (for their own vector or another, one with no
        /// handler yet included) mid-dispatch, every interrupt runs the
        /// same handler version at the same virtual time, in the same
        /// order, and the drop count agrees.
        #[test]
        fn a_batched_dispatch_runs_what_one_pop_at_a_time_ran(
            registered in proptest::collection::vec(0u32..4, 0..4),
            posts in proptest::collection::vec(0u32..4, 0..24),
            script in proptest::collection::vec(then(), 0..32),
        ) {
            let profile = Arc::new(MachineProfile::alpha_axp_3000_400());
            let new = IrqController::new(Clock::new(), profile.clone());
            let old = Retired {
                state: Arc::default(),
                clock: Clock::new(),
                overhead: profile.interrupt_overhead,
            };
            prop_assert_eq!(
                transcript(new, &registered, &posts, &script),
                transcript(old, &registered, &posts, &script)
            );
        }
    }
}
