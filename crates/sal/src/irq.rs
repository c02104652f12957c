//! Per-host interrupt controller.
//!
//! Devices *post* interrupts (typically from a timer callback when a disk
//! operation or packet delivery completes); the executor *dispatches* them
//! to registered handlers at safe points, charging
//! [`Cost::InterruptOverhead`] for each. Handlers run in interrupt context — in SPIN
//! "protocol processing is done by a separately scheduled kernel thread
//! outside of the interrupt handler" (§5.3), which the network code in
//! `spin-net` reproduces by having its interrupt handlers merely unblock a
//! protocol thread.
//!
//! The vectors mirror a fixed motherboard wiring (`board::vectors`), and
//! each has one write-once handler slot, set like every other hook: a
//! second registration is refused. An interrupt reads its vector's slot —
//! one load — when its turn comes, so a handler registered by an earlier
//! handler is found by every interrupt after it; one whose vector has no
//! handler then is charged and dispatched to nothing.

use crate::clock::Clock;
use crate::cost::Cost;
use spin_check::hooks::HookSlot;
use spin_check::sync::{AtomicUsize, Mutex, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

/// A device interrupt vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrqVector(pub u32);

type IrqHandler = Box<dyn Fn() + Send + Sync>;

/// Handler slots per controller: vectors `0..VECTORS`. The board wires
/// four; a vector past the table can be posted, and is dropped.
const VECTORS: usize = 8;

/// How many pending interrupts one critical section of
/// [`IrqController::dispatch_pending`] takes.
const BATCH: usize = 8;

struct Irqs {
    /// Posted vectors, oldest first.
    pending: Mutex<VecDeque<IrqVector>>,
    /// `pending.len()`, stored under the lock by whoever changed it: the
    /// executor asks "anything pending?" at every step, and a load answers.
    queued: AtomicUsize,
    /// One write-once handler slot per vector, read with one load.
    handlers: [HookSlot<IrqHandler>; VECTORS],
}

/// The interrupt controller for one simulated host.
#[derive(Clone)]
pub struct IrqController {
    inner: Arc<Irqs>,
    clock: Clock,
}

impl IrqController {
    /// Creates a controller with no handlers.
    pub fn new(clock: Clock) -> Self {
        IrqController {
            inner: Arc::new(Irqs {
                pending: Mutex::default(),
                queued: AtomicUsize::new(0),
                handlers: std::array::from_fn(|_| HookSlot::new()),
            }),
            clock,
        }
    }

    /// Registers the handler for a vector. Returns `false`, and drops
    /// `handler`, if the vector already has one or has no slot.
    pub fn register(&self, vector: IrqVector, handler: impl Fn() + Send + Sync + 'static) -> bool {
        let slot = self.inner.handlers.get(vector.0 as usize);
        slot.is_some_and(|slot| slot.set(Box::new(handler)))
    }

    /// Posts an interrupt; it stays pending until dispatched.
    pub fn post(&self, vector: IrqVector) {
        let mut pending = self.inner.pending.lock();
        pending.push_back(vector);
        // ordering: Release — stored under the lock; pairs with the lock-free readers' Acquire.
        self.inner.queued.store(pending.len(), Ordering::Release);
    }

    /// Whether any interrupt is pending.
    pub fn has_pending(&self) -> bool {
        // ordering: Acquire — pairs with the Release stores made under the lock.
        self.inner.queued.load(Ordering::Acquire) != 0
    }

    /// Dispatches all pending interrupts in posting order, charging the
    /// interrupt overhead for each — one charge and one handler
    /// call per interrupt, never coalesced. Returns how many ran.
    ///
    /// One critical section takes up to eight pending interrupts; the
    /// charges and the handlers run outside it, so a handler may post
    /// further interrupts — they run after those taken before them, as
    /// posting order says — or register handlers, which the interrupts
    /// after it find. With nothing pending, a dispatch is one load.
    pub fn dispatch_pending(&self) -> usize {
        let mut dispatched = 0;
        let mut batch = [IrqVector(0); BATCH];
        // ordering: Acquire — pairs with the Release stores made under the lock.
        while self.inner.queued.load(Ordering::Acquire) != 0 {
            let taken = {
                let mut pending = self.inner.pending.lock();
                let taken = pending.len().min(BATCH);
                for (slot, vector) in batch.iter_mut().zip(pending.drain(..taken)) {
                    *slot = vector;
                }
                // ordering: Release — stored under the lock; pairs with the lock-free readers' Acquire.
                self.inner.queued.store(pending.len(), Ordering::Release);
                taken
            };
            for vector in &batch[..taken] {
                self.clock.charge(Cost::InterruptOverhead, 1);
                dispatched += 1;
                let slot = self.inner.handlers.get(vector.0 as usize);
                if let Some(handler) = slot.and_then(HookSlot::get) {
                    handler();
                }
            }
        }
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spin_check::sync::Counter;
    use std::collections::BTreeMap;

    fn ctl() -> IrqController {
        IrqController::new(Clock::new())
    }

    #[test]
    fn dispatch_runs_handlers_in_order() {
        let c = ctl();
        let log = Arc::new(Mutex::new(Vec::new()));
        for v in [1u32, 2] {
            let log = log.clone();
            assert!(c.register(IrqVector(v), move || log.lock().push(v)));
        }
        c.post(IrqVector(2));
        c.post(IrqVector(1));
        assert!(c.has_pending());
        assert_eq!(c.dispatch_pending(), 2);
        assert_eq!(*log.lock(), vec![2, 1]);
        assert!(!c.has_pending());
    }

    /// A vector with no handler, inside the table or past it, is
    /// dispatched and charged, and runs nothing: the dispatch counts three
    /// interrupts and one handler call.
    #[test]
    fn unhandled_interrupts_are_counted() {
        let c = ctl();
        assert!(!c.register(IrqVector(VECTORS as u32), || {}), "no slot");
        let calls = Arc::new(Counter::default());
        let calls2 = calls.clone();
        assert!(c.register(IrqVector(1), move || calls2.add(1)));
        c.post(IrqVector(3));
        c.post(IrqVector(9));
        c.post(IrqVector(1));
        assert_eq!(c.dispatch_pending(), 3);
        assert_eq!(calls.get(), 1, "the two unhandled interrupts ran nothing");
        assert_eq!(c.clock.now(), 3 * Cost::InterruptOverhead.ns());
    }

    #[test]
    fn a_second_registration_is_refused_and_the_first_handler_keeps_running() {
        let c = ctl();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (tag, registered) in [("first", true), ("second", false)] {
            let log = log.clone();
            assert_eq!(
                c.register(IrqVector(2), move || log.lock().push(tag)),
                registered
            );
        }
        c.post(IrqVector(2));
        c.post(IrqVector(2));
        assert_eq!(c.dispatch_pending(), 2);
        assert_eq!(*log.lock(), ["first", "first"]);
    }

    /// Interrupts of one batch find their handlers at their own turn: the
    /// handler of the first registers one for a vector that had none, and
    /// the later interrupts of the batch run it. Of the five dispatched, the
    /// one before the registration runs nothing.
    #[test]
    fn a_handler_registered_mid_batch_is_found_by_the_later_interrupts_of_its_batch() {
        let c = ctl();
        let ran = Arc::new(Counter::default());
        let (c2, ran2) = (c.clone(), ran.clone());
        assert!(c.register(IrqVector(1), move || {
            let ran = ran2.clone();
            let taken = c2.register(IrqVector(2), move || {
                ran.add(1);
            });
            assert!(taken, "vector 2 had no handler");
        }));
        c.post(IrqVector(2));
        c.post(IrqVector(1));
        for _ in 0..3 {
            c.post(IrqVector(2));
        }
        assert_eq!(c.dispatch_pending(), 5, "one batch");
        assert_eq!(ran.get(), 3);
    }

    #[test]
    fn handlers_may_post_more_interrupts() {
        let c = ctl();
        let count = Arc::new(Counter::default());
        let c2 = c.clone();
        let count2 = count.clone();
        assert!(c.register(IrqVector(1), move || {
            if count2.fetch_add(1) == 0 {
                c2.post(IrqVector(1));
            }
        }));
        c.post(IrqVector(1));
        assert_eq!(c.dispatch_pending(), 2);
        assert_eq!(count.get(), 2);
    }

    #[test]
    fn dispatch_charges_interrupt_overhead() {
        let clock = Clock::new();
        let c = IrqController::new(clock.clone());
        assert!(c.register(IrqVector(1), || {}));
        c.post(IrqVector(1));
        c.post(IrqVector(1));
        c.dispatch_pending();
        assert_eq!(clock.now(), 2 * Cost::InterruptOverhead.ns());
    }

    /// A handler as the comparison hands it to both controllers.
    type Handler = Arc<dyn Fn() + Send + Sync>;

    /// The retired controller's state: a handler map, refusing a second
    /// registration as the slot table does.
    #[derive(Default)]
    struct RetiredState {
        pending: VecDeque<IrqVector>,
        handlers: BTreeMap<IrqVector, Handler>,
    }

    /// The retired dispatch — one critical section per interrupt, which
    /// pops it and finds its handler then — kept as the reference the
    /// batched one is checked against.
    #[derive(Clone)]
    struct Retired {
        state: Arc<Mutex<RetiredState>>,
        clock: Clock,
    }

    /// What the comparison drives: both controllers behind one face.
    trait Controller: Clone + Send + Sync + 'static {
        fn register(&self, vector: IrqVector, handler: Handler) -> bool;
        fn post(&self, vector: IrqVector);
        fn dispatch_pending(&self) -> usize;
        fn has_pending(&self) -> bool;
        fn clock(&self) -> &Clock;
    }

    impl Controller for IrqController {
        fn register(&self, vector: IrqVector, handler: Handler) -> bool {
            IrqController::register(self, vector, move || handler())
        }
        fn post(&self, vector: IrqVector) {
            IrqController::post(self, vector)
        }
        fn dispatch_pending(&self) -> usize {
            IrqController::dispatch_pending(self)
        }
        fn has_pending(&self) -> bool {
            IrqController::has_pending(self)
        }
        fn clock(&self) -> &Clock {
            &self.clock
        }
    }

    impl Controller for Retired {
        fn register(&self, vector: IrqVector, handler: Handler) -> bool {
            let mut st = self.state.lock();
            let fresh = !st.handlers.contains_key(&vector);
            st.handlers.entry(vector).or_insert(handler);
            fresh
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
                    st.handlers.get(&vector).cloned()
                };
                self.clock.charge(Cost::InterruptOverhead, 1);
                if let Some(f) = handler {
                    f();
                }
                dispatched += 1;
            }
            dispatched
        }
        fn has_pending(&self) -> bool {
            !self.state.lock().pending.is_empty()
        }
        fn clock(&self) -> &Clock {
            &self.clock
        }
    }

    /// What a run shows: each handler call, in order — its vector, its
    /// version and the time — and each registration's vector and outcome.
    #[derive(Default)]
    struct Seen {
        calls: Vec<(u32, u32, u64)>,
        taken: Vec<(u32, bool)>,
    }

    type Log = Arc<Mutex<Seen>>;

    /// What the n-th handler call does besides logging itself.
    #[derive(Debug, Clone, Copy)]
    enum Then {
        Nothing,
        /// Post this vector.
        Post(u32),
        /// Register a handler for this vector: taken if it has none,
        /// refused if it has.
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
        let (c2, script, log2) = (c.clone(), script.clone(), log.clone());
        let taken = c.register(
            IrqVector(vector),
            Arc::new(move || {
                let n = {
                    let mut seen = log2.lock();
                    seen.calls.push((vector, version, c2.clock().now()));
                    seen.calls.len() - 1
                };
                match script.get(n).copied().unwrap_or(Then::Nothing) {
                    Then::Nothing => {}
                    Then::Post(v) => c2.post(IrqVector(v)),
                    Then::Register(v) => install(&c2, v, n as u32 + 1, &script, &log2),
                }
            }),
        );
        log.lock().taken.push((vector, taken));
    }

    /// Registers handlers for the vectors in `registered`, posts `posts`,
    /// dispatches until nothing is pending, and returns everything
    /// observable: each handler call (vector, version, time), each
    /// registration's outcome and each pass's count (the interrupts that
    /// ran no handler are the passes' sum less the calls).
    #[allow(clippy::type_complexity)]
    fn transcript<C: Controller>(
        c: C,
        registered: &[u32],
        posts: &[u32],
        script: &[Then],
    ) -> (Vec<(u32, u32, u64)>, Vec<(u32, bool)>, Vec<usize>) {
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
        let seen = std::mem::take(&mut *log.lock());
        (seen.calls, seen.taken, passes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The batched dispatch against the one it replaced: over random
        /// posts, with handlers that post further interrupts and register
        /// handlers (for their own vector, refused, or for one with no
        /// handler yet, taken) mid-dispatch, every interrupt runs the same
        /// handler version at the same virtual time, in the same order,
        /// every registration has the same outcome, and so as many
        /// interrupts run no handler.
        #[test]
        fn a_batched_dispatch_runs_what_one_pop_at_a_time_ran(
            registered in proptest::collection::vec(0u32..4, 0..4),
            posts in proptest::collection::vec(0u32..4, 0..24),
            script in proptest::collection::vec(then(), 0..32),
        ) {
            let new = IrqController::new(Clock::new());
            let old = Retired {
                state: Arc::default(),
                clock: Clock::new(),
            };
            prop_assert_eq!(
                transcript(new, &registered, &posts, &script),
                transcript(old, &registered, &posts, &script)
            );
        }
    }
}
