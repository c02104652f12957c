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
use spin_check::sync::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A device interrupt vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IrqVector(pub u32);

/// A posted interrupt awaiting dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Irq {
    pub vector: IrqVector,
}

type IrqHandler = Arc<dyn Fn() + Send + Sync>;

struct IrqState {
    pending: VecDeque<Irq>,
    handlers: HashMap<IrqVector, IrqHandler>,
    /// Interrupts posted for vectors with no handler yet.
    dropped: u64,
}

/// The interrupt controller for one simulated host.
#[derive(Clone)]
pub struct IrqController {
    state: Arc<Mutex<IrqState>>,
    clock: Clock,
    profile: Arc<MachineProfile>,
}

impl IrqController {
    /// Creates a controller with no handlers.
    pub fn new(clock: Clock, profile: Arc<MachineProfile>) -> Self {
        IrqController {
            state: Arc::new(Mutex::new(IrqState {
                pending: VecDeque::new(),
                handlers: HashMap::new(),
                dropped: 0,
            })),
            clock,
            profile,
        }
    }

    /// Registers the handler for a vector, replacing any previous one.
    pub fn register(&self, vector: IrqVector, handler: impl Fn() + Send + Sync + 'static) {
        self.state.lock().handlers.insert(vector, Arc::new(handler));
    }

    /// Posts an interrupt; it stays pending until dispatched.
    pub fn post(&self, vector: IrqVector) {
        self.state.lock().pending.push_back(Irq { vector });
    }

    /// Whether any interrupt is pending.
    pub fn has_pending(&self) -> bool {
        !self.state.lock().pending.is_empty()
    }

    /// Dispatches all pending interrupts in posting order, charging the
    /// profile's interrupt overhead for each. Returns how many ran.
    ///
    /// One critical section per interrupt pops it and finds its handler
    /// (or counts it dropped); the charge and the handler run outside it,
    /// so a handler may post further IRQs or register others.
    pub fn dispatch_pending(&self) -> usize {
        let mut dispatched = 0;
        loop {
            let handler = {
                let mut st = self.state.lock();
                let Some(irq) = st.pending.pop_front() else {
                    break;
                };
                let handler = st.handlers.get(&irq.vector).cloned();
                st.dropped += u64::from(handler.is_none());
                handler
            };
            self.clock.advance(self.profile.interrupt_overhead);
            if let Some(f) = handler {
                f();
            }
            dispatched += 1;
        }
        dispatched
    }

    /// Number of interrupts dropped for lack of a handler.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spin_check::sync::{AtomicUsize, Ordering};

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
}
