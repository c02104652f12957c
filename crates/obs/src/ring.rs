//! The flight recorder: a fixed-capacity ring of trace records behind one
//! lock.
//!
//! Producers are the kernel's hook points (dispatcher raises, context
//! switches, VM faults, GC pauses, packet rx/tx, syscall traps); the
//! consumer is whoever drains the recorder for a dump. The ring **drops
//! oldest** under overflow: producers never fail, and the recorder keeps
//! the most recent `capacity` records — exactly what a flight recorder is
//! for. A push that finds the ring full drops the oldest record and counts
//! it in [`Ring::dropped`] then and there, so the tally is exact at every
//! instant.
//!
//! A record is a plain struct in a `VecDeque`: one lock per push, one per
//! drain, and no publication protocol — a field added to [`TraceRecord`]
//! is just a field. The lock is never waited for in practice: every
//! producer a storm wires belongs to one simulated context at a time
//! (DESIGN.md decisions 20 and 21).

use crate::account::DomainId;
use crate::Nanos;
use spin_check::sync::Mutex;
use std::collections::VecDeque;

/// What a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// An event was raised through the dispatcher (`a` = event id,
    /// `b` = handlers on the snapshot plan).
    EventRaise = 0,
    /// A handler ran (`a` = event id, `b` = handler id).
    HandlerRun = 1,
    /// A guard was evaluated (`a` = event id, `b` = 1 if it passed).
    GuardEval = 2,
    /// The executor switched to a strand (`a` = strand id).
    ContextSwitch = 3,
    /// A VM fault was delivered (`a` = faulting virtual address,
    /// `b` = fault class).
    VmFault = 4,
    /// A garbage collection completed (`a` = live bytes surviving,
    /// `b` = objects copied).
    GcPause = 5,
    /// A frame arrived from the wire (`a` = frame bytes).
    PacketRx = 6,
    /// A frame was transmitted (`a` = frame bytes).
    PacketTx = 7,
    /// A syscall trapped into the kernel (`a` = syscall number).
    SyscallTrap = 8,
    /// A hot-swap protocol phase was entered (`a` = phase ordinal:
    /// 0 quiesce, 1 transfer, 2 rebind, 3 resume, 4 committed,
    /// 5 rolled back; `b` = phase-specific count — raises held at
    /// quiesce, raises replayed at resume, plan generation at rebind).
    SwapPhase = 9,
    /// A domain crossed a resource-quota escalation boundary (`a` =
    /// ledger ordinal of the domain, `b` = escalation level: 1 throttle
    /// trip, 2 entered shedding, 3 quarantined).
    QuotaBreach = 10,
}

impl TraceKind {
    /// Stable label used by the dump and JSON renderings.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TraceKind::EventRaise => "event_raise",
            TraceKind::HandlerRun => "handler_run",
            TraceKind::GuardEval => "guard_eval",
            TraceKind::ContextSwitch => "context_switch",
            TraceKind::VmFault => "vm_fault",
            TraceKind::GcPause => "gc_pause",
            TraceKind::PacketRx => "packet_rx",
            TraceKind::PacketTx => "packet_tx",
            TraceKind::SyscallTrap => "syscall_trap",
            TraceKind::SwapPhase => "swap_phase",
            TraceKind::QuotaBreach => "quota_breach",
        }
    }
}

/// One flight-recorder entry: what happened, where, and at what virtual
/// time. `a`/`b` are kind-specific arguments (see [`TraceKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual time at which the record was written.
    pub time: Nanos,
    /// The originating domain.
    pub domain: DomainId,
    /// What happened.
    pub kind: TraceKind,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// The drop-oldest ring. See the module docs.
pub struct Ring {
    state: Mutex<RingState>,
    cap: usize,
}

struct RingState {
    /// The newest `cap` records at most, oldest first.
    records: VecDeque<TraceRecord>,
    /// Records ever pushed.
    pushed: u64,
    /// Records dropped to make room, counted when they were.
    dropped: u64,
}

impl Ring {
    /// Creates a ring holding up to `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Ring {
        Ring {
            state: Mutex::new(RingState {
                records: VecDeque::new(),
                pushed: 0,
                dropped: 0,
            }),
            cap: capacity.max(1),
        }
    }

    /// Appends a record; never fails. Drops (and counts) the oldest
    /// pending record when full.
    pub fn push(&self, rec: TraceRecord) {
        let mut st = self.state.lock();
        if st.records.len() == self.cap {
            st.records.pop_front();
            st.dropped += 1;
        }
        st.records.push_back(rec);
        st.pushed += 1;
    }

    /// Total records ever pushed.
    pub fn pushed(&self) -> u64 {
        self.state.lock().pushed
    }

    /// Records pending for the next drain (at most the capacity).
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Whether a drain would return nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact count of records dropped to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    /// Removes and returns every pending record, oldest first.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.state.lock().records.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            time: i * 10,
            domain: DomainId(i as u32 % 7),
            kind: TraceKind::EventRaise,
            a: i,
            b: i * 2,
        }
    }

    #[test]
    fn drain_returns_records_in_push_order() {
        let ring = Ring::new(8);
        for i in 0..5 {
            ring.push(rec(i));
        }
        let got = ring.drain();
        assert_eq!(got.len(), 5);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, rec(i as u64));
        }
        assert_eq!(ring.dropped(), 0);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn overflow_drops_oldest_with_exact_count() {
        let ring = Ring::new(4);
        for i in 0..10 {
            ring.push(rec(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6); // observable before the drain
        let got = ring.drain();
        assert_eq!(
            got,
            vec![rec(6), rec(7), rec(8), rec(9)],
            "the newest records survive"
        );
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.pushed(), 10);
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let ring = Ring::new(1);
        for i in 0..3 {
            ring.push(rec(i));
        }
        assert_eq!(ring.drain(), vec![rec(2)]);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn concurrent_producers_lose_nothing_when_capacity_suffices() {
        let ring = std::sync::Arc::new(Ring::new(64 * 1024));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.push(TraceRecord {
                            time: i,
                            domain: DomainId(t),
                            kind: TraceKind::PacketRx,
                            a: i,
                            b: u64::from(t),
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let got = ring.drain();
        assert_eq!(got.len(), 4000);
        assert_eq!(ring.dropped(), 0);
        // Per-producer order is preserved even though producers interleave.
        for t in 0..4u32 {
            let mine: Vec<u64> = got
                .iter()
                .filter(|r| r.domain == DomainId(t))
                .map(|r| r.a)
                .collect();
            assert_eq!(mine, (0..1000).collect::<Vec<_>>());
        }
    }
}
