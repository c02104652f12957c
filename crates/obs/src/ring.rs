//! The flight recorder: a fixed-capacity, lock-free MPSC ring of trace
//! records.
//!
//! Producers are the kernel's hook points (dispatcher raises, context
//! switches, VM faults, GC pauses, packet rx/tx, syscall traps); the single
//! consumer is whoever drains the recorder for a dump. The ring **drops
//! oldest** under overflow: producers never wait and never fail, and the
//! recorder keeps the most recent `capacity` records — exactly what a
//! flight recorder is for. Every overwritten record is tallied in an exact
//! [`Ring::dropped`] counter.
//!
//! Publication uses a per-slot seqlock: a producer claims a position with
//! one `fetch_add` on the write cursor, marks the slot in-progress, stores
//! the record words, and publishes with a release store of the
//! position-derived sequence. The consumer validates the sequence before
//! *and* after reading, so a record overwritten mid-read is detected and
//! counted as dropped rather than returned torn.
//!
//! # Memory-model note
//!
//! The word stores are `Release` and the word loads `Acquire`, not
//! `Relaxed`. A textbook seqlock with relaxed data accesses is unsound
//! under the C11 model (Boehm, "Can seqlocks get along with programming
//! language memory models?"): a reader may observe the *old* sequence
//! twice while a relaxed word load returns a *new* value from a
//! concurrent overwrite — a torn record both validations miss. With
//! Release word stores, a reader that observes any overwritten word
//! synchronizes with the overwriter and is therefore guaranteed to see
//! its `WRITING` sentinel (stored earlier in program order) on the second
//! validation. The `spin-check` model checker explores exactly this
//! interleaving (see `crates/check/tests/checks.rs`, seqlock check).

use crate::account::DomainId;
use crate::Nanos;
use spin_check::sync::Mutex;
use spin_check::sync::{AtomicU64, Ordering};

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
    /// A cross-shard envelope was drained for delivery (`a` = lane,
    /// `b` = virtual delivery time).
    MailDeliver = 9,
    /// The multicore barrier opened an epoch (`a` = the epoch's global
    /// virtual time).
    ShardEpoch = 10,
    /// A hot-swap protocol phase was entered (`a` = phase ordinal:
    /// 0 quiesce, 1 transfer, 2 rebind, 3 resume, 4 committed,
    /// 5 rolled back; `b` = phase-specific count — raises held at
    /// quiesce, raises replayed at resume, plan generation at rebind).
    SwapPhase = 11,
    /// A domain crossed a resource-quota escalation boundary (`a` =
    /// ledger ordinal of the domain, `b` = escalation level: 1 throttle
    /// trip, 2 entered shedding, 3 quarantined).
    QuotaBreach = 12,
}

impl TraceKind {
    /// Stable label used by the dump and JSON renderings.
    pub fn label(self) -> &'static str {
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
            TraceKind::MailDeliver => "mail_deliver",
            TraceKind::ShardEpoch => "shard_epoch",
            TraceKind::SwapPhase => "swap_phase",
            TraceKind::QuotaBreach => "quota_breach",
        }
    }

    fn from_u8(v: u8) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::EventRaise,
            1 => TraceKind::HandlerRun,
            2 => TraceKind::GuardEval,
            3 => TraceKind::ContextSwitch,
            4 => TraceKind::VmFault,
            5 => TraceKind::GcPause,
            6 => TraceKind::PacketRx,
            7 => TraceKind::PacketTx,
            8 => TraceKind::SyscallTrap,
            9 => TraceKind::MailDeliver,
            10 => TraceKind::ShardEpoch,
            11 => TraceKind::SwapPhase,
            12 => TraceKind::QuotaBreach,
            _ => return None,
        })
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

/// Sequence value marking a slot as mid-write.
const WRITING: u64 = u64::MAX;

#[derive(Default)]
struct Slot {
    /// `pos + 1` once the record for position `pos` is fully published;
    /// [`WRITING`] while a producer is storing; 0 if never written.
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// The lock-free drop-oldest ring. See the module docs for the protocol.
pub struct Ring {
    slots: Box<[Slot]>,
    cap: u64,
    /// Next position to claim; grows without bound. `pos % cap` is the slot.
    write: AtomicU64,
    /// Next position the consumer will read.
    read: AtomicU64,
    /// Records lost to overwrite (or detected torn), tallied exactly.
    dropped: AtomicU64,
    /// Serializes consumers; producers never take it.
    drain_lock: Mutex<()>,
}

impl Ring {
    /// Creates a ring holding up to `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Ring {
        let cap = capacity.max(1);
        Ring {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            cap: cap as u64,
            write: AtomicU64::new(0),
            read: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drain_lock: Mutex::new(()),
        }
    }

    /// Capacity in records.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Appends a record; never blocks, never fails. Overwrites the oldest
    /// pending record when full.
    pub fn push(&self, rec: TraceRecord) {
        // ordering: Relaxed suffices for the claim — the cursor only
        // allocates positions; publication is carried by the slot seqlock.
        let pos = self.write.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(pos % self.cap) as usize];
        // The sentinel orders the *previous* record's words before
        // `WRITING` becomes visible, so a reader that saw the old sequence
        // cannot blame this writer for a torn old record.
        // ordering: Release — sentinel publish.
        slot.seq.store(WRITING, Ordering::Release);
        // Release word stores make any reader that observes one of them
        // synchronize with this writer and hence see `WRITING` on its
        // seqlock re-validation — see the module-level memory-model note.
        // Relaxed here is the classic unsound seqlock.
        // ordering: Release — word publish (see module note).
        slot.words[0].store(rec.time, Ordering::Release);
        slot.words[1].store(
            u64::from(rec.domain.0) | (rec.kind as u64) << 32,
            Ordering::Release, // ordering: word publish (see module note)
        );
        slot.words[2].store(rec.a, Ordering::Release); // ordering: word publish (see module note)
        slot.words[3].store(rec.b, Ordering::Release); // ordering: word publish (see module note)
                                                       // The Release publish of `pos + 1` pairs with the reader's
                                                       // Acquire validation in `read_slot`, ordering the four word
                                                       // stores before the sequence becomes visible.
        #[cfg(not(spin_check_mutant))]
        slot.seq.store(pos + 1, Ordering::Release); // ordering: Release publish (see above)
                                                    // Planted bug for the model checker (`--cfg spin_check_mutant`):
                                                    // a Relaxed publish lets a reader validate the sequence while the
                                                    // word stores are still invisible — a torn record. The seqlock
                                                    // check must catch this with a replayable seed.
        #[cfg(spin_check_mutant)]
        slot.seq.store(pos + 1, Ordering::Relaxed); // ordering: deliberately wrong (mutant)
    }

    /// Total records ever pushed.
    pub fn pushed(&self) -> u64 {
        self.write.load(Ordering::Acquire) // ordering: Acquire — a cursor read orders after the claims it reports.
    }

    /// Records pending for the next drain (saturated at capacity).
    pub fn len(&self) -> usize {
        let end = self.write.load(Ordering::Acquire); // ordering: Acquire — cursor snapshot for a lock-free size estimate.
        let read = self.read.load(Ordering::Acquire); // ordering: Acquire — cursor snapshot for a lock-free size estimate.
        (end - read.max(end.saturating_sub(self.cap))) as usize
    }

    /// Whether a drain would return nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact count of records lost to overwrite, including records that
    /// will be skipped by the next drain because they were already
    /// overwritten.
    pub fn dropped(&self) -> u64 {
        let end = self.write.load(Ordering::Acquire); // ordering: Acquire — cursor snapshot for a lock-free drop estimate.
        let read = self.read.load(Ordering::Acquire); // ordering: Acquire — cursor snapshot for a lock-free drop estimate.
        let lo = end.saturating_sub(self.cap);
        self.dropped.load(Ordering::Acquire) + lo.saturating_sub(read) // ordering: Acquire — pairs with the drain's AcqRel tally updates.
    }

    /// Removes and returns every pending record, oldest first.
    ///
    /// Records overwritten before they could be read — and the rare record
    /// caught mid-overwrite by the seqlock validation — are counted in
    /// [`Ring::dropped`] instead of being returned.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let _guard = self.drain_lock.lock();
        let end = self.write.load(Ordering::Acquire); // ordering: Acquire — the drain sees every claim before its snapshot.
        let read = self.read.load(Ordering::Acquire); // ordering: Acquire — the read cursor is ours (drain lock); Acquire for dropped().
        let start = read.max(end.saturating_sub(self.cap));
        self.dropped.fetch_add(start - read, Ordering::AcqRel); // ordering: AcqRel — exact tally, read lock-free by dropped().
        let mut out = Vec::with_capacity((end - start) as usize);
        for pos in start..end {
            match self.read_slot(pos) {
                Some(rec) => out.push(rec),
                None => {
                    self.dropped.fetch_add(1, Ordering::AcqRel); // ordering: AcqRel — exact tally, read lock-free by dropped().
                }
            }
        }
        self.read.store(end, Ordering::Release); // ordering: Release — publishes the consumed range to lock-free len()/dropped().
        out
    }

    /// Seqlock-validated read of position `pos`; `None` if the slot no
    /// longer (or does not yet stably) hold that position's record.
    fn read_slot(&self, pos: u64) -> Option<TraceRecord> {
        let slot = &self.slots[(pos % self.cap) as usize];
        // The first validation pairs with the writer's Release publish of
        // `pos + 1`; the record words are visible once the sequence is.
        // ordering: Acquire — pairs with the Release sequence publish.
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        // Acquire word loads pair with the Release word stores: observing
        // any overwritten word synchronizes with the overwriter, so the
        // re-validation below must see its `WRITING` sentinel (or newer).
        // See the module-level memory-model note.
        let time = slot.words[0].load(Ordering::Acquire); // ordering: word read (see module note)
        let tag = slot.words[1].load(Ordering::Acquire); // ordering: word read (see module note)
        let a = slot.words[2].load(Ordering::Acquire); // ordering: word read (see module note)
        let b = slot.words[3].load(Ordering::Acquire); // ordering: word read (see module note)
                                                       // The re-validation: a concurrent overwrite either left the
                                                       // sequence intact (the record is stable) or this load sees
                                                       // `WRITING`/a newer sequence and the torn read is discarded.
                                                       // ordering: Acquire — re-validation (see module note).
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        Some(TraceRecord {
            time,
            domain: DomainId((tag & 0xffff_ffff) as u32),
            kind: TraceKind::from_u8((tag >> 32) as u8)?,
            a,
            b,
        })
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
