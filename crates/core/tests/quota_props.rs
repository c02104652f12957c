//! Property tests for the quota ledger: for ANY interleaving of raise
//! admissions, completions, parked holds, window advances and supervisor
//! releases, the [`QuotaCell`] counters reconcile
//! exactly against a reference model stepped op by op — the identity
//! `attempts == admitted + throttled + shed + held` and
//! `admitted == completed + in_flight` holds at every step, and the
//! escalation ladder (Normal → Shedding → Quarantined, with shedding
//! decaying on window rolls and quarantine decaying never) matches the
//! model's state machine move for move.

use proptest::prelude::*;
use spin_core::{
    Dispatcher, Identity, QuotaCell, QuotaLedger, QuotaSpec, QuotaState, QuotaVerdict,
};
use std::sync::Arc;

const WINDOW: u64 = 1_000;
const VT_BUDGET: u64 = 100;
const SHED_AFTER_TRIPS: u32 = 2;
const QUARANTINE_AFTER_SHEDS: u32 = 2;
const COMPLETE_VT: u64 = 40;
const ADVANCE: u64 = 450;

const OP_ADMIT: u8 = 0;
const OP_COMPLETE: u8 = 1;
const OP_HELD: u8 = 2;
const OP_ADVANCE: u8 = 3;
const OP_RELEASE: u8 = 4;

fn spec() -> QuotaSpec {
    QuotaSpec {
        window: WINDOW,
        window_vt_budget: VT_BUDGET,
        shed_after_trips: SHED_AFTER_TRIPS,
        quarantine_after_sheds: QUARANTINE_AFTER_SHEDS,
        ..QuotaSpec::default()
    }
}

/// The reference model: the window state machine plus every counter.
#[derive(Default)]
struct Model {
    now: u64,
    // Window state (mirrors quota.rs's `Window`).
    start: u64,
    vt: u64,
    wtrips: u32,
    wsheds: u32,
    state: u8, // 0 normal, 1 shedding, 2 quarantined
    // Counters (mirrors `QuotaSnapshot`).
    attempts: u64,
    admitted: u64,
    completed: u64,
    throttled: u64,
    shed: u64,
    held: u64,
    trips: u64,
    breaches: u64,
    in_flight: u64,
    vt_charged: u64,
}

impl Model {
    fn roll(&mut self) {
        if self.now < self.start + WINDOW {
            return;
        }
        let elapsed = (self.now - self.start) / WINDOW;
        self.start += elapsed * WINDOW;
        self.vt = 0;
        self.wtrips = 0;
        if self.state == 1 {
            self.state = 0;
            self.wsheds = 0;
        }
    }

    /// One ladder step; returns the verdict and whether a boundary was
    /// crossed (a breach).
    fn ladder_refuse(&mut self) -> (QuotaVerdict, bool) {
        let (verdict, breach) = match self.state {
            2 => (QuotaVerdict::Shed, false),
            1 => {
                self.wsheds += 1;
                if self.wsheds >= QUARANTINE_AFTER_SHEDS {
                    self.state = 2;
                    (QuotaVerdict::Shed, true)
                } else {
                    (QuotaVerdict::Shed, false)
                }
            }
            _ => {
                self.wtrips += 1;
                if self.wtrips >= SHED_AFTER_TRIPS {
                    self.state = 1;
                    self.wsheds = 0;
                    (QuotaVerdict::Throttled, true)
                } else {
                    (QuotaVerdict::Throttled, false)
                }
            }
        };
        match verdict {
            QuotaVerdict::Throttled => {
                self.throttled += 1;
                self.trips += 1;
            }
            QuotaVerdict::Shed => self.shed += 1,
        }
        if breach {
            self.breaches += 1;
        }
        (verdict, breach)
    }

    fn admit(&mut self) -> Result<(), QuotaVerdict> {
        self.attempts += 1;
        self.roll();
        let over = self.state != 0 || self.vt >= VT_BUDGET;
        if over {
            Err(self.ladder_refuse().0)
        } else {
            self.in_flight += 1;
            self.admitted += 1;
            Ok(())
        }
    }

    fn complete(&mut self, vt: u64) {
        self.completed += 1;
        self.vt_charged += vt;
        self.vt += vt;
        self.in_flight -= 1;
    }

    fn release(&mut self) {
        self.state = 0;
        self.start = self.now;
        self.vt = 0;
        self.wtrips = 0;
        self.wsheds = 0;
    }

    fn state_enum(&mut self) -> QuotaState {
        self.roll();
        match self.state {
            2 => QuotaState::Quarantined,
            1 => QuotaState::Shedding,
            _ => QuotaState::Normal,
        }
    }

    fn check(&self, cell: &QuotaCell) {
        let s = cell.snapshot();
        prop_assert_eq!(s.attempts, self.attempts);
        prop_assert_eq!(s.admitted, self.admitted);
        prop_assert_eq!(s.completed, self.completed);
        prop_assert_eq!(s.throttled, self.throttled);
        prop_assert_eq!(s.shed, self.shed);
        prop_assert_eq!(s.held, self.held);
        prop_assert_eq!(s.trips, self.trips);
        prop_assert_eq!(s.breaches, self.breaches);
        prop_assert_eq!(s.in_flight, self.in_flight);
        prop_assert_eq!(s.vt_charged, self.vt_charged);
        // The ledger identity: no attempt is lost or double-counted.
        prop_assert_eq!(s.attempts, s.admitted + s.throttled + s.shed + s.held);
        prop_assert_eq!(s.admitted, s.completed + s.in_flight);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Driving the cell API directly: every counter matches the model
    /// after every op.
    #[test]
    fn ledger_counters_reconcile_under_any_interleaving(
        ops in prop::collection::vec(0u8..5, 1..80),
    ) {
        let ledger = QuotaLedger::new();
        let cell = ledger.register("tenant", spec());
        let mut m = Model::default();

        for op in ops {
            match op {
                OP_ADMIT => {
                    let got = cell.admit(m.now);
                    let want = m.admit();
                    prop_assert_eq!(got, want);
                }
                OP_COMPLETE => {
                    if m.in_flight > 0 {
                        cell.complete(COMPLETE_VT);
                        m.complete(COMPLETE_VT);
                    }
                }
                OP_HELD => {
                    cell.note_held();
                    m.attempts += 1;
                    m.held += 1;
                }
                OP_ADVANCE => {
                    m.now += ADVANCE;
                }
                OP_RELEASE => {
                    cell.release(m.now);
                    m.release();
                }
                _ => unreachable!("op range is 0..5"),
            }
            prop_assert_eq!(cell.state(m.now), m.state_enum());
            m.check(&cell);
        }
    }

    /// Driving through the dispatcher: an event bound to a metered cell
    /// books exactly the admitted raises in its stats (throttled raises
    /// are ledger entries, not event raises), and the window charge per
    /// dispatch equals the handler's virtual-time cost.
    #[test]
    fn metered_raises_reconcile_through_the_dispatcher(
        ops in prop::collection::vec(0u8..2, 1..60),
    ) {
        let d = Dispatcher::unmetered();
        let clock = d.clock().clone();
        let ledger = QuotaLedger::new();
        let cell = ledger.register("tenant", spec());
        let (ev, owner) = d.define::<(), u64>("Q", Identity::kernel("k"));
        let clk = clock.clone();
        owner
            .set_primary(move |_| {
                clk.charge(spin_sal::Cost::Work, COMPLETE_VT);
                7
            })
            .expect("fresh event");
        prop_assert_eq!(ev.bind_quota(Arc::clone(&cell)), Ok(true));
        prop_assert_eq!(ev.bind_quota(Arc::clone(&cell)), Ok(false), "one-shot");

        let mut m = Model::default();
        for op in ops {
            match op {
                0 => {
                    m.now = clock.now();
                    let want = m.admit();
                    match want {
                        Ok(()) => {
                            // The dispatcher charges its own dispatch costs
                            // on top of the handler's advance; the window
                            // is charged the whole observed delta.
                            let before = clock.now();
                            prop_assert_eq!(ev.raise(()), Ok(7));
                            m.complete(clock.now() - before);
                            m.now = clock.now();
                        }
                        Err(v) => {
                            let err = v.into_error("Q", "tenant");
                            prop_assert_eq!(ev.raise(()), Err(err));
                        }
                    }
                }
                _ => clock.charge(spin_sal::Cost::Work, ADVANCE),
            }
            m.check(&cell);
        }
        let stats = d.stats(&ev).expect("event alive");
        prop_assert_eq!(stats.raises, m.admitted, "throttled raises never count as raises");
    }
}
