//! The attribution model: count × probe unit cost ÷ timed window, per
//! layer. It is a *model* — unit costs come from isolated loops with warm
//! caches — and says where a saving should appear, not where every
//! nanosecond went; what it cannot place is reported as unattributed.

use crate::workloads::Counts;

/// Probe results the model prices counts with, ns per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    pub switch_ns: f64,
    pub epoch_ns: f64,
    pub fast_ns: f64,
    pub keyed_ns: f64,
    pub opaque_ns: f64,
    pub batch_ns: f64,
    pub admit_ns: f64,
    pub install_ns: f64,
    pub uninstall_ns: f64,
    pub rebind_ns: f64,
    pub mailbox_ns: f64,
    pub nic_ns: f64,
    pub advance_ns: f64,
}

impl UnitCosts {
    /// Reads the unit costs out of probe results by metric name.
    pub fn from_probes(get: impl Fn(&str) -> f64) -> UnitCosts {
        UnitCosts {
            switch_ns: get("sched.executor.switch_ns"),
            epoch_ns: get("sched.shard.epoch_ns"),
            fast_ns: get("core.dispatch.fast_ns"),
            keyed_ns: get("core.dispatch.keyed250_ns"),
            opaque_ns: get("core.dispatch.opaque10_ns"),
            batch_ns: get("core.dispatch.batch64_ns"),
            admit_ns: get("core.quota.admit_complete_ns"),
            install_ns: get("core.dispatch.install_us") * 1e3,
            uninstall_ns: get("core.dispatch.uninstall_us") * 1e3,
            rebind_ns: get("core.dispatch.rebind_us") * 1e3,
            mailbox_ns: get("sal.mailbox.post_drain_ns"),
            nic_ns: get("sal.nic.send_recv_ns"),
            advance_ns: get("sal.clock.advance_ns"),
        }
    }
}

/// Modelled nanoseconds per layer for a set of counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    pub executor: f64,
    pub shard: f64,
    pub dispatch: f64,
    pub mailbox: f64,
    pub nic: f64,
    pub clock: f64,
}

impl LayerNs {
    pub fn total(&self) -> f64 {
        self.executor + self.shard + self.dispatch + self.mailbox + self.nic + self.clock
    }
}

/// Prices `c` with `u`.
///
/// Dispatch: fast-path raises at the fast cost; compiled (key-indexed)
/// raises at the keyed cost, except those delivered by `raise_batch`, at
/// the batched per-raise cost; every other slow raise at the opaque-scan
/// cost; plus the admission pair for each metered raise and the write
/// probes' cost for each plan republish. The probes' raise
/// costs include the `Clock::advance` calls a raise makes; those are
/// priced under the clock instead, so that layer shows on every workload.
pub fn layer_ns(c: &Counts, u: &UnitCosts) -> LayerNs {
    let compiled_batched = c.batched_raises.min(c.compiled_raises);
    let other_slow = c
        .raises
        .saturating_sub(c.fast_raises)
        .saturating_sub(c.compiled_raises);
    let dispatch = c.fast_raises as f64 * u.fast_ns
        + (c.compiled_raises - compiled_batched) as f64 * u.keyed_ns
        + compiled_batched as f64 * u.batch_ns
        + other_slow as f64 * u.opaque_ns
        + c.quota_attempts as f64 * u.admit_ns
        + c.plan_installs as f64 * u.install_ns
        + c.plan_uninstalls as f64 * u.uninstall_ns
        + c.plan_rebinds as f64 * u.rebind_ns;
    let dispatch_advances = c.dispatch_advances().min(c.clock_advances);
    LayerNs {
        executor: c.switches as f64 * u.switch_ns,
        shard: c.epochs as f64 * u.epoch_ns,
        dispatch: (dispatch - dispatch_advances as f64 * u.advance_ns).max(0.0),
        mailbox: c.mailbox_posted as f64 * u.mailbox_ns,
        nic: c.wire_frames as f64 * u.nic_ns,
        clock: c.clock_advances as f64 * u.advance_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> UnitCosts {
        UnitCosts {
            switch_ns: 3000.0,
            epoch_ns: 500.0,
            fast_ns: 100.0,
            keyed_ns: 200.0,
            opaque_ns: 300.0,
            batch_ns: 50.0,
            admit_ns: 10.0,
            install_ns: 7000.0,
            uninstall_ns: 6000.0,
            rebind_ns: 14_000.0,
            mailbox_ns: 80.0,
            nic_ns: 400.0,
            advance_ns: 5.0,
        }
    }

    #[test]
    fn dispatch_prices_each_raise_once() {
        let c = Counts {
            raises: 100,
            fast_raises: 60,
            compiled_raises: 25,
            batched_raises: 10,
            quota_attempts: 5,
            ..Counts::default()
        };
        let l = layer_ns(&c, &units());
        // 60 fast, 15 keyed, 10 batched, 15 opaque, 5 admissions.
        assert_eq!(l.dispatch, 6000.0 + 3000.0 + 500.0 + 4500.0 + 50.0);
        let writes = Counts {
            plan_installs: 2,
            plan_uninstalls: 1,
            plan_rebinds: 1,
            ..Counts::default()
        };
        assert_eq!(
            layer_ns(&writes, &units()).dispatch,
            14_000.0 + 6000.0 + 14_000.0
        );
    }

    #[test]
    fn advances_inside_raises_move_from_dispatch_to_the_clock() {
        let mut c = Counts {
            raises: 10,
            fast_raises: 10,
            ..Counts::default()
        };
        c.clock_advances = c.dispatch_advances(); // one advance per fast raise
        let l = layer_ns(&c, &units());
        assert_eq!((l.dispatch, l.clock), (1000.0 - 50.0, 50.0));
        // Advances outside raises add to the clock only.
        c.clock_advances += 7;
        let l = layer_ns(&c, &units());
        assert_eq!((l.dispatch, l.clock), (950.0, 85.0));
        // A count taken without the hook (0) moves nothing.
        c.clock_advances = 0;
        assert_eq!(layer_ns(&c, &units()).dispatch, 1000.0);
    }

    #[test]
    fn layers_multiply_counts_by_unit_costs() {
        let c = Counts {
            switches: 2,
            epochs: 4,
            mailbox_posted: 10,
            wire_frames: 3,
            ..Counts::default()
        };
        let l = layer_ns(&c, &units());
        assert_eq!(
            (l.executor, l.shard, l.mailbox, l.nic),
            (6000.0, 2000.0, 800.0, 1200.0)
        );
        assert_eq!(l.total(), 10_000.0);
    }
}
