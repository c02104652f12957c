//! C1-clean fixture (linted as a charged module): every public fn either
//! charges the clock, reaches a charge through a local call, or documents
//! its charging story.

pub fn send(clock: &Clock) {
    clock.charge(Cost::Work, 1);
}

pub fn forward(clock: &Clock) {
    send(clock);
}

// uncharged: diagnostics accessor.
pub fn stats() -> u64 {
    0
}

// charged: in the Mmu (pte_update per installed page).
pub fn map_page(mmu: &Mmu) {
    mmu.install();
}
