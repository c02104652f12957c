//! C1 fixture (linted as a charged module): `stats` neither charges the
//! clock nor documents its story (must fire on line 9, and only there);
//! `send` is clean — it reaches `charge` through `push`.

pub fn send(clock: &Clock) {
    push(clock);
}

pub fn stats() -> u64 {
    0
}

fn push(clock: &Clock) {
    clock.charge(Cost::Work, 1);
}
