//! `tally` is declared once outside tests and named by `user`: kept by a
//! caller, not by a shared name.

#![forbid(unsafe_code)]

pub fn tally() -> u32 {
    1
}
