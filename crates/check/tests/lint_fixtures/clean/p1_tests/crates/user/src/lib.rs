//! Calls `kern::tally`; its test module declares a helper of the same
//! name, which is no second `tally` for P1.

#![forbid(unsafe_code)]

pub fn total() -> u32 {
    kern::tally() + 1
}

#[cfg(test)]
mod tests {
    fn tally() -> u32 {
        super::total()
    }

    #[test]
    fn totals() {
        assert_eq!(tally(), 2);
    }
}
