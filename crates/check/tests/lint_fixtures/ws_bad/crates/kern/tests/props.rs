//! The only file naming the `proptest` dev-dependency, so P2 leaves it.

use proptest::prelude::*;

proptest! {
    #[test]
    fn peek_reads_what_seed_wrote(_x in 0u64..4) {
        let v = kern::seed();
        prop_assert_eq!(kern::peek(&v), v);
    }
}
