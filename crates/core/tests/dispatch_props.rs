//! Property tests for the dispatcher and capability tables: guard
//! semantics match a reference predicate model, reducers see exactly the
//! guarded-in results in installation order, and externalized references
//! never confuse objects.

use proptest::prelude::*;
use spin_core::{Dispatcher, ExternTable, HandlerResults, Identity};
use std::sync::{Arc, Mutex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any set of (divisor, addend) handlers guarded on
    /// `value % divisor == 0`, a raise returns exactly what the reference
    /// model predicts under last-result semantics, and a sum-reducer
    /// returns the model's sum.
    #[test]
    fn guards_and_reducers_match_the_reference_model(
        handlers in prop::collection::vec((1u64..7, 0u64..100), 1..10),
        value in 0u64..1000,
    ) {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("E", Identity::kernel("m"));
        owner.set_primary(|x| *x).expect("fresh");
        for (divisor, addend) in &handlers {
            let (divisor, addend) = (*divisor, *addend);
            ev.install_guarded(
                Identity::extension("h"),
                move |x: &u64| x.is_multiple_of(divisor),
                move |x: &u64| x + addend,
            ).expect("allowed");
        }
        // Reference model: primary first, then handlers in install order.
        let mut results = vec![value];
        for (divisor, addend) in &handlers {
            if value % divisor == 0 {
                results.push(value + addend);
            }
        }
        prop_assert_eq!(ev.raise(value), Ok(*results.last().expect("primary always runs")));

        // With a sum reducer the same set is summed.
        owner.set_reducer(|rs| rs.into_iter().sum()).expect("fresh");
        let expected: u64 = results.iter().sum();
        prop_assert_eq!(ev.raise(value), Ok(expected));
    }

    /// A reducer's results hold the first inline and spill to a `Vec`
    /// from the second: over zero to a dozen results, as a slice and by
    /// value, the reducer sees what a `Vec` of the results in handler
    /// order held, and an order-sensitive fold returns what it returned.
    #[test]
    fn a_reducer_sees_the_results_a_vec_held(
        addends in prop::collection::vec(0u64..1000, 0..12),
        value in 0u64..1000,
    ) {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<u64, u64>("E", Identity::kernel("m"));
        for &addend in &addends {
            ev.install(Identity::extension("h"), move |x: &u64| x + addend).expect("allowed");
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        owner.set_reducer(move |rs: HandlerResults<u64>| {
            let slice = rs.to_vec();
            let (len, first) = (rs.len(), rs.first().copied());
            let by_value: Vec<u64> = rs.into_iter().collect();
            seen2.lock().unwrap().push((slice, len, first, by_value.clone()));
            by_value.into_iter().fold(0, |acc, r| acc.wrapping_mul(31).wrapping_add(r))
        }).expect("fresh");

        let results: Vec<u64> = addends.iter().map(|a| value + a).collect();
        let fold = results.iter().fold(0u64, |acc, r| acc.wrapping_mul(31).wrapping_add(*r));
        match ev.raise(value) {
            Ok(out) => prop_assert_eq!(out, fold),
            Err(_) => prop_assert!(results.is_empty(), "no handler ran only when none is installed"),
        }
        let seen = seen.lock().unwrap().clone();
        if results.is_empty() {
            prop_assert!(seen.is_empty(), "a raise with no result never reduces");
        } else {
            prop_assert_eq!(
                seen,
                vec![(results.clone(), results.len(), results.first().copied(), results)]
            );
        }
    }

    /// Uninstalling any subset of handlers leaves exactly the others.
    #[test]
    fn uninstall_removes_exactly_the_chosen_handlers(
        count in 1usize..8,
        remove_mask in any::<u8>(),
    ) {
        let d = Dispatcher::unmetered();
        let (ev, owner) = d.define::<(), u64>("E", Identity::kernel("m"));
        owner.set_primary(|_| 0).expect("fresh");
        owner.set_reducer(|rs| rs.into_iter().sum()).expect("fresh");
        let ident = Identity::extension("x");
        let ids: Vec<_> = (0..count)
            .map(|i| {
                let bit = 1u64 << i;
                ev.install(ident.clone(), move |_| bit).expect("allowed")
            })
            .collect();
        let mut expected = 0u64;
        for (i, id) in ids.iter().enumerate() {
            if remove_mask & (1 << i) != 0 {
                d.uninstall(&ev, *id, &ident).expect("installer may remove");
            } else {
                expected |= 1 << i;
            }
        }
        prop_assert_eq!(ev.raise(()), Ok(expected));
    }

    /// Externalized references recover exactly what was externalized,
    /// across interleaved revocations; revoked or foreign handles fail.
    #[test]
    fn extern_table_is_a_faithful_partial_map(
        values in prop::collection::vec(any::<u64>(), 1..30),
        revoke_mask in any::<u32>(),
    ) {
        let table = ExternTable::new();
        let other = ExternTable::new();
        let handles: Vec<_> =
            values.iter().map(|&v| table.externalize(Arc::new(v))).collect();
        for (i, h) in handles.iter().enumerate() {
            if revoke_mask & (1 << (i % 32)) != 0 {
                table.revoke(*h).expect("first revocation succeeds");
            }
        }
        for (i, (h, &v)) in handles.iter().zip(values.iter()).enumerate() {
            let revoked = revoke_mask & (1 << (i % 32)) != 0;
            match table.recover::<u64>(*h) {
                Ok(got) => {
                    prop_assert!(!revoked);
                    prop_assert_eq!(*got, v);
                }
                Err(_) => prop_assert!(revoked),
            }
            // A different application's table never resolves our handles.
            prop_assert!(other.recover::<u64>(*h).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Domain linking: for any split of symbols between two source
    /// domains, resolving against both fills every import exactly once.
    #[test]
    fn resolution_is_complete_and_source_order_independent(
        names in prop::collection::hash_set("[a-z]{3,8}", 1..12),
        split_mask in any::<u16>(),
        flip_order in any::<bool>(),
    ) {
        use spin_core::{Domain, Interface, ObjectFileBuilder};
        let names: Vec<String> = names.into_iter().collect();
        let mut iface_a = Interface::new("I");
        let mut iface_b = Interface::new("I");
        for (i, n) in names.iter().enumerate() {
            let value = Arc::new(i as u64);
            if split_mask & (1 << (i % 16)) != 0 {
                iface_a = iface_a.export(n, value);
            } else {
                iface_b = iface_b.export(n, value);
            }
        }
        let src_a = Domain::create_from_module("a", vec![iface_a]);
        let src_b = Domain::create_from_module("b", vec![iface_b]);

        let mut builder = ObjectFileBuilder::new("client");
        let slots: Vec<_> = names.iter().map(|n| builder.import::<u64>("I", n)).collect();
        let target = Domain::create(builder.sign()).expect("signed");

        let (first, second) = if flip_order { (&src_b, &src_a) } else { (&src_a, &src_b) };
        let r1 = Domain::resolve(first, &target).expect("no type conflicts");
        let r2 = Domain::resolve(second, &target).expect("no type conflicts");
        prop_assert_eq!(r1.resolved + r2.resolved, names.len());
        prop_assert!(r2.unresolved.is_empty(), "{:?}", r2.unresolved);
        prop_assert!(target.fully_resolved());
        for (i, slot) in slots.iter().enumerate() {
            prop_assert_eq!(*slot.get().expect("resolved"), i as u64);
        }
    }
}
