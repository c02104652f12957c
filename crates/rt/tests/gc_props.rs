//! Property tests for the mostly-copying collector's invariants:
//!
//! * rooted objects survive any number of collections with their values
//!   intact;
//! * unrooted objects never survive a collection;
//! * pinned objects never move;
//! * traced graphs keep their shape across compaction;
//! * live accounting never goes negative and dead space is reclaimed.

use proptest::prelude::*;
use spin_rt::{Gc, KernelHeap, Trace, Tracer};

#[derive(Debug, Clone)]
enum Op {
    /// Allocate a value; root it if the flag is set.
    Alloc { value: u64, rooted: bool },
    /// Allocate and pin ambiguously.
    AllocPinned { value: u64 },
    /// Drop the i-th root (modulo live roots).
    DropRoot { index: usize },
    /// Run a collection.
    Collect,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), any::<bool>()).prop_map(|(value, rooted)| Op::Alloc { value, rooted }),
        any::<u64>().prop_map(|value| Op::AllocPinned { value }),
        any::<usize>().prop_map(|index| Op::DropRoot { index }),
        Just(Op::Collect),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rooted_values_always_survive_with_identity(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let heap = KernelHeap::new();
        let mut roots: Vec<(spin_rt::Root<u64>, u64)> = Vec::new();
        let mut pins: Vec<(spin_rt::AmbiguousPin<u64>, u64, Gc<u64>)> = Vec::new();
        let mut unrooted: Vec<Gc<u64>> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc { value, rooted } => {
                    let gc = heap.alloc(value).unwrap();
                    if rooted {
                        roots.push((heap.root(gc), value));
                    } else {
                        unrooted.push(gc);
                    }
                }
                Op::AllocPinned { value } => {
                    let gc = heap.alloc(value).unwrap();
                    pins.push((heap.pin_ambiguous(gc), value, gc));
                }
                Op::DropRoot { index } => {
                    if !roots.is_empty() {
                        roots.remove(index % roots.len());
                    }
                }
                Op::Collect => {
                    heap.collect();
                    unrooted.clear(); // all reclaimed by now
                }
            }
            // Invariants hold after every step.
            for (root, expected) in &roots {
                prop_assert_eq!(heap.get(root.get()), Ok(*expected));
            }
            for (pin, expected, original) in &pins {
                prop_assert_eq!(heap.get(pin.get()), Ok(*expected));
                prop_assert_eq!(pin.get(), *original, "pinned objects must not move");
            }
        }

        // After the pins are released and a final collection runs, every
        // unrooted object is gone. (While a pin lives, same-page garbage
        // survives conservatively — Bartlett's documented cost.)
        let stale: Vec<Gc<u64>> = unrooted.clone();
        pins.clear();
        heap.collect();
        for gc in stale {
            prop_assert!(!heap.is_live(gc));
        }
    }

    #[test]
    fn collection_is_idempotent_on_live_set(values in prop::collection::vec(any::<u64>(), 1..40)) {
        let heap = KernelHeap::new();
        let roots: Vec<_> = values.iter().map(|&v| heap.alloc_root(v).unwrap()).collect();
        heap.collect();
        let live_after_one = heap.live_bytes();
        heap.collect();
        prop_assert_eq!(heap.live_bytes(), live_after_one, "second collection frees nothing");
        for (root, &v) in roots.iter().zip(values.iter()) {
            prop_assert_eq!(heap.get(root.get()), Ok(v));
        }
    }
}

/// A linked list node for graph-shape preservation tests.
struct Node {
    value: u64,
    next: Option<Gc<Node>>,
}

impl Trace for Node {
    fn trace(&mut self, tracer: &mut Tracer<'_>) {
        tracer.edge_opt(&mut self.next);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn list_shape_survives_compaction(values in prop::collection::vec(any::<u64>(), 1..30)) {
        let heap = KernelHeap::new();
        // Build the list back to front.
        let mut next = None;
        for &v in values.iter().rev() {
            let node = heap.alloc(Node { value: v, next }).unwrap();
            next = Some(node);
        }
        let head = heap.root(next.expect("non-empty"));
        // Interleave garbage and collections.
        for i in 0..200u64 {
            heap.alloc(i).unwrap();
        }
        heap.collect();
        heap.collect();
        // Walk the list and compare.
        let mut walked = Vec::new();
        let mut cur = Some(head.get());
        while let Some(gc) = cur {
            let (v, next) = heap.with(gc, |n| (n.value, n.next)).unwrap();
            walked.push(v);
            cur = next;
        }
        prop_assert_eq!(walked, values);
    }
}
