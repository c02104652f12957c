//! D2-clean fixture: hash lookups (order-independent) and ordered
//! iteration are both fine. Note the distinct names: the rule tracks
//! hash-typed *names* per file, so reusing `m` for the `BTreeMap` would
//! (by documented under-approximation policy) still flag it.

use std::collections::{BTreeMap, HashMap};

pub fn lookup(m: &HashMap<u64, u64>, k: u64) -> Option<u64> {
    m.get(&k).copied()
}

pub fn ordered_keys(b: &BTreeMap<u64, u64>) -> Vec<u64> {
    b.keys().copied().collect()
}

// The protocol stack's shape: a binding initialized with a struct that
// holds a hash map somewhere inside is not itself a hash map, and a chain
// through it iterates only what its innermost receiver names.
use std::sync::{Arc, Mutex};

pub struct Inner {
    rpcs: Mutex<Vec<u64>>,
    waiters: Mutex<HashMap<u64, u64>>,
}

pub fn books() -> u64 {
    let inner = Arc::new(Inner {
        rpcs: Mutex::new(Vec::new()),
        waiters: Mutex::new(HashMap::new()),
    });
    let mut total: u64 = inner.rpcs.lock().unwrap().iter().sum();
    for r in inner.rpcs.lock().unwrap().iter() {
        total += r;
    }
    total + inner.waiters.lock().unwrap().len() as u64
}
