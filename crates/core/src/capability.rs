//! Externalized references: passing in-kernel capabilities to user level.
//!
//! "A pointer can be passed from the kernel to a user-level application,
//! which cannot be assumed to be type safe, as an externalized reference.
//! An externalized reference is an index into a per-application table that
//! contains type safe references to in-kernel data structures" (§3.1).
//!
//! Each application gets an [`ExternTable`]; the kernel externalizes an
//! `Arc` and hands back an opaque [`ExternRef`]. User code can only return
//! the index, and recovery checks both the table and the type — a forged or
//! stale index yields an error, never a misinterpreted object.

use crate::error::CoreError;
use spin_check::sync::Mutex;
use spin_check::sync::{AtomicU64, Ordering};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

static NEXT_TABLE: AtomicU64 = AtomicU64::new(1);

/// An opaque handle given to user level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExternRef {
    table: u64,
    index: u64,
}

/// One application's table of externalized kernel references.
pub struct ExternTable {
    id: u64,
    entries: Mutex<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    next: AtomicU64,
}

impl Default for ExternTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ExternTable {
    /// Creates a table with a process-unique id.
    pub fn new() -> Self {
        ExternTable {
            id: NEXT_TABLE.fetch_add(1, Ordering::Relaxed), // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
            entries: Mutex::new(HashMap::new()),
            next: AtomicU64::new(1),
        }
    }

    /// Externalizes a kernel reference, returning the index to pass out.
    pub fn externalize<T: Any + Send + Sync>(&self, value: Arc<T>) -> ExternRef {
        let index = self.next.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — allocates a unique id; the handle carrying it is published separately.
        self.entries.lock().insert(index, value);
        ExternRef {
            table: self.id,
            index,
        }
    }

    /// Recovers a reference at its externalized type.
    ///
    /// Fails if the handle belongs to a different application's table, was
    /// revoked, or names an object of a different type.
    pub fn recover<T: Any + Send + Sync>(&self, r: ExternRef) -> Result<Arc<T>, CoreError> {
        if r.table != self.id {
            return Err(CoreError::BadExternRef);
        }
        let entries = self.entries.lock();
        let v = entries.get(&r.index).ok_or(CoreError::BadExternRef)?;
        v.clone()
            .downcast::<T>()
            .map_err(|_| CoreError::BadExternRef)
    }

    /// Revokes a previously-externalized reference.
    pub fn revoke(&self, r: ExternRef) -> Result<(), CoreError> {
        if r.table != self.id {
            return Err(CoreError::BadExternRef);
        }
        self.entries
            .lock()
            .remove(&r.index)
            .map(|_| ())
            .ok_or(CoreError::BadExternRef)
    }

    /// Number of live externalized references.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PhysPage {
        frame: u32,
    }

    #[test]
    fn externalize_and_recover() {
        let t = ExternTable::new();
        let r = t.externalize(Arc::new(PhysPage { frame: 7 }));
        let page = t.recover::<PhysPage>(r).unwrap();
        assert_eq!(page.frame, 7);
    }

    #[test]
    fn wrong_type_is_rejected() {
        let t = ExternTable::new();
        let r = t.externalize(Arc::new(PhysPage { frame: 7 }));
        assert!(matches!(t.recover::<u32>(r), Err(CoreError::BadExternRef)));
    }

    #[test]
    fn cross_table_handles_are_rejected() {
        let t1 = ExternTable::new();
        let t2 = ExternTable::new();
        let r = t1.externalize(Arc::new(1u32));
        assert!(matches!(t2.recover::<u32>(r), Err(CoreError::BadExternRef)));
    }

    #[test]
    fn forged_indices_are_rejected() {
        let t = ExternTable::new();
        let real = t.externalize(Arc::new(1u32));
        let forged = ExternRef {
            table: real.table,
            index: real.index + 1000,
        };
        assert!(matches!(
            t.recover::<u32>(forged),
            Err(CoreError::BadExternRef)
        ));
    }

    #[test]
    fn revocation_invalidates() {
        let t = ExternTable::new();
        let r = t.externalize(Arc::new(1u32));
        assert_eq!(t.len(), 1);
        t.revoke(r).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.recover::<u32>(r).is_err());
        assert!(t.revoke(r).is_err());
    }
}
