//! Instrumented sync primitives: drop-in replacements for the std /
//! `parking_lot` types the kernel's facade-covered crates use.
//!
//! Outside a model-checking run (no thread-local [`crate::model`] context)
//! every operation falls straight through to the real primitive, so the
//! types stay usable from uncontrolled threads (test harness setup, global
//! statics). Inside a run every operation announces itself to the
//! scheduler and is performed against the model, with the real primitive
//! kept as a write-through mirror of the newest store so uninstrumented
//! reads (debug printing, post-run assertions) see sane values.

use crate::model;
use std::fmt;
use std::ops::{Deref, DerefMut};

pub use std::sync::atomic::Ordering;

static NEXT_OBJ_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Lazy per-object identity. Allocated on first touch so `const fn new`
/// works for statics; never reused, so executions cannot confuse two
/// objects that happen to share an address.
struct ObjId(std::sync::OnceLock<u64>);

impl ObjId {
    const fn new() -> Self {
        ObjId(std::sync::OnceLock::new())
    }

    fn get(&self) -> u64 {
        *self
            .0
            .get_or_init(|| NEXT_OBJ_ID.fetch_add(1, Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! instrumented_atomic {
    ($name:ident, $real:ty, $ty:ty) => {
        /// Model-aware drop-in for the std atomic of the same name.
        pub struct $name {
            id: ObjId,
            real: $real,
        }

        impl $name {
            pub const fn new(v: $ty) -> Self {
                Self {
                    id: ObjId::new(),
                    real: <$real>::new(v),
                }
            }

            pub fn load(&self, ord: Ordering) -> $ty {
                match model::current_ctx() {
                    Some(c) => {
                        let init = self.real.load(Ordering::Relaxed) as u64;
                        c.exec.atomic_load(c.tid, self.id.get(), ord, init) as $ty
                    }
                    None => self.real.load(ord),
                }
            }

            pub fn store(&self, v: $ty, ord: Ordering) {
                match model::current_ctx() {
                    Some(c) => {
                        let init = self.real.load(Ordering::Relaxed) as u64;
                        c.exec
                            .atomic_store(c.tid, self.id.get(), ord, init, v as u64, |w| {
                                self.real.store(w as $ty, Ordering::Relaxed)
                            })
                    }
                    None => self.real.store(v, ord),
                }
            }

            pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, move |_| v, |real, o| real.swap(v, o))
            }

            pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(
                    ord,
                    move |old| old.wrapping_add(v),
                    |real, o| real.fetch_add(v, o),
                )
            }

            pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(
                    ord,
                    move |old| old.wrapping_sub(v),
                    |real, o| real.fetch_sub(v, o),
                )
            }

            pub fn fetch_min(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, move |old| old.min(v), |real, o| real.fetch_min(v, o))
            }

            pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                self.rmw(ord, move |old| old.max(v), |real, o| real.fetch_max(v, o))
            }

            fn rmw(
                &self,
                ord: Ordering,
                f: impl FnOnce($ty) -> $ty,
                real_op: impl FnOnce(&$real, Ordering) -> $ty,
            ) -> $ty {
                match model::current_ctx() {
                    Some(c) => {
                        let init = self.real.load(Ordering::Relaxed) as u64;
                        c.exec.atomic_rmw(
                            c.tid,
                            self.id.get(),
                            ord,
                            init,
                            |old| f(old as $ty) as u64,
                            |w| self.real.store(w as $ty, Ordering::Relaxed),
                        ) as $ty
                    }
                    None => real_op(&self.real, ord),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(<$ty>::default())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.load(Ordering::Relaxed), f)
            }
        }
    };
}

instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
instrumented_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
instrumented_atomic!(AtomicU16, std::sync::atomic::AtomicU16, u16);
instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Model-aware drop-in for `std::sync::atomic::AtomicBool`.
pub struct AtomicBool {
    id: ObjId,
    real: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    pub const fn new(v: bool) -> Self {
        Self {
            id: ObjId::new(),
            real: std::sync::atomic::AtomicBool::new(v),
        }
    }

    pub fn load(&self, ord: Ordering) -> bool {
        match model::current_ctx() {
            Some(c) => {
                let init = self.real.load(Ordering::Relaxed) as u64;
                c.exec.atomic_load(c.tid, self.id.get(), ord, init) != 0
            }
            None => self.real.load(ord),
        }
    }

    pub fn store(&self, v: bool, ord: Ordering) {
        match model::current_ctx() {
            Some(c) => {
                let init = self.real.load(Ordering::Relaxed) as u64;
                c.exec
                    .atomic_store(c.tid, self.id.get(), ord, init, v as u64, |w| {
                        self.real.store(w != 0, Ordering::Relaxed)
                    })
            }
            None => self.real.store(v, ord),
        }
    }

    #[cfg(spin_check)]
    pub(crate) fn swap(&self, v: bool, ord: Ordering) -> bool {
        match model::current_ctx() {
            Some(c) => {
                let init = self.real.load(Ordering::Relaxed) as u64;
                c.exec.atomic_rmw(
                    c.tid,
                    self.id.get(),
                    ord,
                    init,
                    |_| v as u64,
                    |w| self.real.store(w != 0, Ordering::Relaxed),
                ) != 0
            }
            None => self.real.swap(v, ord),
        }
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

impl fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.load(Ordering::Relaxed), f)
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-aware drop-in for `parking_lot::Mutex`.
///
/// The real lock is always released *before* the model release announces
/// (see `Drop`), and model acquisition completes before the real lock is
/// taken, so the real lock is provably uncontended whenever a controlled
/// thread touches it — controlled threads never block on real primitives.
pub struct Mutex<T: ?Sized> {
    id: ObjId,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            id: ObjId::new(),
            inner: parking_lot::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let ctx = model::current_ctx();
        if let Some(c) = &ctx {
            c.exec.lock_acquire(c.tid, self.id.get(), false);
        }
        MutexGuard {
            id: self.id.get(),
            ctx,
            inner: Some(self.inner.lock()),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    id: u64,
    ctx: Option<model::Ctx>,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Real unlock first: once the model release parks, another
        // controlled thread may be granted this lock and must find the
        // real one free.
        self.inner = None;
        if let Some(c) = self.ctx.take() {
            c.exec.lock_release(c.tid, self.id, false);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Drop-in for `parking_lot::Condvar`, so that code which parks real OS
/// threads (the executor's baton) still builds against the instrumented
/// facade. It is **not modeled**: the bounded-DFS explorer never blocks a
/// real thread, so waiting from a model-controlled thread is a bug in the
/// check and panics; outside a model run it is the real primitive.
#[derive(Default)]
pub struct Condvar {
    inner: parking_lot::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Self {
            inner: parking_lot::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        assert!(
            guard.ctx.is_none(),
            "spin-check: Condvar::wait on a model-controlled thread (condition variables are not modeled)"
        );
        self.inner.wait(guard.inner.as_mut().expect("guard live"));
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Model-aware drop-in for `parking_lot::RwLock`.
pub struct RwLock<T: ?Sized> {
    id: ObjId,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            id: ObjId::new(),
            inner: parking_lot::RwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let ctx = model::current_ctx();
        if let Some(c) = &ctx {
            c.exec.lock_acquire(c.tid, self.id.get(), true);
        }
        RwLockReadGuard {
            id: self.id.get(),
            ctx,
            inner: Some(self.inner.read()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let ctx = model::current_ctx();
        if let Some(c) = &ctx {
            c.exec.lock_acquire(c.tid, self.id.get(), false);
        }
        RwLockWriteGuard {
            id: self.id.get(),
            ctx,
            inner: Some(self.inner.write()),
        }
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    id: u64,
    ctx: Option<model::Ctx>,
    inner: Option<parking_lot::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(c) = self.ctx.take() {
            c.exec.lock_release(c.tid, self.id, true);
        }
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    id: u64,
    ctx: Option<model::Ctx>,
    inner: Option<parking_lot::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(c) = self.ctx.take() {
            c.exec.lock_release(c.tid, self.id, false);
        }
    }
}

// ---------------------------------------------------------------------------
// OnceLock
// ---------------------------------------------------------------------------

/// Model-aware drop-in for `std::sync::OnceLock`.
///
/// Modeled as a 0/1 atomic: `set` is a release RMW publishing 1 (the real
/// cell is written under the model lock before the flag flips), `get` is
/// an acquire load — so a modeled thread can legitimately observe `None`
/// for a cell another thread has already initialized, exactly as on real
/// weak hardware.
pub struct OnceLock<T> {
    id: ObjId,
    real: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    pub const fn new() -> Self {
        Self {
            id: ObjId::new(),
            real: std::sync::OnceLock::new(),
        }
    }

    fn model_init(&self) -> u64 {
        u64::from(self.real.get().is_some())
    }

    pub fn get(&self) -> Option<&T> {
        match model::current_ctx() {
            Some(c) => {
                let v =
                    c.exec
                        .atomic_load(c.tid, self.id.get(), Ordering::Acquire, self.model_init());
                if v == 0 {
                    None
                } else {
                    Some(self.real.get().expect("model observed initialized cell"))
                }
            }
            None => self.real.get(),
        }
    }

    pub fn set(&self, value: T) -> Result<(), T> {
        match model::current_ctx() {
            Some(c) => {
                let mut slot = Some(value);
                let res = c.exec.atomic_cas(
                    c.tid,
                    self.id.get(),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    self.model_init(),
                    0,
                    1,
                    |_| {
                        if self.real.set(slot.take().expect("set value")).is_err() {
                            panic!("spin-check internal: OnceLock model/real divergence");
                        }
                    },
                );
                match res {
                    Ok(_) => Ok(()),
                    Err(_) => Err(slot.take().expect("set value")),
                }
            }
            None => self.real.set(value),
        }
    }

    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        if let Some(v) = self.get() {
            return v;
        }
        let _ = self.set(f());
        self.get().expect("initialized by set")
    }

    /// Empties the cell. Exclusive access is no schedule point; the cell
    /// becomes a new model object, as empty in the model as it is for real.
    #[cfg(spin_check)]
    pub(crate) fn take(&mut self) -> Option<T> {
        self.id = ObjId::new();
        self.real.take()
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Clone for OnceLock<T> {
    fn clone(&self) -> Self {
        // A clone is a distinct object with its own model identity.
        Self {
            id: ObjId::new(),
            real: self.real.clone(),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.real, f)
    }
}
