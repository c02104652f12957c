//! The tracing protocol: how heap objects expose their outgoing references.
//!
//! A heap object implements [`Trace`] and reports each [`Gc`](crate::Gc)
//! field to the [`Tracer`] via [`Tracer::edge`]. The collector uses the same
//! protocol both to find live objects and to *rewrite* references after a
//! copy, which is why `trace` takes `&mut self`.

use crate::heap::{Addr, Gc};
use std::any::Any;

/// Implemented by every garbage-collected type.
///
/// Leaf types (no outgoing `Gc` references) can use the blanket-style
/// implementations provided for primitives, or implement `trace` as a no-op.
pub trait Trace: Any + Send {
    /// Reports (and permits rewriting of) every `Gc` reference held by
    /// `self`.
    fn trace(&mut self, tracer: &mut Tracer<'_>);
}

/// Visitor passed to [`Trace::trace`].
pub struct Tracer<'a> {
    pub(crate) visit: &'a mut dyn FnMut(&mut Addr),
}

impl<'a> Tracer<'a> {
    /// Visits one `Gc` edge. The collector may update the reference to the
    /// object's new location.
    pub(crate) fn edge<T: Trace>(&mut self, gc: &mut Gc<T>) {
        (self.visit)(&mut gc.addr);
    }

    /// Visits every edge in a collection of references.
    pub(crate) fn edges<T: Trace>(&mut self, gcs: &mut [Gc<T>]) {
        for gc in gcs {
            self.edge(gc);
        }
    }

    /// Visits an optional edge.
    pub fn edge_opt<T: Trace>(&mut self, gc: &mut Option<Gc<T>>) {
        if let Some(gc) = gc {
            self.edge(gc);
        }
    }
}

macro_rules! leaf_trace {
    ($($t:ty),* $(,)?) => {
        $(impl Trace for $t {
            fn trace(&mut self, _tracer: &mut Tracer<'_>) {}
        })*
    };
}

leaf_trace!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, char, f32, f64, String);

impl Trace for () {
    fn trace(&mut self, _tracer: &mut Tracer<'_>) {}
}

impl<T: Trace> Trace for Vec<Gc<T>> {
    fn trace(&mut self, tracer: &mut Tracer<'_>) {
        tracer.edges(self);
    }
}

impl<T: Trace> Trace for Option<Gc<T>> {
    fn trace(&mut self, tracer: &mut Tracer<'_>) {
        tracer.edge_opt(self);
    }
}

impl Trace for Vec<u8> {
    fn trace(&mut self, _tracer: &mut Tracer<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::KernelHeap;

    struct Pair {
        left: Gc<u64>,
        right: Option<Gc<u64>>,
    }

    impl Trace for Pair {
        fn trace(&mut self, tracer: &mut Tracer<'_>) {
            tracer.edge(&mut self.left);
            tracer.edge_opt(&mut self.right);
        }
    }

    #[test]
    fn edges_are_enumerated() {
        let heap = KernelHeap::new();
        let a = heap.alloc(1u64).unwrap();
        let b = heap.alloc(2u64).unwrap();
        let mut pair = Pair {
            left: a,
            right: Some(b),
        };
        let mut seen = 0;
        let mut visit = |_addr: &mut Addr| seen += 1;
        let mut tracer = Tracer { visit: &mut visit };
        pair.trace(&mut tracer);
        assert_eq!(seen, 2);
    }
}
