//! Interfaces and symbols: the language-level units of protection.
//!
//! In SPIN "an interface declares the visible parts of an implementation
//! module" and "capabilities are implemented directly using pointers, which
//! are supported by the language" (§3.1). Here an [`Interface`] is a named
//! set of typed [`Symbol`]s; a symbol's value is an `Arc` of the exported
//! item (a procedure wrapper, an event, an opaque service handle). Rust's
//! type system plays Modula-3's role: a symbol can only be recovered at its
//! exported type, so holding an `Arc<Console>` without the fields being
//! public is exactly the paper's opaque `Console.T`.

use crate::error::CoreError;
use std::any::{Any, TypeId};
use std::sync::Arc;

/// A typed, named item exported from an interface.
#[derive(Clone)]
pub struct Symbol {
    name: Arc<str>,
    value: Arc<dyn Any + Send + Sync>,
    type_id: TypeId,
    type_name: &'static str,
}

impl Symbol {
    /// Wraps `value` as an exported symbol.
    pub(crate) fn new<T: Any + Send + Sync>(name: &str, value: Arc<T>) -> Self {
        Symbol {
            name: name.into(),
            value,
            type_id: TypeId::of::<T>(),
            type_name: std::any::type_name::<T>(),
        }
    }

    /// The symbol's name within its interface.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The exported Rust type's name (diagnostics only).
    pub(crate) fn type_name(&self) -> &'static str {
        self.type_name
    }

    pub(crate) fn type_id(&self) -> TypeId {
        self.type_id
    }

    /// Recovers the symbol at its exported type.
    ///
    /// A mismatch is the paper's *type conflict* and yields an error rather
    /// than a misinterpreted pointer.
    pub(crate) fn get<T: Any + Send + Sync>(&self) -> Result<Arc<T>, CoreError> {
        self.value
            .clone()
            .downcast::<T>()
            .map_err(|_| CoreError::TypeConflict {
                symbol: self.name.to_string(),
                expected: std::any::type_name::<T>(),
                found: self.type_name,
            })
    }
}

impl std::fmt::Debug for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.type_name)
    }
}

/// A named collection of symbols — the unit of export, import and
/// authorization.
#[derive(Clone, Debug)]
pub struct Interface {
    name: Arc<str>,
    symbols: Vec<Symbol>,
}

impl Interface {
    /// Creates an interface named `name` (the paper's
    /// `Console.InterfaceName` global).
    pub fn new(name: &str) -> Self {
        Interface {
            name: name.into(),
            symbols: Vec::new(),
        }
    }

    /// The interface's global name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Adds a symbol, replacing any previous one of the same name.
    pub fn export<T: Any + Send + Sync>(mut self, symbol: &str, value: Arc<T>) -> Self {
        self.symbols.retain(|s| s.name() != symbol);
        self.symbols.push(Symbol::new(symbol, value));
        self
    }

    /// Looks up a symbol by name.
    pub(crate) fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name() == name)
    }

    /// All symbols, in export order.
    pub(crate) fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    struct ConsoleT {
        device: &'static str,
    }

    /// A domain exporting `iface`: [`Domain::get`] is the typed lookup.
    fn exporting(iface: Interface) -> Domain {
        Domain::create_from_module("m", vec![iface])
    }

    #[test]
    fn symbols_round_trip_at_their_type() {
        let d = exporting(
            Interface::new("ConsoleService")
                .export("console", Arc::new(ConsoleT { device: "tga0" }))
                .export("version", Arc::new(3u32)),
        );
        assert_eq!(
            d.get::<u32>("ConsoleService", "version").unwrap().as_ref(),
            &3
        );
        assert_eq!(
            d.get::<ConsoleT>("ConsoleService", "console")
                .unwrap()
                .device,
            "tga0"
        );
    }

    #[test]
    fn wrong_type_is_a_type_conflict() {
        let d = exporting(Interface::new("I").export("x", Arc::new(1u32)));
        let err = d.get::<u64>("I", "x").unwrap_err();
        assert!(matches!(err, CoreError::TypeConflict { .. }));
    }

    #[test]
    fn missing_symbol_is_name_not_found() {
        let d = exporting(Interface::new("I"));
        assert!(matches!(
            d.get::<u32>("I", "x"),
            Err(CoreError::NameNotFound { .. })
        ));
    }

    #[test]
    fn re_export_replaces() {
        let iface = Interface::new("I")
            .export("x", Arc::new(1u32))
            .export("x", Arc::new(2u32));
        assert_eq!(iface.symbols().len(), 1);
        assert_eq!(*exporting(iface).get::<u32>("I", "x").unwrap(), 2);
    }
}
