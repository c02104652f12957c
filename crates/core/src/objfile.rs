//! Safe object files: the unit a domain is created from.
//!
//! "A domain ... corresponds to one or more safe object files with one or
//! more exported interfaces. An object file is safe if it is unknown to the
//! kernel but has been signed by the Modula-3 compiler, or if the kernel
//! can otherwise assert the object file to be safe" (§3.1).
//!
//! Our "compiler signature" is construction through [`ObjectFileBuilder`]:
//! every import it declares carries its full Rust type, so resolution is
//! type-checked — the analogue of Modula-3's typed linkage. A *foreign*
//! object file (the paper's C device drivers and TCP engine) is built with
//! [`ObjectFile::unsigned`] and must be explicitly asserted safe before a
//! domain will accept it; the paper notes such files "tend to be the source
//! of more than their fair share of bugs", and the kernel keeps a count of
//! them for exactly that reason.

use crate::error::CoreError;
use crate::interface::{Interface, Symbol};
use spin_check::sync::RwLock;
use std::any::Any;
use std::sync::Arc;

/// How an object file came to be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// Produced by the safe-language toolchain (the builder).
    CompilerSigned,
    /// Foreign code whose safety the kernel asserted (discouraged).
    AssertedSafe,
    /// Foreign code with no safety evidence; unusable for domains.
    Unsigned,
}

/// A patchable import: code in the importing domain calls through this
/// slot, and [`resolve`](crate::domain::Domain::resolve) fills it.
///
/// After resolution a call through the slot is one `Arc` dereference —
/// "once resolved, domains are able to share resources at memory speed".
pub struct ImportSlot<T: ?Sized + Send + Sync> {
    cell: Arc<RwLock<Option<Arc<T>>>>,
}

impl<T: ?Sized + Send + Sync> Clone for ImportSlot<T> {
    fn clone(&self) -> Self {
        ImportSlot {
            cell: self.cell.clone(),
        }
    }
}

impl<T: Send + Sync + 'static> ImportSlot<T> {
    fn new() -> Self {
        ImportSlot {
            cell: Arc::new(RwLock::new(None)),
        }
    }

    /// The resolved value.
    ///
    /// Fails with [`CoreError::Unresolved`] until a `Resolve` operation has
    /// patched this slot.
    pub fn get(&self) -> Result<Arc<T>, CoreError> {
        self.cell
            .read()
            .clone()
            .ok_or_else(|| CoreError::Unresolved {
                symbols: vec![std::any::type_name::<T>().to_string()],
            })
    }
}

/// Type-erased fill protocol used by the linker.
pub(crate) trait SlotFill: Send + Sync {
    fn fill(&self, symbol: &Symbol) -> Result<(), CoreError>;
    fn expected_type_name(&self) -> &'static str;
}

struct TypedFill<T: Send + Sync + 'static> {
    slot: ImportSlot<T>,
}

impl<T: Any + Send + Sync> SlotFill for TypedFill<T> {
    fn fill(&self, symbol: &Symbol) -> Result<(), CoreError> {
        let value = symbol.get::<T>()?;
        *self.slot.cell.write() = Some(value);
        Ok(())
    }
    fn expected_type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

/// One declared import: `interface.symbol` at a specific type.
pub(crate) struct ImportDecl {
    pub(crate) interface: String,
    pub(crate) symbol: String,
    pub(crate) fill: Arc<dyn SlotFill>,
}

impl ImportDecl {
    /// `Interface.Symbol`, for diagnostics.
    pub(crate) fn qualified_name(&self) -> String {
        format!("{}.{}", self.interface, self.symbol)
    }
}

impl std::fmt::Debug for ImportDecl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "import {}: {}",
            self.qualified_name(),
            self.fill.expected_type_name()
        )
    }
}

/// A compiled module image: exported interfaces plus typed imports.
pub struct ObjectFile {
    pub(crate) module: String,
    pub(crate) exports: Vec<Interface>,
    pub(crate) imports: Vec<ImportDecl>,
    pub(crate) provenance: Provenance,
}

impl ObjectFile {
    /// The file's trust provenance.
    pub(crate) fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// Builds a foreign (unsigned) object file, e.g. a vendor device driver
    /// written in C. A domain will reject it until the kernel asserts its
    /// safety with [`ObjectFile::assert_safe`].
    pub fn unsigned(module: &str, exports: Vec<Interface>) -> Self {
        ObjectFile {
            module: module.to_string(),
            exports,
            imports: Vec::new(),
            provenance: Provenance::Unsigned,
        }
    }

    /// Marks a foreign object file as safe by kernel assertion.
    ///
    /// "We prefer to avoid using object files that are 'safe by assertion'
    /// rather than by compiler verification" (§3.1) — callers should treat
    /// this as a last resort; the kernel counts each use.
    pub fn assert_safe(mut self) -> Self {
        if self.provenance == Provenance::Unsigned {
            self.provenance = Provenance::AssertedSafe;
        }
        self
    }
}

/// The safe-language toolchain: builds compiler-signed object files.
pub struct ObjectFileBuilder {
    module: String,
    exports: Vec<Interface>,
    imports: Vec<ImportDecl>,
}

impl ObjectFileBuilder {
    /// Starts a new module.
    pub fn new(module: &str) -> Self {
        ObjectFileBuilder {
            module: module.to_string(),
            exports: Vec::new(),
            imports: Vec::new(),
        }
    }

    /// Declares a typed import and returns the slot the module's code will
    /// call through once linked.
    pub fn import<T: Any + Send + Sync>(&mut self, interface: &str, symbol: &str) -> ImportSlot<T> {
        let slot = ImportSlot::<T>::new();
        self.imports.push(ImportDecl {
            interface: interface.to_string(),
            symbol: symbol.to_string(),
            fill: Arc::new(TypedFill { slot: slot.clone() }),
        });
        slot
    }

    /// Signs and seals the object file.
    pub fn sign(self) -> ObjectFile {
        ObjectFile {
            module: self.module,
            exports: self.exports,
            imports: self.imports,
            provenance: Provenance::CompilerSigned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_signed_files() {
        let f = ObjectFileBuilder::new("gatekeeper").sign();
        assert_eq!(f.provenance(), Provenance::CompilerSigned);
        assert_eq!(f.module, "gatekeeper");
    }

    #[test]
    fn unsigned_files_can_be_asserted() {
        let f = ObjectFile::unsigned("lance_driver", vec![]);
        assert_eq!(f.provenance(), Provenance::Unsigned);
        let f = f.assert_safe();
        assert_eq!(f.provenance(), Provenance::AssertedSafe);
    }

    #[test]
    fn import_slots_start_unresolved() {
        let mut b = ObjectFileBuilder::new("m");
        let slot = b.import::<u32>("Math", "answer");
        assert!(matches!(slot.get(), Err(CoreError::Unresolved { .. })));
        let f = b.sign();
        assert_eq!(f.imports.len(), 1);
        assert_eq!(f.imports[0].qualified_name(), "Math.answer");
    }

    #[test]
    fn fill_checks_types() {
        let mut b = ObjectFileBuilder::new("m");
        let slot = b.import::<u32>("Math", "answer");
        let f = b.sign();
        let wrong = Symbol::new("answer", Arc::new("not a number".to_string()));
        assert!(matches!(
            f.imports[0].fill.fill(&wrong),
            Err(CoreError::TypeConflict { .. })
        ));
        let right = Symbol::new("answer", Arc::new(42u32));
        f.imports[0].fill.fill(&right).unwrap();
        assert_eq!(*slot.get().unwrap(), 42);
    }
}
