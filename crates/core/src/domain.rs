//! Logical protection domains and the in-kernel dynamic linker.
//!
//! "A SPIN protection domain defines a set of names, or program symbols,
//! that can be referenced by code with access to the domain. A domain,
//! named by a capability, is used to control dynamic linking" (§3.1). The
//! four operations of Figure 2 are reproduced here:
//!
//! * [`Domain::create`] — initialize a domain from a safe object file,
//! * [`Domain::create_from_module`] — a module names and exports itself,
//! * [`Domain::resolve`] — patch the target's undefined symbols against the
//!   source's exports (cross-linking is a pair of resolves),
//! * [`Domain::combine`] — an aggregate domain exporting the union.
//!
//! A `Domain` value *is* the capability for the domain: it is unforgeable
//! (private constructor) and holding it grants the right to link against
//! the domain's exports.

use crate::error::{CoreError, SymbolConflict};
use crate::interface::{Interface, Symbol};
use crate::objfile::{ImportDecl, ObjectFile, Provenance};
use spin_check::sync::{Mutex, RwLock};
use std::any::Any;
use std::sync::Arc;

/// What one [`Domain::resolve`] pass accomplished (API v2 structured
/// result — callers previously got a bare patched-count `usize`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveReport {
    /// Imports patched against the source's exports in this pass.
    pub resolved: usize,
    /// Qualified names (`Interface.symbol`) still unresolved afterwards;
    /// a later resolve against a different source may fill them.
    pub unresolved: Vec<String>,
    /// Name of the source domain that provided the exports.
    pub provider_domain: String,
}

struct DomainInner {
    name: String,
    exports: RwLock<Vec<Interface>>,
    /// Imports not yet patched.
    unresolved: Mutex<Vec<ImportDecl>>,
    /// Domains aggregated by `combine`.
    children: RwLock<Vec<Domain>>,
}

/// A logical protection domain (and the capability that names it).
#[derive(Clone)]
pub struct Domain {
    inner: Arc<DomainInner>,
}

impl Domain {
    /// Creates a domain from a safe object file.
    ///
    /// Rejects unsigned files: "an object file is safe if it ... has been
    /// signed by the Modula-3 compiler, or if the kernel can otherwise
    /// assert the object file to be safe".
    pub fn create(objfile: ObjectFile) -> Result<Domain, CoreError> {
        if objfile.provenance == Provenance::Unsigned {
            return Err(CoreError::UnsafeObjectFile {
                module: objfile.module,
            });
        }
        Ok(Domain {
            inner: Arc::new(DomainInner {
                name: objfile.module,
                exports: RwLock::new(objfile.exports),
                unresolved: Mutex::new(objfile.imports),
                children: RwLock::new(Vec::new()),
            }),
        })
    }

    /// Creates a domain containing interfaces defined by the calling
    /// module — "this function allows modules to name and export themselves
    /// at runtime" (Figure 2).
    pub fn create_from_module(module: &str, interfaces: Vec<Interface>) -> Domain {
        Domain {
            inner: Arc::new(DomainInner {
                name: module.to_string(),
                exports: RwLock::new(interfaces),
                unresolved: Mutex::new(Vec::new()),
                children: RwLock::new(Vec::new()),
            }),
        }
    }

    /// The domain's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Resolves the **target**'s undefined symbols against the **source**'s
    /// exports. "Resolution only resolves the target domain's undefined
    /// symbols; it does not cause additional symbols to be exported."
    ///
    /// Imports that find no matching export remain unresolved (another
    /// `resolve` against a different source may fill them). A name match
    /// with a type mismatch is an error: the link is aborted mid-way with
    /// the offending symbol reported.
    ///
    /// Returns a [`ResolveReport`] recording what was patched, what is
    /// still missing, and which domain provided the exports.
    pub fn resolve(source: &Domain, target: &Domain) -> Result<ResolveReport, CoreError> {
        let mut unresolved = target.inner.unresolved.lock();
        let mut patched = 0;
        let mut remaining = Vec::new();
        for import in unresolved.drain(..) {
            match source.lookup_symbol(&import.interface, &import.symbol) {
                Some(symbol) => {
                    import.fill.fill(&symbol)?;
                    patched += 1;
                }
                None => remaining.push(import),
            }
        }
        let report = ResolveReport {
            resolved: patched,
            unresolved: remaining.iter().map(|i| i.qualified_name()).collect(),
            provider_domain: source.inner.name.clone(),
        };
        *unresolved = remaining;
        Ok(report)
    }

    /// Creates an aggregate domain exporting the union of the given
    /// domains' interfaces (the paper's `SpinPublic` is built this way).
    ///
    /// A symbol exported by two constituents at *different types* is an
    /// [`CoreError::ExportConflict`]; identical re-exports are allowed and
    /// the first constituent wins on lookup. *Every* collision across the
    /// constituents is collected and reported (API v2), so a failed
    /// combine names all offending domain pairs at once instead of
    /// aborting on the first.
    pub(crate) fn combine(name: &str, domains: &[Domain]) -> Result<Domain, CoreError> {
        // Conflict check across constituents.
        let mut seen: Vec<(String, std::any::TypeId, String, &'static str)> = Vec::new();
        let mut conflicts: Vec<SymbolConflict> = Vec::new();
        for d in domains {
            for (iface, sym, tid, tname) in d.all_symbol_types() {
                let key = format!("{iface}.{sym}");
                if let Some((_, prev, owner, prev_tname)) = seen.iter().find(|(k, ..)| *k == key) {
                    if *prev != tid {
                        conflicts.push(SymbolConflict {
                            symbol: key,
                            first_domain: owner.clone(),
                            second_domain: d.name().to_string(),
                            first_type: prev_tname,
                            second_type: tname,
                        });
                    }
                } else {
                    seen.push((key, tid, d.name().to_string(), tname));
                }
            }
        }
        if !conflicts.is_empty() {
            return Err(CoreError::ExportConflict { conflicts });
        }
        Ok(Domain {
            inner: Arc::new(DomainInner {
                name: name.to_string(),
                exports: RwLock::new(Vec::new()),
                unresolved: Mutex::new(Vec::new()),
                children: RwLock::new(domains.to_vec()),
            }),
        })
    }

    /// Adds an interface to this domain's own exports.
    pub(crate) fn add_export(&self, interface: Interface) {
        self.inner.exports.write().push(interface);
    }

    /// Finds an exported symbol, searching own exports then children in
    /// combine order.
    pub fn lookup_symbol(&self, interface: &str, symbol: &str) -> Option<Symbol> {
        for iface in self.inner.exports.read().iter() {
            if iface.name() == interface {
                if let Some(s) = iface.symbol(symbol) {
                    return Some(s.clone());
                }
            }
        }
        for child in self.inner.children.read().iter() {
            if let Some(s) = child.lookup_symbol(interface, symbol) {
                return Some(s);
            }
        }
        None
    }

    /// Recovers an exported symbol at its type, like client code importing
    /// through a resolved slot.
    pub fn get<T: Any + Send + Sync>(
        &self,
        interface: &str,
        symbol: &str,
    ) -> Result<Arc<T>, CoreError> {
        self.lookup_symbol(interface, symbol)
            .ok_or_else(|| CoreError::NameNotFound {
                name: format!("{interface}.{symbol}"),
            })?
            .get::<T>()
    }

    /// Names of imports that are still unresolved.
    pub fn unresolved(&self) -> Vec<String> {
        self.inner
            .unresolved
            .lock()
            .iter()
            .map(|i| i.qualified_name())
            .collect()
    }

    /// Whether every declared import has been patched.
    pub fn fully_resolved(&self) -> bool {
        self.inner.unresolved.lock().is_empty()
    }

    /// Fails unless the domain is fully resolved (used before activating an
    /// extension).
    pub(crate) fn require_resolved(&self) -> Result<(), CoreError> {
        let u = self.unresolved();
        if u.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Unresolved { symbols: u })
        }
    }

    fn all_symbol_types(&self) -> Vec<(String, String, std::any::TypeId, &'static str)> {
        let mut out = Vec::new();
        for iface in self.inner.exports.read().iter() {
            for s in iface.symbols() {
                out.push((
                    iface.name().to_string(),
                    s.name().to_string(),
                    s.type_id(),
                    s.type_name(),
                ));
            }
        }
        for child in self.inner.children.read().iter() {
            out.extend(child.all_symbol_types());
        }
        out
    }

    /// First exported symbol of dynamic type `tid` (own exports in
    /// declaration order, then children in combine order). Backs the
    /// nameserver's typed import.
    pub(crate) fn symbol_of_type(&self, tid: std::any::TypeId) -> Option<Symbol> {
        for iface in self.inner.exports.read().iter() {
            for s in iface.symbols() {
                if s.type_id() == tid {
                    return Some(s.clone());
                }
            }
        }
        for child in self.inner.children.read().iter() {
            if let Some(s) = child.symbol_of_type(tid) {
                return Some(s);
            }
        }
        None
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Domain({})", self.inner.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objfile::ObjectFileBuilder;

    fn math_domain() -> Domain {
        Domain::create_from_module(
            "math",
            vec![Interface::new("Math").export("answer", Arc::new(42u32))],
        )
    }

    #[test]
    fn create_rejects_unsigned_files() {
        let f = ObjectFile::unsigned("driver", vec![]);
        assert!(matches!(
            Domain::create(f),
            Err(CoreError::UnsafeObjectFile { .. })
        ));
        let f = ObjectFile::unsigned("driver", vec![]).assert_safe();
        assert!(Domain::create(f).is_ok(), "an asserted-safe file links");
    }

    #[test]
    fn resolve_patches_imports() {
        let source = math_domain();
        let mut b = ObjectFileBuilder::new("client");
        let slot = b.import::<u32>("Math", "answer");
        let target = Domain::create(b.sign()).unwrap();
        assert!(!target.fully_resolved());
        let report = Domain::resolve(&source, &target).unwrap();
        assert_eq!(report.resolved, 1);
        assert!(report.unresolved.is_empty());
        assert_eq!(report.provider_domain, "math");
        assert!(target.fully_resolved());
        assert_eq!(*slot.get().unwrap(), 42);
    }

    #[test]
    fn resolve_reports_type_conflicts() {
        let source = math_domain();
        let mut b = ObjectFileBuilder::new("client");
        let _slot = b.import::<String>("Math", "answer"); // wrong type
        let target = Domain::create(b.sign()).unwrap();
        assert!(matches!(
            Domain::resolve(&source, &target),
            Err(CoreError::TypeConflict { .. })
        ));
    }

    #[test]
    fn unmatched_imports_remain_for_later_sources() {
        let source = math_domain();
        let mut b = ObjectFileBuilder::new("client");
        let _a = b.import::<u32>("Math", "answer");
        let _b = b.import::<u32>("Physics", "c");
        let target = Domain::create(b.sign()).unwrap();
        let report = Domain::resolve(&source, &target).unwrap();
        assert_eq!(report.resolved, 1);
        assert_eq!(report.unresolved, vec!["Physics.c".to_string()]);
        assert_eq!(target.unresolved(), vec!["Physics.c".to_string()]);
        let physics = Domain::create_from_module(
            "physics",
            vec![Interface::new("Physics").export("c", Arc::new(299_792_458u32))],
        );
        assert_eq!(Domain::resolve(&physics, &target).unwrap().resolved, 1);
        assert!(target.fully_resolved());
        assert!(target.require_resolved().is_ok());
    }

    #[test]
    fn cross_linking_is_a_pair_of_resolves() {
        let mut ab = ObjectFileBuilder::new("a");
        let a_needs = ab.import::<u32>("B", "bval");
        let a = Domain::create(ab.sign()).unwrap();
        a.add_export(Interface::new("A").export("aval", Arc::new(1u32)));

        let mut bb = ObjectFileBuilder::new("b");
        let b_needs = bb.import::<u32>("A", "aval");
        let b = Domain::create(bb.sign()).unwrap();
        b.add_export(Interface::new("B").export("bval", Arc::new(2u32)));

        Domain::resolve(&a, &b).unwrap();
        Domain::resolve(&b, &a).unwrap();
        assert_eq!(*a_needs.get().unwrap(), 2);
        assert_eq!(*b_needs.get().unwrap(), 1);
    }

    #[test]
    fn combine_exports_the_union() {
        let m = math_domain();
        let p = Domain::create_from_module(
            "physics",
            vec![Interface::new("Physics").export("c", Arc::new(3u32))],
        );
        let public = Domain::combine("SpinPublic", &[m, p]).unwrap();
        assert_eq!(*public.get::<u32>("Math", "answer").unwrap(), 42);
        assert_eq!(*public.get::<u32>("Physics", "c").unwrap(), 3);
        assert!(public.lookup_symbol("Nope", "x").is_none());
    }

    #[test]
    fn combine_rejects_conflicting_types() {
        let a =
            Domain::create_from_module("a", vec![Interface::new("I").export("x", Arc::new(1u32))]);
        let b = Domain::create_from_module(
            "b",
            vec![Interface::new("I").export("x", Arc::new("s".to_string()))],
        );
        assert!(matches!(
            Domain::combine("C", &[a, b]),
            Err(CoreError::ExportConflict { .. })
        ));
    }

    #[test]
    fn combine_reports_every_conflict_with_both_domains() {
        // Two distinct collisions across three domains: the error carries
        // them all, attributed to the colliding domain pair, not just the
        // first one found.
        let a = Domain::create_from_module(
            "a",
            vec![Interface::new("I")
                .export("x", Arc::new(1u32))
                .export("y", Arc::new(2u64))],
        );
        let b = Domain::create_from_module(
            "b",
            vec![Interface::new("I").export("x", Arc::new("s".to_string()))],
        );
        let c =
            Domain::create_from_module("c", vec![Interface::new("I").export("y", Arc::new(true))]);
        let err = Domain::combine("C", &[a, b, c]).unwrap_err();
        let CoreError::ExportConflict { conflicts } = err else {
            panic!("expected ExportConflict");
        };
        assert_eq!(conflicts.len(), 2, "{conflicts:?}");
        assert_eq!(conflicts[0].symbol, "I.x");
        assert_eq!(conflicts[0].first_domain, "a");
        assert_eq!(conflicts[0].second_domain, "b");
        assert_eq!(conflicts[1].symbol, "I.y");
        assert_eq!(conflicts[1].first_domain, "a");
        assert_eq!(conflicts[1].second_domain, "c");
        assert!(conflicts[0].first_type.contains("u32"), "{conflicts:?}");
        assert!(conflicts[0].second_type.contains("String"), "{conflicts:?}");
    }

    #[test]
    fn resolve_does_not_reexport() {
        // C imports from B which imported from A; resolving B against C
        // must not expose A's symbols through B unless B exports them.
        let a = math_domain();
        let mut bb = ObjectFileBuilder::new("b");
        let _slot = bb.import::<u32>("Math", "answer");
        let b = Domain::create(bb.sign()).unwrap();
        Domain::resolve(&a, &b).unwrap();
        // B exports nothing, so a client resolving against B finds nothing.
        let mut cb = ObjectFileBuilder::new("c");
        let _c_slot = cb.import::<u32>("Math", "answer");
        let c = Domain::create(cb.sign()).unwrap();
        assert_eq!(Domain::resolve(&b, &c).unwrap().resolved, 0);
        assert!(!c.fully_resolved());
    }
}
