//! The in-kernel nameserver.
//!
//! "A module that exports an interface explicitly creates a domain for its
//! interface, and exports the domain through an in-kernel nameserver. ...
//! An exporter can register an authorization procedure with the nameserver
//! that will be called with the identity of the importer whenever the
//! interface is imported. This fine-grained control has low cost because
//! the importer, exporter, and authorizer interact through direct procedure
//! calls" (§3.1).

use crate::domain::Domain;
use crate::error::CoreError;
use crate::identity::Identity;
use spin_check::sync::Mutex;
use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Decides whether `importer` may import the named interface.
pub type Authorizer = Arc<dyn Fn(&Identity) -> bool + Send + Sync>;

/// A typed capability returned by [`NameServer::import_typed`]: the
/// resolved service handle plus the domain it was exported from.
///
/// Dereferences to `T`, so call sites use the service directly; the
/// domain stays available for further symbol lookups (API v2 replaces the
/// stringly `import(&str) -> Domain` flow, where every caller re-did the
/// downcast by hand).
#[derive(Clone)]
pub struct ServiceRef<T: ?Sized> {
    name: String,
    domain: Domain,
    service: Arc<T>,
}

impl<T: ?Sized> ServiceRef<T> {
    /// The registration name the service resolved through.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The exporting domain (for linking or further lookups).
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The shared service handle.
    pub fn service(&self) -> &Arc<T> {
        &self.service
    }
}

impl<T: ?Sized> std::ops::Deref for ServiceRef<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.service
    }
}

impl<T: ?Sized> std::fmt::Debug for ServiceRef<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServiceRef<{}>({})",
            std::any::type_name::<T>(),
            self.name
        )
    }
}

struct Registration {
    domain: Domain,
    exporter: Identity,
    authorizer: Option<Authorizer>,
}

/// The kernel's name → domain registry.
#[derive(Clone, Default)]
pub struct NameServer {
    names: Arc<Mutex<BTreeMap<String, Registration>>>,
}

impl NameServer {
    /// An empty nameserver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `domain` under `name` with no import restriction.
    pub fn register(
        &self,
        name: &str,
        domain: Domain,
        exporter: Identity,
    ) -> Result<(), CoreError> {
        self.register_with_authorizer(name, domain, exporter, None)
    }

    /// Registers `domain` under `name`, guarding imports with `authorizer`.
    pub fn register_with_authorizer(
        &self,
        name: &str,
        domain: Domain,
        exporter: Identity,
        authorizer: Option<Authorizer>,
    ) -> Result<(), CoreError> {
        let mut names = self.names.lock();
        if names.contains_key(name) {
            return Err(CoreError::NameExists {
                name: name.to_string(),
            });
        }
        names.insert(
            name.to_string(),
            Registration {
                domain,
                exporter,
                authorizer,
            },
        );
        Ok(())
    }

    /// Name-keyed lookup behind the typed path once it has picked its
    /// unique registration. The string `import` this once backed is gone
    /// (API v2): string lookups bypassed the interface type ids that make
    /// linking safe — [`NameServer::import_typed`] is the import surface.
    fn import_by_name(&self, name: &str, importer: &Identity) -> Result<Domain, CoreError> {
        let names = self.names.lock();
        let reg = names.get(name).ok_or_else(|| CoreError::NameNotFound {
            name: name.to_string(),
        })?;
        if let Some(auth) = &reg.authorizer {
            if !auth(importer) {
                return Err(CoreError::AuthorizationDenied {
                    name: name.to_string(),
                    importer: importer.name().to_string(),
                });
            }
        }
        Ok(reg.domain.clone())
    }

    /// Imports a service by its *exported type* instead of a registration
    /// string: scans registrations (in sorted-name order) for domains
    /// exporting a symbol of type `T` via `Interface::export::<T>`.
    ///
    /// Exactly one registration may match — zero is
    /// [`CoreError::ServiceNotFound`], several are
    /// [`CoreError::AmbiguousService`] with the sorted candidate names.
    /// The matching exporter's authorizer is consulted (and denials
    /// counted) exactly as for the string path.
    pub fn import_typed<T: Any + Send + Sync>(
        &self,
        importer: &Identity,
    ) -> Result<ServiceRef<T>, CoreError> {
        let tid = TypeId::of::<T>();
        let candidates: Vec<String> = {
            let names = self.names.lock();
            names
                .iter()
                .filter(|(_, r)| r.domain.symbol_of_type(tid).is_some())
                .map(|(n, _)| n.clone())
                .collect()
        };
        let name = match candidates.as_slice() {
            [] => {
                return Err(CoreError::ServiceNotFound {
                    type_name: std::any::type_name::<T>(),
                })
            }
            [one] => one.clone(),
            _ => {
                return Err(CoreError::AmbiguousService {
                    type_name: std::any::type_name::<T>(),
                    candidates,
                })
            }
        };
        let domain = self.import_by_name(&name, importer)?;
        let service = domain
            .symbol_of_type(tid)
            .ok_or(CoreError::ServiceNotFound {
                type_name: std::any::type_name::<T>(),
            })?
            .get::<T>()?;
        Ok(ServiceRef {
            name,
            domain,
            service,
        })
    }

    /// Removes every registration exported by `exporter` and returns the
    /// revoked names, sorted. This is the quarantine primitive: a domain
    /// that has tripped its failure budget loses its exported interfaces
    /// so no further imports can bind to it.
    pub(crate) fn revoke_exports(&self, exporter: &Identity) -> Vec<String> {
        let mut names = self.names.lock();
        let revoked: Vec<String> = names
            .iter()
            .filter(|(_, r)| r.exporter == *exporter)
            .map(|(n, _)| n.clone())
            .collect();
        for name in &revoked {
            names.remove(name);
        }
        revoked
    }

    /// All registered names, sorted (diagnostics).
    pub fn names(&self) -> Vec<String> {
        self.names.lock().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::Interface;

    fn console_domain() -> Domain {
        Domain::create_from_module(
            "console",
            vec![Interface::new("Console").export("version", Arc::new(1u32))],
        )
    }

    #[test]
    fn register_and_import() {
        let ns = NameServer::new();
        ns.register(
            "ConsoleService",
            console_domain(),
            Identity::kernel("console"),
        )
        .unwrap();
        let svc = ns
            .import_typed::<u32>(&Identity::extension("gatekeeper"))
            .unwrap();
        assert_eq!(*svc, 1);
        assert_eq!(svc.name(), "ConsoleService");
        assert_eq!(*svc.domain().get::<u32>("Console", "version").unwrap(), 1);
    }

    /// The deprecated string `import` is gone; what it used to give a
    /// caller — the exporting domain for hand-rolled symbol lookups — is
    /// still reachable through the typed path's [`ServiceRef::domain`].
    #[test]
    fn typed_path_covers_removed_string_import() {
        let ns = NameServer::new();
        ns.register(
            "ConsoleService",
            console_domain(),
            Identity::kernel("console"),
        )
        .unwrap();
        let svc = ns
            .import_typed::<u32>(&Identity::extension("gatekeeper"))
            .unwrap();
        let d = svc.domain();
        assert_eq!(*d.get::<u32>("Console", "version").unwrap(), 1);
    }

    #[test]
    fn typed_import_reports_missing_and_ambiguous_services() {
        let ns = NameServer::new();
        let who = Identity::kernel("probe");
        let err = ns.import_typed::<u32>(&who).unwrap_err();
        assert!(matches!(err, CoreError::ServiceNotFound { .. }));

        ns.register("B", console_domain(), Identity::kernel("b"))
            .unwrap();
        ns.register("A", console_domain(), Identity::kernel("a"))
            .unwrap();
        match ns.import_typed::<u32>(&who).unwrap_err() {
            CoreError::AmbiguousService { candidates, .. } => {
                assert_eq!(candidates, vec!["A".to_string(), "B".to_string()]);
            }
            other => panic!("expected AmbiguousService, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let ns = NameServer::new();
        ns.register("X", console_domain(), Identity::kernel("a"))
            .unwrap();
        assert!(matches!(
            ns.register("X", console_domain(), Identity::kernel("b")),
            Err(CoreError::NameExists { .. })
        ));
    }

    #[test]
    fn authorizer_gates_imports() {
        let ns = NameServer::new();
        ns.register_with_authorizer(
            "Device",
            console_domain(),
            Identity::kernel("driver"),
            Some(Arc::new(|who: &Identity| who.is_kernel())),
        )
        .unwrap();
        assert!(ns.import_typed::<u32>(&Identity::kernel("fs")).is_ok());
        let err = ns
            .import_typed::<u32>(&Identity::extension("rogue"))
            .unwrap_err();
        assert!(matches!(err, CoreError::AuthorizationDenied { .. }));
    }

    #[test]
    fn names_are_sorted() {
        let ns = NameServer::new();
        ns.register("b", console_domain(), Identity::kernel("x"))
            .unwrap();
        ns.register("a", console_domain(), Identity::kernel("x"))
            .unwrap();
        assert_eq!(ns.names(), vec!["a".to_string(), "b".to_string()]);
    }
}
