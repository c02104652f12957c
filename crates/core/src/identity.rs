//! Identities: who is exporting, importing, installing.
//!
//! The paper's nameserver "will be called with the identity of the importer
//! whenever the interface is imported" (§3.1), and the dispatcher passes an
//! installer's identity to the primary implementation module. An
//! [`Identity`] is that principal.

use std::fmt;
use std::sync::Arc;

/// The kind of principal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdentityKind {
    /// Trusted core services shipped with the kernel.
    KernelCore,
    /// A dynamically-loaded kernel extension.
    Extension,
}

/// A principal known to the kernel.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Identity {
    name: Arc<str>,
    kind: IdentityKind,
}

impl Identity {
    /// A trusted core-service identity.
    pub fn kernel(name: &str) -> Self {
        Identity {
            name: name.into(),
            kind: IdentityKind::KernelCore,
        }
    }

    /// An extension identity.
    pub fn extension(name: &str) -> Self {
        Identity {
            name: name.into(),
            kind: IdentityKind::Extension,
        }
    }

    /// The principal's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The principal's kind.
    pub fn kind(&self) -> IdentityKind {
        self.kind
    }

    /// Whether this is a trusted core-service identity.
    pub fn is_kernel(&self) -> bool {
        self.kind == IdentityKind::KernelCore
    }
}

impl fmt::Debug for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}:{}", self.kind, self.name)
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_properties() {
        let k = Identity::kernel("Console");
        assert!(k.is_kernel());
        assert_eq!(k.name(), "Console");
        let e = Identity::extension("VideoClient");
        assert!(!e.is_kernel());
        assert_eq!(e.kind(), IdentityKind::Extension);
        assert_ne!(k, e);
        assert_eq!(e, Identity::extension("VideoClient"));
    }
}
