//! Error types for the extensibility machinery.

use std::fmt;

/// One colliding export discovered by `Domain::combine`: the same
/// interface/symbol name exported by two member domains at different types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolConflict {
    /// `interface.symbol` key that collided.
    pub symbol: String,
    /// The domain whose export was seen first.
    pub first_domain: String,
    /// The domain whose conflicting export was seen second.
    pub second_domain: String,
    /// Type name of the first export.
    pub first_type: &'static str,
    /// Type name of the second export.
    pub second_type: &'static str,
}

impl fmt::Display for SymbolConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}`: {} exports {}, {} exports {}",
            self.symbol, self.first_domain, self.first_type, self.second_domain, self.second_type
        )
    }
}

/// Errors from domain creation, linking and the nameserver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The object file is neither compiler-signed nor asserted safe.
    UnsafeObjectFile { module: String },
    /// `Resolve` finished but the target still has unresolved imports.
    Unresolved { symbols: Vec<String> },
    /// Import and export agree on a name but disagree on its type — the
    /// paper's "type conflict that results in an error" (§3.1).
    TypeConflict {
        symbol: String,
        expected: &'static str,
        found: &'static str,
    },
    /// Combined domains export overlapping symbols at different types.
    /// Every collision is reported (API v2), not just the first.
    ExportConflict { conflicts: Vec<SymbolConflict> },
    /// The nameserver has no domain registered under this name.
    NameNotFound { name: String },
    /// A nameserver authorizer rejected the importer.
    AuthorizationDenied { name: String, importer: String },
    /// A name is already registered.
    NameExists { name: String },
    /// An externalized reference was invalid or of the wrong type.
    BadExternRef,
    /// Typed import found no registration exporting the requested type.
    ServiceNotFound { type_name: &'static str },
    /// Typed import matched more than one registration; the caller must
    /// disambiguate (the candidate registration names are sorted).
    AmbiguousService {
        type_name: &'static str,
        candidates: Vec<String>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsafeObjectFile { module } => {
                write!(
                    f,
                    "object file for `{module}` is not safe (unsigned and not asserted)"
                )
            }
            CoreError::Unresolved { symbols } => {
                write!(f, "unresolved imports remain: {symbols:?}")
            }
            CoreError::TypeConflict {
                symbol,
                expected,
                found,
            } => {
                write!(
                    f,
                    "type conflict on `{symbol}`: import wants {expected}, export is {found}"
                )
            }
            CoreError::ExportConflict { conflicts } => {
                write!(f, "conflicting exports in combined domain: ")?;
                for (i, c) in conflicts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            CoreError::NameNotFound { name } => write!(f, "no interface named `{name}`"),
            CoreError::AuthorizationDenied { name, importer } => {
                write!(f, "importer `{importer}` denied access to `{name}`")
            }
            CoreError::NameExists { name } => write!(f, "name `{name}` already registered"),
            CoreError::BadExternRef => write!(f, "invalid externalized reference"),
            CoreError::ServiceNotFound { type_name } => {
                write!(f, "no registered domain exports a `{type_name}` service")
            }
            CoreError::AmbiguousService {
                type_name,
                candidates,
            } => {
                write!(
                    f,
                    "multiple registrations export `{type_name}`: {candidates:?}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Errors from the event dispatcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The event is not (or no longer) defined.
    UnknownEvent { name: String },
    /// Every handler was guarded off, asynchronous, or absent; no result
    /// could be produced.
    NoHandlerRan { name: String },
    /// The primary implementation module denied the installation (§3.2:
    /// "The implementation module can deny or allow the installation").
    InstallDenied { name: String, installer: String },
    /// The caller does not hold the owner capability for this operation.
    NotOwner,
    /// No handler with that id is installed.
    NoSuchHandler,
    /// The event is quiesced for a hot swap: the raise was parked in the
    /// hold queue and will be dispatched — in the order raises parked —
    /// when the swap resumes the event.
    Held { name: String },
    /// The event is quiesced and its hold queue is full; the raise was
    /// dropped (counted in [`crate::HoldStats::overflowed`]).
    HoldOverflow { name: String },
    /// The raise was refused by admission control: the domain the event is
    /// metered under is over one of its [`crate::QuotaSpec`] budgets. The
    /// caller may retry once budget is released (a completed dispatch or a
    /// window roll); nothing was queued or charged.
    Throttled { name: String, domain: String },
    /// The raise was deterministically dropped by load shedding: the
    /// metered domain escalated past throttling (counted in
    /// [`crate::QuotaSnapshot::shed`]). Retrying is futile until the
    /// domain's shedding window rolls or a supervisor intervenes.
    Shed { name: String, domain: String },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownEvent { name } => write!(f, "unknown event `{name}`"),
            DispatchError::NoHandlerRan { name } => {
                write!(f, "no handler produced a result for `{name}`")
            }
            DispatchError::InstallDenied { name, installer } => {
                write!(f, "`{installer}` denied installation on `{name}`")
            }
            DispatchError::NotOwner => write!(f, "caller is not the event owner"),
            DispatchError::NoSuchHandler => write!(f, "no such handler"),
            DispatchError::Held { name } => {
                write!(f, "`{name}` is quiesced; raise parked in the hold queue")
            }
            DispatchError::HoldOverflow { name } => {
                write!(f, "`{name}` is quiesced and its hold queue is full")
            }
            DispatchError::Throttled { name, domain } => {
                write!(f, "`{name}` throttled: domain `{domain}` is over budget")
            }
            DispatchError::Shed { name, domain } => {
                write!(f, "`{name}` shed: domain `{domain}` is shedding load")
            }
        }
    }
}

impl std::error::Error for DispatchError {}
