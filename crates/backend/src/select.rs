//! Backend selection: by name (config, CLI) or the `GMP_BACKEND`
//! environment variable.

use crate::{BlockedBackend, ComputeBackend, ScalarBackend};
use std::sync::Arc;

/// Which [`ComputeBackend`] implementation executes the numeric hot ops.
///
/// Orthogonal to the experiment `Backend` enum (which selects the *cost
/// model* — GPU streams vs. host CPU): every experiment backend can run on
/// every compute backend, and reports carry both labels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum ComputeBackendKind {
    /// Column-walk reference path ([`ScalarBackend`]).
    #[default]
    Scalar,
    /// Cache-blocked panel path in the old per-pair order
    /// ([`BlockedBackend`]), the independent cross-check.
    Blocked,
}

impl ComputeBackendKind {
    /// Every selectable kind, for CLI help and bench A/B sweeps.
    pub const ALL: [ComputeBackendKind; 2] =
        [ComputeBackendKind::Scalar, ComputeBackendKind::Blocked];

    /// The selection name (also what reports carry).
    pub fn name(self) -> &'static str {
        match self {
            ComputeBackendKind::Scalar => "scalar",
            ComputeBackendKind::Blocked => "blocked",
        }
    }

    /// Parse a selection name (as accepted by `GMP_BACKEND` and
    /// `--compute-backend`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(ComputeBackendKind::Scalar),
            "blocked" => Some(ComputeBackendKind::Blocked),
            _ => None,
        }
    }

    /// Selection from the `GMP_BACKEND` environment variable; unset or
    /// unrecognized values fall back to the default ([`Self::Scalar`]).
    pub fn from_env() -> Self {
        std::env::var("GMP_BACKEND")
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Instantiate the backend this kind names.
    pub fn instance(self) -> Arc<dyn ComputeBackend> {
        match self {
            ComputeBackendKind::Scalar => Arc::new(ScalarBackend),
            ComputeBackendKind::Blocked => Arc::new(BlockedBackend),
        }
    }
}

impl std::fmt::Display for ComputeBackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_kind() {
        for kind in ComputeBackendKind::ALL {
            assert_eq!(ComputeBackendKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.instance().name(), kind.name());
        }
    }

    #[test]
    fn parse_is_case_and_space_insensitive() {
        assert_eq!(
            ComputeBackendKind::parse(" Blocked "),
            Some(ComputeBackendKind::Blocked)
        );
        assert_eq!(ComputeBackendKind::parse("cuda"), None);
    }

    #[test]
    fn default_is_scalar() {
        assert_eq!(ComputeBackendKind::default(), ComputeBackendKind::Scalar);
    }
}
