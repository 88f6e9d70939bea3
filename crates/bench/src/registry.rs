//! Benchmark registry: construct fresh application instances by kind.
//!
//! Every experiment run needs a *fresh* instance (block stores and task
//! maps are single-run state), so the registry hands out factories rather
//! than shared instances.

use ft_apps::cholesky::Cholesky;
use ft_apps::fw::Fw;
use ft_apps::lcs::Lcs;
use ft_apps::lu::Lu;
use ft_apps::sw::Sw;
use ft_apps::{AppConfig, BenchApp};
use std::sync::Arc;

/// The five paper benchmarks (plus the FW single-version ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Longest common subsequence (single-assignment).
    Lcs,
    /// Smith-Waterman (memory reuse, column blocks).
    Sw,
    /// Floyd-Warshall, two versions per block (paper configuration).
    Fw,
    /// Floyd-Warshall, one version per block (ablation).
    FwSingleVersion,
    /// LU decomposition.
    Lu,
    /// Cholesky factorization.
    Cholesky,
}

/// The paper's five benchmarks, in Table I order.
pub const APP_KINDS: &[AppKind] = &[
    AppKind::Lcs,
    AppKind::Lu,
    AppKind::Cholesky,
    AppKind::Fw,
    AppKind::Sw,
];

impl AppKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Lcs => "LCS",
            AppKind::Sw => "SW",
            AppKind::Fw => "FW",
            AppKind::FwSingleVersion => "FW(1v)",
            AppKind::Lu => "LU",
            AppKind::Cholesky => "Cholesky",
        }
    }

    /// Scaled default configuration: same graph shape as Table I, sized so
    /// a full experiment sweep finishes in seconds on a laptop-class box.
    pub fn default_config(&self) -> AppConfig {
        match self {
            // Wavefront DP: 24x24 tiles of 512x512 cells.
            AppKind::Lcs | AppKind::Sw => AppConfig::new(12288, 512),
            // nb = 12 rounds of 48x48 tiles.
            AppKind::Fw | AppKind::FwSingleVersion => AppConfig::new(576, 48),
            // nb = 20 tiles of 48x48.
            AppKind::Lu | AppKind::Cholesky => AppConfig::new(960, 48),
        }
    }

    /// Parse from a CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<AppKind> {
        match s.to_ascii_lowercase().as_str() {
            "lcs" => Some(AppKind::Lcs),
            "sw" => Some(AppKind::Sw),
            "fw" => Some(AppKind::Fw),
            "fw1v" | "fw-1v" => Some(AppKind::FwSingleVersion),
            "lu" => Some(AppKind::Lu),
            "cholesky" | "chol" => Some(AppKind::Cholesky),
            _ => None,
        }
    }
}

/// Build a fresh instance of the given benchmark.
pub fn make_app(kind: AppKind, cfg: AppConfig) -> Arc<dyn BenchApp> {
    match kind {
        AppKind::Lcs => Arc::new(Lcs::new(cfg)),
        AppKind::Sw => Arc::new(Sw::new(cfg)),
        AppKind::Fw => Arc::new(Fw::new(cfg)),
        AppKind::FwSingleVersion => Arc::new(Fw::with_single_version(cfg)),
        AppKind::Lu => Arc::new(Lu::new(cfg)),
        AppKind::Cholesky => Arc::new(Cholesky::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for kind in APP_KINDS {
            assert_eq!(AppKind::parse(kind.name()), Some(*kind));
        }
        assert_eq!(AppKind::parse("nope"), None);
        assert_eq!(AppKind::parse("fw1v"), Some(AppKind::FwSingleVersion));
    }

    #[test]
    fn default_configs_are_valid() {
        for kind in APP_KINDS {
            let cfg = kind.default_config();
            assert!(cfg.nb() >= 4, "{kind:?} needs enough tiles for experiments");
        }
    }

    #[test]
    fn make_app_constructs_every_kind() {
        for kind in [
            AppKind::Lcs,
            AppKind::Sw,
            AppKind::Fw,
            AppKind::FwSingleVersion,
            AppKind::Lu,
            AppKind::Cholesky,
        ] {
            let app = make_app(kind, AppConfig::new(64, 16));
            assert!(!app.all_tasks().is_empty());
        }
    }
}
