//! Compiler diagnostics: lint findings and translation-validation verdicts.
//!
//! The analysis phases (see the `fhe-analysis` crate) attach [`Finding`]s to
//! the compile's [`PassCx`](crate::pipeline::PassCx), which surfaces them in
//! the [`CompileReport`](crate::pipeline::CompileReport) so every harness —
//! the `lint` CLI, the benchmark tables, the fuzz oracle — sees the same
//! diagnostics without re-running the analyses.

use std::fmt;

use crate::json::Json;
use crate::op::ValueId;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational only.
    Note,
    /// Probably wasteful or suspicious, but legal and sound.
    Warning,
    /// Soundness is at risk (e.g. a possible message overflow).
    Error,
}

impl Severity {
    /// Lowercase label, as rendered in diagnostics (`error[F001]: …`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One diagnostic produced by an analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable lint code (`"F001"` … `"F005"`, `"F000"` for a
    /// translation-validation mismatch).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description of the problem.
    pub message: String,
    /// The value the finding anchors to, if it is op-local ( `None` for
    /// whole-program findings such as an over-provisioned modulus).
    pub op: Option<ValueId>,
}

impl Finding {
    /// A program-level finding (no anchor op).
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Finding {
            code,
            severity,
            message: message.into(),
            op: None,
        }
    }

    /// Anchors the finding to a value (builder style).
    #[must_use]
    pub fn at(mut self, op: ValueId) -> Self {
        self.op = Some(op);
        self
    }

    /// The finding as the `{code, severity, message, op}` object every
    /// machine-readable report carries (`op` is the anchor's index or
    /// `null`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("code", Json::from(self.code)),
            ("severity", Json::from(self.severity.label())),
            ("message", Json::from(self.message.as_str())),
            ("op", self.op.map_or(Json::Null, |o| Json::from(o.index()))),
        ])
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(op) = self.op {
            write!(f, " (at {op})")?;
        }
        Ok(())
    }
}

/// Result of the translation-validation phase, left in
/// [`PassCx::tv`](crate::pipeline::PassCx::tv) and surfaced in the compile
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct TvVerdict {
    /// Whether the scheduled program was proven equal to the source modulo
    /// inserted scale management.
    pub validated: bool,
    /// On failure, the first structural mismatch.
    pub detail: Option<String>,
}

impl TvVerdict {
    /// A passing verdict.
    pub fn pass() -> Self {
        TvVerdict {
            validated: true,
            detail: None,
        }
    }

    /// A failing verdict with the first mismatch.
    pub fn fail(detail: impl Into<String>) -> Self {
        TvVerdict {
            validated: false,
            detail: Some(detail.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_seriousness() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn finding_renders_code_and_anchor() {
        let f = Finding::new("F002", Severity::Warning, "dead rescale").at(ValueId(3));
        assert_eq!(f.to_string(), "warning[F002]: dead rescale (at %3)");
        let g = Finding::new("F005", Severity::Warning, "over-provisioned");
        assert_eq!(g.to_string(), "warning[F005]: over-provisioned");
    }
}
