//! Diagnostics: what a failed invariant looks like to a caller.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The plan is still *reportable* (the paper reports OOM baselines as
    /// bars too) but should not be executed as-is.
    Warning,
    /// The plan violates a structural invariant and is not a valid
    /// AdaPipe artifact.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The invariant catalog. Each code maps to one statically checkable
/// property of a plan or task graph; `docs/static-analysis.md` gives the
/// paper reference for every entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CheckCode {
    /// Stage count disagrees with `p · virtual_chunks`.
    StageCount,
    /// Micro-batch count inconsistent with the workload, or a `(p, n)`
    /// the schedule cannot run (`adapipe_sim::schedule::check_shape`).
    MicrobatchCount,
    /// Adjacent stage ranges leave a gap or overlap.
    PartitionGap,
    /// The partition does not start at layer 0 / end at layer `L − 1`.
    PartitionCoverage,
    /// A strategy's flag count differs from the stage's unit count.
    StrategyArity,
    /// A pinned unit (layer output, §4.2) is marked recomputed.
    PinnedUnitRecomputed,
    /// Stored `StageCost` disagrees with the cost recomputed from the
    /// unit profiles (Eq. (1)-(2) leaf cost; catches stale iso-cache
    /// entries serialized into a plan).
    CostDrift,
    /// Stored `StageMemory` breakdown disagrees with the memory model.
    MemoryAccounting,
    /// A stage's total memory exceeds device capacity (Eq. (2) budget).
    BudgetOverflow,
    /// Stored `F1bBreakdown` disagrees with the Eq. (3) recurrences.
    BreakdownDrift,
    /// The task dependency graph has a cycle.
    CycleDetected,
    /// Dependencies are acyclic but a fixed-order device queue still
    /// deadlocks (its `(priority, id)` order contradicts them).
    DeviceOrderDeadlock,
    /// A task has a negative duration.
    TaskDuration,
    /// Plan units metadata contradicts this build's conventions
    /// (time in microseconds, memory in bytes); accepting such a plan
    /// would silently rescale every Eq. (1)–(3) quantity.
    UnitMismatch,
    /// The plan's predicted cost exceeds `(1 + ε)` times its optimality
    /// certificate's lower bound, or the planner's DP disagrees with the
    /// brute-force oracle on an instance small enough to enumerate.
    OptimalityGap,
    /// An `adapipe-certificate v1` artifact is internally inconsistent:
    /// malformed terms, a non-finite bound, or a lower bound that
    /// exceeds the plan cost it claims to certify.
    CertificateInvalid,
}

impl CheckCode {
    /// Stable kebab-case name, used in CLI output and test assertions.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckCode::StageCount => "stage-count",
            CheckCode::MicrobatchCount => "microbatch-count",
            CheckCode::PartitionGap => "partition-gap",
            CheckCode::PartitionCoverage => "partition-coverage",
            CheckCode::StrategyArity => "strategy-arity",
            CheckCode::PinnedUnitRecomputed => "pinned-unit-recomputed",
            CheckCode::CostDrift => "cost-drift",
            CheckCode::MemoryAccounting => "memory-accounting",
            CheckCode::BudgetOverflow => "budget-overflow",
            CheckCode::BreakdownDrift => "breakdown-drift",
            CheckCode::CycleDetected => "cycle-detected",
            CheckCode::DeviceOrderDeadlock => "device-order-deadlock",
            CheckCode::TaskDuration => "task-duration",
            CheckCode::UnitMismatch => "unit-mismatch",
            CheckCode::OptimalityGap => "optimality-gap",
            CheckCode::CertificateInvalid => "certificate-invalid",
        }
    }
}

impl fmt::Display for CheckCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: which invariant failed, where and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which invariant failed.
    pub code: CheckCode,
    /// Error or warning.
    pub severity: Severity,
    /// Pipeline stage the finding is about, if stage-local.
    pub stage: Option<usize>,
    /// Human-readable explanation with the offending numbers.
    pub message: String,
}

impl Diagnostic {
    /// An [`Severity::Error`] finding.
    #[must_use]
    pub fn error(code: CheckCode, stage: Option<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            stage,
            message: message.into(),
        }
    }

    /// A [`Severity::Warning`] finding.
    #[must_use]
    pub fn warning(code: CheckCode, stage: Option<usize>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            stage,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(s) = self.stage {
            write!(f, " stage {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of a verification pass: every finding, in check order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    diagnostics: Vec<Diagnostic>,
}

impl CheckReport {
    /// An empty (passing) report.
    #[must_use]
    pub fn new() -> Self {
        CheckReport::default()
    }

    /// Records one finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Records a batch of findings.
    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diags);
    }

    /// All findings, in check order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether any error-severity finding was recorded.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is completely clean (no errors, no warnings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the report contains a finding with `code` at any severity.
    #[must_use]
    pub fn has_code(&self, code: CheckCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "ok: all invariants hold");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_by_severity() {
        let mut r = CheckReport::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::warning(CheckCode::BudgetOverflow, Some(0), "w"));
        assert!(!r.has_errors() && !r.is_clean());
        r.push(Diagnostic::error(CheckCode::PartitionGap, None, "e"));
        assert!(r.has_errors());
        assert_eq!((r.error_count(), r.warning_count()), (1, 1));
        assert!(r.has_code(CheckCode::PartitionGap));
        assert!(!r.has_code(CheckCode::CycleDetected));
    }

    #[test]
    fn display_is_line_oriented() {
        let mut r = CheckReport::new();
        r.push(Diagnostic::error(CheckCode::CostDrift, Some(3), "boom"));
        let text = r.to_string();
        assert!(text.contains("error[cost-drift] stage 3: boom"), "{text}");
        assert!(text.contains("1 error(s), 0 warning(s)"), "{text}");
        assert!(CheckReport::new().to_string().contains("ok"));
    }
}
