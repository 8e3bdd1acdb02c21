//! Optimality certificates: machine-checkable lower bounds on Eq. (3).
//!
//! Algorithm 1 is near-optimal, not exact, and for production-sized
//! instances the brute-force oracle cannot enumerate the search space.
//! A certificate closes the gap from the other side: a *relaxation* of
//! Eq. (3) whose bound provably under-estimates every feasible plan, so
//! `lower_bound ≤ plan_cost ≤ (1 + ε) · lower_bound` certifies the plan
//! to within `ε` without enumerating anything.
//!
//! The bound has four terms, each sound against the Eq. (3) recurrences:
//!
//! * **warmup** — `W₀ ≥ Σ_s F_s`: by induction `W_s ≥ F_s + W_{s+1}`
//!   (base `W = F` at the last stage), and forward work is
//!   partition-invariant, so `Σ_s F_s = Σ_ℓ f_ℓ`.
//! * **ending** — `E₀ ≥ Σ_s B_s ≥ Σ_ℓ b_ℓ^min`, the no-recompute
//!   backward time, same induction.
//! * **forced recompute** — on top of `Σ b^min`, any plan must recompute
//!   enough to fit memory. Static bytes are linear in parameters, hence
//!   partition-independent in total, and every stage holds ≥ 1 live
//!   micro-batch, so the *pooled* per-micro-batch save budget is at most
//!   `p · capacity − static_total`. A fractional knapsack (save units
//!   greedily by forward-time per byte) over that pooled budget bounds
//!   the unavoidable recomputation from below.
//! * **bottleneck** — `M₀ = max_s (F_s + B_s)` is at least the pigeonhole
//!   average `(Σ f + Σ b^min) / p` and at least the largest single-layer
//!   micro-step (layers are atomic in §5's partitioning).
//!
//! `T_lb = warmup + ending + forced + (n − p) · bottleneck`. The
//! `adapipe` crate computes certificates from planner state; this module
//! owns the artifact (the `adapipe-certificate v1` text format) and the
//! checker so a certificate can be audited with no planner in sight.

#![expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]

use crate::diag::{CheckCode, Diagnostic};
use crate::invariants::approx_eq;
use adapipe_units::{convert, MicroSecs};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Header line of the certificate text format.
pub const CERTIFICATE_HEADER: &str = "adapipe-certificate v1";

/// Default relative optimality gap `ε` accepted by the checker: the
/// calibrated worst case of Algorithm 1's heuristic objective plus the
/// relaxation's own slack (see `docs/verification.md`).
pub const DEFAULT_EPSILON: f64 = 0.35;

/// A lower-bound certificate for one plan's Eq. (3) iteration time.
///
/// Self-contained: carries the instance shape, each bound term, the
/// composed bound and the plan cost it certifies, so
/// [`check_certificate`] needs nothing else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// Model layers `L` of the certified instance.
    pub layers: usize,
    /// Pipeline stages `p`.
    pub stages: usize,
    /// Micro-batches `n` per iteration.
    pub micro_batches: usize,
    /// Lower bound on warmup `W₀`: total forward time `Σ_ℓ f_ℓ`.
    pub warmup_lb: MicroSecs,
    /// Lower bound on ending `E₀`: no-recompute backward `Σ_ℓ b_ℓ^min`.
    pub ending_lb: MicroSecs,
    /// Lower bound on memory-forced recomputation added to `E₀`.
    pub forced_recompute_lb: MicroSecs,
    /// Lower bound on the bottleneck micro-step `M₀`.
    pub bottleneck_lb: MicroSecs,
    /// The composed bound — must equal [`Certificate::recomposed_bound`].
    pub lower_bound: MicroSecs,
    /// Predicted iteration time of the plan being certified.
    pub plan_cost: MicroSecs,
}

impl Certificate {
    /// Recomposes the bound from its terms:
    /// `warmup + ending + forced + (n − p) · bottleneck`.
    #[must_use]
    pub fn recomposed_bound(&self) -> MicroSecs {
        let steady_reps = self.micro_batches.saturating_sub(self.stages);
        self.warmup_lb
            + self.ending_lb
            + self.forced_recompute_lb
            + convert::count_f64(steady_reps) * self.bottleneck_lb
    }

    /// Relative gap `plan_cost / lower_bound − 1` (infinite for a
    /// non-positive bound).
    #[must_use]
    pub fn gap(&self) -> f64 {
        if self.lower_bound > MicroSecs::ZERO {
            self.plan_cost.as_micros() / self.lower_bound.as_micros() - 1.0
        } else {
            f64::INFINITY
        }
    }

    /// Serializes to the `adapipe-certificate v1` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(CERTIFICATE_HEADER);
        out.push('\n');
        let _ = writeln!(out, "units.time = us");
        let _ = writeln!(out, "layers = {}", self.layers);
        let _ = writeln!(out, "stages = {}", self.stages);
        let _ = writeln!(out, "micro_batches = {}", self.micro_batches);
        let _ = writeln!(out, "warmup_lb = {}", self.warmup_lb.as_micros());
        let _ = writeln!(out, "ending_lb = {}", self.ending_lb.as_micros());
        let _ = writeln!(
            out,
            "forced_recompute_lb = {}",
            self.forced_recompute_lb.as_micros()
        );
        let _ = writeln!(out, "bottleneck_lb = {}", self.bottleneck_lb.as_micros());
        let _ = writeln!(out, "lower_bound = {}", self.lower_bound.as_micros());
        let _ = writeln!(out, "plan_cost = {}", self.plan_cost.as_micros());
        out
    }

    /// Parses the `adapipe-certificate v1` text format.
    ///
    /// # Errors
    ///
    /// [`CertificateParseError`] on a missing/unknown header, malformed
    /// lines, missing keys, unparsable values, or a units block that
    /// contradicts this build's microsecond convention.
    pub fn from_text(text: &str) -> Result<Certificate, CertificateParseError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some(CERTIFICATE_HEADER) {
            return Err(CertificateParseError::BadHeader);
        }
        let mut fields: Vec<(String, String)> = Vec::new();
        for line in lines {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| CertificateParseError::BadLine(line.to_string()))?;
            fields.push((key.trim().to_string(), value.trim().to_string()));
        }
        let get = |key: &'static str| -> Result<&str, CertificateParseError> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or(CertificateParseError::Missing(key))
        };
        let unit = get("units.time")?;
        if unit != "us" {
            return Err(CertificateParseError::UnitMismatch {
                declared: unit.to_string(),
            });
        }
        let count = |key: &'static str| -> Result<usize, CertificateParseError> {
            get(key)?
                .parse()
                .map_err(|_| CertificateParseError::BadValue {
                    key: key.to_string(),
                    value: get(key).unwrap_or_default().to_string(),
                })
        };
        let time = |key: &'static str| -> Result<MicroSecs, CertificateParseError> {
            get(key)?
                .parse()
                .map(MicroSecs::new)
                .map_err(|_| CertificateParseError::BadValue {
                    key: key.to_string(),
                    value: get(key).unwrap_or_default().to_string(),
                })
        };
        Ok(Certificate {
            layers: count("layers")?,
            stages: count("stages")?,
            micro_batches: count("micro_batches")?,
            warmup_lb: time("warmup_lb")?,
            ending_lb: time("ending_lb")?,
            forced_recompute_lb: time("forced_recompute_lb")?,
            bottleneck_lb: time("bottleneck_lb")?,
            lower_bound: time("lower_bound")?,
            plan_cost: time("plan_cost")?,
        })
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L={} p={} n={}: bound {:.3}ms ≤ cost {:.3}ms (gap {:.2}%)",
            self.layers,
            self.stages,
            self.micro_batches,
            self.lower_bound.as_millis(),
            self.plan_cost.as_millis(),
            self.gap() * 100.0
        )
    }
}

/// Error from [`Certificate::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CertificateParseError {
    /// The header line is missing or names an unknown version.
    BadHeader,
    /// A required key is absent.
    Missing(&'static str),
    /// A line is not `key = value`.
    BadLine(String),
    /// A value failed to parse.
    BadValue {
        /// The key in question.
        key: String,
        /// The raw value.
        value: String,
    },
    /// The file declares a time unit other than microseconds.
    UnitMismatch {
        /// The unit the file declares.
        declared: String,
    },
}

impl fmt::Display for CertificateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateParseError::BadHeader => {
                write!(f, "missing or unsupported certificate header")
            }
            CertificateParseError::Missing(key) => write!(f, "missing key `{key}`"),
            CertificateParseError::BadLine(line) => write!(f, "malformed line `{line}`"),
            CertificateParseError::BadValue { key, value } => {
                write!(f, "bad value for `{key}`: `{value}`")
            }
            CertificateParseError::UnitMismatch { declared } => write!(
                f,
                "unit-mismatch: `units.time = {declared}` contradicts this build's `us`"
            ),
        }
    }
}

impl Error for CertificateParseError {}

/// Validates a certificate: internal consistency
/// ([`CheckCode::CertificateInvalid`]) and the `(1 + ε)` optimality
/// envelope ([`CheckCode::OptimalityGap`]).
///
/// `tolerance` is the relative float tolerance for consistency checks
/// (use [`crate::DEFAULT_TOLERANCE`]); `epsilon` is the accepted
/// optimality gap (use [`DEFAULT_EPSILON`] unless the caller calibrated
/// its own).
#[must_use]
pub fn check_certificate(cert: &Certificate, epsilon: f64, tolerance: f64) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let terms = [
        ("warmup_lb", cert.warmup_lb),
        ("ending_lb", cert.ending_lb),
        ("forced_recompute_lb", cert.forced_recompute_lb),
        ("bottleneck_lb", cert.bottleneck_lb),
        ("lower_bound", cert.lower_bound),
        ("plan_cost", cert.plan_cost),
    ];
    for (name, value) in terms {
        if !value.as_micros().is_finite() || value < MicroSecs::ZERO {
            out.push(Diagnostic::error(
                CheckCode::CertificateInvalid,
                None,
                format!("term `{name}` is not a finite non-negative time: {value:?}"),
            ));
        }
    }
    if cert.stages == 0 || cert.layers < cert.stages || cert.micro_batches < cert.stages {
        out.push(Diagnostic::error(
            CheckCode::CertificateInvalid,
            None,
            format!(
                "instance shape L={} p={} n={} violates 1 ≤ p ≤ L and n ≥ p",
                cert.layers, cert.stages, cert.micro_batches
            ),
        ));
    }
    if !out.is_empty() {
        return out;
    }

    let recomposed = cert.recomposed_bound();
    if !approx_eq(
        cert.lower_bound.as_micros(),
        recomposed.as_micros(),
        tolerance,
    ) {
        out.push(Diagnostic::error(
            CheckCode::CertificateInvalid,
            None,
            format!(
                "stored lower bound {} disagrees with its terms (recomposed {})",
                cert.lower_bound, recomposed
            ),
        ));
    }
    if cert.lower_bound.as_micros() > cert.plan_cost.as_micros() * (1.0 + tolerance) {
        out.push(Diagnostic::error(
            CheckCode::CertificateInvalid,
            None,
            format!(
                "lower bound {} exceeds the plan cost {} it claims to bound — \
                 the relaxation or the plan cost is wrong",
                cert.lower_bound, cert.plan_cost
            ),
        ));
    } else if cert.plan_cost.as_micros() > cert.lower_bound.as_micros() * (1.0 + epsilon) {
        out.push(Diagnostic::error(
            CheckCode::OptimalityGap,
            None,
            format!(
                "plan cost {} exceeds (1 + {epsilon:.3}) × lower bound {} \
                 (gap {:.2}%)",
                cert.plan_cost,
                cert.lower_bound,
                cert.gap() * 100.0
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::DEFAULT_TOLERANCE;

    fn valid() -> Certificate {
        let warmup = MicroSecs::new(100.0);
        let ending = MicroSecs::new(200.0);
        let forced = MicroSecs::new(10.0);
        let bottleneck = MicroSecs::new(25.0);
        // n − p = 28 steady repetitions.
        let lower = warmup + ending + forced + 28.0 * bottleneck;
        Certificate {
            layers: 26,
            stages: 4,
            micro_batches: 32,
            warmup_lb: warmup,
            ending_lb: ending,
            forced_recompute_lb: forced,
            bottleneck_lb: bottleneck,
            lower_bound: lower,
            plan_cost: lower * 1.2,
        }
    }

    #[test]
    fn valid_certificate_is_clean() {
        assert!(check_certificate(&valid(), DEFAULT_EPSILON, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn text_round_trip_is_exact() {
        let cert = valid();
        let parsed = Certificate::from_text(&cert.to_text()).expect("round-trip");
        assert_eq!(cert, parsed);
    }

    #[test]
    fn gap_beyond_epsilon_is_optimality_gap() {
        let mut cert = valid();
        cert.plan_cost = cert.lower_bound * 2.0;
        let diags = check_certificate(&cert, DEFAULT_EPSILON, DEFAULT_TOLERANCE);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, CheckCode::OptimalityGap);
        assert!((cert.gap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_above_cost_is_invalid_not_gap() {
        let mut cert = valid();
        cert.plan_cost = cert.lower_bound * 0.5;
        let diags = check_certificate(&cert, DEFAULT_EPSILON, DEFAULT_TOLERANCE);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, CheckCode::CertificateInvalid);
    }

    #[test]
    fn tampered_terms_are_invalid() {
        let mut cert = valid();
        cert.bottleneck_lb = cert.bottleneck_lb * 2.0;
        let diags = check_certificate(&cert, DEFAULT_EPSILON, DEFAULT_TOLERANCE);
        assert!(diags
            .iter()
            .any(|d| d.code == CheckCode::CertificateInvalid));
    }

    #[test]
    fn non_finite_terms_are_invalid() {
        let mut cert = valid();
        cert.warmup_lb = MicroSecs::new(f64::NAN);
        let diags = check_certificate(&cert, DEFAULT_EPSILON, DEFAULT_TOLERANCE);
        assert!(diags
            .iter()
            .any(|d| d.code == CheckCode::CertificateInvalid));
    }

    #[test]
    fn bad_shape_is_invalid() {
        for (l, p, n) in [(3usize, 4usize, 8usize), (26, 0, 8), (26, 4, 3)] {
            let mut cert = valid();
            (cert.layers, cert.stages, cert.micro_batches) = (l, p, n);
            let diags = check_certificate(&cert, DEFAULT_EPSILON, DEFAULT_TOLERANCE);
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == CheckCode::CertificateInvalid),
                "L={l} p={p} n={n}"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_artifacts() {
        assert_eq!(
            Certificate::from_text("bogus v9\n"),
            Err(CertificateParseError::BadHeader)
        );
        let no_units = valid().to_text().replace("units.time = us\n", "");
        assert_eq!(
            Certificate::from_text(&no_units),
            Err(CertificateParseError::Missing("units.time"))
        );
        let wrong_units = valid().to_text().replace("= us", "= s");
        assert!(matches!(
            Certificate::from_text(&wrong_units),
            Err(CertificateParseError::UnitMismatch { .. })
        ));
        let truncated = valid().to_text().replace("plan_cost", "plan_cost_x");
        assert_eq!(
            Certificate::from_text(&truncated),
            Err(CertificateParseError::Missing("plan_cost"))
        );
        let garbled = valid().to_text().replace("stages = 4", "stages = four");
        assert!(matches!(
            Certificate::from_text(&garbled),
            Err(CertificateParseError::BadValue { .. })
        ));
        let no_eq = format!("{CERTIFICATE_HEADER}\njust words\n");
        assert!(matches!(
            Certificate::from_text(&no_eq),
            Err(CertificateParseError::BadLine(_))
        ));
    }
}
