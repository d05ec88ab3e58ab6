//! Perf-model validation: measured per-phase communication volume vs
//! the analytic word counts of [`ratucker_perfmodel::costs`].
//!
//! The model's `words` field is the *critical-path per-rank* word
//! count; the simulator's traffic counters record every byte every
//! rank sent. The comparison therefore scales the prediction by
//! `elem_bytes × P` and accepts a documented multiplicative tolerance:
//!
//! * the model drops lower-order terms (a factor ≤ 2 on small
//!   problems where `r` is not ≪ `n`);
//! * `mpisim`'s collectives are linear/ring reference implementations,
//!   not the butterfly trees the latency terms assume — volume matches
//!   to a small constant, not exactly (allreduce = reduce + bcast
//!   moves `2(P-1)/P` of the butterfly's volume, a factor ≤ 2);
//! * rank-adaptive truncation makes the effective `r` drift below the
//!   configured cap mid-run.
//!
//! Compounded, a factor-[`DEFAULT_TOLERANCE`] band catches real
//! accounting bugs (phases attributed to the wrong label, double
//! counting, dropped instrumentation) while tolerating model
//! idealization. Phases whose measured volume is tiny
//! (latency-dominated, below [`ValidationConfig::min_bytes`]) are
//! reported but not enforced.

use crate::analysis::PhaseBreakdown;
use ratucker_mpi::KindSnapshot;
use ratucker_perfmodel::costs::{algorithm_cost, AlgKind, Problem};
use std::fmt;

/// Default multiplicative tolerance band (see module docs for the
/// factor-by-factor justification).
pub const DEFAULT_TOLERANCE: f64 = 4.0;

/// Phase labels validated by default: the bandwidth-dominated phases
/// whose model words are nonzero and whose instrumentation maps 1:1
/// onto a model label. `EVD`/`QR` are sequential (zero model words)
/// and `CoreAnalysis` is latency-dominated.
pub const DEFAULT_PHASES: [&str; 3] = ["TTM", "Gram", "SI"];

/// How to compare a trace against the model.
#[derive(Clone, Debug)]
pub struct ValidationConfig {
    /// Bytes per tensor element (4 for `f32`, 8 for `f64`).
    pub elem_bytes: usize,
    /// Accept measured/predicted ratios in `[1/tolerance, tolerance]`.
    pub tolerance: f64,
    /// Phase labels to enforce (others are reported, not enforced).
    pub phases: Vec<&'static str>,
    /// Skip enforcement for phases measuring fewer bytes than this
    /// (latency-dominated phases are not volume-predictable).
    pub min_bytes: u64,
}

impl ValidationConfig {
    /// The default comparison for an `elem_bytes`-wide element type.
    pub fn new(elem_bytes: usize) -> ValidationConfig {
        ValidationConfig {
            elem_bytes,
            tolerance: DEFAULT_TOLERANCE,
            phases: DEFAULT_PHASES.to_vec(),
            min_bytes: 1024,
        }
    }
}

/// One phase's measured-vs-predicted comparison.
#[derive(Clone, Debug)]
pub struct PhaseValidation {
    /// Phase label.
    pub phase: &'static str,
    /// Bytes all ranks sent inside spans of this phase (exclusive).
    pub measured_bytes: u64,
    /// Model prediction: `words × elem_bytes × P`.
    pub predicted_bytes: f64,
    /// `measured / predicted` (`inf` when the model predicts zero but
    /// traffic was measured; 1.0 when both are zero).
    pub ratio: f64,
    /// Whether this phase is enforced by [`ValidationReport::check`].
    pub enforced: bool,
    /// Per-collective-kind measured traffic for the phase (e.g. the
    /// Gram allreduce vs the TTM reduce-scatter split).
    pub traffic: KindSnapshot,
}

impl PhaseValidation {
    /// Is the ratio inside the `[1/tol, tol]` band?
    pub fn within(&self, tolerance: f64) -> bool {
        self.ratio >= 1.0 / tolerance && self.ratio <= tolerance
    }
}

/// A measured phase deviated from the model beyond the tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfDeviation {
    /// Offending phase.
    pub phase: String,
    /// Bytes measured across ranks.
    pub measured_bytes: u64,
    /// Bytes the model predicted.
    pub predicted_bytes: f64,
    /// measured / predicted.
    pub ratio: f64,
    /// The tolerance band that was exceeded.
    pub tolerance: f64,
}

impl fmt::Display for PerfDeviation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "perf-model deviation in phase {:?}: measured {} B vs predicted {:.0} B \
             (ratio {:.3}, tolerance ×{})",
            self.phase, self.measured_bytes, self.predicted_bytes, self.ratio, self.tolerance
        )
    }
}

impl std::error::Error for PerfDeviation {}

/// The full comparison of one traced run against the cost model.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Algorithm the model was evaluated for.
    pub alg: AlgKind,
    /// Number of ranks `P`.
    pub ranks: usize,
    /// Tolerance band used.
    pub tolerance: f64,
    /// Per-phase comparisons, in model phase order; trace phases with
    /// no model counterpart are appended with `predicted_bytes = 0`.
    pub phases: Vec<PhaseValidation>,
}

impl ValidationReport {
    /// Returns the first enforced phase outside the tolerance band, if
    /// any.
    pub fn check(&self) -> Result<(), PerfDeviation> {
        for p in &self.phases {
            if p.enforced && !p.within(self.tolerance) {
                return Err(PerfDeviation {
                    phase: p.phase.to_string(),
                    measured_bytes: p.measured_bytes,
                    predicted_bytes: p.predicted_bytes,
                    ratio: p.ratio,
                    tolerance: self.tolerance,
                });
            }
        }
        Ok(())
    }

    /// Looks up a phase comparison by label.
    pub fn phase(&self, label: &str) -> Option<&PhaseValidation> {
        self.phases.iter().find(|p| p.phase == label)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "perf-model validation: {} on P={} (tolerance ×{})",
            self.alg.name(),
            self.ranks,
            self.tolerance
        )?;
        writeln!(
            f,
            "{:<14} {:>14} {:>14} {:>8}  status",
            "phase", "measured B", "predicted B", "ratio"
        )?;
        for p in &self.phases {
            let status = if !p.enforced {
                "info"
            } else if p.within(self.tolerance) {
                "ok"
            } else {
                "DEVIATION"
            };
            writeln!(
                f,
                "{:<14} {:>14} {:>14.0} {:>8.3}  {}",
                p.phase, p.measured_bytes, p.predicted_bytes, p.ratio, status
            )?;
        }
        Ok(())
    }
}

/// Compares a traced run's per-phase send volume against the
/// Table 2 cost model.
///
/// `breakdown` comes from [`PhaseBreakdown::from_trace`]; `grid` is the
/// processor grid the run used (`Π grid = P`). Model predictions are
/// `phase.words × elem_bytes × P` since the model's `words` is the
/// critical-path (per-rank) count while measurement sums all ranks.
pub fn validate_against_model(
    breakdown: &PhaseBreakdown,
    alg: AlgKind,
    prob: &Problem,
    grid: &[usize],
    cfg: &ValidationConfig,
) -> ValidationReport {
    let p: usize = grid.iter().product();
    let cost = algorithm_cost(alg, prob, grid);
    let mut phases = Vec::new();
    for mp in &cost.phases {
        let measured = breakdown.phase(mp.label);
        let measured_bytes = measured.map_or(0, |s| s.total_bytes());
        let predicted_bytes = mp.words * cfg.elem_bytes as f64 * p as f64;
        let ratio = ratio_of(measured_bytes, predicted_bytes);
        phases.push(PhaseValidation {
            phase: mp.label,
            measured_bytes,
            predicted_bytes,
            ratio,
            enforced: cfg.phases.contains(&mp.label)
                && measured_bytes >= cfg.min_bytes
                && predicted_bytes > 0.0,
            traffic: measured.map(|s| s.traffic).unwrap_or_default(),
        });
    }
    // Trace phases the model does not know (sweep, Recovery, …):
    // report their volume for context, never enforce.
    for s in &breakdown.phases {
        if phases.iter().any(|p| p.phase == s.phase) {
            continue;
        }
        phases.push(PhaseValidation {
            phase: s.phase,
            measured_bytes: s.total_bytes(),
            predicted_bytes: 0.0,
            ratio: ratio_of(s.total_bytes(), 0.0),
            enforced: false,
            traffic: s.traffic,
        });
    }
    ValidationReport {
        alg,
        ranks: p,
        tolerance: cfg.tolerance,
        phases,
    }
}

fn ratio_of(measured: u64, predicted: f64) -> f64 {
    if predicted > 0.0 {
        measured as f64 / predicted
    } else if measured == 0 {
        1.0
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanEvent;

    fn event(rank: usize, phase: &'static str, bytes: u64) -> SpanEvent {
        let mut traffic = KindSnapshot::default();
        traffic.bytes[4] = bytes; // charge to allreduce's slot
        traffic.messages[4] = 1;
        SpanEvent {
            rank,
            phase,
            mode: None,
            depth: 0,
            t_start_us: 0,
            dur_us: 1,
            self_dur_us: 1,
            traffic,
            gross_bytes: bytes,
            gross_messages: 1,
            mem_hwm_bytes: 0,
            mem_live_bytes: 0,
        }
    }

    fn setup(scale: f64) -> (ValidationReport, f64) {
        let prob = Problem::new(32, 4, 3, 2);
        let grid = [1usize, 2, 2];
        let p: usize = grid.iter().product();
        let cfg = ValidationConfig::new(8);
        let cost = algorithm_cost(AlgKind::Hosi, &prob, &grid);
        let ttm_pred = cost.phases.iter().find(|c| c.label == "TTM").unwrap().words
            * cfg.elem_bytes as f64
            * p as f64;
        // Fabricate a trace whose TTM volume is `scale ×` the prediction
        // and whose SI volume matches exactly.
        let si_pred = cost.phases.iter().find(|c| c.label == "SI").unwrap().words
            * cfg.elem_bytes as f64
            * p as f64;
        let mut events = Vec::new();
        for r in 0..p {
            events.push(event(r, "TTM", (ttm_pred * scale) as u64 / p as u64));
            events.push(event(r, "SI", si_pred as u64 / p as u64));
            events.push(event(r, "sweep", 10)); // unknown to the model
        }
        let breakdown = PhaseBreakdown::from_events(&events, p);
        (
            validate_against_model(&breakdown, AlgKind::Hosi, &prob, &grid, &cfg),
            ttm_pred,
        )
    }

    #[test]
    fn matching_volume_passes() {
        let (report, _) = setup(1.0);
        report.check().expect("exact volumes must validate");
        let ttm = report.phase("TTM").unwrap();
        assert!(ttm.enforced, "TTM must be an enforced phase");
        assert!((ttm.ratio - 1.0).abs() < 0.01, "ratio {}", ttm.ratio);
        // The per-kind split is carried through.
        assert!(ttm.traffic.bytes[4] > 0);
        // Unknown phases are informational only.
        let sweep = report.phase("sweep").unwrap();
        assert!(!sweep.enforced);
        assert!(sweep.ratio.is_infinite());
        // Display renders.
        assert!(format!("{report}").contains("TTM"));
    }

    #[test]
    fn large_deviation_is_flagged_with_typed_error() {
        let (report, ttm_pred) = setup(20.0);
        let err = report.check().expect_err("20× deviation must flag");
        assert_eq!(err.phase, "TTM");
        assert!(err.ratio > DEFAULT_TOLERANCE);
        assert!((err.predicted_bytes - ttm_pred).abs() < 1.0);
        assert!(format!("{err}").contains("deviation in phase"));
    }

    #[test]
    fn tiny_phases_are_not_enforced() {
        // Below min_bytes the phase is reported but never flagged.
        let prob = Problem::new(32, 4, 3, 1);
        let grid = [1usize, 1, 2];
        let cfg = ValidationConfig::new(8);
        let events = vec![event(0, "TTM", 16), event(1, "TTM", 16)];
        let breakdown = PhaseBreakdown::from_events(&events, 2);
        let report = validate_against_model(&breakdown, AlgKind::Hooi, &prob, &grid, &cfg);
        assert!(!report.phase("TTM").unwrap().enforced);
        report.check().unwrap();
    }
}
