//! Online straggler detection from per-rank slowness scores.
//!
//! A *straggler* is a rank that is alive and correct but persistently
//! slow — a gray failure the liveness-based detectors in
//! [`ratucker_mpi`] cannot see. This module turns a per-rank slowness
//! signal into a demotion verdict:
//!
//! * **Score source.** Online, the natural signal is the *induced
//!   wait*: how long every receiver spent blocked waiting on each
//!   sender ([`ratucker_mpi::TrafficStats::induced_wait_us`]). Offline,
//!   per-phase span self-times work too — see
//!   [`scores_from_breakdown`].
//! * **Flagging rule.** A rank is *suspected* in a window when its
//!   score exceeds `multiple ×` the median score **and** an absolute
//!   floor `min_secs` (so microsecond-scale scheduler noise on an
//!   otherwise idle run can never trip the detector). The suspect is
//!   the arg-max score; ties break toward the lowest rank so the
//!   verdict is deterministic.
//! * **Confirmation.** Only after the *same* rank is suspected in
//!   `consecutive` windows in a row does [`StragglerDetector::observe`]
//!   return it. A different suspect (or a clean window) resets the
//!   streak.
//!
//! The detector is intentionally ignorant of communicators and
//! recovery: callers map indices to ranks, agree on the verdict, and
//! drive the demotion themselves.

/// Tuning knobs for straggler detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerPolicy {
    /// A rank is suspected when its score exceeds `multiple ×` the
    /// median score across ranks. Must be `> 1.0` to be meaningful.
    pub multiple: f64,
    /// Consecutive suspect windows required before the verdict fires.
    pub consecutive: usize,
    /// Absolute score floor in seconds: scores at or below this never
    /// make a suspect, regardless of the relative rule.
    pub min_secs: f64,
}

impl StragglerPolicy {
    /// A policy with the given relative multiple and library defaults
    /// for the rest: 2 consecutive windows, 0.05 s floor.
    pub fn new(multiple: f64) -> StragglerPolicy {
        StragglerPolicy {
            multiple,
            consecutive: 2,
            min_secs: 0.05,
        }
    }

    /// Sets the confirmation streak length (clamped to at least 1).
    pub fn with_consecutive(mut self, consecutive: usize) -> StragglerPolicy {
        self.consecutive = consecutive.max(1);
        self
    }

    /// Sets the absolute score floor in seconds.
    pub fn with_min_secs(mut self, min_secs: f64) -> StragglerPolicy {
        self.min_secs = min_secs;
        self
    }
}

impl Default for StragglerPolicy {
    /// `multiple = 4.0`, `consecutive = 2`, `min_secs = 0.05`.
    fn default() -> StragglerPolicy {
        StragglerPolicy::new(4.0)
    }
}

/// Streak-tracking state for [`StragglerPolicy`].
#[derive(Clone, Debug)]
pub struct StragglerDetector {
    policy: StragglerPolicy,
    suspect: Option<usize>,
    streak: usize,
}

impl StragglerDetector {
    /// A fresh detector with no history.
    pub fn new(policy: StragglerPolicy) -> StragglerDetector {
        StragglerDetector {
            policy,
            suspect: None,
            streak: 0,
        }
    }

    /// The policy this detector was built with.
    pub fn policy(&self) -> StragglerPolicy {
        self.policy
    }

    /// The current suspect and streak length, if any window flagged one.
    pub fn suspect(&self) -> Option<(usize, usize)> {
        self.suspect.map(|s| (s, self.streak))
    }

    /// Clears all history. Call after any topology change — old
    /// indices no longer mean the same ranks.
    pub fn reset(&mut self) {
        self.suspect = None;
        self.streak = 0;
    }

    /// Feeds one window of per-rank slowness scores (seconds) and
    /// returns the confirmed straggler's index once the same rank has
    /// been suspected `consecutive` windows in a row.
    pub fn observe(&mut self, scores_secs: &[f64]) -> Option<usize> {
        let Some(candidate) = suspect_in(scores_secs, &self.policy) else {
            self.reset();
            return None;
        };
        if self.suspect == Some(candidate) {
            self.streak += 1;
        } else {
            self.suspect = Some(candidate);
            self.streak = 1;
        }
        if self.streak >= self.policy.consecutive.max(1) {
            self.reset();
            Some(candidate)
        } else {
            None
        }
    }
}

/// The suspect for a single window, if any: the arg-max score
/// (lowest index on ties) when it clears both the relative and the
/// absolute thresholds.
fn suspect_in(scores_secs: &[f64], policy: &StragglerPolicy) -> Option<usize> {
    if scores_secs.len() < 2 || scores_secs.iter().any(|s| !s.is_finite()) {
        return None;
    }
    let (worst, score) =
        scores_secs
            .iter()
            .copied()
            .enumerate()
            .fold((0, f64::NEG_INFINITY), |(bi, bs), (i, s)| {
                if s > bs {
                    (i, s)
                } else {
                    (bi, bs)
                }
            });
    let med = median(scores_secs);
    let bar = policy.min_secs.max(policy.multiple * med);
    (score.is_finite() && score > bar && score > policy.min_secs).then_some(worst)
}

/// Median of a slice (mean of the middle two for even lengths).
fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Per-rank slowness scores from a span-trace breakdown: each rank's
/// total exclusive seconds summed over every phase. This is the
/// offline (post-mortem) counterpart to the online induced-wait
/// signal.
pub fn scores_from_breakdown(breakdown: &crate::analysis::PhaseBreakdown) -> Vec<f64> {
    let mut scores = vec![0.0; breakdown.ranks];
    for phase in &breakdown.phases {
        for (rank, s) in phase.self_secs.iter().enumerate() {
            if rank < scores.len() {
                scores[rank] += s;
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::PhaseBreakdown;

    #[test]
    fn confirms_after_consecutive_windows_only() {
        let policy = StragglerPolicy::new(3.0)
            .with_consecutive(2)
            .with_min_secs(0.01);
        let mut det = StragglerDetector::new(policy);
        let slow = [0.1, 0.1, 2.0, 0.1];
        assert_eq!(det.observe(&slow), None);
        assert_eq!(det.suspect(), Some((2, 1)));
        assert_eq!(det.observe(&slow), Some(2));
        // Verdict clears history; the streak starts over.
        assert_eq!(det.suspect(), None);
        assert_eq!(det.observe(&slow), None);
    }

    #[test]
    fn a_clean_window_resets_the_streak() {
        let mut det = StragglerDetector::new(
            StragglerPolicy::new(3.0)
                .with_consecutive(2)
                .with_min_secs(0.01),
        );
        let slow = [0.1, 2.0, 0.1];
        let clean = [0.1, 0.1, 0.1];
        assert_eq!(det.observe(&slow), None);
        assert_eq!(det.observe(&clean), None);
        assert_eq!(det.suspect(), None);
        assert_eq!(det.observe(&slow), None);
        assert_eq!(det.observe(&slow), Some(1));
    }

    #[test]
    fn a_different_suspect_restarts_the_streak() {
        let mut det = StragglerDetector::new(
            StragglerPolicy::new(3.0)
                .with_consecutive(2)
                .with_min_secs(0.01),
        );
        assert_eq!(det.observe(&[2.0, 0.1, 0.1]), None);
        assert_eq!(det.observe(&[0.1, 2.0, 0.1]), None);
        assert_eq!(det.suspect(), Some((1, 1)));
        assert_eq!(det.observe(&[0.1, 2.0, 0.1]), Some(1));
    }

    #[test]
    fn min_secs_floor_suppresses_noise() {
        // Rank 1 is 100× the median, but everything is microseconds.
        let mut det = StragglerDetector::new(StragglerPolicy::new(2.0).with_consecutive(1));
        assert_eq!(det.observe(&[1e-6, 1e-4, 1e-6]), None);
        // Scale the same shape past the floor and it fires.
        assert_eq!(det.observe(&[0.01, 1.0, 0.01]), Some(1));
    }

    #[test]
    fn relative_rule_needs_the_multiple() {
        // 1.5× the median at multiple=4 is balanced enough.
        let mut det = StragglerDetector::new(StragglerPolicy::new(4.0).with_consecutive(1));
        assert_eq!(det.observe(&[1.0, 1.5, 1.0]), None);
        assert_eq!(det.observe(&[1.0, 4.5, 1.0]), Some(1));
    }

    #[test]
    fn ties_break_toward_the_lowest_rank() {
        let mut det = StragglerDetector::new(StragglerPolicy::new(2.0).with_consecutive(1));
        assert_eq!(det.observe(&[0.01, 3.0, 3.0, 0.01, 0.01]), Some(1));
    }

    #[test]
    fn degenerate_inputs_never_flag() {
        let mut det = StragglerDetector::new(StragglerPolicy::new(2.0).with_consecutive(1));
        assert_eq!(det.observe(&[]), None);
        assert_eq!(det.observe(&[5.0]), None);
        assert_eq!(det.observe(&[f64::NAN, 1.0]), None);
    }

    #[test]
    fn breakdown_scores_sum_self_time_across_phases() {
        use ratucker_mpi::KindSnapshot;
        let ev = |rank: usize, phase: &'static str, us: u64| crate::SpanEvent {
            rank,
            phase,
            mode: None,
            depth: 0,
            t_start_us: 0,
            dur_us: us,
            self_dur_us: us,
            traffic: KindSnapshot::default(),
            gross_bytes: 0,
            gross_messages: 0,
            mem_hwm_bytes: 0,
            mem_live_bytes: 0,
        };
        let events = vec![
            ev(0, "ttm", 1_000_000),
            ev(1, "ttm", 3_000_000),
            ev(0, "gram", 500_000),
            ev(1, "gram", 500_000),
        ];
        let b = PhaseBreakdown::from_events(&events, 2);
        let scores = scores_from_breakdown(&b);
        assert!((scores[0] - 1.5).abs() < 1e-9);
        assert!((scores[1] - 3.5).abs() < 1e-9);
    }
}
