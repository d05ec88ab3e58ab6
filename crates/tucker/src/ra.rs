//! Rank-adaptive HOOI (Alg. 3: RA-HOSI-DT and friends).
//!
//! Solves the *error-specified* Tucker problem with HOOI: sweep, check
//! `‖G‖² ≥ (1−ε²)‖X‖²`; when satisfied, run the core analysis (eq. 3) and
//! truncate core and factors to the storage-optimal leading subtensor;
//! otherwise grow every rank by the factor α (appending random orthonormal
//! columns to the factors) and sweep again. Any TTM/LLSV strategy pair can
//! back the sweep; the paper's flagship is the dimension-tree + subspace-
//! iteration combination (RA-HOSI-DT).

use crate::checkpoint::{expansion_rng, resume_point, save_point, CheckpointPolicy};
use crate::core_analysis::analyze_core;
use crate::hooi::{run_sweep, HooiConfig};
use crate::timings::{Phase, Timings};
use crate::tucker_tensor::TuckerTensor;
use ratucker_tensor::dense::DenseTensor;
use ratucker_tensor::io::IoScalar;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::random::{normal_matrix, orthonormalize_columns};
use ratucker_tensor::scalar::Scalar;

/// Configuration of a rank-adaptive run.
#[derive(Clone, Debug)]
pub struct RaConfig {
    /// Relative error tolerance ε.
    pub eps: f64,
    /// Rank growth factor α (the paper typically uses 1.5 or 2).
    pub alpha: f64,
    /// Initial rank estimate (perfect / over / under in the experiments).
    pub initial_ranks: Vec<usize>,
    /// Maximum number of sweeps (the paper caps at 3).
    pub max_iters: usize,
    /// Stop at the first sweep that satisfies the tolerance.
    pub stop_on_threshold: bool,
    /// The sweep engine (TTM/LLSV strategies, seed).
    pub inner: HooiConfig,
}

impl RaConfig {
    /// RA-HOSI-DT with the given tolerance and starting ranks — the
    /// paper's flagship configuration.
    pub fn ra_hosi_dt(eps: f64, initial_ranks: &[usize]) -> RaConfig {
        RaConfig {
            eps,
            alpha: 1.5,
            initial_ranks: initial_ranks.to_vec(),
            max_iters: 3,
            stop_on_threshold: false,
            inner: HooiConfig::hosi_dt(),
        }
    }

    /// Builder: growth factor.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder: sweep cap.
    pub fn with_max_iters(mut self, it: usize) -> Self {
        self.max_iters = it;
        self
    }

    /// Builder: stop at first satisfying sweep.
    pub fn stopping_on_threshold(mut self) -> Self {
        self.stop_on_threshold = true;
        self
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Checks the configuration against the tensor dimensions, returning
    /// a description of the first infeasible state found.
    ///
    /// The solvers call this before touching any data so that a bad
    /// configuration surfaces as one clear message at entry instead of an
    /// obscure mid-sweep panic or an infinite growth stall (e.g. a
    /// non-finite α would never enlarge the ranks).
    pub fn validate(&self, dims: &[usize]) -> Result<(), String> {
        if !self.eps.is_finite() || self.eps <= 0.0 || self.eps >= 1.0 {
            return Err(format!(
                "tolerance eps = {} must be a finite value in (0, 1)",
                self.eps
            ));
        }
        if !self.alpha.is_finite() || self.alpha <= 1.0 {
            return Err(format!(
                "growth factor alpha = {} must be finite and > 1",
                self.alpha
            ));
        }
        if self.max_iters == 0 {
            return Err("max_iters = 0: at least one sweep is required".to_string());
        }
        if self.initial_ranks.len() != dims.len() {
            return Err(format!(
                "initial ranks have {} entries but the tensor has {} modes",
                self.initial_ranks.len(),
                dims.len()
            ));
        }
        if let Some(k) = self.initial_ranks.iter().position(|&r| r == 0) {
            return Err(format!(
                "initial rank for mode {k} is 0; ranks must be >= 1"
            ));
        }
        if let Some(k) = dims.iter().position(|&n| n == 0) {
            return Err(format!("tensor dimension for mode {k} is 0"));
        }
        Ok(())
    }
}

/// One sweep of the rank-adaptive loop.
#[derive(Clone, Debug)]
pub struct RaIterInfo {
    /// Ranks the sweep ran at.
    pub ranks_in: Vec<usize>,
    /// Ranks after the post-sweep action (truncation or growth).
    pub ranks_out: Vec<usize>,
    /// Relative error *after* the post-sweep action.
    pub rel_error: f64,
    /// Whether `‖G‖² ≥ (1−ε²)‖X‖²` held at sweep end.
    pub met_threshold: bool,
    /// Whether the sweep ended with a core-analysis truncation.
    pub truncated: bool,
    /// Relative size of the decomposition after this sweep.
    pub relative_size: f64,
    /// Phase breakdown of the sweep.
    pub timings: Timings,
}

/// Result of a rank-adaptive run.
#[derive(Clone, Debug)]
pub struct RaResult<T: Scalar> {
    /// The final (truncated, if the threshold was met) decomposition.
    pub tucker: TuckerTensor<T>,
    /// Per-sweep history.
    pub iterations: Vec<RaIterInfo>,
    /// First sweep index (0-based) meeting the tolerance, if any.
    pub met_at: Option<usize>,
    /// Total phase breakdown.
    pub timings: Timings,
    /// Final relative error.
    pub rel_error: f64,
}

/// Alg. 3 line 9, shared by the sequential and distributed loops: grows
/// every rank by α (capped at the dimensions) and widens each factor
/// that grew with random columns orthonormalized against its basis.
/// Returns the grown ranks.
///
/// The columns come from [`expansion_rng`]`(seed, sweep)` in mode order,
/// so every rank, any retry after a recovery, and any resumed run append
/// identical columns.
pub(crate) fn grow_ranks<T: Scalar>(
    factors: &mut [Matrix<T>],
    ranks: &[usize],
    dims: &[usize],
    config: &RaConfig,
    sweep: usize,
) -> Vec<usize> {
    let grown: Vec<usize> = ranks
        .iter()
        .zip(dims)
        .map(|(&r, &n)| (((r as f64) * config.alpha).ceil() as usize).min(n))
        .collect();
    if grown != ranks {
        let mut rng = expansion_rng(config.inner.seed, sweep);
        for (u, &r_new) in factors.iter_mut().zip(&grown) {
            if r_new > u.cols() {
                let extra = normal_matrix::<T, _>(u.rows(), r_new - u.cols(), &mut rng);
                let mut ext = u.hcat(&extra);
                orthonormalize_columns(&mut ext, u.cols());
                *u = ext;
            }
        }
    }
    grown
}

/// Runs rank-adaptive HOOI (Alg. 3).
pub fn ra_hooi<T: IoScalar>(x: &DenseTensor<T>, config: &RaConfig) -> RaResult<T> {
    ra_hooi_impl(x, config, None)
}

/// Runs rank-adaptive HOOI with checkpoint/restart.
///
/// The state entering each sweep (per `policy.every`) is written to
/// `policy.dir`; with `policy.resume` the run starts from the latest
/// checkpoint instead of sweep 0 and — because the growth RNG is derived
/// per sweep — produces the same decomposition bit for bit as an
/// uninterrupted run. `RaResult::iterations` covers only the sweeps the
/// resumed run actually executed (sweep indices stay absolute).
///
/// # Panics
/// Panics if a checkpoint exists but cannot be read, or does not match
/// this run's seed/ε/tensor (see [`crate::Checkpoint::validate`]).
pub fn ra_hooi_checkpointed<T: IoScalar>(
    x: &DenseTensor<T>,
    config: &RaConfig,
    policy: &CheckpointPolicy,
) -> RaResult<T> {
    ra_hooi_impl(x, config, Some(policy))
}

fn ra_hooi_impl<T: IoScalar>(
    x: &DenseTensor<T>,
    config: &RaConfig,
    policy: Option<&CheckpointPolicy>,
) -> RaResult<T> {
    let dims: Vec<usize> = x.shape().dims().to_vec();
    if let Err(msg) = config.validate(&dims) {
        panic!("infeasible rank-adaptive configuration: {msg}");
    }
    let x_norm_sq = x.squared_norm_f64();
    let threshold = (1.0 - config.eps * config.eps) * x_norm_sq;

    let mut ranks: Vec<usize> = config
        .initial_ranks
        .iter()
        .zip(&dims)
        .map(|(&r, &n)| r.min(n).max(1))
        .collect();
    let mut factors = crate::hooi::random_init::<T>(&dims, &ranks, config.inner.seed);
    let mut start_sweep = 0;
    if let Some(ck) = resume_point(policy, config, &dims, x_norm_sq) {
        start_sweep = ck.sweep;
        ranks = ck.ranks;
        factors = ck.factors;
    }

    let mut iterations: Vec<RaIterInfo> = Vec::new();
    let mut met_at = None;
    let mut total = Timings::new();
    let mut tucker: Option<TuckerTensor<T>> = None;

    for it in start_sweep..config.max_iters {
        save_point(policy, it, config, x_norm_sq, &ranks, &factors);
        let mut t = Timings::new();
        let core = run_sweep(x, &mut factors, &ranks, &config.inner, &mut t);
        let core_norm_sq = core.squared_norm_f64();
        let met = core_norm_sq >= threshold;

        let ranks_in = ranks.clone();
        let (truncated, ranks_out, rel_error);
        if met {
            // Alg. 3 lines 6-7: optimal leading truncation via eq. (3).
            let analysis = t.time(Phase::CoreAnalysis, || {
                analyze_core(&core, &dims, x_norm_sq, config.eps)
            });
            let full = TuckerTensor::new(core, factors.clone());
            let chosen = match analysis {
                Some(a) => full.truncate(&a.ranks),
                // Rounding put ‖G‖² a hair above the threshold while every
                // prefix fell below: keep the full decomposition.
                None => full,
            };
            ranks = chosen.ranks();
            factors = chosen.factors.clone();
            ranks_out = ranks.clone();
            rel_error = chosen.rel_error_from_core(x_norm_sq);
            truncated = true;
            if met_at.is_none() {
                met_at = Some(it);
            }
            tucker = Some(chosen);
        } else {
            let full = TuckerTensor::new(core, factors.clone());
            rel_error = full.rel_error_from_core(x_norm_sq);
            tucker = Some(full);
            ranks = grow_ranks(&mut factors, &ranks, &dims, config, it);
            ranks_out = ranks.clone();
            truncated = false;
        }

        let relative_size = tucker.as_ref().unwrap().relative_size();
        total.merge(&t);
        iterations.push(RaIterInfo {
            ranks_in,
            ranks_out,
            rel_error,
            met_threshold: met,
            truncated,
            relative_size,
            timings: t,
        });
        if met && config.stop_on_threshold {
            break;
        }
    }

    let tucker = tucker.expect("max_iters must be at least 1");
    let rel_error = tucker.rel_error_from_core(x_norm_sq);
    RaResult {
        tucker,
        iterations,
        met_at,
        timings: total,
        rel_error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticSpec;

    fn noisy_tensor(seed: u64) -> DenseTensor<f64> {
        SyntheticSpec::new(&[14, 12, 10], &[4, 3, 3], 0.02, seed).build()
    }

    #[test]
    fn validate_rejects_infeasible_configs() {
        let dims = [14usize, 12, 10];
        let good = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3]);
        assert!(good.validate(&dims).is_ok());

        let bad_eps = RaConfig {
            eps: 0.0,
            ..good.clone()
        };
        assert!(bad_eps.validate(&dims).unwrap_err().contains("eps"));
        let nan_eps = RaConfig {
            eps: f64::NAN,
            ..good.clone()
        };
        assert!(nan_eps.validate(&dims).unwrap_err().contains("eps"));

        let bad_alpha = good.clone().with_alpha(1.0);
        assert!(bad_alpha.validate(&dims).unwrap_err().contains("alpha"));
        let inf_alpha = good.clone().with_alpha(f64::INFINITY);
        assert!(inf_alpha.validate(&dims).unwrap_err().contains("alpha"));

        let no_sweeps = good.clone().with_max_iters(0);
        assert!(no_sweeps.validate(&dims).unwrap_err().contains("max_iters"));

        let wrong_order = RaConfig::ra_hosi_dt(0.1, &[4, 3]);
        assert!(wrong_order.validate(&dims).unwrap_err().contains("modes"));

        let zero_rank = RaConfig::ra_hosi_dt(0.1, &[4, 0, 3]);
        assert!(zero_rank.validate(&dims).unwrap_err().contains("mode 1"));
    }

    #[test]
    #[should_panic(expected = "infeasible rank-adaptive configuration")]
    fn infeasible_config_is_rejected_at_entry() {
        let x = noisy_tensor(71);
        // α = 1 would stall rank growth forever; reject before sweeping.
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3]).with_alpha(1.0);
        let _ = ra_hooi(&x, &cfg);
    }

    #[test]
    fn perfect_start_meets_tolerance_in_one_sweep() {
        let x = noisy_tensor(71);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3]).with_seed(1);
        let res = ra_hooi(&x, &cfg);
        assert_eq!(
            res.met_at,
            Some(0),
            "history: {:?}",
            res.iterations
                .iter()
                .map(|i| i.rel_error)
                .collect::<Vec<_>>()
        );
        assert!(res.rel_error <= 0.1, "rel_error {}", res.rel_error);
    }

    #[test]
    fn overshoot_truncates_below_start() {
        let x = noisy_tensor(73);
        // 25% overshoot, as in §4.2.
        let cfg = RaConfig::ra_hosi_dt(0.1, &[5, 4, 4])
            .with_seed(2)
            .with_max_iters(1);
        let res = ra_hooi(&x, &cfg);
        assert_eq!(res.met_at, Some(0));
        let r = res.tucker.ranks();
        assert!(
            r.iter().zip(&[5usize, 4, 4]).all(|(a, b)| a <= b),
            "ranks {r:?}"
        );
        assert!(res.rel_error <= 0.1);
    }

    #[test]
    fn undershoot_grows_then_meets() {
        let x = noisy_tensor(79);
        // Start well below the true ranks with a tight tolerance: the
        // first sweep cannot meet it, so ranks must grow.
        let cfg = RaConfig::ra_hosi_dt(0.03, &[1, 1, 1])
            .with_seed(3)
            .with_alpha(2.0)
            .with_max_iters(4);
        let res = ra_hooi(&x, &cfg);
        assert!(res.iterations[0].ranks_out > res.iterations[0].ranks_in);
        assert!(
            res.met_at.is_some(),
            "never met: {:?}",
            res.iterations
                .iter()
                .map(|i| (i.ranks_in.clone(), i.rel_error))
                .collect::<Vec<_>>()
        );
        assert!(res.rel_error <= 0.03);
    }

    #[test]
    fn growth_caps_at_dimensions() {
        let x = SyntheticSpec::new(&[4, 4], &[4, 4], 0.5, 83).build::<f64>();
        // Impossible tolerance forces growth to the caps.
        let cfg = RaConfig::ra_hosi_dt(1e-9, &[2, 2])
            .with_seed(4)
            .with_alpha(3.0)
            .with_max_iters(3);
        let res = ra_hooi(&x, &cfg);
        let last = res.iterations.last().unwrap();
        assert!(last.ranks_in.iter().all(|&r| r <= 4));
    }

    #[test]
    fn relative_size_decreases_when_truncating_overshoot() {
        let x = noisy_tensor(89);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[6, 5, 5])
            .with_seed(5)
            .with_max_iters(2);
        let res = ra_hooi(&x, &cfg);
        let full_size = crate::core_analysis::tucker_storage(&[6, 5, 5], &[14, 12, 10]) as f64
            / (14.0 * 12.0 * 10.0);
        assert!(
            res.iterations[0].relative_size <= full_size,
            "size {} vs start {}",
            res.iterations[0].relative_size,
            full_size
        );
    }

    #[test]
    fn stop_on_threshold_halts_early() {
        let x = noisy_tensor(97);
        // A loose tolerance the very first sweep is certain to satisfy.
        let cfg = RaConfig::ra_hosi_dt(0.3, &[4, 3, 3])
            .with_seed(6)
            .with_max_iters(3)
            .stopping_on_threshold();
        let res = ra_hooi(&x, &cfg);
        assert_eq!(res.iterations.len(), 1);
    }

    #[test]
    fn ra_works_with_all_variants() {
        let x = noisy_tensor(101);
        for inner in [
            HooiConfig::hooi(),
            HooiConfig::hooi_dt(),
            HooiConfig::hosi(),
            HooiConfig::hosi_dt(),
        ] {
            let cfg = RaConfig {
                eps: 0.1,
                alpha: 1.5,
                initial_ranks: vec![4, 3, 3],
                max_iters: 2,
                stop_on_threshold: false,
                inner: inner.with_seed(7),
            };
            let res = ra_hooi(&x, &cfg);
            assert!(
                res.rel_error <= 0.1,
                "{} failed: {}",
                cfg.inner.variant_name(),
                res.rel_error
            );
        }
    }

    #[test]
    fn core_analysis_time_is_recorded_when_truncating() {
        let x = noisy_tensor(103);
        let cfg = RaConfig::ra_hosi_dt(0.15, &[5, 4, 4])
            .with_seed(8)
            .with_max_iters(1);
        let res = ra_hooi(&x, &cfg);
        assert!(res.iterations[0].truncated);
        assert!(res.timings.flops(Phase::CoreAnalysis) > 0);
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ratucker_ra_ckpt_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn checkpointed_run_equals_plain_run() {
        let x = noisy_tensor(113);
        let cfg = RaConfig::ra_hosi_dt(0.03, &[1, 1, 1])
            .with_seed(21)
            .with_alpha(2.0)
            .with_max_iters(4);
        let reference = ra_hooi(&x, &cfg);
        let dir = ckpt_dir("plain");
        let policy = CheckpointPolicy::new(&dir);
        let checked = ra_hooi_checkpointed(&x, &cfg, &policy);
        assert_eq!(checked.rel_error, reference.rel_error);
        for (a, b) in checked.tucker.factors.iter().zip(&reference.tucker.factors) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        // One checkpoint per executed sweep.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            reference.iterations.len()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_resume_reproduces_uninterrupted_run_bit_for_bit() {
        let x = noisy_tensor(113);
        let cfg = RaConfig::ra_hosi_dt(0.03, &[1, 1, 1])
            .with_seed(21)
            .with_alpha(2.0)
            .with_max_iters(4);
        let reference = ra_hooi(&x, &cfg);
        assert!(
            reference.iterations.len() >= 3,
            "test needs a multi-sweep run, got {}",
            reference.iterations.len()
        );
        let dir = ckpt_dir("resume");
        let policy = CheckpointPolicy::new(&dir);
        let _ = ra_hooi_checkpointed(&x, &cfg, &policy);
        // Simulate a crash during sweep 2: throw away everything the run
        // wrote after the state entering sweep 1.
        for sweep in 2..cfg.max_iters {
            let _ = std::fs::remove_file(policy.path_for(sweep));
        }
        let resumed = ra_hooi_checkpointed(&x, &cfg, &policy.clone().resuming());
        // Only sweeps 1.. re-ran, yet the result is identical.
        assert_eq!(resumed.iterations.len(), reference.iterations.len() - 1);
        assert_eq!(resumed.rel_error, reference.rel_error);
        assert_eq!(resumed.tucker.ranks(), reference.tucker.ranks());
        assert_eq!(
            resumed.tucker.core.max_abs_diff(&reference.tucker.core),
            0.0
        );
        for (a, b) in resumed.tucker.factors.iter().zip(&reference.tucker.factors) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "refusing to resume")]
    fn resume_rejects_mismatched_seed() {
        let x = noisy_tensor(127);
        let cfg = RaConfig::ra_hosi_dt(0.1, &[4, 3, 3])
            .with_seed(30)
            .with_max_iters(1);
        let dir = ckpt_dir("mismatch");
        let policy = CheckpointPolicy::new(&dir);
        let _ = ra_hooi_checkpointed(&x, &cfg, &policy);
        let other = cfg.clone().with_seed(31);
        // Leak the dir on purpose: the panic unwinds before cleanup, and
        // the unique name keeps reruns isolated.
        let _ = ra_hooi_checkpointed(&x, &other, &policy.resuming());
    }

    #[test]
    fn reconstruction_error_matches_reported() {
        let x = noisy_tensor(107);
        let cfg = RaConfig::ra_hosi_dt(0.08, &[4, 3, 3]).with_seed(9);
        let res = ra_hooi(&x, &cfg);
        let direct = res.tucker.reconstruct().rel_error(&x);
        assert!(
            (direct - res.rel_error).abs() < 1e-8,
            "direct {direct} reported {}",
            res.rel_error
        );
    }
}
