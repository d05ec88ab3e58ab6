//! End-to-end demo of the verification layer's public API.
//!
//! Runs a sequential ST-HOSVD, checks it against the differential
//! oracles and structural invariants, then replays a distributed
//! allreduce under 12 message schedules with `Universe::explore` and
//! prints the schedule suite it survived.
//!
//! ```text
//! cargo run --release -p ratucker-verify --example verify_demo
//! ```

use ratucker::prelude::*;
use ratucker_mpi::{sum_op, Universe};
use ratucker_tensor::{ttm, Matrix, Transpose};
use ratucker_verify::tolerances::{TOL_CORE_NORM, TOL_MONOTONE_SLACK, TOL_ORACLE, TOL_ORTHO};
use ratucker_verify::{check_core_norm_identity, check_monotone_fit, check_orthonormal, ttm_naive};

fn main() {
    // A noisy synthetic tensor with a known low-rank construction.
    let x = SyntheticSpec::new(&[12, 10, 8], &[3, 3, 2], 0.01, 7).build::<f64>();

    // --- leg 1: differential oracle --------------------------------
    let u = ratucker_linalg::qr(&Matrix::<f64>::from_fn(12, 3, |i, j| {
        ((i * 5 + j * 3 + 1) as f64).sin()
    }))
    .q;
    let fast = ttm(&x, 0, &u, Transpose::Yes);
    let slow = ttm_naive(&x, 0, &u, Transpose::Yes);
    let diff = fast.max_abs_diff(&slow);
    assert!(diff < TOL_ORACLE, "ttm oracle divergence: {diff:e}");
    println!("oracle: ttm matches the naive reference to {diff:.2e}");

    // --- leg 2: structural invariants ------------------------------
    let res = sthosvd(&x, &SthosvdTruncation::Ranks(vec![3, 3, 2]));
    for (k, f) in res.tucker.factors.iter().enumerate() {
        check_orthonormal(f, TOL_ORTHO).unwrap_or_else(|e| panic!("factor {k}: {e}"));
    }
    check_core_norm_identity(
        &x,
        &res.tucker.core,
        &res.tucker.factors,
        res.rel_error,
        TOL_CORE_NORM,
    )
    .expect("core norm identity");
    let hooi = hooi(
        &x,
        &[3, 3, 2],
        &HooiConfig::hosi_dt().with_max_iters(3).with_seed(1),
    );
    let errors: Vec<f64> = hooi.sweeps.iter().map(|s| s.rel_error).collect();
    check_monotone_fit(&errors, TOL_MONOTONE_SLACK).expect("monotone fit");
    println!("invariants: orthonormal factors, core-norm identity, monotone fit {errors:.4?}");

    // --- leg 3: schedule exploration -------------------------------
    let report = Universe::new(4).explore(12, 0xDEC0, |c| {
        let rank = c.rank();
        c.allreduce(vec![(rank + 1) as f64], sum_op).unwrap()
    });
    assert!(report.failed_ranks.is_empty());
    println!(
        "explore: bit-identical allreduce under {} schedules:",
        report.policies.len()
    );
    for p in &report.policies {
        println!("  {p:?}");
    }
}
