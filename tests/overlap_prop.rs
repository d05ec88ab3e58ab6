//! Property tests for the comm/compute overlap knob (DESIGN.md §17):
//! the pipelined TTM and Gram kernels must be **bitwise** identical to
//! their blocking forms over tensor orders d ∈ {3, 4} and fiber sizes
//! P ∈ {2, 4, 8}; injected message drops healed by the retry policy
//! must leave the pipelined results bitwise equal to a clean-wire run;
//! and a rank crash landing mid-pipeline — with slab reduce-scatters in
//! flight — must surface on every survivor as a typed [`CommError`],
//! never a hang.

use std::time::Duration;

use proptest::prelude::*;
use ra_hooi::dist::{try_dist_gram, try_dist_ttm, DistTensor};
use ra_hooi::mpi::{CartGrid, FaultPlan, RetryPolicy, Universe};
use ra_hooi::prelude::*;
use ra_hooi::tensor::{Matrix, Transpose};

/// A d-way problem whose mode 1 carries the whole processor fiber: the
/// deepest reduce-scatter pipeline the TTM can form at that P.
fn dims_for(d: usize) -> Vec<usize> {
    match d {
        3 => vec![8, 12, 10],
        _ => vec![6, 12, 5, 4],
    }
}

fn grid_for(d: usize, p: usize) -> Vec<usize> {
    let mut g = vec![1; d];
    g[1] = p;
    g
}

/// Runs the mode-1 TTM and Gram on both overlap settings inside one
/// universe run and returns `(pipelined bits, blocking bits)` per rank.
fn both_modes(c: ra_hooi::mpi::Comm, d: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
    let p = c.size();
    let grid = CartGrid::new(c, &grid_for(d, p));
    let dims = dims_for(d);
    let spec = SyntheticSpec::new(&dims, &vec![2; d], 0.05, seed);
    let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
    let m = Matrix::from_fn(dims[1], 8, |i, j| {
        (((i * 8 + j) as f64) + seed as f64).sin()
    });
    let run = |mode: OverlapMode| {
        set_overlap(mode);
        let y = try_dist_ttm(&grid, &x, 1, &m, Transpose::Yes).unwrap();
        let g = try_dist_gram(&grid, &x, 1).unwrap();
        let mut bits: Vec<u64> = y.local().data().iter().map(|v| v.to_bits()).collect();
        bits.extend(g.as_slice().iter().map(|v| v.to_bits()));
        bits
    };
    let out = (run(OverlapMode::On), run(OverlapMode::Off));
    set_overlap(OverlapMode::On);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipelined TTM/Gram vs blocking, bitwise, across orders and fiber
    /// sizes.
    #[test]
    fn pipelined_ttm_gram_bitwise_matches_blocking(
        d in 3usize..=4,
        p_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let p = [2usize, 4, 8][p_idx];
        let u = Universe::new(p);
        let out = u.run(move |c| both_modes(c, d, seed));
        for (rank, (on, off)) in out.iter().enumerate() {
            prop_assert_eq!(on, off, "rank {} d={} P={}", rank, d, p);
        }
    }

    /// Message drops healed by the retry policy leave the pipelined
    /// results bitwise identical to a clean-wire pipelined run: the
    /// eager contribution sends retry transparently, and the combine
    /// order never depends on which send needed another attempt.
    #[test]
    fn drops_healed_by_retry_stay_bitwise(
        seed in 0u64..1_000,
        prob_pct in 5u32..=25,
    ) {
        let d = 3usize;
        let p = 4usize;
        let clean = Universe::new(p).run(move |c| both_modes(c, d, seed).0);
        let u = Universe::with_fault_plan(
            p,
            FaultPlan::quiet(seed).with_drops(f64::from(prob_pct) / 100.0),
        );
        u.set_retry_policy(Some(RetryPolicy::new(12)));
        let dropped = u.run(move |c| both_modes(c, d, seed).0);
        for (rank, (a, b)) in clean.iter().zip(&dropped).enumerate() {
            prop_assert_eq!(a, b, "rank {}: healed drops changed the bits", rank);
        }
        u.traffic().check_invariant().unwrap();
    }

    /// A crash landing while slab reduce-scatters are in flight: every
    /// survivor's `try_dist_ttm` returns a typed `CommError` (the test
    /// completing at all is the no-hang assertion; the 10 s timeout is
    /// the backstop).
    #[test]
    fn midpipeline_crash_is_typed_error_not_hang(
        seed in 0u64..1_000,
        crash_op in 30u64..90,
    ) {
        use ra_hooi::dist::try_dist_ttm;

        let d = 3usize;
        let p = 4usize;
        const VICTIM: usize = 2;
        let u = Universe::with_fault_plan(
            p,
            FaultPlan::quiet(seed).with_crash(VICTIM, crash_op),
        );
        u.set_recv_timeout(Duration::from_secs(10));
        let out = u.try_run(move |c| {
            let grid = CartGrid::new(c, &grid_for(d, p));
            let dims = dims_for(d);
            let spec = SyntheticSpec::new(&dims, &vec![2; d], 0.05, seed);
            let x = DistTensor::scatter_from_replicated(&grid, &spec.build::<f64>());
            let m = Matrix::from_fn(dims[1], 8, |i, j| (((i * 8 + j) as f64) * 0.7).cos());
            for _ in 0..200 {
                if let Err(e) = try_dist_ttm(&grid, &x, 1, &m, Transpose::Yes) {
                    // Typed surfacing, not a panic and not a stall.
                    return format!("{e:?}").is_empty() as u64;
                }
            }
            panic!("the injected crash never surfaced in 200 pipelined TTMs");
        });
        for (rank, res) in out.iter().enumerate() {
            if rank == VICTIM {
                prop_assert!(res.is_err(), "the victim must die, not return");
            } else {
                prop_assert_eq!(
                    res.as_ref().ok().copied(),
                    Some(0),
                    "rank {}: survivor did not get a typed CommError",
                    rank
                );
            }
        }
    }
}
