//! End-to-end algorithm benches: STHOSVD vs the four HOOI variants (the
//! Fig. 2 single-core comparison at bench scale) and the rank-adaptive
//! driver, in the high-compression regime where the paper's wins live.

use criterion::{criterion_group, criterion_main, Criterion};
use ratucker::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench_rank_specified(c: &mut Criterion) {
    // High compression: n/r = 8 — the regime boundary of §3.1.
    let dims = [64usize, 64, 64];
    let r = 8;
    let x = SyntheticSpec::new(&dims, &[r; 3], 1e-4, 31).build::<f32>();

    let mut g = c.benchmark_group("rank_specified_3way_64_r8");
    g.measurement_time(Duration::from_secs(4)).sample_size(10);
    g.bench_function("STHOSVD", |b| {
        b.iter(|| black_box(sthosvd(&x, &SthosvdTruncation::Ranks(vec![r; 3])).rel_error))
    });
    for cfg in [
        HooiConfig::hooi(),
        HooiConfig::hooi_dt(),
        HooiConfig::hosi(),
        HooiConfig::hosi_dt(),
    ] {
        let cfg = cfg.with_max_iters(2).with_seed(5);
        g.bench_function(cfg.variant_name(), |b| {
            b.iter(|| black_box(hooi(&x, &[r; 3], &cfg).rel_error()))
        });
    }
    g.finish();
}

fn bench_error_specified(c: &mut Criterion) {
    let dims = [48usize, 48, 48];
    let x = SyntheticSpec::new(&dims, &[6; 3], 5e-3, 37).build::<f32>();

    let mut g = c.benchmark_group("error_specified_3way_48");
    g.measurement_time(Duration::from_secs(4)).sample_size(10);
    g.bench_function("STHOSVD_eps0.05", |b| {
        b.iter(|| black_box(sthosvd(&x, &SthosvdTruncation::RelError(0.05)).rel_error))
    });
    g.bench_function("RA-HOSI-DT_eps0.05_perfect", |b| {
        let cfg = RaConfig::ra_hosi_dt(0.05, &[6, 6, 6])
            .with_seed(5)
            .stopping_on_threshold();
        b.iter(|| black_box(ra_hooi(&x, &cfg).rel_error))
    });
    g.bench_function("RA-HOSI-DT_eps0.05_over", |b| {
        let cfg = RaConfig::ra_hosi_dt(0.05, &[8, 8, 8])
            .with_seed(5)
            .stopping_on_threshold();
        b.iter(|| black_box(ra_hooi(&x, &cfg).rel_error))
    });
    g.finish();
}

fn bench_ttm_overlap(c: &mut Criterion) {
    use rand::SeedableRng;
    use ratucker_dist::{set_overlap, DistTensor, OverlapMode};
    use ratucker_mpi::{CartGrid, SchedulePolicy, Universe};
    use ratucker_tensor::matrix::Matrix;
    use ratucker_tensor::random::normal_matrix;
    use ratucker_tensor::ttm::Transpose;

    // P = 4 along mode 1: the TTM reduce-scatters over a 4-rank fiber,
    // the shape where `Overlap on` pipelines slab GEMMs behind the ring.
    let dims = [64usize, 64, 64];
    let r = 32;
    let x = SyntheticSpec::new(&dims, &[8; 3], 1e-4, 41).build::<f32>();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let m: Matrix<f32> = normal_matrix(dims[1], r, &mut rng);
    let grid_dims = [1usize, 4, 1];
    let u = Universe::new(4);

    // Two fabric conditions: an unperturbed schedule (`Os`), and the
    // deterministic jitter schedule (`SeededRandom`) whose hash-derived
    // micro-delays model per-operation network latency. Overlap's win
    // lives in the jitter series: the pipelined path has the next
    // slab's GEMM queued behind every delayed fabric op, while the
    // blocking path serializes the same delays into rendezvous stalls.
    for (cond, policy) in [
        ("", SchedulePolicy::Os),
        ("_jitter", SchedulePolicy::SeededRandom { seed: 17 }),
    ] {
        let mut g = c.benchmark_group(format!("ttm_overlap_p4_64_r32{cond}"));
        g.measurement_time(Duration::from_secs(4)).sample_size(10);
        for (label, mode) in [
            ("blocking", OverlapMode::Off),
            ("pipelined", OverlapMode::On),
        ] {
            g.bench_function(label, |b| {
                u.set_schedule_policy(policy);
                b.iter(|| {
                    let out = u.run(|comm| {
                        set_overlap(mode);
                        let grid = CartGrid::new(comm, &grid_dims);
                        let xd = DistTensor::scatter_from_replicated(&grid, &x);
                        // Several TTMs per universe run so the kernel under
                        // test dominates the scatter and thread-spawn cost.
                        let mut acc = 0.0f32;
                        for _ in 0..6 {
                            let y = ratucker_dist::try_dist_ttm(&grid, &xd, 1, &m, Transpose::Yes)
                                .unwrap();
                            acc += y.local().data()[0];
                        }
                        acc
                    });
                    black_box(out[0])
                })
            });
        }
        g.finish();
        u.set_schedule_policy(SchedulePolicy::Os);
    }
}

criterion_group!(
    benches,
    bench_rank_specified,
    bench_error_specified,
    bench_ttm_overlap
);
criterion_main!(benches);
