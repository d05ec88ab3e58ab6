//! Trace-pipeline smoke check + perf-model validation, for `ci.sh`.
//!
//! Runs small HOOI-DT and HOSI-DT decompositions under span-tracing
//! sessions, then checks the whole observability pipeline end to end:
//!
//! 1. the merged Chrome trace JSON round-trips through the parser and
//!    passes structural validation (≥ 1 span per rank, no ring
//!    evictions, per-phase self bytes summing to the session totals);
//! 2. the per-phase measured communication volume (Gram allreduce bytes
//!    for HOOI-DT; TTM reduce-scatter and SI-contraction bytes for both)
//!    matches the analytic [`ratucker_perfmodel`] predictions within the
//!    documented tolerance band, via [`ratucker_obs::validate_against_model`].
//!
//! Exits nonzero on any failure, so CI catches both broken exporters and
//! perf-model drift. Pass a path argument to keep the HOSI-DT trace file.
//!
//! Run: `cargo run --release -p ratucker-bench --bin tracecheck [trace.json]`

use ratucker::dist::dist_hooi;
use ratucker::prelude::*;
use ratucker_dist::DistTensor;
use ratucker_mpi::{CartGrid, Universe};
use ratucker_obs::{validate_against_model, PhaseBreakdown, Trace, TraceSession, ValidationConfig};
use ratucker_perfmodel::{AlgKind, Problem};

/// Runs one HOOI variant on the grid under a tracing session.
fn traced_run(
    x_full: &ratucker_tensor::dense::DenseTensor<f32>,
    grid_dims: &[usize],
    cfg: &HooiConfig,
    ranks: &[usize],
) -> Trace {
    let p: usize = grid_dims.iter().product();
    let u = Universe::new(p);
    let session = TraceSession::start(&u);
    u.run(|c| {
        let grid = CartGrid::new(c, grid_dims);
        // Root span *after* grid construction (CartGrid consumes the
        // Comm); everything below is self-attributed to inner spans.
        let _root = ratucker_obs::span(&grid.comm, "run");
        let x = DistTensor::scatter_from_replicated(&grid, x_full);
        let _ = dist_hooi(&grid, &x, ranks, cfg);
    });
    session.finish()
}

/// Validates one trace against the cost model; exits on deviation.
fn validate(trace: &Trace, alg: AlgKind, prob: &Problem, grid_dims: &[usize]) {
    let breakdown = PhaseBreakdown::from_trace(trace);
    println!("--- {} ---", alg.name());
    println!("{breakdown}");
    let cfg = ValidationConfig::new(std::mem::size_of::<f32>());
    let report = validate_against_model(&breakdown, alg, prob, grid_dims, &cfg);
    println!("{report}");
    if let Err(dev) = report.check() {
        eprintln!("tracecheck FAIL ({}): {dev}", alg.name());
        std::process::exit(1);
    }
}

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/tracecheck.json".to_string());

    // Small cubic problem on a [1,2,2] grid: big enough that Gram, TTM
    // and the SI contraction all clear the latency floor, small enough
    // to run in well under a second.
    let dims = vec![24usize, 24, 24];
    let (n, d, r) = (dims[0], dims.len(), 4usize);
    let iters = 2usize;
    let grid_dims = vec![1usize, 2, 2];
    let p: usize = grid_dims.iter().product();
    let spec = SyntheticSpec::new(&dims, &vec![r; d], 1e-4, 7);
    let x_full = spec.build::<f32>();
    let ranks = vec![r; d];
    let prob = Problem::new(n, r, d, iters);

    // --- HOOI-DT: exercises the Gram-allreduce + EVD path. -----------
    let cfg = HooiConfig::hooi_dt().with_max_iters(iters).with_seed(1);
    let trace = traced_run(&x_full, &grid_dims, &cfg, &ranks);
    validate(&trace, AlgKind::HooiDt, &prob, &grid_dims);

    // --- HOSI-DT: exercises the TTM + SI-contraction path. -----------
    let cfg = HooiConfig::hosi_dt().with_max_iters(iters).with_seed(1);
    let trace = traced_run(&x_full, &grid_dims, &cfg, &ranks);
    validate(&trace, AlgKind::HosiDt, &prob, &grid_dims);

    // --- Chrome trace round-trip + structural validation. ------------
    let path = std::path::Path::new(&trace_path);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    ratucker_obs::write_trace(path, &trace).expect("write trace file");
    let text = std::fs::read_to_string(path).expect("read trace back");
    let parsed = ratucker_obs::parse(&text).expect("trace JSON must parse");
    if let Err(e) = ratucker_obs::validate_parsed(&parsed) {
        eprintln!("tracecheck FAIL: trace file invalid: {e}");
        std::process::exit(1);
    }
    assert_eq!(parsed.ranks, p, "footer rank count");
    println!(
        "trace ok: {} spans over {} ranks, {} self bytes -> {trace_path}",
        parsed.spans.len(),
        parsed.ranks,
        parsed.total_bytes
    );
    println!("tracecheck OK: measured comm volume within model tolerance");
}
