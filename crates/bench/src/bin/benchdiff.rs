//! `benchdiff` — compares fresh bench JSON against committed baselines.
//!
//! Reads pairs of bench report files (the `{"benchmarks": [...]}` JSON
//! document the vendored criterion stub writes via `BENCH_JSON`) and
//! prints per-benchmark
//! deltas in ns and percent, so each PR's `BENCH_*.json` refresh carries
//! a visible before/after trajectory. Regressions above the soft
//! threshold produce a loud warning but never a failing exit: bench
//! noise on shared hardware must not gate CI (ROADMAP item 1 asks for a
//! measured trajectory, not a flaky gate).
//!
//! ```sh
//! cargo run -p ratucker-bench --bin benchdiff -- \
//!     BENCH_kernels.json target/BENCH_kernels.json
//! ```
//!
//! With one argument pair per suite; `--soft-threshold <pct>` overrides
//! the default 25% warning bar.

use ratucker_obs::json::Json;
use std::fmt::Write as _;

/// A benchmark's slowdown past this percentage gets a WARN line.
const DEFAULT_SOFT_THRESHOLD_PCT: f64 = 25.0;

/// One `{"name": …, "per_iter_ns": …, "iters": …}` record.
struct Entry {
    name: String,
    per_iter_ns: f64,
}

/// The records of one report; records lacking a name or a time are
/// skipped.
fn parse_report(text: &str) -> Result<Vec<Entry>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let records = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("no \"benchmarks\" array")?;
    Ok(records
        .iter()
        .filter_map(|r| {
            Some(Entry {
                name: r.get("name")?.as_str()?.to_string(),
                per_iter_ns: r.get("per_iter_ns")?.as_f64()?,
            })
        })
        .collect())
}

/// Reads and parses one report, or says why it is skipped: a missing
/// file gets `missing_hint`, one that does not parse is named as such.
fn load_report(path: &str, what: &str, missing_hint: &str) -> Option<Vec<Entry>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            println!("benchdiff: no {what} {path} ({e}); {missing_hint}");
            return None;
        }
    };
    match parse_report(&text) {
        Ok(entries) => Some(entries),
        Err(e) => {
            println!("benchdiff: {what} {path} is not a bench report ({e}); skipped");
            None
        }
    }
}

fn human_ns(ns: f64) -> String {
    if ns.abs() >= 1e6 {
        format!("{:+.2} ms", ns / 1e6)
    } else if ns.abs() >= 1e3 {
        format!("{:+.2} µs", ns / 1e3)
    } else {
        format!("{ns:+.0} ns")
    }
}

fn diff_suite(baseline_path: &str, fresh_path: &str, soft_threshold_pct: f64) -> usize {
    let Some(baseline) = load_report(baseline_path, "baseline", "nothing to compare") else {
        return 0;
    };
    let Some(fresh) = load_report(fresh_path, "fresh report", "run the benches first") else {
        return 0;
    };
    println!("benchdiff: {baseline_path} -> {fresh_path}");
    let mut regressions = 0;
    for f in &fresh {
        let Some(b) = baseline.iter().find(|b| b.name == f.name) else {
            println!("  {:<44} NEW      {:>12.0} ns", f.name, f.per_iter_ns);
            continue;
        };
        let delta = f.per_iter_ns - b.per_iter_ns;
        let pct = if b.per_iter_ns > 0.0 {
            100.0 * delta / b.per_iter_ns
        } else {
            0.0
        };
        let mut line = String::new();
        let _ = write!(
            line,
            "  {:<44} {:>12.0} -> {:>12.0} ns  {:>12} ({pct:+.1}%)",
            f.name,
            b.per_iter_ns,
            f.per_iter_ns,
            human_ns(delta)
        );
        if pct > soft_threshold_pct {
            regressions += 1;
            let _ = write!(line, "  WARN: regression above {soft_threshold_pct:.0}%");
        }
        println!("{line}");
    }
    for b in &baseline {
        if !fresh.iter().any(|f| f.name == b.name) {
            println!("  {:<44} GONE (was {:.0} ns)", b.name, b.per_iter_ns);
        }
    }
    regressions
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut soft_threshold_pct = DEFAULT_SOFT_THRESHOLD_PCT;
    let mut paths: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--soft-threshold" {
            let v = it.next().unwrap_or_default();
            match v.parse::<f64>() {
                Ok(p) if p > 0.0 => soft_threshold_pct = p,
                _ => {
                    eprintln!("benchdiff: bad --soft-threshold {v:?}");
                    std::process::exit(2);
                }
            }
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        eprintln!(
            "usage: benchdiff [--soft-threshold <pct>] <baseline.json> <fresh.json> \
             [<baseline2.json> <fresh2.json> …]"
        );
        std::process::exit(2);
    }
    let mut regressions = 0;
    for pair in paths.chunks(2) {
        regressions += diff_suite(&pair[0], &pair[1], soft_threshold_pct);
    }
    if regressions > 0 {
        // Soft failure by design: warn loudly, exit clean.
        println!(
            "benchdiff: WARNING — {regressions} benchmark(s) regressed more than \
             {soft_threshold_pct:.0}% (soft: not failing the build)"
        );
    } else {
        println!("benchdiff: no regressions above {soft_threshold_pct:.0}%");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_report_in_the_committed_format() {
        let text = "{\n\"benchmarks\": [\n\
            {\"name\": \"gemm/64\", \"per_iter_ns\": 20138.0, \"iters\": 20},\n\
            {\"name\": \"ttm_mode/0\", \"per_iter_ns\": 344956.5, \"iters\": 20}\n\
            ]\n}\n";
        let entries = parse_report(text).unwrap();
        let got: Vec<(&str, f64)> = entries
            .iter()
            .map(|e| (e.name.as_str(), e.per_iter_ns))
            .collect();
        assert_eq!(got, vec![("gemm/64", 20138.0), ("ttm_mode/0", 344956.5)]);
    }

    #[test]
    fn a_report_that_does_not_parse_is_an_error() {
        assert!(parse_report("{\"benchmarks\": [").is_err());
        assert!(parse_report("{\"other\": []}").is_err());
    }
}
