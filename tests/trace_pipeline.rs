//! Workspace property tests for the observability pipeline (PR 3).
//!
//! The central invariant: per-span **exclusive** traffic *partitions*
//! the fabric's traffic counters. With a root span open on every rank,
//! summing the self-attributed per-kind bytes/messages over all
//! recorded spans must reproduce the universe's global counters
//! exactly — per rank, per collective kind, and in total — for
//! arbitrary collective schedules, arbitrary span nesting, and on
//! `CommError` paths under injected message drops (a dropped send is
//! charged to no kind *and* not delivered, so the partition is
//! preserved on both sides of the ledger).

use std::time::Duration;

use proptest::prelude::*;
use ra_hooi::mpi::{Comm, FaultPlan, KindSnapshot, Universe};
use ra_hooi::obs::{span, span_mode, TraceSession};

/// Runs a deterministic pseudo-random schedule of collectives on `c`,
/// under nested spans, ignoring (typed) communication errors. Returns
/// the number of collectives that failed.
fn random_collectives(c: &Comm, seed: u64, rounds: usize) -> usize {
    let mut failures = 0;
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..rounds {
        let n = (next() % 64 + 1) as usize;
        let data: Vec<f64> = (0..n).map(|i| (i + round) as f64).collect();
        // Each collective runs under its own (sometimes nested) span.
        let _outer = span_mode(c, "TTM", round % 3);
        match next() % 5 {
            0 => {
                let _s = span(c, "Gram");
                if c.allreduce(data, |a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += *y;
                    }
                })
                .is_err()
                {
                    failures += 1;
                }
            }
            1 => {
                let _s = span(c, "SI");
                if c.bcast(0, data).is_err() {
                    failures += 1;
                }
            }
            2 => {
                if c.allgatherv(data).is_err() {
                    failures += 1;
                }
            }
            3 => {
                let _s = span(c, "QR");
                // Spread n entries over the ranks (first rank absorbs
                // the remainder).
                let p = c.size();
                let mut counts = vec![n / p; p];
                counts[0] += n % p;
                if c.reduce_scatter(data, &counts, |a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += *y;
                    }
                })
                .is_err()
                {
                    failures += 1;
                }
            }
            _ => {
                if c.barrier().is_err() {
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Asserts the partition: trace self-traffic == fabric counters, per
/// rank, per kind, and globally.
fn assert_partition(trace: &ra_hooi::obs::Trace, u: &Universe, p: usize) {
    assert_eq!(trace.evicted, 0, "ring evictions void the partition");
    // Global, per kind.
    let measured = trace.totals();
    let fabric = u.traffic().kind_totals();
    assert_eq!(measured.bytes, fabric.bytes, "per-kind byte partition");
    assert_eq!(
        measured.messages, fabric.messages,
        "per-kind message partition"
    );
    // Global totals against the legacy counters.
    let (bytes, msgs) = u.traffic().snapshot();
    assert_eq!(measured.total_bytes(), bytes);
    assert_eq!(measured.total_messages(), msgs);
    // Per rank, per kind.
    for r in 0..p {
        let mut rank_sum = KindSnapshot::default();
        for e in trace.events_of_rank(r) {
            rank_sum.merge(&e.traffic);
        }
        let want = u.traffic().kind_snapshot_for(r);
        assert_eq!(rank_sum.bytes, want.bytes, "rank {r} byte partition");
        assert_eq!(
            rank_sum.messages, want.messages,
            "rank {r} message partition"
        );
    }
    // The fabric's own internal partition must also hold.
    u.traffic().check_kind_partition().unwrap();
    u.traffic().check_invariant().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fault-free random collective schedules: span self-traffic
    /// partitions the fabric counters exactly, and every rank records
    /// at least its root span.
    #[test]
    fn span_traffic_partitions_fabric_counters(
        p in 2usize..=4,
        seed in 0u64..10_000,
        rounds in 1usize..=6,
    ) {
        let u = Universe::new(p);
        let session = TraceSession::start(&u);
        let failures = u.run(|c| {
            let _root = span(&c, "run");
            // Same seed on every rank: collectives are a matched
            // schedule across the communicator.
            random_collectives(&c, seed, rounds)
        });
        let trace = session.finish();
        prop_assert!(failures.iter().all(|&f| f == 0), "fault-free run failed");
        for r in 0..p {
            prop_assert!(
                trace.events_of_rank(r).any(|e| e.phase == "run" && e.depth == 0),
                "rank {r} missing root span"
            );
        }
        assert_partition(&trace, &u, p);
    }

    /// `Timings::percents` apportions by largest remainder: the row
    /// sums to exactly 100 whenever any time was recorded, every phase
    /// gets its floored share or one point more, and all-zero timings
    /// yield all zeros.
    #[test]
    fn timings_percents_apportion_by_largest_remainder(
        raw in proptest::collection::vec(0u32..1_000, 8),
    ) {
        use ra_hooi::tucker::{Timings, ALL_PHASES};
        let mut t = Timings::new();
        for (&phase, &units) in ALL_PHASES.iter().zip(&raw) {
            // Dyadic fractions, so shares are computed from exact sums.
            t.record(phase, f64::from(units) / 1024.0);
        }
        let out = t.percents();
        let total: f64 = raw.iter().map(|&u| f64::from(u) / 1024.0).sum();
        if total <= 0.0 {
            prop_assert_eq!(out, [0u32; 8]);
        } else {
            prop_assert_eq!(out.iter().sum::<u32>(), 100, "row must sum to 100");
            for (i, (&units, &got)) in raw.iter().zip(&out).enumerate() {
                let share = f64::from(units) / 1024.0 / total * 100.0;
                let fl = share.floor() as u32;
                prop_assert!(
                    got == fl || got == fl + 1,
                    "phase {i}: {got} not in {{floor, floor+1}} of {share}"
                );
            }
        }
    }

    /// Drops healed by retry-with-backoff keep the traffic ledger
    /// partitioned: every attempt lands on exactly one of `messages` or
    /// `dropped`, each healed drop consumed at least one retry, and the
    /// collectives themselves succeed as if the wire were clean.
    #[test]
    fn retry_counters_stay_partitioned_under_drops(
        seed in 0u64..10_000,
        rounds in 1usize..=3,
        prob_pct in 5u32..=30,
    ) {
        use std::sync::atomic::Ordering;
        use ra_hooi::mpi::RetryPolicy;
        let p = 2usize;
        let u = Universe::with_fault_plan(
            p,
            FaultPlan::quiet(seed).with_drops(f64::from(prob_pct) / 100.0),
        );
        u.set_retry_policy(Some(RetryPolicy::new(12)));
        let failures = u.run(|c| random_collectives(&c, seed, rounds));
        // At ≤30% drop probability and 12 retries, exhaustion is a
        // ~0.3¹³ event per message: the run must come back clean.
        prop_assert!(failures.iter().all(|&f| f == 0), "retry failed to heal");
        u.traffic().check_invariant().unwrap();
        let stats = u.traffic();
        let dropped = stats.dropped.load(Ordering::Relaxed);
        let healed = stats.drops_healed.load(Ordering::Relaxed);
        let retries = stats.send_retries.load(Ordering::Relaxed);
        prop_assert_eq!(healed, dropped.min(healed), "healed ≤ dropped");
        prop_assert!(retries >= healed, "each heal consumed ≥ 1 retry");
        prop_assert!(healed >= u64::from(dropped > 0), "a clean run has no unhealed drops");
    }

    /// Injected message drops: collectives fail with typed errors, yet
    /// the partition still holds — dropped sends are charged to no kind
    /// and to no global counter, delivered legs to exactly one of each.
    #[test]
    fn partition_survives_comm_errors(
        seed in 0u64..10_000,
        rounds in 1usize..=3,
    ) {
        let p = 2usize;
        let u = Universe::with_fault_plan(
            p,
            FaultPlan::quiet(seed).with_drops(1.0),
        );
        u.set_recv_timeout(Duration::from_millis(100));
        let session = TraceSession::start(&u);
        let failures = u.run(|c| {
            let _root = span(&c, "run");
            // Same seed on every rank: collectives are a matched
            // schedule across the communicator.
            random_collectives(&c, seed, rounds)
        });
        let trace = session.finish();
        // With every send dropped, at least one rank must observe a
        // typed failure (barriers/bcasts/reduces all need the wire when
        // p > 1).
        prop_assert!(failures.iter().sum::<usize>() > 0, "drops went unnoticed");
        // Dropped messages are on the attempted ledger, not the
        // delivered one.
        prop_assert!(u.traffic().dropped.load(std::sync::atomic::Ordering::Relaxed) > 0);
        assert_partition(&trace, &u, p);
    }
}

/// Sessions are disjoint: spans recorded outside any session are
/// dropped, so a traced run's totals reflect that run only.
#[test]
fn sessions_isolate_their_traffic() {
    let p = 2usize;
    // Un-traced warm-up universe: nothing from here may leak into the
    // session below.
    let u0 = Universe::new(p);
    u0.run(|c| {
        let _ = c.allreduce(vec![1.0f64; 8], |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        });
    });

    let u = Universe::new(p);
    let session = TraceSession::start(&u);
    u.run(|c| {
        let _root = span(&c, "run");
        let _ = c.allreduce(vec![1.0f64; 8], |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        });
    });
    let trace = session.finish();
    assert_partition(&trace, &u, p);
    assert!(trace.totals().total_bytes() > 0);
}

/// A session records its own universe only: an untraced universe that
/// opens spans around collectives on another thread while the session
/// is open leaves the traced universe's partition exact. B's runs all
/// fall inside the session (it is opened before B's thread starts and
/// finished after the scope joins it), so no timing decides the result.
#[test]
fn concurrent_untraced_universe_stays_out_of_the_session() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let p = 2usize;
    let a = Universe::new(p);
    let session = TraceSession::start(&a);
    let a_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Untraced universe B, with the same world ranks as A: at
            // least one run, then more until A has finished.
            let b = Universe::new(p);
            loop {
                b.run(|c| {
                    let _root = span(&c, "run");
                    random_collectives(&c, 7, 3)
                });
                if a_done.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
        a.run(|c| {
            let _root = span(&c, "run");
            random_collectives(&c, 11, 6)
        });
        a_done.store(true, Ordering::SeqCst);
    });
    let trace = session.finish();
    assert_partition(&trace, &a, p);
    assert!(trace.totals().total_bytes() > 0);
}
