//! Acceptance-scale round-trip validation (the PR's headline gate).
//!
//! Generates 2,000 seeded UEs over 6 simulated hours from a fully known
//! ground-truth model, replays every event through the two-level machine
//! (demanding 100% acceptance), re-fits each transition's sojourn law from
//! the replayed trace, and requires every re-fit to pass the two-sample
//! K–S test at α = 0.01 against its ground truth. A companion test pins
//! the byte-identical-across-engines golden hash. The same checks run at
//! 5,000 UEs / 12 h via `cargo run --release -p cn-verify --bin
//! verify_model`; quick-scale variants live in `crates/cn-verify/tests/`.

use cn_verify::{check_pinned, run_golden, run_round_trip, GroundTruth, RoundTripConfig};

#[test]
fn acceptance_round_trip_recovers_the_ground_truth() {
    let gt = GroundTruth::standard(11);
    let cfg = RoundTripConfig::acceptance(2023);
    assert!(cfg.population.total() >= 2_000);
    assert!(cfg.duration_hours >= 6.0);
    assert_eq!(cfg.alpha, 0.01);

    let report = run_round_trip(&gt, &cfg);

    // 100% replay acceptance: the generator never emits an illegal event.
    assert_eq!(
        report.violations,
        0,
        "replay rejected events: {:?}\n{}",
        report.rejection_histogram,
        report.report.render()
    );
    assert_eq!(report.acceptance_rate, 1.0);

    // Every ground-truth transition was exercised, recovered, and gated:
    // 5 top-level + 6 second-level sojourn laws, each passing the
    // two-sample K–S test at α = 0.01 plus the probability tolerance band.
    assert_eq!(report.checks.len(), 11);
    for c in &report.checks {
        assert!(
            c.ks_pass,
            "{} ({}) failed its K-S gate: {:?} vs critical {:?} on n={}\n{}",
            c.label,
            c.level,
            c.ks,
            c.critical_d,
            c.n_observed,
            report.report.render()
        );
        assert!(
            c.prob_pass,
            "{} ({}) probability off: refit {} vs truth {}",
            c.label, c.level, c.prob_refit, c.prob_truth
        );
    }
    assert!(report.all_pass(), "{}", report.report.render());
}

#[test]
fn golden_hashes_are_engine_invariant_and_pinned() {
    let gt = GroundTruth::standard(11);
    let report = run_golden(&gt.set, &cn_verify::golden::standard_config());
    // per-UE reference, generate, out-of-core × budgets {all-memory,
    // spill-everything}, sharded × shards {1,8}.
    assert_eq!(report.cases.len(), 6);
    assert!(report.consistent, "{}", report.render());
    check_pinned("standard-v1", report.hash().expect("consistent"))
        .unwrap_or_else(|e| panic!("{e}"));
}
