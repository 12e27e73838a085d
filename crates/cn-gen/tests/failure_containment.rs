//! Tier-1 failure-containment suite: every injected worker fault must
//! surface as a typed [`StreamError`] — **never** as a silently truncated
//! trace — while the no-fault path stays byte-identical to the per-UE
//! reference ([`cn_gen::generate_reference`]).
//!
//! Faults are injected deterministically via [`cn_gen::FaultPlan`]
//! (`panic shard s at record k`, `slow shard`) through
//! [`ShardedStream::with_shards_faulted`]; the corrupt-sink leg of the
//! harness (`cn_trace::io::FailingWriter`) is exercised in `cn-trace`.
//! See TESTING.md § "Reading a failed run" for how the worker-exit
//! telemetry these tests assert on is meant to be used.

use cn_fit::{fit, FitConfig, Method, ModelSet};
use cn_gen::{generate_reference, FaultPlan, GenConfig, ShardedStream, StreamError, WorkerOutcome};
use cn_obs::Registry;
use cn_trace::{PopulationMix, Timestamp, TraceRecord};
use cn_world::{generate_world, WorldConfig};
use std::time::Duration;

fn fitted() -> ModelSet {
    let trace = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 2.0, 5));
    fit(&trace, &FitConfig::new(Method::Ours))
}

/// A workload whose shards each produce well over one channel block, so
/// mid-stream faults land *after* data has flowed.
fn big_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(240, 100, 60),
        Timestamp::at_hour(0, 9),
        3.0,
        2023,
    )
}

/// A small workload for spawn-time faults and byte-identity checks.
fn small_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(18, 8, 5),
        Timestamp::at_hour(0, 9),
        2.0,
        7,
    )
}

fn reference(models: &ModelSet, config: &GenConfig) -> Vec<TraceRecord> {
    generate_reference(models, config).into_records()
}

/// Drain a stream through the fallible API, returning the records pulled
/// before the terminal result.
fn drain(stream: &mut ShardedStream<'_>) -> (Vec<TraceRecord>, Result<(), StreamError>) {
    let mut records = Vec::new();
    loop {
        match stream.try_next() {
            Ok(Some(rec)) => records.push(rec),
            Ok(None) => return (records, Ok(())),
            Err(e) => return (records, Err(e)),
        }
    }
}

#[test]
fn mid_stream_panic_becomes_typed_error_never_a_short_trace() {
    let models = fitted();
    let config = big_config();
    let expected = reference(&models, &config);
    // Shard 1 of 2 must produce more than a full channel block, so the
    // fault fires after the consumer has already merged shipped data.
    assert!(
        expected.len() > 2 * 6000,
        "workload too small to place a post-block fault (got {} events)",
        expected.len()
    );
    let plan = FaultPlan::new().panic_shard_at(1, 5000);
    let mut stream =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let (prefix, result) = drain(&mut stream);
    let err = result.expect_err("an injected panic must surface as a StreamError");
    let StreamError::WorkerPanicked { shard, payload } = &err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 1, "the error names the faulted shard");
    assert!(
        payload.contains("injected fault"),
        "payload kept: {payload}"
    );
    // Some records flowed (the fault was genuinely mid-stream), the
    // stream did NOT pose as complete, and everything emitted before the
    // failure is a verbatim prefix of the true sequence.
    assert!(!prefix.is_empty(), "fault should land after data flowed");
    assert!(prefix.len() < expected.len());
    assert_eq!(prefix[..], expected[..prefix.len()]);
    // Poisoned: the error repeats, and finish refuses to report success.
    assert_eq!(stream.try_next(), Err(err.clone()));
    assert_eq!(stream.error(), Some(&err));
    assert_eq!(stream.finish(), Err(err));
}

#[test]
fn spawn_time_panic_poisons_before_any_record() {
    let models = fitted();
    let config = small_config();
    for shard in 0..3 {
        let plan = FaultPlan::new().panic_shard_at(shard, 0);
        let mut stream =
            ShardedStream::with_shards_faulted(&models, &config, 3, &Registry::disabled(), &plan);
        let (prefix, result) = drain(&mut stream);
        assert!(
            prefix.is_empty(),
            "no record may precede a spawn-time fault"
        );
        let err = result.expect_err("spawn-time panic must be typed");
        let StreamError::WorkerPanicked { shard: s, .. } = &err else {
            panic!("expected WorkerPanicked, got {err}");
        };
        assert_eq!(*s, shard);
    }
}

#[test]
fn panic_in_an_unneeded_shard_still_fails_finish() {
    // The consumer stops early, so the merge never reaches the fault —
    // finish() must still refuse to report success: shard 2's worker
    // panicked at startup, before it could even be cancelled.
    let models = fitted();
    let config = small_config();
    let plan = FaultPlan::new().panic_shard_at(2, 0);
    let stream =
        ShardedStream::with_shards_faulted(&models, &config, 3, &Registry::disabled(), &plan);
    // Pull nothing; just wind down.
    let err = stream
        .finish()
        .expect_err("a panicked worker is an error even if its records were never pulled");
    let StreamError::WorkerPanicked { shard, .. } = &err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 2);
}

#[test]
fn collect_trace_returns_the_typed_error_and_no_partial_trace() {
    let models = fitted();
    let config = big_config();
    let plan = FaultPlan::new().panic_shard_at(1, 5000);
    let stream =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let err = stream
        .collect_trace()
        .expect_err("a worker panic must fail the whole drain");
    let StreamError::WorkerPanicked { shard, payload } = &err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 1);
    assert!(
        payload.contains("injected fault"),
        "payload kept: {payload}"
    );

    // The same drain without a fault is the complete reference trace.
    let clean = ShardedStream::with_shards_faulted(
        &models,
        &config,
        2,
        &Registry::disabled(),
        &FaultPlan::new(),
    )
    .collect_trace()
    .expect("no fault injected");
    assert_eq!(clean.into_records(), reference(&models, &config));
}

#[test]
fn iterator_fuses_and_poisons_instead_of_ending_cleanly() {
    let models = fitted();
    let config = big_config();
    let expected = reference(&models, &config);
    let plan = FaultPlan::new().panic_shard_at(0, 5000);
    let mut stream =
        ShardedStream::with_shards_faulted(&models, &config, 2, &Registry::disabled(), &plan);
    let collected: Vec<TraceRecord> = stream.by_ref().collect();
    // The iterator cannot return the error, but it must not pretend the
    // trace was complete either: it ends early AND leaves the typed
    // error readable (poisoned), fused at None.
    assert!(collected.len() < expected.len());
    assert_eq!(collected[..], expected[..collected.len()]);
    let err = stream
        .error()
        .expect("iterator end must leave the error readable");
    let StreamError::WorkerPanicked { shard, .. } = err else {
        panic!("expected WorkerPanicked, got {err}");
    };
    assert_eq!(*shard, 0);
    assert_eq!(stream.next(), None, "poisoned stream stays fused");
}

#[test]
fn no_fault_plan_is_byte_identical_to_the_reference() {
    let models = fitted();
    let config = small_config();
    let expected = reference(&models, &config);
    for shards in [2usize, 3, 8] {
        let mut stream = ShardedStream::with_shards_faulted(
            &models,
            &config,
            shards,
            &Registry::disabled(),
            &FaultPlan::new(),
        );
        let (records, result) = drain(&mut stream);
        result.expect("no fault injected");
        assert_eq!(records, expected, "{shards} shards diverged");
        let stats = stream.finish().expect("clean run");
        assert_eq!(stats.events, expected.len() as u64);
        assert!(stats
            .outcomes
            .iter()
            .all(|o| matches!(o, WorkerOutcome::Completed { .. })));
    }
}

#[test]
fn slow_shard_delays_but_never_corrupts_or_fails() {
    let models = fitted();
    let config = small_config();
    let expected = reference(&models, &config);
    let plan = FaultPlan::new().slow_shard(0, Duration::from_millis(2));
    let mut stream =
        ShardedStream::with_shards_faulted(&models, &config, 3, &Registry::disabled(), &plan);
    let (records, result) = drain(&mut stream);
    result.expect("slowness is not a failure");
    assert_eq!(records, expected);
    let stats = stream.finish().expect("clean run");
    assert_eq!(stats.events, expected.len() as u64);
}

#[test]
fn abandoned_stream_with_blocked_worker_is_cancelled_not_panicked() {
    // Satellite: Drop under an abandoned mid-run stream whose workers are
    // blocked on full channels — must not deadlock, and the recorded
    // outcome must be `Cancelled`, not `Panicked`.
    let models = fitted();
    // A deliberately oversized workload: each shard must hold far more
    // records than its channel can ever buffer.
    let config = GenConfig::new(
        PopulationMix::new(480, 200, 120),
        Timestamp::at_hour(0, 9),
        24.0,
        2023,
    );
    let total = reference(&models, &config).len();
    // Each of the 2 shards holds far more records than the channel can
    // buffer (1 block drained at spawn + CHANNEL_BLOCKS queued), so the
    // workers are guaranteed to be blocked, mid-run, when we abandon.
    assert!(
        total > 2 * 2 * (cn_gen::shard::CHANNEL_BLOCKS + 2) * cn_gen::shard::BLOCK_RECORDS,
        "workload too small to guarantee blocked workers (got {total} events)"
    );
    let registry = Registry::new();
    let mut stream = ShardedStream::with_shards_observed(&models, &config, 2, &registry);
    for _ in 0..10 {
        assert!(stream.next().is_some(), "workload starts with records");
    }
    drop(stream); // must return promptly: disconnect wakes blocked senders
    let snap = registry.snapshot();
    let outcome = |o: &str| {
        snap.get("cn_gen_worker_exit", &[("outcome", o)])
            .map(|m| match m.value {
                cn_obs::MetricValue::Counter { value } => value,
                _ => panic!("worker exit must be a counter"),
            })
    };
    assert_eq!(outcome("cancelled"), Some(2), "both workers were cancelled");
    assert_eq!(outcome("panicked"), None, "cancellation is not a panic");
    assert_eq!(outcome("completed"), None);
    assert_eq!(snap.counter_total("cn_gen_shard_panics_total"), None);
}

#[test]
fn panicked_run_records_failure_telemetry() {
    // The obs ledger cannot balance after a fault — instead it must say
    // *why*: one panicked exit, the panicking shard named.
    let models = fitted();
    let config = big_config();
    let plan = FaultPlan::new().panic_shard_at(1, 5000);
    let registry = Registry::new();
    let mut stream = ShardedStream::with_shards_faulted(&models, &config, 2, &registry, &plan);
    let (_, result) = drain(&mut stream);
    assert!(result.is_err());
    drop(stream);
    let snap = registry.snapshot();
    let panicked = snap
        .get("cn_gen_worker_exit", &[("outcome", "panicked")])
        .map(|m| m.value.clone());
    assert_eq!(panicked, Some(cn_obs::MetricValue::Counter { value: 1 }));
    assert_eq!(
        snap.get("cn_gen_shard_panics_total", &[("shard", "1")])
            .map(|m| m.value.clone()),
        Some(cn_obs::MetricValue::Counter { value: 1 }),
        "the panicking shard is named in the ledger"
    );
    // Exactly two workers exited, one way or another.
    let exits: u64 = ["completed", "panicked", "cancelled"]
        .iter()
        .filter_map(|o| snap.get("cn_gen_worker_exit", &[("outcome", o)]))
        .map(|m| match m.value {
            cn_obs::MetricValue::Counter { value } => value,
            _ => 0,
        })
        .sum();
    assert_eq!(exits, 2);
}
