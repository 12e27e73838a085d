//! Golden-trace hashing: the cross-engine, cross-run regression gate.
//!
//! Every generation surface — [`generate`], the [`ShardedStream`] at any
//! shard count, and the out-of-core exporter — must produce the trace of
//! the per-UE reference ([`generate_reference`]: each UE alone, merged by
//! `Trace::merge`, no `UePool`, no threads). This module turns
//! that guarantee into two executable checks:
//!
//! * **consistency** — hash the canonical binary serialization
//!   ([`cn_trace::io::to_binary`]) of the same small seeded trace produced
//!   by the reference, by [`generate`], by the sharded stream at shards
//!   {1, 8}, and by the out-of-core exporter with both an all-memory and a
//!   spill-everything budget — and demand a single hash;
//! * **stability** — compare that hash against a pinned value checked into
//!   `golden/hashes.json`, so a behavioral change to the generator, the
//!   model sampling order, or the vendored RNG stream fails loudly instead
//!   of silently shifting every downstream experiment. Re-bless
//!   intentionally changed hashes with `CN_VERIFY_BLESS=1`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cn_fit::ModelSet;
use cn_gen::{
    generate, generate_out_of_core, generate_reference, GenConfig, OutOfCoreConfig, ShardedStream,
};
use cn_obs::Registry;
use cn_trace::{PopulationMix, Timestamp, Trace};
use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hash of a trace's canonical binary serialization.
pub fn trace_hash(trace: &Trace) -> u64 {
    fnv1a64(&cn_trace::io::to_binary(trace))
}

/// One engine configuration and the hash it produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenCase {
    /// Engine name: `reference`, `generate`, `outofcore-*`, `sharded`, or
    /// a `scenario-*` overlay.
    pub engine: String,
    /// Shard count (sharded engine only; 0 elsewhere).
    pub shards: usize,
    /// Events in the produced trace.
    pub events: usize,
    /// FNV-1a 64 hash of the canonical serialization.
    pub hash: u64,
}

/// All cases of one golden run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenReport {
    /// Per-engine cases.
    pub cases: Vec<GoldenCase>,
    /// True when every case produced the same hash.
    pub consistent: bool,
}

impl GoldenReport {
    /// The common hash, when consistent and non-empty.
    pub fn hash(&self) -> Option<u64> {
        match (self.consistent, self.cases.first()) {
            (true, Some(c)) => Some(c.hash),
            _ => None,
        }
    }

    /// One line per case plus the consistency verdict.
    pub fn render(&self) -> String {
        let mut out = String::from("== golden trace hashes ==\n");
        for c in &self.cases {
            out.push_str(&format!(
                "{:<16} shards={}  events={}  {:#018x}\n",
                c.engine, c.shards, c.events, c.hash
            ));
        }
        out.push_str(if self.consistent {
            "all engines agree\n"
        } else {
            "ENGINE DIVERGENCE\n"
        });
        out
    }
}

/// The fixed small-population config every golden run uses: 40 UEs over
/// 2 hours. Small enough to hash in milliseconds, large enough to exercise
/// every transition, both shard paths, and the cross-hour boundary.
pub fn standard_config() -> GenConfig {
    GenConfig::new(
        PopulationMix::new(24, 8, 8),
        Timestamp::at_hour(0, 9),
        2.0,
        0xC0FF_EE00,
    )
}

/// Produce the same trace with every engine/shard combination and hash
/// each result.
pub fn run_golden(models: &ModelSet, config: &GenConfig) -> GoldenReport {
    run_golden_observed(models, config, &Registry::disabled())
}

/// As [`run_golden`], with the sharded cases generated through a live
/// `cn-obs` registry ([`ShardedStream::with_shards_observed`]).
///
/// Two things fall out of observing the golden run:
///
/// * the byte-identity gate now also proves instrumentation is inert —
///   an observed sharded trace hashing differently from the unobserved
///   engines would fail `consistent` immediately;
/// * when a golden gate *fails*, the registry holds the per-shard event
///   ledger of the exact run that diverged (`verify_model --metrics`
///   writes it out), so debugging starts from data, not a re-run.
///
/// Counters accumulate across cases: each sharded case adds its events to
/// `cn_gen_merge_events_total`, and only parallel cases (shards > 1)
/// populate the per-shard `cn_gen_shard_events_total` series.
///
/// The per-UE reference (the first case) fixes the expected workload
/// size. Sharded cases are drained through the fallible
/// [`ShardedStream::collect_trace`], so a worker failure or a short drain
/// aborts the gate loudly instead of hashing a truncated trace into an
/// "engine divergence".
pub fn run_golden_observed(
    models: &ModelSet,
    config: &GenConfig,
    registry: &Registry,
) -> GoldenReport {
    let mut cases = Vec::new();
    for (engine, trace) in [
        ("reference", generate_reference(models, config)),
        ("generate", generate(models, config)),
    ] {
        cases.push(GoldenCase {
            engine: engine.into(),
            shards: 0,
            events: trace.len(),
            hash: trace_hash(&trace),
        });
    }
    // Out-of-core export: hash the sink bytes directly (they are the
    // `to_binary` encoding, so the hash is comparable). Two extremes:
    // everything resident, and a zero budget that spills every non-empty
    // run to disk — spilling must never move a byte. The fine chunk size
    // exercises the k-way run merge, not just a single-run copy.
    for (tag, budget) in [("mem", usize::MAX), ("spill", 0usize)] {
        let occ = OutOfCoreConfig {
            chunk_ues: 7,
            buffer_budget_bytes: budget,
            temp_dir: None,
        };
        let (report, sink) =
            generate_out_of_core(models, config, &occ, std::io::Cursor::new(Vec::new()))
                .unwrap_or_else(|e| panic!("golden out-of-core ({tag}) run failed: {e}"));
        if budget == 0 {
            assert!(
                report.spilled_runs > 0,
                "golden spill case must actually spill (got {} runs, 0 spilled)",
                report.runs
            );
        }
        cases.push(GoldenCase {
            engine: format!("outofcore-{tag}"),
            shards: 0,
            events: report.events as usize,
            hash: fnv1a64(&sink.into_inner()),
        });
    }
    let expected_events = cases[0].events;
    for shards in [1usize, 8] {
        let trace = ShardedStream::with_shards_observed(models, config, shards, registry)
            .collect_trace()
            .unwrap_or_else(|e| panic!("golden sharded run (shards={shards}) failed: {e}"));
        assert_eq!(
            trace.len(),
            expected_events,
            "sharded (shards={shards}) drained {} events, expected {expected_events}",
            trace.len()
        );
        cases.push(GoldenCase {
            engine: "sharded".into(),
            shards,
            events: trace.len(),
            hash: trace_hash(&trace),
        });
    }
    let consistent = cases
        .windows(2)
        .all(|w| w[0].hash == w[1].hash && w[0].events == w[1].events);
    GoldenReport { cases, consistent }
}

/// Location of the pinned-hash file, inside the `cn-verify` crate so every
/// caller (tests anywhere in the workspace, the `verify_model` binary)
/// resolves the same file.
pub fn pinned_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("hashes.json")
}

fn read_pinned(path: &Path) -> BTreeMap<String, String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_default()
}

/// Compare `hash` against the pinned value under `key`.
///
/// With the environment variable `CN_VERIFY_BLESS` set, the pinned file is
/// rewritten with the new value instead and the check passes. A missing key
/// without blessing is an error: golden gates must never pass vacuously.
pub fn check_pinned(key: &str, hash: u64) -> Result<(), String> {
    check_pinned_at(
        &pinned_path(),
        key,
        hash,
        std::env::var_os("CN_VERIFY_BLESS").is_some(),
    )
}

/// [`check_pinned`] against an explicit file, with blessing as a parameter —
/// the testable core.
pub fn check_pinned_at(path: &Path, key: &str, hash: u64, bless: bool) -> Result<(), String> {
    let mut pinned = read_pinned(path);
    let formatted = format!("{hash:#018x}");
    if bless {
        pinned.insert(key.to_string(), formatted);
        let json = serde_json::to_string_pretty(&pinned).map_err(|e| e.to_string())?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(path, json + "\n").map_err(|e| e.to_string())?;
        return Ok(());
    }
    match pinned.get(key) {
        Some(expected) if *expected == formatted => Ok(()),
        Some(expected) => Err(format!(
            "golden hash mismatch for '{key}': pinned {expected}, got {formatted}. \
             If the generator change is intentional, re-bless with \
             CN_VERIFY_BLESS=1 (see TESTING.md)."
        )),
        None => Err(format!(
            "no pinned golden hash for '{key}' in {}. Run once with CN_VERIFY_BLESS=1 \
             to record {formatted}.",
            path.display()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hash_distinguishes_traces() {
        use cn_trace::{DeviceType, EventType, TraceRecord, UeId};
        let a = Trace::from_records(vec![TraceRecord::new(
            Timestamp::from_millis(10),
            UeId(1),
            DeviceType::Phone,
            EventType::Attach,
        )]);
        let b = Trace::from_records(vec![TraceRecord::new(
            Timestamp::from_millis(11),
            UeId(1),
            DeviceType::Phone,
            EventType::Attach,
        )]);
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_eq!(trace_hash(&a), trace_hash(&a));
    }

    #[test]
    fn pin_lifecycle_against_a_scratch_file() {
        let dir = std::env::temp_dir().join("cn-verify-golden-test");
        let path = dir.join("hashes.json");
        let _ = std::fs::remove_file(&path);
        // Missing pin without blessing: an error that names the remedy.
        let err = check_pinned_at(&path, "k", 0x1234, false).unwrap_err();
        assert!(err.contains("CN_VERIFY_BLESS"), "{err}");
        // Bless, then match, then mismatch.
        check_pinned_at(&path, "k", 0x1234, true).unwrap();
        check_pinned_at(&path, "k", 0x1234, false).unwrap();
        let err = check_pinned_at(&path, "k", 0x5678, false).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
