//! Control-plane trace synthesis (§7 of the paper).
//!
//! To synthesize a trace for `K` UEs starting at hour `H`, the engine runs
//! `K` independent per-UE generators. Each generator:
//!
//! 1. samples a **persona** — a modeled UE's per-hour cluster trajectory —
//!    so generators are distributed over clusters exactly like the modeled
//!    population;
//! 2. bootstraps from the **first-event model** of its cluster at hour `H`
//!    (trying successive hours while the model says the UE is silent);
//! 3. then drives the per-hour state machine with **two concurrent
//!    timers**: the top-level (EMM–ECM) timer and the second-level timer.
//!    Whenever the top level transitions, the bottom level drops its
//!    pending event, resets its timer, and restarts in the sub-machine of
//!    the new top state — exactly the paper's §7 semantics. For the
//!    EMM–ECM baseline methods the second level is replaced by overlaid
//!    `HO`/`TAU` inter-arrival processes, which is what makes those
//!    methods emit handovers in ECM-IDLE (the artifact Tables 4/11
//!    quantify).
//!
//! Sojourn times are sampled from the model of the hour in which the state
//! was entered; a state with no observed departures in that hour retries
//! with each subsequent hour's model. Per-UE event times are strictly
//! increasing; UE streams are merged into one sorted population trace.
//!
//! One engine merges those per-UE generators: the [`UePool`] radix heap
//! over packed integer keys. Three synthesis surfaces drive it and
//! produce byte-identical traces for the same [`GenConfig`]:
//!
//! * [`ShardedStream`] — the in-memory engine: disjoint UE shards on worker
//!   threads, bounded block channels, and a block-draining S-way merge.
//!   Execution is *adaptive*: at one effective shard (including every
//!   single-core box) it drains one [`UePool`] inline, spawning no threads.
//! * [`generate`] — materialize the whole trace: a drain of
//!   [`ShardedStream::new`] through [`ShardedStream::collect_trace`];
//! * [`generate_out_of_core`] — population-scale binary export under a
//!   bounded memory budget: UE-range chunks emit arena-encoded sorted
//!   runs that spill to temp files past the budget and k-way merge back
//!   into the sink as verbatim byte blocks (see [`outofcore`]).
//!
//! [`generate_reference`] is the test oracle for all three: each UE
//! materialized alone and the per-UE traces merged by
//! [`cn_trace::Trace::merge`], with no pool and no threads.
//!
//! Every "all cores" choice resolves through [`effective_parallelism`].
//!
//! The sharded pipeline is **failure-contained**: a panicked worker
//! surfaces as a typed [`StreamError`] through the fallible
//! [`ShardedStream::try_next`] / [`ShardedStream::finish`] API — never as
//! a silently truncated trace (see `shard` module docs, *Failure
//! semantics*, and the deterministic [`fault`] injection harness the
//! tier-1 suite drives it with).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fault;
pub mod outofcore;
pub mod per_ue;
pub mod pool;
pub mod shard;

pub use engine::{
    effective_parallelism, generate, generate_reference, ConfigError, GenConfig, HourSemantics,
};
pub use fault::FaultPlan;
pub use outofcore::{generate_out_of_core, OutOfCoreConfig, OutOfCoreReport};
pub use per_ue::{generate_ue, UeEventIter};
pub use pool::UePool;
pub use shard::{ShardedStream, StreamError, StreamStats, WorkerOutcome};
