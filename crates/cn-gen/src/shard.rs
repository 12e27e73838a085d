//! Sharded population streaming with adaptive execution: the in-memory
//! generation engine.
//!
//! [`ShardedStream`] partitions the population into
//! `S` disjoint UE shards (striped — UE `i` belongs to shard `i mod S` —
//! so the device-type mix, and with it the per-UE event rate, balances
//! across workers). Each shard runs on its own worker thread, merging its
//! live per-UE generators through a compact struct-of-arrays [`UePool`]
//! (see [`crate::pool`]) into a time-sorted run that is shipped to the
//! consumer as fixed-size record blocks over a bounded SPSC channel. The
//! consumer performs the final S-way merge over the shard runs.
//!
//! ### Adaptive execution
//!
//! A single shard *is* the sequential merge, so `S == 1` (an explicit
//! `with_shards(.., 1)`, a one-UE population, or [`ShardedStream::new`] on
//! a single-core box — [`crate::effective_parallelism`] decides) drains one
//! [`UePool`] **inline on the caller's thread**: no worker
//! threads, no channels, no model clone. The sharded API is therefore
//! never slower than a bare pool drain; threads and channels are only paid
//! for when there is parallelism to buy with them.
//! [`ShardedStream::is_inline`] / [`ShardedStream::worker_threads`] expose
//! which path engaged.
//!
//! ### Block-drain merge
//!
//! The consumer-side merge does not hop through the tournament tree per
//! record. When shard `w` wins, the tree also knows the *runner-up* — the
//! head that would win were `w`'s run exhausted ([`LoserTree::runner_up`],
//! one ⌈log₂S⌉ walk). Every buffered record of `w` that precedes that
//! bound is part of `w`'s current **run** and is emitted by direct block
//! indexing, one comparison each (found by galloping + binary search, so
//! short runs cost O(1)); the tree is then advanced **once per run**
//! ([`LoserTree::replace_run`]) instead of once per record, amortizing
//! both the replay and the per-record channel bookkeeping.
//!
//! ### Determinism
//!
//! The output is **byte-identical** for any shard count, and equal to the
//! per-UE reference ([`crate::generate_reference`]):
//!
//! * every UE's stream is a pure function of `(seed, ue)` — the shard a UE
//!   lands on does not touch its RNG;
//! * record order is a strict total order (time, then UE, then event; a
//!   UE's own events have strictly increasing timestamps), so the globally
//!   sorted sequence is unique — *any* correct merge tree yields it;
//! * each shard run is a sorted subsequence of that global sequence, and
//!   the consumer-side merge restores it exactly (run boundaries respect
//!   the same tie-break — lower shard index first — the tree uses).
//!
//! ### Backpressure & memory
//!
//! Workers block once their channel holds [`CHANNEL_BLOCKS`] undelivered
//! blocks, so a slow consumer (e.g. a disk writer) bounds the pipeline at
//! `S × CHANNEL_BLOCKS × BLOCK_RECORDS` buffered records plus the
//! O(population) generator states — independent of trace length.
//!
//! Deadlock freedom holds because every shard has a *dedicated* worker:
//! the consumer only ever blocks on the one channel whose run it needs
//! next, and that channel's producer never waits on anything but the same
//! channel's free space.
//!
//! ### Failure semantics
//!
//! A trace that ends early is indistinguishable from a complete one by
//! looking at the records alone — so a worker failure must never be able
//! to masquerade as clean exhaustion. Every worker runs its loop under
//! [`std::panic::catch_unwind`] and publishes a terminal
//! [`WorkerOutcome`] through a per-shard control slot *before* its data
//! channel disconnects:
//!
//! * [`WorkerOutcome::Completed`] — the shard generated and shipped every
//!   one of its records;
//! * [`WorkerOutcome::Panicked`] — the worker's loop panicked; the
//!   payload is preserved;
//! * [`WorkerOutcome::Cancelled`] — the worker's send failed because the
//!   consumer hung up (an abandoned stream), the deliberate wind-down.
//!
//! The consumer reads the slot whenever a channel disconnects, so a
//! panicked shard surfaces as a typed [`StreamError::WorkerPanicked`]
//! instead of being merged out as "exhausted". The fallible surface is
//! [`ShardedStream::try_next`] plus [`ShardedStream::finish`] (which
//! joins the workers and refuses to report success if any of them
//! panicked), and [`ShardedStream::collect_trace`], which drains through
//! both. The plain [`Iterator`] impl cannot return errors, so it
//! **fuses and poisons**: after a failure it yields `None` forever, the
//! error stays readable via [`ShardedStream::error`], and dropping the
//! stream records every worker's exit — `cn_gen_worker_exit{outcome=…}`
//! and `cn_gen_shard_panics_total{shard=…}` when a registry is attached —
//! rather than swallowing the join results. Faults are injected
//! deterministically in tests via [`crate::fault::FaultPlan`] and
//! [`ShardedStream::with_shards_faulted`]; the production constructors
//! monomorphize the fault hook to [`NoFault`], which compiles to nothing.
//!
//! ### Observability
//!
//! The `*_observed` constructors take a [`cn_obs::Registry`] and light up
//! the pipeline's telemetry — per-shard ship counters and channel-full
//! stall time, the merge run-length histogram, worker exit outcomes, and
//! mode gauges (see [`ShardedStream::with_shards_observed`] for the full
//! metric list). Once a stream is fully drained, the summed
//! `cn_gen_shard_events_total{shard=i}` counters equal
//! `cn_gen_merge_events_total` — the invariant `gen_bench --metrics`
//! re-checks on every CI run; when a run fails instead, the
//! `cn_gen_worker_exit` ledger says which workers ended how. All counting
//! is per block (workers) or batched locally per run and flushed in
//! [`BLOCK_RECORDS`]-scale windows (consumer merge — see `MergeObs`),
//! so the per-record hot paths touch no shared memory; with a disabled
//! registry the handles are no-ops and the unobserved constructors
//! delegate here with exactly that.

use crate::engine::{effective_parallelism, GenConfig};
use crate::fault::{FaultHook, FaultPlan, NoFault};
use crate::pool::UePool;
use cn_fit::ModelSet;
use cn_obs::{Counter, Histogram, HistogramSnapshot, Registry, TraceSink, TraceSpan};
use cn_trace::{LoserTree, Trace, TraceRecord};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Records per channel block (~64 KiB of `TraceRecord`s: large enough to
/// amortize channel synchronization, small enough to keep the pipeline
/// responsive).
pub const BLOCK_RECORDS: usize = 4096;

/// Blocks buffered per shard channel before its worker blocks.
pub const CHANNEL_BLOCKS: usize = 4;

/// How a shard worker's run ended, published through its control slot
/// before the data channel disconnects (see module docs, *Failure
/// semantics*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The worker generated and shipped all `events` of its records.
    Completed {
        /// Records this shard shipped to the consumer.
        events: u64,
    },
    /// The worker's generation loop panicked; `payload` is the panic
    /// message (or a placeholder for non-string payloads).
    Panicked {
        /// The stringified panic payload.
        payload: String,
    },
    /// The worker stopped because the consumer hung up (the stream was
    /// dropped or finished early) — the deliberate wind-down, not a
    /// failure.
    Cancelled,
}

impl WorkerOutcome {
    /// The `outcome` label value used for `cn_gen_worker_exit`.
    pub fn label(&self) -> &'static str {
        match self {
            WorkerOutcome::Completed { .. } => "completed",
            WorkerOutcome::Panicked { .. } => "panicked",
            WorkerOutcome::Cancelled => "cancelled",
        }
    }
}

/// A failure of the sharded pipeline, surfaced by
/// [`ShardedStream::try_next`] / [`ShardedStream::finish`]. Once
/// returned, the stream is *poisoned*: every further `try_next` repeats
/// the error and the `Iterator` impl yields `None` (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A shard worker panicked; the records it had not yet shipped are
    /// lost, so the stream refuses to pose as cleanly exhausted.
    WorkerPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
        /// The worker's panic payload.
        payload: String,
    },
    /// A spill or export I/O operation of the out-of-core pipeline failed
    /// ([`crate::generate_out_of_core`]). The same containment contract as
    /// a worker panic applies: the failure is surfaced as this typed error
    /// and the export sink is left in the finish-or-recover state — never
    /// posing as a complete trace.
    Io {
        /// Pipeline stage that failed: `spill-create`, `spill-write`,
        /// `spill-read`, `export-header`, `export-write`, or
        /// `export-finish`.
        stage: &'static str,
        /// The underlying I/O error, stringified (keeps the error `Clone`
        /// and comparable for tests).
        message: String,
    },
    /// A live-service consumer (`cn-live`) fell behind its bounded send
    /// queue and record frames addressed to it were dropped. The wire
    /// stream carries an explicit gap marker at the drop position and the
    /// consumer's terminal verdict is this typed error — honest
    /// degradation, never a silently truncated or reordered stream.
    ConsumerLagged {
        /// Id of the lagging consumer (the live server's accept order).
        consumer: usize,
        /// Number of record frames dropped for this consumer.
        dropped: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::WorkerPanicked { shard, payload } => {
                write!(f, "shard {shard} worker panicked: {payload}")
            }
            StreamError::Io { stage, message } => {
                write!(f, "out-of-core {stage} I/O failure: {message}")
            }
            StreamError::ConsumerLagged { consumer, dropped } => {
                write!(
                    f,
                    "live consumer {consumer} lagged: {dropped} record frames dropped"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// What a fully wound-down stream reports from
/// [`ShardedStream::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamStats {
    /// Records this stream handed to the consumer.
    pub events: u64,
    /// Terminal state of each shard worker, indexed by shard. Empty on
    /// the inline path (no workers exist).
    pub outcomes: Vec<WorkerOutcome>,
}

/// One shard's endpoint on the consumer side: the receive handle plus a
/// cursor over the block currently being drained, and the worker's
/// control slot for telling clean exhaustion apart from a crash.
///
/// Invariant while the shard is live: the merge tree's head for this shard
/// equals `block[pos]`, the shard's next undelivered record.
struct ShardCursor {
    shard: usize,
    rx: Receiver<Vec<TraceRecord>>,
    block: Vec<TraceRecord>,
    pos: usize,
    outcome: Arc<OnceLock<WorkerOutcome>>,
}

impl ShardCursor {
    /// The record at `pos` — this shard's next merge head — receiving the
    /// next block when the current one is exhausted; `Ok(None)` once the
    /// worker has **completed** and every block is drained, and a typed
    /// error when the channel disconnected for any other reason.
    fn head(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        loop {
            if let Some(&rec) = self.block.get(self.pos) {
                return Ok(Some(rec));
            }
            match self.rx.recv() {
                Ok(block) => {
                    self.block = block;
                    self.pos = 0;
                }
                Err(_) => {
                    // The worker is gone; its outcome was published
                    // before the channel disconnected, so the slot is
                    // authoritative here.
                    return match self.outcome.get() {
                        Some(WorkerOutcome::Completed { .. }) => Ok(None),
                        Some(WorkerOutcome::Panicked { payload }) => {
                            Err(StreamError::WorkerPanicked {
                                shard: self.shard,
                                payload: payload.clone(),
                            })
                        }
                        // `Cancelled` is only set after *this receiver*
                        // was dropped, so a live cursor can never see it;
                        // treat it — and a missing outcome — as the
                        // worker vanishing, which is a failure.
                        Some(WorkerOutcome::Cancelled) | None => Err(StreamError::WorkerPanicked {
                            shard: self.shard,
                            payload: "worker exited without publishing an outcome".into(),
                        }),
                    };
                }
            }
        }
    }
}

/// A globally time-ordered population event stream produced by parallel
/// shard workers — or, at one shard, by one [`UePool`] drained inline
/// (see module docs).
///
/// ```no_run
/// use cn_gen::{GenConfig, ShardedStream};
/// # let models: cn_fit::ModelSet = unimplemented!();
/// # let config: GenConfig = unimplemented!();
/// // Failure-contained consumption: a worker panic becomes a typed
/// // error instead of a silently truncated trace.
/// let mut stream = ShardedStream::new(&models, &config);
/// while let Some(record) = stream.try_next()? {
///     let _ = record;
/// }
/// let stats = stream.finish()?;
/// println!("complete: {} events", stats.events);
/// # Ok::<(), cn_gen::StreamError>(())
/// ```
pub struct ShardedStream<'m> {
    inner: Inner<'m>,
}

enum Inner<'m> {
    /// Single-shard fast path: one pool drained on the caller's thread. The
    /// unobserved variant is a pure delegation — splitting it from
    /// [`Inner::InlineObserved`] keeps the default path's per-record cost
    /// at an emitted-count increment (the `--gate 0.95` benchmark floor
    /// leaves no budget for more).
    Inline {
        pool: UePool<'m>,
        /// Records emitted so far (feeds [`ShardedStream::finish`]).
        emitted: u64,
    },
    /// The inline fast path with a live registry attached.
    InlineObserved {
        pool: UePool<'m>,
        /// `cn_gen_merge_events_total`, fed from `pending` in batches so
        /// the observed inline hot path pays one plain add per record,
        /// not one atomic op (flushed every [`BLOCK_RECORDS`], at
        /// exhaustion, and on drop).
        events: Counter,
        pending: u64,
        /// Records emitted so far (feeds [`ShardedStream::finish`]).
        emitted: u64,
    },
    /// Worker threads + block channels + consumer-side S-way merge.
    Parallel(ParallelStream),
}

/// Merged events between flushes of the locally batched merge telemetry.
/// Small enough that an abandoned snapshot read misses little, large
/// enough that a fine-grained interleave (runs of 1–2 records) amortizes
/// its shared-counter traffic over tens of thousands of records.
const OBS_FLUSH_EVENTS: u64 = (BLOCK_RECORDS * 16) as u64;

/// Consumer-side merge telemetry (no-op handles when unobserved).
///
/// The shared handles are **never touched per run**: `begin_run`
/// accumulates into the plain local fields and [`MergeObs::flush`] folds
/// them into the registry every [`OBS_FLUSH_EVENTS`] merged events, at
/// exhaustion, on poisoning, and at shutdown. A fine-grained shard
/// interleave degenerates to runs of a record or two, so per-run atomic
/// updates were measurably on the hot path (the BENCH_gen.json
/// `instrumented` point sat below the 0.95 gate); batching restores the
/// invariant that instrumentation costs O(events / flush-window), not
/// O(runs).
struct MergeObs {
    /// `cn_gen_merge_events_total` — records handed to the consumer.
    events: Counter,
    /// `cn_gen_merge_run_len` — length of each block-drained run: long
    /// runs mean the merge is amortizing well, a spike of 1s means the
    /// shards are interleaving record-by-record.
    run_len: Histogram,
    /// Whether a live registry or trace sink is attached (skip all
    /// local bookkeeping otherwise, keeping the unobserved path
    /// untouched).
    active: bool,
    /// Locally accumulated event count since the last flush.
    pending_events: u64,
    /// Locally accumulated run-length observations since the last flush.
    pending_runs: HistogramSnapshot,
    /// The global trace sink, resolved once at registration.
    trace: TraceSink,
    /// One trace span per flush window (`cn_gen_merge_window`) — the
    /// same granularity the batched telemetry flushes at, so tracing
    /// adds nothing to the per-run path beyond an `is_none` check.
    window_span: Option<TraceSpan>,
}

impl MergeObs {
    fn register(registry: &Registry) -> MergeObs {
        let events = registry.counter("cn_gen_merge_events_total");
        let trace = cn_obs::trace::global();
        let active = events.is_enabled() || trace.is_enabled();
        MergeObs {
            events,
            run_len: registry.histogram("cn_gen_merge_run_len"),
            active,
            pending_events: 0,
            pending_runs: HistogramSnapshot::new(),
            trace,
            window_span: None,
        }
    }

    /// Account one block-drained run locally (no shared-memory traffic);
    /// flush when the window fills.
    #[inline]
    fn on_run(&mut self, len: u64) {
        if !self.active {
            return;
        }
        if self.trace.is_enabled() && self.window_span.is_none() {
            self.window_span = Some(self.trace.span("cn_gen_merge_window"));
        }
        self.pending_events += len;
        self.pending_runs.record(len);
        if self.pending_events >= OBS_FLUSH_EVENTS {
            self.flush();
        }
    }

    /// Fold the locally batched counts into the shared registry handles
    /// and close the window's trace span.
    fn flush(&mut self) {
        if !self.active {
            return;
        }
        drop(self.window_span.take());
        if self.pending_events > 0 {
            self.events.add(std::mem::take(&mut self.pending_events));
        }
        if self.pending_runs.count > 0 {
            self.run_len.merge_snapshot(&self.pending_runs);
            self.pending_runs = HistogramSnapshot::new();
        }
    }
}

/// The multi-worker pipeline behind [`ShardedStream`] at `S ≥ 2`.
struct ParallelStream {
    shards: Vec<ShardCursor>,
    tree: LoserTree<TraceRecord>,
    /// Shard whose current run is being drained (valid while `run_len > 0`).
    run: usize,
    /// Unemitted records of the current run; all of them precede every
    /// other shard's head, so they bypass the tree entirely.
    run_len: usize,
    /// Records handed to the consumer so far.
    emitted: u64,
    /// The first worker failure observed; once set, the stream emits
    /// nothing further (poisoned — see module docs).
    poisoned: Option<StreamError>,
    obs: MergeObs,
    /// Per-shard control slots (also referenced by the cursors), read at
    /// shutdown after the cursors are gone.
    slots: Vec<Arc<OnceLock<WorkerOutcome>>>,
    /// Worker outcomes, collected exactly once at shutdown.
    collected: Option<Vec<WorkerOutcome>>,
    registry: Registry,
    workers: Vec<JoinHandle<()>>,
    /// Open from spawn to shutdown (`cn_gen_parallel_stream`): the
    /// umbrella under which merge windows nest in the timeline. Boxed
    /// to keep the stream enum's parallel variant lean.
    stream_span: Option<Box<TraceSpan>>,
}

impl<'m> ShardedStream<'m> {
    /// Stream `config`'s population with one shard per core
    /// ([`crate::effective_parallelism`]); use
    /// [`ShardedStream::with_shards`] for an explicit count.
    pub fn new(models: &'m ModelSet, config: &GenConfig) -> ShardedStream<'m> {
        Self::new_observed(models, config, &Registry::disabled())
    }

    /// As [`ShardedStream::new`], recording pipeline telemetry into
    /// `registry` (see [`ShardedStream::with_shards_observed`] for the
    /// metrics emitted).
    pub fn new_observed(
        models: &'m ModelSet,
        config: &GenConfig,
        registry: &Registry,
    ) -> ShardedStream<'m> {
        Self::with_shards_observed(models, config, effective_parallelism(), registry)
    }

    /// As [`ShardedStream::new`] with an explicit shard count. One shard
    /// (after clamping to the population size) engages the inline
    /// single-pool fast path; two or more spawn worker threads, cloning the
    /// model set once so the workers can outlive the caller's borrow.
    pub fn with_shards(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
    ) -> ShardedStream<'m> {
        Self::with_shards_observed(models, config, shards, &Registry::disabled())
    }

    /// As [`ShardedStream::with_shards`], recording pipeline telemetry
    /// into `registry`:
    ///
    /// * `cn_gen_shard_events_total{shard=i}` / `_blocks_total{shard=i}` —
    ///   records and blocks each worker shipped;
    /// * `cn_gen_shard_stall_ns_total{shard=i}` — time the worker spent
    ///   blocked on a full channel (consumer backpressure);
    /// * `cn_gen_merge_events_total` — records the consumer-side merge
    ///   emitted (equals the summed per-shard counters once the stream
    ///   is fully drained);
    /// * `cn_gen_merge_run_len` — histogram of block-drain run lengths;
    /// * `cn_gen_shard_mode_parallel` / `cn_gen_shard_workers` — gauges
    ///   exposing which execution path engaged;
    /// * `cn_gen_worker_exit{outcome=completed|panicked|cancelled}` —
    ///   one increment per worker at wind-down ([`ShardedStream::finish`]
    ///   or drop), plus `cn_gen_shard_panics_total{shard=i}` for each
    ///   panicked worker.
    ///
    /// With a disabled registry every handle is a no-op and the pipeline
    /// is byte-for-byte the unobserved one (the stall timer is not even
    /// read).
    pub fn with_shards_observed(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
        registry: &Registry,
    ) -> ShardedStream<'m> {
        Self::build(models, config, shards, registry, |_| NoFault)
    }

    /// **Test support** — as [`ShardedStream::with_shards_observed`], with
    /// a deterministic [`FaultPlan`] injected into the shard workers (see
    /// [`crate::fault`]). Production code has no reason to call this; the
    /// tier-1 failure-containment suite uses it to prove every injected
    /// fault surfaces as a typed [`StreamError`].
    ///
    /// Panics if the plan is non-empty but the stream resolves to the
    /// inline path (fault injection targets worker threads, and a silently
    /// un-injected fault would make a test vacuous).
    pub fn with_shards_faulted(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
        registry: &Registry,
        plan: &FaultPlan,
    ) -> ShardedStream<'m> {
        let effective = shards.clamp(1, (config.population.total() as usize).max(1));
        assert!(
            effective >= 2 || plan.is_empty(),
            "fault injection requires the parallel path (≥ 2 effective shards), got {effective}"
        );
        Self::build(models, config, shards, registry, |shard| {
            plan.for_shard(shard)
        })
    }

    /// Shared constructor: clamp, choose the execution path, and spawn
    /// workers with `fault_for(shard)` as their (monomorphized) fault
    /// hook — [`NoFault`] for every production caller.
    fn build<F: FaultHook>(
        models: &'m ModelSet,
        config: &GenConfig,
        shards: usize,
        registry: &Registry,
        fault_for: impl Fn(usize) -> F,
    ) -> ShardedStream<'m> {
        let shards = shards.clamp(1, (config.population.total() as usize).max(1));
        let mode = registry.gauge("cn_gen_shard_mode_parallel");
        let workers = registry.gauge("cn_gen_shard_workers");
        if shards == 1 {
            mode.set(0);
            workers.set(0);
            let pool = UePool::new(models, config, 0..config.population.total());
            let inner = if registry.is_enabled() {
                Inner::InlineObserved {
                    pool,
                    events: registry.counter("cn_gen_merge_events_total"),
                    pending: 0,
                    emitted: 0,
                }
            } else {
                Inner::Inline { pool, emitted: 0 }
            };
            return ShardedStream { inner };
        }
        mode.set(1);
        workers.set(shards as u64);
        ShardedStream {
            inner: Inner::Parallel(ParallelStream::spawn(
                Arc::new(models.clone()),
                config,
                shards,
                registry,
                fault_for,
            )),
        }
    }

    /// True when this stream runs on the caller's thread (the single-shard
    /// fast path): no worker threads, no channels were created.
    pub fn is_inline(&self) -> bool {
        matches!(
            self.inner,
            Inner::Inline { .. } | Inner::InlineObserved { .. }
        )
    }

    /// Number of worker threads backing this stream — `0` on the inline
    /// fast path, the shard count otherwise.
    pub fn worker_threads(&self) -> usize {
        match &self.inner {
            Inner::Inline { .. } | Inner::InlineObserved { .. } => 0,
            Inner::Parallel(p) => p.workers.len(),
        }
    }

    /// Number of shards that still have records pending (the inline path
    /// counts as one shard until it drains).
    pub fn live_shards(&self) -> usize {
        match &self.inner {
            Inner::Inline { pool, .. } | Inner::InlineObserved { pool, .. } => {
                usize::from(pool.live() > 0)
            }
            Inner::Parallel(p) => p.tree.live(),
        }
    }

    /// The failure that poisoned this stream, if any. Set as soon as a
    /// worker failure is observed — including when it was observed through
    /// the plain [`Iterator`] interface, which can only signal it by
    /// ending (`None`); check this afterwards, or use
    /// [`ShardedStream::try_next`] / [`ShardedStream::finish`] to get the
    /// error directly.
    pub fn error(&self) -> Option<&StreamError> {
        match &self.inner {
            Inner::Parallel(p) => p.poisoned.as_ref(),
            _ => None,
        }
    }

    /// The fallible pull: `Ok(Some(record))` while records flow,
    /// `Ok(None)` on clean exhaustion, and `Err` when a worker failed —
    /// at which point the stream is poisoned and every further call
    /// repeats the error. The inline path cannot fail (no workers, no
    /// channels) and always returns `Ok`.
    #[inline]
    pub fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        match &mut self.inner {
            Inner::Inline { pool, emitted } => {
                let rec = pool.next_record();
                if rec.is_some() {
                    *emitted += 1;
                }
                Ok(rec)
            }
            Inner::InlineObserved {
                pool,
                events,
                pending,
                emitted,
            } => match pool.next_record() {
                Some(rec) => {
                    *pending += 1;
                    *emitted += 1;
                    if *pending >= BLOCK_RECORDS as u64 {
                        events.add(std::mem::take(pending));
                    }
                    Ok(Some(rec))
                }
                None => {
                    events.add(std::mem::take(pending));
                    Ok(None)
                }
            },
            Inner::Parallel(p) => p.try_next_record(),
        }
    }

    /// Wind the stream down and account for every worker: joins the
    /// worker threads, records their exit outcomes (and the
    /// `cn_gen_worker_exit` / `cn_gen_shard_panics_total` counters when
    /// observed), and returns the stream's statistics — or the
    /// [`StreamError`] if the stream was poisoned **or any worker turns
    /// out to have panicked**, even one whose records were never needed
    /// by the merge.
    ///
    /// Calling `finish` before draining the stream is a *deliberate* early
    /// stop: still-running workers are cancelled (reported as
    /// [`WorkerOutcome::Cancelled`], not as failures) and `events` counts
    /// what was actually emitted. A complete, failure-free export is
    /// therefore exactly: drain `try_next` to `Ok(None)`, then `finish()?`.
    pub fn finish(mut self) -> Result<StreamStats, StreamError> {
        self.finish_in_place()
    }

    /// Drain the whole stream into a [`Trace`]: [`ShardedStream::try_next`]
    /// to exhaustion, then [`ShardedStream::finish`]. A worker failure
    /// returns its typed [`StreamError`] and no partial trace — unlike
    /// `Iterator::collect`, which stops at the failure and yields a short
    /// trace that looks complete.
    pub fn collect_trace(mut self) -> Result<Trace, StreamError> {
        let mut records = Vec::new();
        while let Some(rec) = self.try_next()? {
            records.push(rec);
        }
        self.finish()?;
        debug_assert!(
            records.windows(2).all(|w| w[0] <= w[1]),
            "sharded stream emitted out of order"
        );
        Ok(Trace::from_records(records))
    }

    fn finish_in_place(&mut self) -> Result<StreamStats, StreamError> {
        match &mut self.inner {
            Inner::Inline { emitted, .. } => Ok(StreamStats {
                events: *emitted,
                outcomes: Vec::new(),
            }),
            Inner::InlineObserved {
                events,
                pending,
                emitted,
                ..
            } => {
                events.add(std::mem::take(pending));
                Ok(StreamStats {
                    events: *emitted,
                    outcomes: Vec::new(),
                })
            }
            Inner::Parallel(p) => {
                let outcomes = p.shutdown().to_vec();
                if let Some(e) = &p.poisoned {
                    return Err(e.clone());
                }
                if let Some((shard, payload)) =
                    outcomes.iter().enumerate().find_map(|(s, o)| match o {
                        WorkerOutcome::Panicked { payload } => Some((s, payload.clone())),
                        _ => None,
                    })
                {
                    let e = StreamError::WorkerPanicked { shard, payload };
                    p.poisoned = Some(e.clone());
                    return Err(e);
                }
                Ok(StreamStats {
                    events: p.emitted,
                    outcomes,
                })
            }
        }
    }
}

impl Iterator for ShardedStream<'_> {
    type Item = TraceRecord;

    /// Infallible view of [`ShardedStream::try_next`]. A worker failure
    /// cannot be returned here, so the iterator **fuses and poisons**:
    /// it yields `None` from the failure on (never a record that would
    /// paper over the gap), [`ShardedStream::error`] holds the
    /// [`StreamError`], and drop still records every worker's exit.
    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        self.try_next().unwrap_or(None)
    }
}

impl Drop for ShardedStream<'_> {
    fn drop(&mut self) {
        // Flush the observed inline path's batched event count so an
        // abandoned stream still reports what it emitted. (The parallel
        // path's accounting lives in `ParallelStream::drop`.)
        if let Inner::InlineObserved {
            events, pending, ..
        } = &mut self.inner
        {
            events.add(std::mem::take(pending));
        }
    }
}

/// Render a worker's panic payload for [`WorkerOutcome::Panicked`].
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl ParallelStream {
    fn spawn<F: FaultHook>(
        models: Arc<ModelSet>,
        config: &GenConfig,
        shards: usize,
        registry: &Registry,
        fault_for: impl Fn(usize) -> F,
    ) -> ParallelStream {
        let config = *config;
        // Resolved once for the whole stream; workers clone the handle.
        let trace = cn_obs::trace::global();
        let stream_span = trace
            .is_enabled()
            .then(|| Box::new(trace.span("cn_gen_parallel_stream")));
        let mut cursors = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut slots = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = sync_channel(CHANNEL_BLOCKS);
            let models = Arc::clone(&models);
            let obs = WorkerObs::register(registry, shard);
            let slot: Arc<OnceLock<WorkerOutcome>> = Arc::new(OnceLock::new());
            let worker_slot = Arc::clone(&slot);
            let mut fault = fault_for(shard);
            let worker_trace = trace.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cn-gen-shard-{shard}"))
                .spawn(move || {
                    // One span covering this worker's whole drain: shard
                    // workers show up side by side in the timeline.
                    let drain_span = worker_trace
                        .is_enabled()
                        .then(|| worker_trace.span(&format!("cn_gen_shard_drain:{shard}")));
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        shard_worker(&models, &config, shard, shards, &tx, &obs, &mut fault)
                    }));
                    drop(drain_span);
                    let outcome = match run {
                        Ok(WorkerRun::Completed { events }) => WorkerOutcome::Completed { events },
                        Ok(WorkerRun::ConsumerGone) => WorkerOutcome::Cancelled,
                        Err(payload) => WorkerOutcome::Panicked {
                            payload: panic_payload(payload.as_ref()),
                        },
                    };
                    let _ = worker_slot.set(outcome);
                    // `tx` disconnects only now — after the outcome is
                    // published — so the consumer always finds a terminal
                    // state behind a closed channel.
                    drop(tx);
                })
                .expect("spawn shard worker");
            workers.push(handle);
            slots.push(Arc::clone(&slot));
            cursors.push(ShardCursor {
                shard,
                rx,
                block: Vec::new(),
                pos: 0,
                outcome: slot,
            });
        }
        // A worker can fail before shipping its first block; that must
        // poison the stream at construction, not read as an empty shard.
        let mut poisoned = None;
        let heads: Vec<Option<TraceRecord>> = cursors
            .iter_mut()
            .map(|c| match c.head() {
                Ok(h) => h,
                Err(e) => {
                    poisoned.get_or_insert(e);
                    None
                }
            })
            .collect();
        ParallelStream {
            shards: cursors,
            tree: LoserTree::new(heads),
            run: 0,
            run_len: 0,
            emitted: 0,
            poisoned,
            obs: MergeObs::register(registry),
            slots,
            collected: None,
            registry: registry.clone(),
            workers,
            stream_span,
        }
    }

    /// Start the next run: the tournament winner's buffered records up to
    /// (per the global tie-break) the runner-up's head. Costs two ⌈log₂S⌉
    /// walks plus a gallop — once per run, not per record.
    fn begin_run(&mut self) -> bool {
        let Some(w) = self.tree.winner() else {
            return false;
        };
        let cursor = &self.shards[w];
        let rest = &cursor.block[cursor.pos..];
        debug_assert!(!rest.is_empty(), "a live shard's head is buffered");
        let len = match self.tree.runner_up() {
            // Sole live shard: everything buffered is globally next.
            None => rest.len(),
            Some(u) => {
                let bound = self.tree.head(u).expect("runner-up has a head");
                run_prefix(rest, bound, w < u)
            }
        };
        debug_assert!(len >= 1, "the winner's own head precedes the bound");
        // Telemetry is accumulated locally per *run* and flushed in large
        // windows (see [`MergeObs`]), so the merge hot path touches no
        // shared memory even when observed.
        self.obs.on_run(len as u64);
        self.run = w;
        self.run_len = len;
        true
    }

    fn try_next_record(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.run_len == 0 && !self.begin_run() {
            self.obs.flush();
            return Ok(None);
        }
        let cursor = &mut self.shards[self.run];
        let rec = cursor.block[cursor.pos];
        cursor.pos += 1;
        self.run_len -= 1;
        self.emitted += 1;
        if self.run_len == 0 {
            // Run exhausted: fetch this shard's next head (receiving the
            // next block if need be) and replay the tournament once for
            // the whole run. A failure here poisons the stream — the
            // record already pulled is still part of the valid prefix,
            // so it is returned; the *next* call errors.
            let next = match cursor.head() {
                Ok(h) => h,
                Err(e) => {
                    self.poisoned = Some(e);
                    None
                }
            };
            self.tree.replace_run(next);
        }
        Ok(Some(rec))
    }

    /// Disconnect, join, and account for every worker — exactly once;
    /// later calls return the cached outcomes. Blocked workers observe
    /// the disconnect as a failed send and wind down as `Cancelled`, so
    /// this never deadlocks.
    fn shutdown(&mut self) -> &[WorkerOutcome] {
        if self.collected.is_none() {
            // Flush the batched merge telemetry so an abandoned, early-
            // finished, or poisoned stream still accounts for what it
            // actually emitted.
            self.obs.flush();
            drop(self.stream_span.take());
            // Drop the receivers first: any worker blocked on a full
            // channel fails its send and exits.
            self.shards.clear();
            for handle in self.workers.drain(..) {
                // A join error would mean a panic escaped the worker's
                // catch_unwind; the slot fallback below reports it.
                let _ = handle.join();
            }
            let outcomes: Vec<WorkerOutcome> = self
                .slots
                .iter()
                .map(|slot| {
                    slot.get().cloned().unwrap_or(WorkerOutcome::Panicked {
                        payload: "worker exited without publishing an outcome".into(),
                    })
                })
                .collect();
            for (shard, outcome) in outcomes.iter().enumerate() {
                self.registry
                    .counter_with("cn_gen_worker_exit", &[("outcome", outcome.label())])
                    .inc();
                if matches!(outcome, WorkerOutcome::Panicked { .. }) {
                    self.registry
                        .counter_with(
                            "cn_gen_shard_panics_total",
                            &[("shard", &shard.to_string())],
                        )
                        .inc();
                }
            }
            self.collected = Some(outcomes);
        }
        self.collected.as_deref().expect("outcomes just collected")
    }
}

impl Drop for ParallelStream {
    fn drop(&mut self) {
        // Join workers and *record* their terminal states (worker-exit
        // counters, panic counters) instead of swallowing them — an
        // abandoned or poisoned stream still leaves evidence.
        self.shutdown();
    }
}

/// Length of the longest prefix of `rest` (one shard's sorted buffered
/// records, `rest[0]` being the current tournament winner) whose records
/// all precede `bound`, the runner-up shard's head. `wins_ties` is whether
/// this shard's index is lower than the bound's (the merge's stability
/// tie-break). Gallop-then-binary-search: O(1) for the short runs of a
/// fine-grained interleave, O(log n) for long bursts.
fn run_prefix(rest: &[TraceRecord], bound: &TraceRecord, wins_ties: bool) -> usize {
    let precedes = |r: &TraceRecord| match r.cmp(bound) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => wins_ties,
        std::cmp::Ordering::Greater => false,
    };
    debug_assert!(precedes(&rest[0]), "the winner precedes the runner-up");
    let mut lo = 0; // rest[lo] is known to precede the bound
    let mut step = 1;
    while lo + step < rest.len() && precedes(&rest[lo + step]) {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(rest.len());
    lo + 1 + rest[lo + 1..hi].partition_point(precedes)
}

/// One worker's telemetry handles (no-ops when unobserved). All three
/// are updated per *block*, never per record.
struct WorkerObs {
    /// `cn_gen_shard_events_total{shard=i}` — records shipped.
    events: Counter,
    /// `cn_gen_shard_blocks_total{shard=i}` — blocks shipped.
    blocks: Counter,
    /// `cn_gen_shard_stall_ns_total{shard=i}` — nanoseconds blocked on a
    /// full channel waiting for the consumer.
    stall_ns: Counter,
}

impl WorkerObs {
    fn register(registry: &Registry, shard: usize) -> WorkerObs {
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard)];
        WorkerObs {
            events: registry.counter_with("cn_gen_shard_events_total", labels),
            blocks: registry.counter_with("cn_gen_shard_blocks_total", labels),
            stall_ns: registry.counter_with("cn_gen_shard_stall_ns_total", labels),
        }
    }

    /// Ship one block, accounting for it; false when the consumer hung
    /// up. Unobserved, this is exactly a blocking `send`; observed, a
    /// `try_send` first so only an actually-full channel pays for the
    /// two clock reads that measure the stall.
    fn ship(&self, tx: &SyncSender<Vec<TraceRecord>>, block: Vec<TraceRecord>) -> bool {
        let records = block.len() as u64;
        if !self.stall_ns.is_enabled() {
            if tx.send(block).is_err() {
                return false;
            }
        } else {
            match tx.try_send(block) {
                Ok(()) => {}
                Err(TrySendError::Full(block)) => {
                    let stalled = Instant::now();
                    let sent = tx.send(block).is_ok();
                    self.stall_ns
                        .add(u64::try_from(stalled.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    if !sent {
                        return false;
                    }
                }
                Err(TrySendError::Disconnected(_)) => return false,
            }
        }
        self.events.add(records);
        self.blocks.inc();
        true
    }
}

/// How a worker's generation loop ended (pre-`catch_unwind` view; the
/// published [`WorkerOutcome`] adds the panic case).
enum WorkerRun {
    /// Every record of this shard was generated and shipped.
    Completed {
        /// Records shipped.
        events: u64,
    },
    /// A send failed: the consumer dropped its receiver.
    ConsumerGone,
}

/// Worker body: merge this shard's UE streams into a sorted run and ship
/// it as blocks. Returning [`WorkerRun::ConsumerGone`] on a failed send is
/// the cancellation path (the consumer hung up). `fault` is the
/// monomorphized fault-injection hook — [`NoFault`] (empty inline bodies)
/// everywhere outside the failure-containment tests.
fn shard_worker<F: FaultHook>(
    models: &ModelSet,
    config: &GenConfig,
    shard: usize,
    shards: usize,
    tx: &SyncSender<Vec<TraceRecord>>,
    obs: &WorkerObs,
    fault: &mut F,
) -> WorkerRun {
    let total = config.population.total();
    let mut pool = UePool::new(models, config, (shard as u32..total).step_by(shards));
    let mut block = Vec::with_capacity(BLOCK_RECORDS);
    let mut shipped = 0u64;
    while pool.live() > 0 {
        fault.on_record();
        let rec = pool.next_record().expect("live pool yields a record");
        block.push(rec);
        if block.len() == BLOCK_RECORDS {
            let full = std::mem::replace(&mut block, Vec::with_capacity(BLOCK_RECORDS));
            fault.on_block();
            if !obs.ship(tx, full) {
                return WorkerRun::ConsumerGone;
            }
            shipped += BLOCK_RECORDS as u64;
        }
    }
    if !block.is_empty() {
        let records = block.len() as u64;
        fault.on_block();
        if !obs.ship(tx, block) {
            return WorkerRun::ConsumerGone;
        }
        shipped += records;
    }
    WorkerRun::Completed { events: shipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{generate, generate_reference, HourSemantics};
    use cn_fit::{fit, FitConfig, Method};
    use cn_trace::{PopulationMix, Timestamp};
    use cn_world::{generate_world, WorldConfig};

    fn fitted_with(method: Method) -> ModelSet {
        let trace = generate_world(&WorldConfig::new(PopulationMix::new(24, 10, 6), 2.0, 5));
        fit(&trace, &FitConfig::new(method))
    }

    fn fitted() -> ModelSet {
        fitted_with(Method::Ours)
    }

    /// Events in `config`'s population, counted by the reference oracle.
    fn reference_len(models: &ModelSet, config: &GenConfig) -> usize {
        generate_reference(models, config).len()
    }

    fn config() -> GenConfig {
        GenConfig::new(
            PopulationMix::new(18, 8, 5),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        )
    }

    /// The determinism matrix: for both state-machine families, both
    /// hour semantics and three horizons, `generate` and the sharded
    /// stream at every shard count (1 is the inline path, 31 is one UE per
    /// shard, 64 clamps to 31) reproduce the per-UE reference byte for
    /// byte. The short horizons leave most pool slots exhausted at priming
    /// (no generator kept) and some with exactly `LOOKAHEAD` events; the
    /// long one keeps generators refilling.
    #[test]
    fn every_engine_matches_the_reference() {
        for method in [Method::Ours, Method::Base] {
            let models = fitted_with(method);
            for semantics in [HourSemantics::EntryHour, HourSemantics::TruncateAtBoundary] {
                for hours in [0.1, 0.5, 3.0] {
                    let mut config = config();
                    config.duration_hours = hours;
                    config.semantics = semantics;
                    let case = format!("{method:?}/{semantics:?}/{hours} h");
                    let reference = generate_reference(&models, &config);
                    assert!(
                        reference.len() as f64 > 50.0 * hours,
                        "{case}: tiny workload"
                    );
                    assert_eq!(
                        generate(&models, &config),
                        reference,
                        "{case}: generate diverged"
                    );
                    for shards in [1usize, 2, 5, 31, 64] {
                        let sharded = ShardedStream::with_shards(&models, &config, shards)
                            .collect_trace()
                            .expect("no fault injected");
                        assert_eq!(sharded, reference, "{case}: {shards}-shard stream diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn stream_is_globally_time_ordered() {
        let models = fitted();
        let config = config();
        for shards in [1usize, 3] {
            let mut last: Option<TraceRecord> = None;
            let mut n = 0usize;
            for rec in ShardedStream::with_shards(&models, &config, shards) {
                if let Some(prev) = last {
                    assert!(prev < rec, "{shards} shards: {prev:?} then {rec:?}");
                }
                last = Some(rec);
                n += 1;
            }
            assert!(n > 50, "{shards} shards produced only {n} events");
        }
    }

    #[test]
    fn single_shard_runs_inline_without_worker_threads() {
        // The adaptive fast path: one shard must not pay for threads or
        // channels it cannot use — it delegates to the sequential merge.
        let models = fitted();
        let config = config();
        let stream = ShardedStream::with_shards(&models, &config, 1);
        assert!(stream.is_inline(), "1 shard must take the inline path");
        assert_eq!(stream.worker_threads(), 0);
        let n = stream.count();
        assert_eq!(n, reference_len(&models, &config));
    }

    #[test]
    fn multi_shard_spawns_one_worker_per_shard() {
        let models = fitted();
        let config = config();
        let stream = ShardedStream::with_shards(&models, &config, 4);
        assert!(!stream.is_inline());
        assert_eq!(stream.worker_threads(), 4);
    }

    #[test]
    fn one_ue_population_is_inline_regardless_of_request() {
        // Clamping to the population size can collapse a parallel request
        // to one shard; that too must bypass the worker machinery.
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(1, 0, 0),
            Timestamp::at_hour(0, 9),
            2.0,
            7,
        );
        let stream = ShardedStream::with_shards(&models, &config, 8);
        assert!(stream.is_inline());
        assert_eq!(stream.worker_threads(), 0);
    }

    #[test]
    fn shard_count_exceeding_population_is_clamped() {
        let models = fitted();
        let config = config();
        // 31 UEs, 64 requested shards: must still stream every record.
        let stream = ShardedStream::with_shards(&models, &config, 64);
        assert_eq!(stream.worker_threads(), 31);
        let n = stream.count();
        assert_eq!(n, reference_len(&models, &config));
    }

    #[test]
    fn empty_population_streams_nothing() {
        let models = fitted();
        let config = GenConfig::new(
            PopulationMix::new(0, 0, 0),
            Timestamp::at_hour(0, 0),
            1.0,
            1,
        );
        assert_eq!(ShardedStream::with_shards(&models, &config, 4).count(), 0);
    }

    #[test]
    fn abandoning_the_stream_mid_run_terminates_workers() {
        let models = fitted();
        let mut config = config();
        config.duration_hours = 6.0;
        let mut stream = ShardedStream::with_shards(&models, &config, 3);
        for _ in 0..10 {
            if stream.next().is_none() {
                break;
            }
        }
        drop(stream); // must not hang: Drop disconnects and joins workers
    }

    #[test]
    fn live_shards_drains_to_zero() {
        let models = fitted();
        let config = config();
        let mut stream = ShardedStream::with_shards(&models, &config, 3);
        assert!(stream.live_shards() <= 3);
        for _ in stream.by_ref() {}
        assert_eq!(stream.live_shards(), 0);

        let mut inline = ShardedStream::with_shards(&models, &config, 1);
        assert_eq!(inline.live_shards(), 1);
        for _ in inline.by_ref() {}
        assert_eq!(inline.live_shards(), 0);
    }

    #[test]
    fn finish_reports_stats_on_every_path() {
        let models = fitted();
        let config = config();
        let expected = reference_len(&models, &config) as u64;

        // Parallel: drain, then finish — all workers completed.
        let mut stream = ShardedStream::with_shards(&models, &config, 3);
        while stream.try_next().expect("no fault injected").is_some() {}
        let stats = stream.finish().expect("clean run");
        assert_eq!(stats.events, expected);
        assert_eq!(stats.outcomes.len(), 3);
        let shipped: u64 = stats
            .outcomes
            .iter()
            .map(|o| match o {
                WorkerOutcome::Completed { events } => *events,
                other => panic!("unexpected outcome {other:?}"),
            })
            .sum();
        assert_eq!(shipped, expected, "workers shipped exactly the workload");

        // Inline: same contract, no outcomes (no workers exist).
        let mut inline = ShardedStream::with_shards(&models, &config, 1);
        while inline.try_next().expect("inline cannot fail").is_some() {}
        let stats = inline.finish().expect("inline cannot fail");
        assert_eq!(stats.events, expected);
        assert!(stats.outcomes.is_empty());
    }

    #[test]
    fn early_finish_is_a_cancellation_not_an_error() {
        let models = fitted();
        let mut config = config();
        config.duration_hours = 6.0;
        let mut stream = ShardedStream::with_shards(&models, &config, 3);
        let mut taken = 0u64;
        for _ in 0..10 {
            if stream.try_next().expect("no fault").is_none() {
                break;
            }
            taken += 1;
        }
        let stats = stream.finish().expect("early stop is deliberate");
        assert_eq!(stats.events, taken);
        // Workers either completed (tiny shards) or were cancelled; none
        // panicked.
        assert!(stats
            .outcomes
            .iter()
            .all(|o| !matches!(o, WorkerOutcome::Panicked { .. })));
    }

    #[test]
    fn observed_parallel_counters_balance_exactly() {
        let models = fitted();
        let config = config();
        let expected = reference_len(&models, &config) as u64;
        let registry = Registry::new();
        let n = ShardedStream::with_shards_observed(&models, &config, 4, &registry).count() as u64;
        assert_eq!(n, expected);

        let snap = registry.snapshot();
        // The tentpole invariant: per-shard production sums to exactly
        // what the merge emitted, which is exactly the reference count.
        assert_eq!(snap.counter_total("cn_gen_shard_events_total"), Some(n));
        assert_eq!(snap.counter("cn_gen_merge_events_total"), Some(n));
        // Every shard shipped at least its final partial block.
        for shard in ["0", "1", "2", "3"] {
            let m = snap
                .get("cn_gen_shard_blocks_total", &[("shard", shard)])
                .unwrap_or_else(|| panic!("missing blocks counter for shard {shard}"));
            assert!(matches!(
                m.value,
                cn_obs::MetricValue::Counter { value } if value >= 1
            ));
        }
        // The run-length histogram saw every run, and the runs cover the
        // whole stream.
        let runs = snap.histogram("cn_gen_merge_run_len").expect("run hist");
        assert!(runs.count >= 1);
        assert_eq!(runs.sum, n, "run lengths must cover every record");
        assert_eq!(snap.gauge("cn_gen_shard_mode_parallel"), Some(1));
        assert_eq!(snap.gauge("cn_gen_shard_workers"), Some(4));
        // `count` consumed and dropped the stream, so the worker-exit
        // ledger is written: all four workers completed, none panicked.
        assert_eq!(
            snap.get("cn_gen_worker_exit", &[("outcome", "completed")])
                .map(|m| m.value.clone()),
            Some(cn_obs::MetricValue::Counter { value: 4 })
        );
        assert!(snap
            .get("cn_gen_worker_exit", &[("outcome", "panicked")])
            .is_none());
        assert_eq!(snap.counter_total("cn_gen_shard_panics_total"), None);
    }

    #[test]
    fn observed_inline_counts_and_flags_mode() {
        let models = fitted();
        let config = config();
        let registry = Registry::new();
        let n = ShardedStream::with_shards_observed(&models, &config, 1, &registry).count() as u64;
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cn_gen_merge_events_total"), Some(n));
        // No workers → no per-shard series at all.
        assert_eq!(snap.counter_total("cn_gen_shard_events_total"), None);
        assert_eq!(snap.gauge("cn_gen_shard_mode_parallel"), Some(0));
        assert_eq!(snap.gauge("cn_gen_shard_workers"), Some(0));
    }

    #[test]
    fn observed_inline_flushes_batched_count_on_drop() {
        // The inline path batches its event count; abandoning the stream
        // mid-way must still flush what was actually emitted.
        let models = fitted();
        let config = config();
        let registry = Registry::new();
        let mut stream = ShardedStream::with_shards_observed(&models, &config, 1, &registry);
        let mut taken = 0u64;
        for _ in 0..10 {
            if stream.next().is_none() {
                break;
            }
            taken += 1;
        }
        drop(stream);
        assert_eq!(
            registry.snapshot().counter("cn_gen_merge_events_total"),
            Some(taken)
        );
    }

    #[test]
    fn observed_stream_is_byte_identical_to_unobserved() {
        let models = fitted();
        let config = config();
        let plain = ShardedStream::with_shards(&models, &config, 3)
            .collect_trace()
            .unwrap();
        let registry = Registry::new();
        let observed = ShardedStream::with_shards_observed(&models, &config, 3, &registry)
            .collect_trace()
            .unwrap();
        assert_eq!(observed, plain, "telemetry must never change the stream");
    }

    #[test]
    fn faulting_an_inline_stream_is_refused() {
        // A fault plan that cannot fire would make its test vacuous.
        let models = fitted();
        let config = config();
        let plan = FaultPlan::new().panic_shard_at(0, 1);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ShardedStream::with_shards_faulted(&models, &config, 1, &Registry::disabled(), &plan)
        }));
        assert!(err.is_err(), "inline + non-empty plan must panic");
        // An empty plan is the unfaulted stream, inline path included.
        let n = ShardedStream::with_shards_faulted(
            &models,
            &config,
            1,
            &Registry::disabled(),
            &FaultPlan::new(),
        )
        .count();
        assert_eq!(n, reference_len(&models, &config));
    }

    #[test]
    fn run_prefix_respects_order_and_ties() {
        use cn_trace::{DeviceType, EventType, Timestamp, UeId};
        let rec = |ms: u64| {
            TraceRecord::new(
                Timestamp::from_millis(ms),
                UeId(0),
                DeviceType::Phone,
                EventType::ServiceRequest,
            )
        };
        let rest: Vec<TraceRecord> = [1u64, 3, 5, 7, 9].into_iter().map(rec).collect();
        assert_eq!(run_prefix(&rest, &rec(2), true), 1);
        assert_eq!(run_prefix(&rest, &rec(6), true), 3);
        assert_eq!(run_prefix(&rest, &rec(100), true), 5);
        // An equal record stays in the run only when this shard wins ties.
        assert_eq!(run_prefix(&rest, &rec(5), true), 3);
        assert_eq!(run_prefix(&rest, &rec(5), false), 2);
    }
}
