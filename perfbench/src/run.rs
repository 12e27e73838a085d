//! One repetition of each workload, timed from outside through the public
//! API of every layer it crosses.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cn_fit::ModelSet;
use cn_gen::{ShardedStream, StreamError, UeEventIter};
use cn_live::{Clock, LiveConfig, LiveRecordSource, LiveServer, SystemClock};
use cn_mcn::{DesReport, DesSim, NetworkFunction, Priority};
use cn_obs::{Registry, TraceSink};
use cn_scenario::{IterSource, PhaseKind, RecordSource, ScenarioStream};
use cn_trace::{EncodedBlock, TraceRecord, UeId, RECORD_BYTES};
use cn_verify::fnv1a64;

use crate::timing::{ns_since, process_cpu_ns, quantile_u64, thread_cpu_ns, TimedSource};
use crate::workload::{Kind, Scale, Workload, BLOCK_RECORDS};

/// Per-consumer queue of the live hub, in frames: about 170 ms of stream
/// at the `live-fanout` rate, so a consumer descheduled for a few time
/// slices on a shared 2-core box does not lose frames.
const LIVE_QUEUE_FRAMES: usize = 1 << 16;

/// How long a live repetition waits for its consumers to attach.
const ATTACH_TIMEOUT: Duration = Duration::from_secs(10);

/// Shed or MME scale-ups may trail an injecting storm window by this
/// much trace time (queues drain, the bucket refills) and still count as
/// the storm's.
const STORM_GRACE_MS: u64 = 120_000;

/// Spans the traced run may write before it stops opening new ones,
/// kept under the sink's default bound of 100,000 events.
const SPAN_BUDGET: usize = 90_000;

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Telemetry off (`Registry::disabled()`), no timers: the end-to-end
    /// configuration.
    Plain,
    /// A live `Registry`, no timers: measures telemetry cost.
    Observed,
    /// Layer timers and spans (and, on `live-fanout`, a live registry
    /// for the backlog and drop series).
    Traced,
}

/// Time and counts attributed to single layers in a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Caller-side time in `ShardedStream::try_next`.
    pub gen_next_ns: u64,
    /// Records `ShardedStream::try_next` returned.
    pub gen_records: u64,
    /// `ShardedStream` construction until its first record.
    pub gen_bootstrap_ns: u64,
    /// Time in `EncodedBlock::push`.
    pub encode_ns: u64,
    /// Records pushed into `EncodedBlock`s while timed.
    pub encoded: u64,
    /// `ScenarioStream::try_next` minus time in its inner source.
    pub scenario_self_ns: u64,
    /// Records the scenario injected.
    pub injected: u64,
    /// Baseline records the scenario suppressed.
    pub suppressed: u64,
    /// Time in `DesSim::offer`.
    pub offer_ns: u64,
    /// Time in `DesSim::finish`.
    pub finish_ns: u64,
    /// Serving-thread CPU time in `LiveServer::serve` minus time in its
    /// source.
    pub serve_self_ns: u64,
    /// Consumer-thread CPU time, summed over consumers.
    pub consumer_cpu_ns: u64,
    /// Records received, summed over consumers.
    pub consumer_records: u64,
    /// p99 of the serving side's lag behind each record's due instant.
    pub pacer_lag_p99_ms: f64,
    /// `cn_live_backlog_blocks` high-watermark (frames).
    pub peak_backlog_frames: u64,
    /// `cn_live_drops_total`.
    pub dropped_frames: u64,
    /// Wall time of the driving thread covered by a layer timer.
    pub attributed_ns: u64,
}

/// What one repetition did.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Records through the final stage (on `live-fanout`, records served
    /// to every consumer).
    pub records: u64,
    /// Wall time of the repetition.
    pub wall_ns: u64,
    /// Process CPU time of the repetition (all threads).
    pub cpu_ns: u64,
    /// Repetition start until the final stage saw its first record.
    pub first_ns: u64,
    /// Digest of the encoded records (see [`BlockSink`]).
    pub digest: u64,
    /// Delivery latency: per block for unpaced workloads, per record and
    /// consumer for `live-fanout`.
    pub delivery: Delivery,
    /// Operations attempted (records through the final stage, times the
    /// consumers on `live-fanout`).
    pub attempted: u64,
    /// Failed operations: dropped frames, gaps and typed errors.
    pub failed: u64,
    /// Failure messages, for the report.
    pub errors: Vec<String>,
    /// The DES verdict (`storm-des`).
    pub des: Option<DesReport>,
    /// Layer attribution (traced repetitions).
    pub layers: Layers,
}

/// Live delivery latencies are summarised per window of this many
/// consecutive records of one consumer (about 170 ms of stream), so one
/// scheduler hiccup moves one window's p99, not the run's.
const LIVE_WINDOW: usize = 1 << 16;

/// The shortest window summarised: its p99 has ten samples above it.
const MIN_WINDOW: usize = 1000;

/// Delivery-latency percentiles of one repetition, per window.
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// Latencies sampled.
    pub samples: u64,
    /// Per-window medians, ns.
    pub p50_ns: Vec<u64>,
    /// Per-window 99th percentiles, ns.
    pub p99_ns: Vec<u64>,
}

impl Delivery {
    /// Summarise one window of samples. A window shorter than
    /// [`MIN_WINDOW`] is only counted, unless it is the only one.
    fn window(&mut self, ns: &mut [u64]) {
        self.samples += ns.len() as u64;
        if ns.len() >= MIN_WINDOW || (self.p99_ns.is_empty() && !ns.is_empty()) {
            self.p50_ns.push(quantile_u64(ns, 0.50));
            self.p99_ns.push(quantile_u64(ns, 0.99));
        }
    }
}

/// The benchmark's final stage for encoded records: 14-byte blocks of
/// [`BLOCK_RECORDS`] records, each folded into a digest and discarded.
/// The digest is FNV-1a over the sequence of per-block FNV-1a digests,
/// so it is a pure function of the record stream.
pub struct BlockSink {
    block: EncodedBlock,
    block_digests: Vec<u8>,
    block_start: Instant,
    /// Records pushed.
    pub records: u64,
    /// Per-block wall time from its first record to its hand-off.
    pub block_ns: Vec<u64>,
}

impl Default for BlockSink {
    fn default() -> Self {
        BlockSink {
            block: EncodedBlock::with_capacity(BLOCK_RECORDS),
            block_digests: Vec::new(),
            block_start: Instant::now(),
            records: 0,
            block_ns: Vec::new(),
        }
    }
}

impl BlockSink {
    /// Encode one record; hand the block off when it is full.
    #[inline]
    pub fn push(&mut self, r: &TraceRecord) {
        if self.block.is_empty() {
            self.block_start = Instant::now();
        }
        self.block.push(r);
        self.records += 1;
        if self.block.len() == BLOCK_RECORDS {
            self.hand_off();
        }
    }

    /// Encode a batch under one timer; returns the nanoseconds spent in
    /// `EncodedBlock::push`. Batches must not straddle blocks.
    fn push_timed(&mut self, batch: &[TraceRecord]) -> u64 {
        debug_assert!(self.block.len() + batch.len() <= BLOCK_RECORDS);
        let t = Instant::now();
        for r in batch {
            self.block.push(r);
        }
        let ns = ns_since(t);
        self.records += batch.len() as u64;
        if self.block.len() == BLOCK_RECORDS {
            self.hand_off();
        }
        ns
    }

    fn hand_off(&mut self) {
        if self.block.is_empty() {
            return;
        }
        let d = fnv1a64(self.block.as_bytes());
        self.block_digests.extend_from_slice(&d.to_le_bytes());
        self.block_ns.push(ns_since(self.block_start));
        self.block.clear();
    }

    /// Hand off the partial last block and return the stream digest.
    pub fn finish(&mut self) -> u64 {
        self.hand_off();
        fnv1a64(&self.block_digests)
    }
}

/// Digest of an encoded record stream, as a [`BlockSink`] computes it.
fn digest_bytes(bytes: &[u8]) -> u64 {
    let digests: Vec<u8> = bytes
        .chunks(BLOCK_RECORDS * RECORD_BYTES)
        .flat_map(|block| fnv1a64(block).to_le_bytes())
        .collect();
    fnv1a64(&digests)
}

fn registry_for(mode: Mode) -> Registry {
    match mode {
        Mode::Observed => Registry::new(),
        Mode::Plain | Mode::Traced => Registry::disabled(),
    }
}

fn stream_err(stage: &str, e: &StreamError) -> String {
    format!("{stage}: {e}")
}

/// Drain `src` into the sink (and `offer`, when given), untimed.
fn drain_plain<S: RecordSource>(
    src: &mut S,
    sink: &mut BlockSink,
    t0: Instant,
    first_ns: &mut u64,
    mut offer: Option<&mut DesSim>,
) -> Result<(), String> {
    while let Some(r) = src.try_next().map_err(|e| stream_err("source", &e))? {
        if sink.records == 0 {
            *first_ns = ns_since(t0);
        }
        sink.push(&r);
        if let Some(sim) = offer.as_deref_mut() {
            sim.offer(&r).map_err(|e| format!("des offer: {e}"))?;
        }
    }
    Ok(())
}

/// Drain `src` a block at a time with batched timers around the pull,
/// the encode and the offer, and one span per stage per block.
fn drain_traced<S: RecordSource>(
    src: &mut S,
    sink: &mut BlockSink,
    mut offer: Option<&mut DesSim>,
    spans: &TraceSink,
    layers: &mut Layers,
) -> Result<u64, String> {
    let mut buf: Vec<TraceRecord> = Vec::with_capacity(BLOCK_RECORDS);
    let mut pull_ns = 0;
    loop {
        let _block = (spans.len() < SPAN_BUDGET).then(|| spans.span("block"));
        buf.clear();
        let t = Instant::now();
        {
            let _s = (spans.len() < SPAN_BUDGET).then(|| spans.span("pull"));
            while buf.len() < BLOCK_RECORDS {
                match src.try_next().map_err(|e| stream_err("source", &e))? {
                    Some(r) => buf.push(r),
                    None => break,
                }
            }
        }
        pull_ns += ns_since(t);
        if buf.is_empty() {
            return Ok(pull_ns);
        }
        {
            let _s = (spans.len() < SPAN_BUDGET).then(|| spans.span("encode"));
            layers.encode_ns += sink.push_timed(&buf);
            layers.encoded += buf.len() as u64;
        }
        if let Some(sim) = offer.as_deref_mut() {
            let _s = (spans.len() < SPAN_BUDGET).then(|| spans.span("offer"));
            let t = Instant::now();
            for r in &buf {
                sim.offer(r).map_err(|e| format!("des offer: {e}"))?;
            }
            layers.offer_ns += ns_since(t);
        }
    }
}

/// One `steady-20k` / `wide-1m` repetition: the sharded stream encoded
/// into blocks and discarded.
pub fn encode_rep(
    models: &ModelSet,
    w: &Workload,
    shards: usize,
    mode: Mode,
    spans: &TraceSink,
) -> Rep {
    let registry = registry_for(mode);
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let _rep = (mode == Mode::Traced).then(|| spans.span("rep"));
    let stream = ShardedStream::with_shards_observed(models, &w.gen, shards, &registry);
    let built_ns = ns_since(t0);
    let mut sink = BlockSink::default();
    let mut rep = Rep::default();
    let finished = if mode == Mode::Traced {
        let (mut src, clock) = TimedSource::new(stream);
        let out = drain_traced(&mut src, &mut sink, None, spans, &mut rep.layers);
        rep.layers.gen_next_ns = clock.ns();
        rep.layers.gen_records = clock.records();
        rep.layers.gen_bootstrap_ns = built_ns + clock.first_call_ns().unwrap_or(0);
        out.and_then(|pull_ns| {
            rep.layers.attributed_ns = built_ns + pull_ns + rep.layers.encode_ns;
            src.finish().map_err(|e| stream_err("finish", &e))
        })
    } else {
        let mut stream = stream;
        drain_plain(&mut stream, &mut sink, t0, &mut rep.first_ns, None).and_then(|()| {
            stream
                .finish()
                .map(|_| ())
                .map_err(|e| stream_err("finish", &e))
        })
    };
    rep.digest = sink.finish();
    rep.records = sink.records;
    rep.wall_ns = ns_since(t0);
    rep.cpu_ns = process_cpu_ns() - cpu0;
    rep.delivery.window(&mut sink.block_ns);
    rep.attempted = rep.records;
    if let Err(e) = finished {
        rep.fail(e);
    }
    rep
}

impl Rep {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(1);
        self.errors.push(error);
    }
}

/// Storm windows that inject load, as `[start_ms, end_ms + grace)`.
fn storm_windows(w: &Workload) -> Vec<(u64, u64)> {
    w.storm_spec()
        .phases
        .iter()
        .filter(|p| !matches!(p.kind, PhaseKind::Outage { .. }))
        .map(|p| {
            (
                p.window.start_ms(w.gen.start),
                p.window.end_ms(w.gen.start) + STORM_GRACE_MS,
            )
        })
        .collect()
}

/// One `storm-des` repetition: the steady baseline through the storm
/// scenario into the DES, every record also encoded into the sink.
pub fn storm_rep(models: &ModelSet, w: &Workload, mode: Mode, spans: &TraceSink) -> Rep {
    let registry = registry_for(mode);
    let spec = w.storm_spec();
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let _rep = (mode == Mode::Traced).then(|| spans.span("rep"));
    let mut rep = Rep::default();
    let mut sink = BlockSink::default();
    let mut sim = match DesSim::new(w.des_config()) {
        Ok(sim) => sim.observed(&registry),
        Err(e) => {
            rep.fail(format!("des config: {e}"));
            return rep;
        }
    };
    let baseline = ShardedStream::with_shards_observed(models, &w.gen, w.parallelism, &registry);
    let built_ns = ns_since(t0);
    let drained = if mode == Mode::Traced {
        let (inner, gen_clock) = TimedSource::new(baseline);
        let mut scenario = match ScenarioStream::new(&spec, &w.gen, inner, &registry) {
            Ok(s) => s,
            Err(e) => {
                rep.fail(format!("storm spec: {e}"));
                return rep;
            }
        };
        let out = drain_traced(
            &mut scenario,
            &mut sink,
            Some(&mut sim),
            spans,
            &mut rep.layers,
        );
        let stats = scenario.stats().clone();
        let out = out.and_then(|pull_ns| {
            scenario.finish().map_err(|e| stream_err("finish", &e))?;
            Ok(pull_ns)
        });
        rep.layers.gen_next_ns = gen_clock.ns();
        rep.layers.gen_records = gen_clock.records();
        rep.layers.gen_bootstrap_ns = built_ns + gen_clock.first_call_ns().unwrap_or(0);
        rep.layers.injected = stats.injected;
        rep.layers.suppressed = stats.suppressed;
        out.map(|pull_ns| {
            rep.layers.scenario_self_ns = pull_ns.saturating_sub(rep.layers.gen_next_ns);
            rep.layers.attributed_ns =
                built_ns + pull_ns + rep.layers.encode_ns + rep.layers.offer_ns;
        })
    } else {
        match ScenarioStream::new(&spec, &w.gen, baseline, &registry) {
            Ok(mut scenario) => drain_plain(
                &mut scenario,
                &mut sink,
                t0,
                &mut rep.first_ns,
                Some(&mut sim),
            )
            .and_then(|()| {
                scenario
                    .finish()
                    .map(|_| ())
                    .map_err(|e| stream_err("finish", &e))
            }),
            Err(e) => Err(format!("storm spec: {e}")),
        }
    };
    let t = Instant::now();
    let report = {
        let _s =
            (mode == Mode::Traced && spans.len() < SPAN_BUDGET).then(|| spans.span("des_finish"));
        sim.finish()
    };
    rep.layers.finish_ns = ns_since(t);
    rep.layers.attributed_ns += rep.layers.finish_ns;
    rep.digest = sink.finish();
    rep.records = sink.records;
    rep.wall_ns = ns_since(t0);
    rep.cpu_ns = process_cpu_ns() - cpu0;
    rep.delivery.window(&mut sink.block_ns);
    rep.attempted = rep.records;
    rep.des = Some(report);
    if let Err(e) = drained {
        rep.fail(e);
    }
    rep
}

/// The storm check: drive the DES once with a live registry and require
/// every shed record and every MME scale-up to fall inside an injecting
/// storm window (plus [`STORM_GRACE_MS`]). At full scale the storms must
/// also shed and scale at least once. Returns the pass's record count,
/// digest and DES report: the reference every repetition must reproduce.
pub fn storm_check(models: &ModelSet, w: &Workload) -> Result<(u64, u64, DesReport), String> {
    let registry = Registry::new();
    let spec = w.storm_spec();
    let windows = storm_windows(w);
    let mut sim = DesSim::new(w.des_config())
        .map_err(|e| format!("des config: {e}"))?
        .observed(&registry);
    let shed = Priority::ALL
        .map(|p| registry.counter_with("cn_mcn_des_shed_total", &[("priority", p.label())]));
    let mme_ups = registry.counter_with(
        "cn_mcn_des_scale_events_total",
        &[("nf", NetworkFunction::Mme.name()), ("direction", "up")],
    );
    let baseline = ShardedStream::with_shards(models, &w.gen, w.parallelism);
    let mut scenario = ScenarioStream::new(&spec, &w.gen, baseline, &Registry::disabled())
        .map_err(|e| format!("storm spec: {e}"))?;
    let (mut seen_shed, mut seen_ups) = (0u64, 0u64);
    let mut sink = BlockSink::default();
    while let Some(r) = scenario.try_next().map_err(|e| stream_err("source", &e))? {
        sink.push(&r);
        sim.offer(&r).map_err(|e| format!("des offer: {e}"))?;
        let now_shed: u64 = shed.iter().map(|c| c.get()).sum();
        let now_ups = mme_ups.get();
        if now_shed != seen_shed || now_ups != seen_ups {
            let t = r.t.as_millis();
            if !windows.iter().any(|&(lo, hi)| lo <= t && t < hi) {
                return Err(format!(
                    "shed or MME scale-up at trace time {} ms, outside every storm window",
                    t - w.gen.start.as_millis()
                ));
            }
            (seen_shed, seen_ups) = (now_shed, now_ups);
        }
    }
    scenario.finish().map_err(|e| stream_err("finish", &e))?;
    let report = sim.finish();
    let mme = report
        .per_nf
        .iter()
        .find(|nf| nf.nf == NetworkFunction::Mme)
        .ok_or("DES report has no MME pool")?;
    if mme.scale_ups != seen_ups {
        return Err(format!(
            "{} MME scale-ups after the last arrival, outside every storm window",
            mme.scale_ups - seen_ups
        ));
    }
    if w.scale == Scale::Full && (report.total_shed() == 0 || mme.scale_ups == 0) {
        return Err(format!(
            "storms did not congest the MME: {} shed, {} scale-ups",
            report.total_shed(),
            mme.scale_ups
        ));
    }
    Ok((sink.records, sink.finish(), report))
}

/// The single-thread sampling probe: every UE's `UeEventIter` drained in
/// turn, no merge. Returns `(events, ns)`.
pub fn sample_probe(models: &ModelSet, w: &Workload) -> (u64, u64) {
    let end = w.gen.end();
    let t = Instant::now();
    let mut events = 0u64;
    for index in 0..w.gen.population.total() {
        let dm = models.device(w.gen.device_of(index));
        let seed = w.seed ^ u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        events +=
            UeEventIter::new(dm, models.method, UeId(index), w.gen.start, end, seed).count() as u64;
    }
    (events, ns_since(t))
}

/// A [`SystemClock`] that remembers its first reading, which is the
/// instant the pacer anchors its schedule on. Clones share the clock, so
/// consumers stamp receipts on the same time base.
#[derive(Clone)]
struct AnchoredClock(Arc<(SystemClock, AtomicU64)>);

impl AnchoredClock {
    fn new() -> AnchoredClock {
        AnchoredClock(Arc::new((SystemClock::new(), AtomicU64::new(u64::MAX))))
    }

    /// Read the clock without anchoring it.
    fn read_ns(&self) -> u64 {
        self.0 .0.now_ns()
    }

    /// The instant the pacer schedules trace time `t_ms` for.
    fn due_ns(&self, t_ms: u64, origin_ms: u64, ns_per_ms: f64) -> u64 {
        let offset = t_ms.saturating_sub(origin_ms);
        let anchor = self.0 .1.load(Ordering::SeqCst);
        anchor.saturating_add((offset as f64 * ns_per_ms) as u64)
    }
}

impl Clock for AnchoredClock {
    fn now_ns(&self) -> u64 {
        let now = self.0 .0.now_ns();
        let _ = self
            .0
             .1
            .compare_exchange(u64::MAX, now, Ordering::SeqCst, Ordering::SeqCst);
        now
    }

    fn sleep_until(&self, deadline_ns: u64) {
        self.0 .0.sleep_until(deadline_ns);
    }
}

/// The serving side's view of pacing: wraps the live server's source and,
/// at each pull, records how late the server is against the previous
/// record's due instant. The server pulls the next record right after
/// broadcasting the previous one, so this is the emission lag the
/// `cn_live_lag_ms` histogram counts in whole milliseconds, at
/// nanosecond resolution.
struct LagSource<'c, S> {
    inner: S,
    clock: &'c AnchoredClock,
    origin_ms: u64,
    ns_per_ms: f64,
    prev_ms: Option<u64>,
    lags_ns: &'c mut Vec<u64>,
}

impl<S: RecordSource> RecordSource for LagSource<'_, S> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        if let Some(t_ms) = self.prev_ms {
            let due = self.clock.due_ns(t_ms, self.origin_ms, self.ns_per_ms);
            self.lags_ns.push(self.clock.read_ns().saturating_sub(due));
        }
        let out = self.inner.try_next();
        self.prev_ms = out.as_ref().ok().and_then(|r| r.map(|r| r.t.as_millis()));
        out
    }

    fn finish(self) -> Result<(), StreamError> {
        self.inner.finish()
    }
}

/// What one live consumer received.
#[derive(Default)]
struct Received {
    bufs: ConsumerBufs,
    first_ns: Option<u64>,
    dropped: u64,
    errors: Vec<String>,
    cpu_ns: u64,
}

/// A consumer's receive buffers: the encoded stream and its delivery
/// latencies, sized for the whole trace up front and pooled across
/// repetitions, so peak RSS does not depend on allocator timing.
#[derive(Default)]
pub struct ConsumerBufs {
    stream: EncodedBlock,
    delivery_ns: Vec<u64>,
}

impl ConsumerBufs {
    fn take(records: usize) -> ConsumerBufs {
        let pooled = CONSUMER_BUFS.lock().expect("buffer pool lock").pop();
        pooled.unwrap_or_else(|| ConsumerBufs {
            stream: EncodedBlock::with_capacity(records),
            delivery_ns: Vec::with_capacity(records),
        })
    }

    /// Fill the pool with one buffer per consumer, allocated and touched on
    /// the calling thread, so repetitions start from the same memory.
    pub fn warm(consumers: usize, trace: &[TraceRecord]) {
        for _ in 0..consumers {
            let mut bufs = ConsumerBufs::take(trace.len());
            for r in trace {
                bufs.stream.push(r);
            }
            bufs.delivery_ns.resize(trace.len(), 0);
            bufs.give_back();
        }
    }

    fn give_back(mut self) {
        self.stream.clear();
        self.delivery_ns.clear();
        CONSUMER_BUFS.lock().expect("buffer pool lock").push(self);
    }
}

static CONSUMER_BUFS: Mutex<Vec<ConsumerBufs>> = Mutex::new(Vec::new());

/// One live consumer: read the TCP feed through `LiveRecordSource`, stamp
/// each record's delay past its due instant and keep its encoding. The
/// repetition digests the stream and takes percentiles after its timed
/// part, so the receive loop does no work a real consumer would not.
fn consume(
    addr: SocketAddr,
    id: usize,
    clock: &AnchoredClock,
    origin_ms: u64,
    ns_per_ms: f64,
    records: usize,
) -> Received {
    let cpu0 = thread_cpu_ns();
    let mut out = Received {
        bufs: ConsumerBufs::take(records),
        ..Received::default()
    };
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("consumer {id} connect: {e}"));
            return out;
        }
    };
    let mut src = match LiveRecordSource::new(BufReader::with_capacity(1 << 16, stream), id) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("consumer {id} header: {e}"));
            return out;
        }
    };
    loop {
        match src.try_next() {
            Ok(Some(r)) => {
                let now = clock.read_ns();
                let due = clock.due_ns(r.t.as_millis(), origin_ms, ns_per_ms);
                out.bufs.delivery_ns.push(now.saturating_sub(due));
                out.first_ns.get_or_insert(now);
                out.bufs.stream.push(&r);
            }
            Ok(None) => break,
            Err(StreamError::ConsumerLagged { dropped, .. }) => out.dropped += dropped,
            Err(e) => {
                out.errors.push(format!("consumer {id}: {e}"));
                break;
            }
        }
    }
    out.cpu_ns = thread_cpu_ns() - cpu0;
    out
}

/// One `live-fanout` repetition: serve the materialised trace through
/// `LiveServer` over loopback TCP to `nproc` consumers, paced open-loop.
pub fn live_rep(trace: &[TraceRecord], w: &Workload, mode: Mode, spans: &TraceSink) -> Rep {
    let registry = match mode {
        Mode::Plain => Registry::disabled(),
        Mode::Observed | Mode::Traced => Registry::new(),
    };
    let mut rep = Rep::default();
    let Some(origin) = trace.first() else {
        rep.fail("empty live trace".into());
        return rep;
    };
    let (origin_ms, ns_per_ms) = (origin.t.as_millis(), 1e6 / w.compression());
    let clock = AnchoredClock::new();
    let mut config = LiveConfig::new(w.compression());
    config.queue_frames = LIVE_QUEUE_FRAMES;
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let t0_clock = clock.read_ns();
    let _rep = (mode == Mode::Traced).then(|| spans.span("rep"));
    let server = match LiveServer::new(clock.clone(), config, &registry) {
        Ok(s) => s,
        Err(e) => {
            rep.fail(format!("live config: {e}"));
            return rep;
        }
    };
    let addr = match server.bind("127.0.0.1:0") {
        Ok(a) => a,
        Err(e) => {
            rep.fail(format!("live bind: {e}"));
            return rep;
        }
    };
    let consumers = w.parallelism;
    let (served, received) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..consumers)
            .map(|id| {
                let clock = &clock;
                s.spawn(move || consume(addr, id, clock, origin_ms, ns_per_ms, trace.len()))
            })
            .collect();
        let deadline = Instant::now() + ATTACH_TIMEOUT;
        while server.hub().consumer_count() < consumers && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let served = if server.hub().consumer_count() < consumers {
            server.handle().stop();
            Err("live consumers did not attach in time".to_string())
        } else if mode == Mode::Traced {
            let _s = spans.span("serve");
            let (src, source_clock) = TimedSource::new(IterSource(trace.iter().copied()));
            let mut lags_ns = Vec::with_capacity(trace.len());
            let lagged = LagSource {
                inner: src,
                clock: &clock,
                origin_ms,
                ns_per_ms,
                prev_ms: None,
                lags_ns: &mut lags_ns,
            };
            let cpu = thread_cpu_ns();
            let t = Instant::now();
            let out = server.serve(lagged, 0, None);
            rep.layers.attributed_ns = ns_since(t);
            rep.layers.serve_self_ns = (thread_cpu_ns() - cpu).saturating_sub(source_clock.ns());
            rep.layers.pacer_lag_p99_ms = quantile_u64(&mut lags_ns, 0.99) as f64 / 1e6;
            out.map_err(|e| format!("live serve: {e}"))
        } else {
            server
                .serve(IterSource(trace.iter().copied()), 0, None)
                .map_err(|e| format!("live serve: {e}"))
        };
        if served.is_err() {
            server.handle().stop();
            server.hub().abort();
        }
        let received: Vec<Received> = handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Received {
                    errors: vec!["consumer thread panicked".into()],
                    ..Received::default()
                })
            })
            .collect();
        (served, received)
    });
    rep.wall_ns = ns_since(t0);
    rep.cpu_ns = process_cpu_ns() - cpu0;
    let expected = trace.len() as u64;
    rep.attempted = expected * consumers as u64;
    match served {
        Ok(report) => {
            if !report.completed || report.served != expected {
                rep.fail(format!(
                    "live serve stopped at {} of {expected} records",
                    report.served
                ));
            }
            for verdict in &report.consumers {
                if let Err(e) = verdict {
                    rep.fail(format!("hub: {e}"));
                }
            }
        }
        Err(e) => rep.fail(e),
    }
    rep.first_ns = received
        .iter()
        .filter_map(|r| r.first_ns)
        .min()
        .map_or(0, |f| f.saturating_sub(t0_clock));
    let mut digests = Vec::new();
    let mut records = Vec::new();
    for mut r in received {
        digests.push(digest_bytes(r.bufs.stream.as_bytes()));
        records.push(r.bufs.stream.len() as u64);
        for window in r.bufs.delivery_ns.chunks_mut(LIVE_WINDOW) {
            rep.delivery.window(window);
        }
        rep.failed += r.dropped;
        rep.layers.dropped_frames += r.dropped;
        rep.layers.consumer_cpu_ns += r.cpu_ns;
        rep.layers.consumer_records += r.bufs.stream.len() as u64;
        for e in r.errors {
            rep.fail(e);
        }
        r.bufs.give_back();
    }
    rep.digest = digests.first().copied().unwrap_or(0);
    if digests.iter().any(|&d| d != rep.digest) {
        rep.fail("live consumers received different streams".into());
    }
    rep.records = records.into_iter().min().unwrap_or(0);
    if mode != Mode::Plain {
        let snap = registry.snapshot();
        rep.layers.peak_backlog_frames = snap.gauge("cn_live_backlog_blocks").unwrap_or(0);
        rep.layers.dropped_frames = rep
            .layers
            .dropped_frames
            .max(snap.counter("cn_live_drops_total").unwrap_or(0));
    }
    rep
}

/// Materialise the `live-fanout` trace from the sharded stream.
pub fn materialise(models: &ModelSet, w: &Workload) -> Result<Vec<TraceRecord>, String> {
    let mut stream = ShardedStream::with_shards(models, &w.gen, w.parallelism);
    let mut out = Vec::new();
    while let Some(r) = stream
        .try_next()
        .map_err(|e| stream_err("materialise", &e))?
    {
        out.push(r);
    }
    stream.finish().map_err(|e| stream_err("materialise", &e))?;
    Ok(out)
}

/// One repetition of `w` in `mode`.
pub fn rep(
    models: &ModelSet,
    w: &Workload,
    trace: &[TraceRecord],
    mode: Mode,
    spans: &TraceSink,
) -> Rep {
    match w.kind {
        Kind::Steady | Kind::Wide => encode_rep(models, w, w.parallelism, mode, spans),
        Kind::StormDes => storm_rep(models, w, mode, spans),
        Kind::LiveFanout => live_rep(trace, w, mode, spans),
    }
}

/// Drain `w`'s stream inline (one shard) with nothing downstream and no
/// per-call timer: the single-thread baseline. Returns `(events, ns)`.
pub fn inline_probe(models: &ModelSet, w: &Workload) -> Result<(u64, u64), String> {
    let t = Instant::now();
    let mut stream = ShardedStream::with_shards(models, &w.gen, 1);
    let mut events = 0u64;
    while stream
        .try_next()
        .map_err(|e| stream_err("probe", &e))?
        .is_some()
    {
        events += 1;
    }
    stream.finish().map_err(|e| stream_err("probe", &e))?;
    Ok((events, ns_since(t)))
}

/// A drain of a fresh `ShardedStream`, timed per call.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenProbe {
    /// Records drained.
    pub records: u64,
    /// Construction until the first record.
    pub bootstrap_ns: u64,
    /// Caller-side time in `try_next`.
    pub next_ns: u64,
}

/// Drain `w`'s stream at `nproc` shards with nothing downstream.
pub fn gen_probe(models: &ModelSet, w: &Workload) -> Result<GenProbe, String> {
    let t0 = Instant::now();
    let stream = ShardedStream::with_shards(models, &w.gen, w.parallelism);
    let built_ns = ns_since(t0);
    let (mut src, clock) = TimedSource::new(stream);
    while src
        .try_next()
        .map_err(|e| stream_err("probe", &e))?
        .is_some()
    {}
    src.finish().map_err(|e| stream_err("probe", &e))?;
    Ok(GenProbe {
        records: clock.records(),
        bootstrap_ns: built_ns + clock.first_call_ns().unwrap_or(0),
        next_ns: clock.ns(),
    })
}

/// Encode a materialised trace into blocks under batched timers; returns
/// its [`BlockSink`] digest and the nanoseconds spent in
/// `EncodedBlock::push`.
pub fn encode_trace(trace: &[TraceRecord]) -> (u64, u64) {
    let mut sink = BlockSink::default();
    let ns = trace
        .chunks(BLOCK_RECORDS)
        .map(|batch| sink.push_timed(batch))
        .sum();
    (sink.finish(), ns)
}
