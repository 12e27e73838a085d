//! Multi-NF discrete-event core-network simulator.
//!
//! [`crate::queueing::QueueSim`] answers "what if the whole core were one
//! FIFO box" — useful for analytic sanity, but a real EPC is five network
//! functions with their own pools, their own service-time laws, and
//! procedures that *chain* across them: an attach authenticates at the
//! HSS before it can create a session at the SGW/PGW, and pulls policy
//! from the PCRF before the MME can accept. This module is the
//! event-calendar discrete-event simulator (DES) the paper's §3.1 use
//! case actually calls for, in the spirit of the simmer 5G-scenario DES
//! and the Dababneh et al. per-NF transaction model:
//!
//! * each [`NetworkFunction`] is a pool of `c` identical servers fed by
//!   one FIFO queue, with per-transaction service times drawn from a
//!   [`Dist`] of the `cn-stats` zoo (log-normal by default, any family
//!   by configuration) — not fixed constants;
//! * each admitted procedure fans out into a **dependency chain** of
//!   per-NF stages derived from the [`TransactionMatrix`]
//!   ([`dependency_chain`]): attach runs MME → HSS auth → MME → SGW/PGW
//!   session → PCRF policy → MME accept, and stage *k+1* cannot start
//!   before stage *k* completes;
//! * per-NF **autoscaling** ([`AutoscalePolicy`]) runs inside the loop:
//!   a periodic control tick compares queue depth against a
//!   per-server watermark and brings servers online after a
//!   provisioning delay — the *scaling lag* (breach-to-online time) is
//!   measured and reported, because it is exactly the number a capacity
//!   planner wants from a storm experiment;
//! * the existing [`AdmissionPolicy`] token bucket (NAS congestion
//!   control) guards the front door: shed procedures never enter the
//!   calendar, and shed counts are reported per [`Priority`] class.
//!
//! ## Determinism
//!
//! Every service time is a pure function of `(config.seed, ue, arrival
//! time, event type)`: each job derives its own RNG at admission and
//! draws all of its stage services up front. Two consequences: reruns at
//! a fixed seed are bit-identical (the closed-loop gate `mcn_check` pins
//! this), and injecting extra records into a trace never changes the
//! service times of the records already there — the property the
//! monotone-degradation suite leans on, mirroring `cn-scenario`'s
//! prefix-multiset injection discipline.
//!
//! ## Feeding the simulator
//!
//! [`DesSim`] is push-based: [`DesSim::offer`] admits one record (input
//! must be sorted by time; out-of-order input is a typed
//! [`DesError::UnsortedInput`], never a silently wrong backlog), and
//! [`DesSim::finish`] drains the calendar and builds the [`DesReport`].
//! Any source plumbs in — a batch [`Trace`] ([`DesSim::run_trace`]), a
//! `ScenarioStream`, or a live TCP connection decoded by `cn-live`.
//! Telemetry flows through the `cn_mcn_des_*` metric family when a
//! registry is attached with [`DesSim::observed`].
//!
//! ## Memory
//!
//! Jobs are fixed-size and recycled, and the calendar holds at most one
//! entry per server a pool may have plus one control tick per autoscaled
//! NF. Latencies
//! below 65.5 ms are counted rather than stored, with exact quantiles;
//! only the slower samples are kept one by one, so a run's memory grows
//! with its slow tail, not with its length.

use crate::nf::{NetworkFunction, TransactionMatrix};
use crate::overload::{priority_of, AdmissionPolicy, Priority, TokenBucket};
use cn_obs::{Counter, Gauge, Histogram, Registry};
use cn_stats::{Dist, LogNormal};
use cn_trace::{EventType, Trace, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Per-NF pool configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfConfig {
    /// Which network function this pool is.
    pub nf: NetworkFunction,
    /// Initial (and, without autoscaling, fixed) server count.
    pub servers: usize,
    /// Per-transaction service-time distribution. Samples are
    /// interpreted as **microseconds** and rounded to the calendar grid;
    /// negative draws (impossible for the stock families) clamp to 0.
    pub service: Dist,
    /// Optional autoscaling policy; `None` pins the pool size.
    pub autoscale: Option<AutoscalePolicy>,
}

/// Queue-depth-driven horizontal autoscaling for one NF pool.
///
/// A control tick fires every `eval_every_ms`. When the queue holds more
/// than `high_depth_per_server` jobs per online-or-provisioning server,
/// one server is ordered; it comes online `provision_ms` later. When the
/// queue drops below `low_depth_per_server` per server and a server is
/// idle, one is retired immediately (draining costs nothing in-model).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Lower bound on pool size (also the floor for scale-down).
    pub min_servers: usize,
    /// Upper bound on pool size.
    pub max_servers: usize,
    /// Scale up when `queue_depth > high_depth_per_server × servers`.
    pub high_depth_per_server: f64,
    /// Scale down when `queue_depth < low_depth_per_server × servers`.
    pub low_depth_per_server: f64,
    /// Control-loop period, ms.
    pub eval_every_ms: u64,
    /// Delay between ordering a server and it taking work, ms.
    pub provision_ms: u64,
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesConfig {
    /// Seed for the per-job service-time streams.
    pub seed: u64,
    /// One pool per NF. Every NF the `matrix` references (non-zero
    /// transaction count for any event) must be present exactly once.
    pub nfs: Vec<NfConfig>,
    /// Per-event transaction fan-out across NFs.
    pub matrix: TransactionMatrix,
    /// Optional NAS-style admission control at the front door.
    pub admission: Option<AdmissionPolicy>,
}

/// A rejected [`DesConfig`] or input stream, with the reason typed.
#[derive(Debug, Clone, PartialEq)]
pub enum DesError {
    /// An NF appears more than once in `nfs`.
    DuplicateNf(NetworkFunction),
    /// The matrix routes transactions to an NF with no configured pool.
    MissingNf(NetworkFunction),
    /// A pool has zero servers.
    ZeroServers(NetworkFunction),
    /// An autoscaling policy is inconsistent (bounds, watermarks, or a
    /// zero evaluation period).
    BadAutoscale {
        /// The offending NF.
        nf: NetworkFunction,
        /// Human-readable reason.
        reason: String,
    },
    /// The admission policy carries a non-finite or non-positive field.
    BadAdmission {
        /// Offending field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// [`DesSim::offer`] saw an arrival earlier than its predecessor.
    UnsortedInput {
        /// Timestamp of the previous arrival, ms.
        prev_ms: u64,
        /// Timestamp of the offending arrival, ms.
        got_ms: u64,
    },
    /// [`DesSim::offer`] saw an arrival past the simulated-time horizon
    /// (2^62 µs, about 146,000 years). The simulator is unchanged.
    TimeOutOfRange {
        /// Timestamp of the offending arrival, ms.
        t_ms: u64,
    },
    /// The service times drawn for an admitted job would let the
    /// calendar run past the simulated-time horizon: a service law on
    /// the job's chain has a tail too heavy for the time domain. The
    /// record counts as offered but neither admitted nor shed, so the
    /// run no longer describes its input; stop feeding it.
    ServiceOutOfRange {
        /// Timestamp of the job's arrival, ms.
        t_ms: u64,
        /// The job's UE.
        ue: u32,
        /// The job's procedure.
        event: EventType,
    },
}

impl std::fmt::Display for DesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesError::DuplicateNf(nf) => write!(f, "duplicate pool for {nf}"),
            DesError::MissingNf(nf) => {
                write!(
                    f,
                    "matrix routes transactions to {nf} but no pool is configured"
                )
            }
            DesError::ZeroServers(nf) => write!(f, "{nf} pool has zero servers"),
            DesError::BadAutoscale { nf, reason } => {
                write!(f, "{nf} autoscale policy invalid: {reason}")
            }
            DesError::BadAdmission { field, value } => {
                write!(f, "admission policy field {field} invalid: {value}")
            }
            DesError::UnsortedInput { prev_ms, got_ms } => write!(
                f,
                "unsorted input: arrival at {got_ms} ms after one at {prev_ms} ms"
            ),
            DesError::TimeOutOfRange { t_ms } => {
                write!(f, "arrival at {t_ms} ms is past the simulated-time horizon")
            }
            DesError::ServiceOutOfRange { t_ms, ue, event } => write!(
                f,
                "{event} of UE {ue} at {t_ms} ms drew service times past the \
                 simulated-time horizon"
            ),
        }
    }
}

impl std::error::Error for DesError {}

impl DesConfig {
    /// A plausible EPC shape: MME-heavy pools, Diameter (HSS/PCRF)
    /// slower than GTP-C (SGW/PGW), log-normal service laws with medians
    /// in the [`crate::queueing::ServiceProfile::default_mme`] range,
    /// and an autoscaling MME. No admission control — add one with
    /// [`DesConfig::with_admission`].
    pub fn default_epc(seed: u64) -> DesConfig {
        let lognormal = |median_us: f64, sigma: f64| {
            Dist::LogNormal(LogNormal::from_median(median_us, sigma).expect("valid law"))
        };
        let pool = |nf, servers, service| NfConfig {
            nf,
            servers,
            service,
            autoscale: None,
        };
        DesConfig {
            seed,
            nfs: vec![
                NfConfig {
                    nf: NetworkFunction::Mme,
                    servers: 4,
                    service: lognormal(350.0, 0.4),
                    autoscale: Some(AutoscalePolicy {
                        min_servers: 4,
                        max_servers: 16,
                        high_depth_per_server: 8.0,
                        low_depth_per_server: 2.0,
                        eval_every_ms: 1_000,
                        provision_ms: 5_000,
                    }),
                },
                pool(NetworkFunction::Hss, 2, lognormal(450.0, 0.4)),
                pool(NetworkFunction::Pcrf, 2, lognormal(400.0, 0.4)),
                pool(NetworkFunction::Sgw, 2, lognormal(250.0, 0.35)),
                pool(NetworkFunction::Pgw, 2, lognormal(250.0, 0.35)),
            ],
            matrix: TransactionMatrix::default_epc(),
            admission: None,
        }
    }

    /// Same configuration with an admission policy at the front door.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> DesConfig {
        self.admission = Some(policy);
        self
    }

    /// Typed validation: pool uniqueness and coverage of the matrix,
    /// non-empty pools, consistent autoscale bounds/watermarks, and a
    /// finite positive admission policy.
    pub fn validate(&self) -> Result<(), DesError> {
        let mut seen = [false; 5];
        for nf_cfg in &self.nfs {
            let idx = nf_index(nf_cfg.nf);
            if seen[idx] {
                return Err(DesError::DuplicateNf(nf_cfg.nf));
            }
            seen[idx] = true;
            if nf_cfg.servers == 0 {
                return Err(DesError::ZeroServers(nf_cfg.nf));
            }
            if let Some(p) = &nf_cfg.autoscale {
                let bad = |reason: &str| DesError::BadAutoscale {
                    nf: nf_cfg.nf,
                    reason: reason.into(),
                };
                if p.min_servers == 0 {
                    return Err(bad("min_servers is zero"));
                }
                if p.min_servers > p.max_servers {
                    return Err(bad("min_servers > max_servers"));
                }
                if !(nf_cfg.servers >= p.min_servers && nf_cfg.servers <= p.max_servers) {
                    return Err(bad("initial servers outside [min, max]"));
                }
                if !p.high_depth_per_server.is_finite() || p.high_depth_per_server <= 0.0 {
                    return Err(bad("high_depth_per_server not finite positive"));
                }
                if !p.low_depth_per_server.is_finite() || p.low_depth_per_server < 0.0 {
                    return Err(bad("low_depth_per_server not finite non-negative"));
                }
                if p.low_depth_per_server >= p.high_depth_per_server {
                    return Err(bad("low watermark not below high watermark"));
                }
                if p.eval_every_ms == 0 {
                    return Err(bad("eval_every_ms is zero"));
                }
                if p.eval_every_ms > MAX_DELAY_MS {
                    return Err(bad("eval_every_ms past the simulated-time horizon"));
                }
                if p.provision_ms > MAX_DELAY_MS {
                    return Err(bad("provision_ms past the simulated-time horizon"));
                }
            }
        }
        for event in EventType::ALL {
            let row = &self.matrix.transactions[event.code() as usize];
            for (idx, &tx) in row.iter().enumerate() {
                if tx > 0 && !seen[idx] {
                    return Err(DesError::MissingNf(NetworkFunction::ALL[idx]));
                }
            }
        }
        if let Some(p) = &self.admission {
            let check = |field: &'static str, value: f64, min: f64| {
                if !value.is_finite() || value < min {
                    Err(DesError::BadAdmission { field, value })
                } else {
                    Ok(())
                }
            };
            check("rate_per_sec", p.rate_per_sec, 0.0)?;
            check("burst", p.burst, 1.0)?;
            check("high_reserve", p.high_reserve, 0.0)?;
            check("critical_reserve", p.critical_reserve, 0.0)?;
        }
        Ok(())
    }
}

/// The simulated-time horizon, µs. Arrivals and the drain bound of all
/// admitted work stay at or below it ([`DesError::TimeOutOfRange`],
/// [`DesError::ServiceOutOfRange`]), and a control period or a
/// provisioning delay is at most as long, so every calendar instant (at
/// most the horizon plus one of each) fits a `u64`.
const MAX_TIME_US: u64 = 1 << 62;

/// Longest `eval_every_ms` and `provision_ms` [`DesConfig::validate`]
/// accepts.
const MAX_DELAY_MS: u64 = MAX_TIME_US / 1_000;

/// Longest chain [`dependency_chain`] builds for any matrix: attach
/// visits 7 NFs; every other event has at most 6 stages (its canonical
/// visits plus the NFs that order skips).
const MAX_CHAIN: usize = 7;

fn nf_index(nf: NetworkFunction) -> usize {
    NetworkFunction::ALL
        .iter()
        .position(|&n| n == nf)
        .expect("known NF")
}

/// Canonical NF visit order per procedure, following the TS 23.401
/// call flows (the same ordering [`crate::messages`] encodes at message
/// granularity).
fn visit_order(event: EventType) -> &'static [NetworkFunction] {
    use NetworkFunction::*;
    match event {
        // NAS + auth at HSS, security back at MME, session SGW→PGW,
        // policy at PCRF, accept/complete at MME.
        EventType::Attach => &[Mme, Hss, Mme, Sgw, Pgw, Pcrf, Mme],
        // Detach: session teardown SGW→PGW→PCRF, accept at MME, purge at HSS.
        EventType::Detach => &[Mme, Sgw, Pgw, Pcrf, Mme, Hss],
        EventType::ServiceRequest => &[Mme, Sgw, Mme],
        EventType::S1ConnRelease => &[Mme, Sgw, Mme],
        EventType::Handover => &[Mme, Sgw, Mme],
        EventType::Tau => &[Mme],
    }
}

/// The ordered per-NF stage chain of one procedure: each element is
/// `(nf, transactions served in that visit)`, and stage *k+1* depends on
/// stage *k* completing. The per-NF totals equal the matrix row exactly:
/// an NF visited multiple times splits its count evenly with the
/// remainder on the first visit, an NF the canonical order skips (but
/// the matrix routes to) is appended as a trailing stage, and zero-count
/// visits vanish.
pub fn dependency_chain(
    event: EventType,
    matrix: &TransactionMatrix,
) -> Vec<(NetworkFunction, u32)> {
    let order = visit_order(event);
    let row = &matrix.transactions[event.code() as usize];
    let mut visits = [0u32; 5];
    for &nf in order {
        visits[nf_index(nf)] += 1;
    }
    let mut first_seen = [true; 5];
    let mut chain = Vec::with_capacity(order.len());
    for &nf in order {
        let i = nf_index(nf);
        if row[i] == 0 {
            continue;
        }
        let base = row[i] / visits[i];
        let tx = if first_seen[i] {
            first_seen[i] = false;
            base + row[i] % visits[i]
        } else {
            base
        };
        if tx > 0 {
            chain.push((nf, tx));
        }
    }
    for (i, &tx) in row.iter().enumerate() {
        if tx > 0 && visits[i] == 0 {
            chain.push((NetworkFunction::ALL[i], tx));
        }
    }
    chain
}

/// One calendar action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// A server at `nf` finishes the current stage of `job`.
    StageDone { job: u32 },
    /// A provisioned server at `nf` comes online.
    ServerOnline { nf: u8 },
    /// The autoscaling control loop of `nf` evaluates.
    ScaleTick { nf: u8 },
}

/// Calendar entries order by `(time, sequence)`; the sequence number is
/// assigned at push, making the drain order a deterministic function of
/// the push order (which is itself deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CalEntry {
    t_us: u64,
    seq: u64,
    action_key: u8,
    job_or_nf: u32,
}

impl CalEntry {
    fn new(t_us: u64, seq: u64, action: Action) -> CalEntry {
        let (action_key, job_or_nf) = match action {
            Action::StageDone { job } => (0, job),
            Action::ServerOnline { nf } => (1, u32::from(nf)),
            Action::ScaleTick { nf } => (2, u32::from(nf)),
        };
        CalEntry {
            t_us,
            seq,
            action_key,
            job_or_nf,
        }
    }

    fn action(&self) -> Action {
        match self.action_key {
            0 => Action::StageDone {
                job: self.job_or_nf,
            },
            1 => Action::ServerOnline {
                nf: self.job_or_nf as u8,
            },
            _ => Action::ScaleTick {
                nf: self.job_or_nf as u8,
            },
        }
    }
}

/// One in-flight procedure.
#[derive(Debug, Clone)]
struct Job {
    arrival_us: u64,
    stage_enqueued_us: u64,
    stage: usize,
    event: EventType,
    /// Pre-drawn per-stage service times, µs (see module docs on
    /// determinism); entries past the chain's length are unused.
    stage_service_us: [u64; MAX_CHAIN],
}

/// Number of latency values, from 0 µs up, that [`LatencyRecorder`]
/// keeps as counts.
const DENSE_US: usize = 1 << 16;

/// Exact latency quantiles in bounded memory. Values below [`DENSE_US`]
/// µs are counted in one zeroed 512 KiB table (pages never touched cost
/// no RSS); larger values are kept verbatim in a tail that is sorted once
/// when read. Reading out walks the values in ascending order, each
/// repeated by its count — the same sequence a sort of every sample
/// would give, so the quantiles and the mean are bit-identical to that.
#[derive(Debug)]
struct LatencyRecorder {
    counts: Box<[u64]>,
    tail: Vec<u64>,
    len: u64,
}

impl LatencyRecorder {
    fn new() -> LatencyRecorder {
        LatencyRecorder {
            counts: vec![0; DENSE_US].into_boxed_slice(),
            tail: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, us: u64) {
        if us < DENSE_US as u64 {
            self.counts[us as usize] += 1;
        } else {
            self.tail.push(us);
        }
        self.len += 1;
    }

    /// `(value µs, multiplicity)` in ascending value order.
    fn ascending(&mut self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.tail.sort_unstable();
        let dense = (0u64..).zip(self.counts.iter().copied());
        let tail = self.tail.iter().map(|&us| (us, 1));
        dense.filter(|&(_, n)| n > 0).chain(tail)
    }

    /// The samples at the given ranks (0-based, any order) of the sorted
    /// sequence; every rank must be below `len`.
    fn at_ranks<const K: usize>(&mut self, ranks: [u64; K]) -> [u64; K] {
        let mut order: [usize; K] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| ranks[i]);
        let mut out = [0; K];
        let mut next = 0;
        let mut seen = 0;
        for (us, n) in self.ascending() {
            seen += n;
            while next < K && ranks[order[next]] < seen {
                out[order[next]] = us;
                next += 1;
            }
            if next == K {
                break;
            }
        }
        out
    }

    /// `[p50, p99, max]` in ms, each exactly what `percentile_sorted`
    /// returns over the sorted samples in ms; zeros when empty.
    fn quantiles_ms(&mut self) -> [f64; 3] {
        let Some(last) = self.len.checked_sub(1) else {
            return [0.0; 3];
        };
        let h50 = 0.50 * last as f64;
        let h99 = 0.99 * last as f64;
        let (lo50, hi50) = (h50.floor() as u64, h50.ceil() as u64);
        let (lo99, hi99) = (h99.floor() as u64, h99.ceil() as u64);
        let ms = |us: u64| us as f64 / 1_000.0;
        let [a50, b50, a99, b99, max] = self.at_ranks([lo50, hi50, lo99, hi99, last]);
        [
            ms(a50) + (ms(b50) - ms(a50)) * (h50 - lo50 as f64),
            ms(a99) + (ms(b99) - ms(a99)) * (h99 - lo99 as f64),
            ms(max),
        ]
    }

    /// Mean in ms, summed in ascending order exactly as a sort of every
    /// sample would; 0 when empty.
    fn mean_ms(&mut self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let len = self.len;
        self.ascending()
            .flat_map(|(us, n)| std::iter::repeat_n(us as f64 / 1_000.0, n as usize))
            .sum::<f64>()
            / len as f64
    }
}

/// Telemetry handles (no-ops unless a registry is attached).
#[derive(Debug, Clone, Default)]
struct DesObs {
    latency_us: Histogram,
    offered: Counter,
    completed: Counter,
    admitted: [Counter; 3],
    shed: [Counter; 3],
    nf_depth: [Histogram; 5],
    nf_stage_latency_us: [Histogram; 5],
    nf_transactions: [Counter; 5],
    nf_servers: [Gauge; 5],
    nf_scale_up: [Counter; 5],
    nf_scale_down: [Counter; 5],
    nf_scaling_lag_ms: [Histogram; 5],
}

impl DesObs {
    fn register(registry: &Registry) -> DesObs {
        let by_priority = |name: &str| {
            Priority::ALL.map(|p| registry.counter_with(name, &[("priority", p.label())]))
        };
        let nf_hist = |name: &str| {
            NetworkFunction::ALL.map(|nf| registry.histogram_with(name, &[("nf", nf.name())]))
        };
        let nf_counter = |name: &str, extra: Option<(&str, &str)>| {
            NetworkFunction::ALL.map(|nf| {
                let nf_label = ("nf", nf.name());
                match extra {
                    Some(kv) => registry.counter_with(name, &[nf_label, kv]),
                    None => registry.counter_with(name, &[nf_label]),
                }
            })
        };
        DesObs {
            latency_us: registry.histogram("cn_mcn_des_latency_us"),
            offered: registry.counter("cn_mcn_des_offered_total"),
            completed: registry.counter("cn_mcn_des_completed_total"),
            admitted: by_priority("cn_mcn_des_admitted_total"),
            shed: by_priority("cn_mcn_des_shed_total"),
            nf_depth: nf_hist("cn_mcn_des_nf_depth"),
            nf_stage_latency_us: nf_hist("cn_mcn_des_nf_stage_latency_us"),
            nf_transactions: nf_counter("cn_mcn_des_nf_transactions_total", None),
            nf_servers: NetworkFunction::ALL
                .map(|nf| registry.gauge_with("cn_mcn_des_nf_servers", &[("nf", nf.name())])),
            nf_scale_up: nf_counter("cn_mcn_des_scale_events_total", Some(("direction", "up"))),
            nf_scale_down: nf_counter("cn_mcn_des_scale_events_total", Some(("direction", "down"))),
            nf_scaling_lag_ms: nf_hist("cn_mcn_des_scaling_lag_ms"),
        }
    }
}

/// Live state of one NF pool.
#[derive(Debug)]
struct NfState {
    cfg: NfConfig,
    servers: usize,
    /// Servers ordered but not yet online.
    provisioning: usize,
    busy: usize,
    queue: VecDeque<u32>,
    /// Accumulated busy server-time, µs (wide: servers × the time
    /// horizon can exceed a `u64`).
    busy_us: u128,
    /// Accumulated capacity integral ∫ servers dt, µs, up to
    /// `cap_since_us`.
    cap_us: u128,
    cap_since_us: u64,
    peak_depth: usize,
    stages: u64,
    transactions: u64,
    stage_latencies_us: LatencyRecorder,
    /// Start of the current continuous high-watermark breach.
    breach_since_us: Option<u64>,
    scale_ups: u64,
    scale_downs: u64,
    scaling_lags_ms: Vec<u64>,
}

impl NfState {
    fn new(cfg: NfConfig) -> NfState {
        let servers = cfg.servers;
        NfState {
            cfg,
            servers,
            provisioning: 0,
            busy: 0,
            queue: VecDeque::new(),
            busy_us: 0,
            cap_us: 0,
            cap_since_us: 0,
            peak_depth: 0,
            stages: 0,
            transactions: 0,
            stage_latencies_us: LatencyRecorder::new(),
            breach_since_us: None,
            scale_ups: 0,
            scale_downs: 0,
            scaling_lags_ms: Vec::new(),
        }
    }

    /// Close the capacity integral up to `now` (call before any change
    /// to `servers`).
    fn settle_capacity(&mut self, now_us: u64) {
        let dt = now_us.saturating_sub(self.cap_since_us);
        self.cap_us += u128::from(dt) * self.servers as u128;
        self.cap_since_us = now_us;
    }

    /// Re-evaluate the breach clock against the high watermark.
    ///
    /// The clock runs against *online* servers only: a breach means the
    /// pool's real capacity is underwater right now, and it stays armed
    /// through the provisioning window so breach-to-online lag measures
    /// the full detection + provision delay. (The scale-up *decision* in
    /// `scale_tick` is what counts in-flight servers, to avoid
    /// double-provisioning.)
    fn update_breach(&mut self, now_us: u64) {
        let Some(policy) = &self.cfg.autoscale else {
            return;
        };
        if self.queue.len() as f64 > policy.high_depth_per_server * self.servers as f64 {
            self.breach_since_us.get_or_insert(now_us);
        } else {
            self.breach_since_us = None;
        }
    }
}

/// What one simulated NF did, for [`DesReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NfDesReport {
    /// The network function.
    pub nf: NetworkFunction,
    /// Transactions served (matrix units).
    pub transactions: u64,
    /// Stages (dependency-chain visits) served.
    pub stages: u64,
    /// Busy server-time over the capacity integral ∫ servers dt;
    /// autoscaling-aware, clamped to ≤ 1.0.
    pub utilization: f64,
    /// Largest queue depth observed at an enqueue instant.
    pub peak_depth: usize,
    /// Median stage sojourn (wait + service), ms.
    pub p50_stage_latency_ms: f64,
    /// 99th-percentile stage sojourn, ms.
    pub p99_stage_latency_ms: f64,
    /// Pool size at the end of the run.
    pub final_servers: usize,
    /// Scale-up events (servers that came online).
    pub scale_ups: u64,
    /// Scale-down events.
    pub scale_downs: u64,
    /// Worst breach-to-online scaling lag, ms (0 when never scaled).
    pub max_scaling_lag_ms: u64,
    /// Mean scaling lag, ms.
    pub mean_scaling_lag_ms: f64,
}

/// The closed-loop numbers of one DES run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesReport {
    /// Records offered (admitted + shed).
    pub offered: u64,
    /// Admitted per priority class (Critical, High, Low).
    pub admitted: [u64; 3],
    /// Shed per priority class.
    pub shed: [u64; 3],
    /// Procedures that ran their full dependency chain.
    pub completed: u64,
    /// Shed fraction of all offered records.
    pub shed_rate: f64,
    /// Mean end-to-end procedure latency, ms.
    pub mean_latency_ms: f64,
    /// Median end-to-end latency, ms.
    pub p50_latency_ms: f64,
    /// 99th-percentile end-to-end latency, ms.
    pub p99_latency_ms: f64,
    /// Maximum end-to-end latency, ms.
    pub max_latency_ms: f64,
    /// Per-NF breakdown, in [`NetworkFunction::ALL`] order restricted to
    /// configured pools.
    pub per_nf: Vec<NfDesReport>,
}

impl DesReport {
    /// Total admitted procedures.
    pub fn total_admitted(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total shed procedures.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }
}

/// The simulator. See the module docs for the model.
pub struct DesSim {
    config: DesConfig,
    /// `chains[event_code]` = compiled dependency chain.
    chains: [Vec<(usize, u32)>; 6],
    nfs: Vec<NfState>,
    calendar: BinaryHeap<Reverse<CalEntry>>,
    seq: u64,
    jobs: Vec<Job>,
    free_jobs: Vec<u32>,
    last_arrival_ms: Option<u64>,
    t0_us: Option<u64>,
    end_us: u64,
    /// Front-door admission state (`None` without a policy).
    admission: Option<TokenBucket>,
    offered: u64,
    admitted: [u64; 3],
    shed: [u64; 3],
    outstanding: u64,
    completed: u64,
    /// Lindley bound on when all admitted work is done: every arrival
    /// raises it to at least the arrival, plus the job's total service.
    /// While work is outstanding some server is busy, so no stage
    /// completes after it.
    drained_by_us: u64,
    latencies_us: LatencyRecorder,
    input_done: bool,
    obs: DesObs,
    /// Test switch: run every idle tick one by one, the reference the
    /// fast-forward is checked against.
    #[cfg(test)]
    tick_by_tick: bool,
}

impl DesSim {
    /// Validate `config` and build the simulator.
    pub fn new(config: DesConfig) -> Result<DesSim, DesError> {
        config.validate()?;
        let mut pool_of = [usize::MAX; 5];
        for (i, nf_cfg) in config.nfs.iter().enumerate() {
            pool_of[nf_index(nf_cfg.nf)] = i;
        }
        let chains = EventType::ALL.map(|event| {
            let chain = dependency_chain(event, &config.matrix);
            assert!(
                chain.len() <= MAX_CHAIN,
                "{event}: chain longer than MAX_CHAIN"
            );
            chain
                .into_iter()
                .map(|(nf, tx)| (pool_of[nf_index(nf)], tx))
                .collect::<Vec<_>>()
        });
        let nfs = config.nfs.iter().cloned().map(NfState::new).collect();
        let admission = config.admission.map(TokenBucket::new);
        Ok(DesSim {
            config,
            chains,
            nfs,
            calendar: BinaryHeap::new(),
            seq: 0,
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            last_arrival_ms: None,
            t0_us: None,
            end_us: 0,
            admission,
            offered: 0,
            admitted: [0; 3],
            shed: [0; 3],
            outstanding: 0,
            completed: 0,
            drained_by_us: 0,
            latencies_us: LatencyRecorder::new(),
            input_done: false,
            obs: DesObs::default(),
            #[cfg(test)]
            tick_by_tick: false,
        })
    }

    /// Record `cn_mcn_des_*` telemetry into `registry` for the rest of
    /// this run: the end-to-end latency histogram, per-NF depth /
    /// stage-latency / transaction series, admission counters by
    /// priority, scale-event counters by direction, per-NF server
    /// gauges, and scaling-lag histograms.
    pub fn observed(mut self, registry: &Registry) -> DesSim {
        self.obs = DesObs::register(registry);
        for state in &self.nfs {
            self.obs.nf_servers[nf_index(state.cfg.nf)].set(state.servers as u64);
        }
        self
    }

    /// Convenience: run a whole sorted trace and finish.
    pub fn run_trace(
        config: DesConfig,
        trace: &Trace,
        registry: &Registry,
    ) -> Result<DesReport, DesError> {
        let mut sim = DesSim::new(config)?.observed(registry);
        for rec in trace.iter() {
            sim.offer(rec)?;
        }
        Ok(sim.finish())
    }

    fn push(&mut self, t_us: u64, action: Action) {
        let entry = CalEntry::new(t_us, self.seq, action);
        self.seq += 1;
        self.calendar.push(Reverse(entry));
    }

    /// Pre-draw every stage service time of one job from its own RNG —
    /// a pure function of `(seed, ue, t, event)` — into `stages`, and
    /// return their total, or `None` if a sum overflows.
    fn draw_services(&self, rec: &TraceRecord, stages: &mut [u64; MAX_CHAIN]) -> Option<u64> {
        let chain = &self.chains[rec.event.code() as usize];
        let mut rng = StdRng::seed_from_u64(job_seed(
            self.config.seed,
            rec.ue.0,
            rec.t.as_millis(),
            rec.event.code(),
        ));
        let mut total = 0u64;
        for (stage_us, &(pool, tx)) in stages.iter_mut().zip(chain) {
            let service = &self.config.nfs[pool].service;
            for _ in 0..tx {
                let draw = service.sample(&mut rng).max(0.0).round() as u64;
                *stage_us = stage_us.checked_add(draw)?;
            }
            total = total.checked_add(*stage_us)?;
        }
        Some(total)
    }

    /// Offer one record at its trace timestamp. Input must be sorted by
    /// time (ties allowed); earlier-than-predecessor arrivals are a
    /// typed error, mirroring the `run_messages` sorted-arrival fix.
    /// So are arrivals past the simulated-time horizon and jobs whose
    /// service draws would run the calendar past it
    /// ([`DesError::TimeOutOfRange`], [`DesError::ServiceOutOfRange`]).
    pub fn offer(&mut self, rec: &TraceRecord) -> Result<(), DesError> {
        let arrival_ms = rec.t.as_millis();
        if let Some(prev_ms) = self.last_arrival_ms {
            if arrival_ms < prev_ms {
                return Err(DesError::UnsortedInput {
                    prev_ms,
                    got_ms: arrival_ms,
                });
            }
        }
        let arrival_us = arrival_ms
            .checked_mul(1_000)
            .filter(|&t| t <= MAX_TIME_US)
            .ok_or(DesError::TimeOutOfRange { t_ms: arrival_ms })?;
        self.last_arrival_ms = Some(arrival_ms);
        if self.t0_us.is_none() {
            self.t0_us = Some(arrival_us);
            self.end_us = arrival_us;
            for state in &mut self.nfs {
                state.cap_since_us = arrival_us;
            }
            // Arm the autoscaling control loops.
            for i in 0..self.nfs.len() {
                if let Some(policy) = &self.nfs[i].cfg.autoscale {
                    let t = arrival_us + policy.eval_every_ms * 1_000;
                    self.push(t, Action::ScaleTick { nf: i as u8 });
                }
            }
        }
        self.advance_to(arrival_us);

        self.offered += 1;
        self.obs.offered.inc();
        let priority = priority_of(rec.event);
        if let Some(bucket) = &mut self.admission {
            if !bucket.admit(arrival_us, priority) {
                self.shed[priority as usize] += 1;
                self.obs.shed[priority as usize].inc();
                return Ok(());
            }
        }

        let mut stage_service_us = [0; MAX_CHAIN];
        self.drained_by_us = self
            .draw_services(rec, &mut stage_service_us)
            .and_then(|total| self.drained_by_us.max(arrival_us).checked_add(total))
            .filter(|&t| t <= MAX_TIME_US)
            .ok_or(DesError::ServiceOutOfRange {
                t_ms: arrival_ms,
                ue: rec.ue.0,
                event: rec.event,
            })?;
        self.admitted[priority as usize] += 1;
        self.obs.admitted[priority as usize].inc();

        let chain = &self.chains[rec.event.code() as usize];
        if chain.is_empty() {
            // A matrix can route an event nowhere; it completes at once.
            self.completed += 1;
            self.obs.completed.inc();
            self.latencies_us.push(0);
            self.obs.latency_us.record(0);
            return Ok(());
        }
        let pool = chain[0].0;
        let job = Job {
            arrival_us,
            stage_enqueued_us: arrival_us,
            stage: 0,
            event: rec.event,
            stage_service_us,
        };
        let id = match self.free_jobs.pop() {
            Some(id) => {
                self.jobs[id as usize] = job;
                id
            }
            None => {
                self.jobs.push(job);
                (self.jobs.len() - 1) as u32
            }
        };
        self.outstanding += 1;
        self.enqueue(pool, id, arrival_us);
        Ok(())
    }

    /// Drain the calendar and report. Remaining control ticks stop
    /// rescheduling once no work is outstanding.
    pub fn finish(mut self) -> DesReport {
        self.input_done = true;
        self.advance_to(u64::MAX);
        debug_assert_eq!(self.outstanding, 0, "calendar drained with jobs in flight");
        let end_us = self.end_us;
        for state in &mut self.nfs {
            state.settle_capacity(end_us);
        }

        let per_nf = self
            .nfs
            .iter_mut()
            .map(|state| {
                let utilization = if state.cap_us == 0 {
                    0.0
                } else {
                    let ratio = state.busy_us as f64 / state.cap_us as f64;
                    debug_assert!(
                        ratio <= 1.0 + 1e-9,
                        "{}: utilization {ratio} > 1.0",
                        state.cfg.nf
                    );
                    ratio.min(1.0)
                };
                let [p50, p99, _] = state.stage_latencies_us.quantiles_ms();
                let lag_n = state.scaling_lags_ms.len();
                NfDesReport {
                    nf: state.cfg.nf,
                    transactions: state.transactions,
                    stages: state.stages,
                    utilization,
                    peak_depth: state.peak_depth,
                    p50_stage_latency_ms: p50,
                    p99_stage_latency_ms: p99,
                    final_servers: state.servers,
                    scale_ups: state.scale_ups,
                    scale_downs: state.scale_downs,
                    max_scaling_lag_ms: state.scaling_lags_ms.iter().copied().max().unwrap_or(0),
                    mean_scaling_lag_ms: if lag_n == 0 {
                        0.0
                    } else {
                        state.scaling_lags_ms.iter().sum::<u64>() as f64 / lag_n as f64
                    },
                }
            })
            .collect();

        let [p50, p99, max] = self.latencies_us.quantiles_ms();
        let mean = self.latencies_us.mean_ms();
        let total_shed: u64 = self.shed.iter().sum();
        DesReport {
            offered: self.offered,
            admitted: self.admitted,
            shed: self.shed,
            completed: self.completed,
            shed_rate: if self.offered == 0 {
                0.0
            } else {
                total_shed as f64 / self.offered as f64
            },
            mean_latency_ms: mean,
            p50_latency_ms: p50,
            p99_latency_ms: p99,
            max_latency_ms: max,
            per_nf,
        }
    }

    /// Process every calendar entry at or before `to_us`.
    fn advance_to(&mut self, to_us: u64) {
        while let Some(Reverse(entry)) = self.calendar.peek().copied() {
            if entry.t_us > to_us {
                break;
            }
            if self.idle() {
                self.skip_idle_ticks(to_us);
                break;
            }
            self.calendar.pop();
            self.end_us = self.end_us.max(entry.t_us);
            match entry.action() {
                Action::StageDone { job } => self.stage_done(job, entry.t_us),
                Action::ServerOnline { nf } => self.server_online(nf as usize, entry.t_us),
                Action::ScaleTick { nf } => self.scale_tick(nf as usize, entry.t_us),
            }
        }
    }

    /// Whether more input may come while no job is in flight and no
    /// server is provisioning. Then the calendar holds only the autoscale
    /// ticks, and a tick can do nothing but scale its pool down.
    fn idle(&self) -> bool {
        #[cfg(test)]
        if self.tick_by_tick {
            return false;
        }
        !self.input_done && self.outstanding == 0 && self.nfs.iter().all(|s| s.provisioning == 0)
    }

    /// Run every tick at or before `to_us` of an [idle](Self::idle)
    /// simulator in time proportional to its scale-downs, not its ticks.
    ///
    /// Idle ticks of different pools touch disjoint state, and an idle
    /// tick that leaves its pool unchanged leaves every later one
    /// unchanged too. So each pool's ticks run for real up to its first
    /// no-op, then jump to the last tick at or before `to_us`, exactly as
    /// far as the tick-by-tick loop would have gone. The rescheduled ticks
    /// are pushed in the order that loop would push them: by the time of
    /// the tick pushing each, ties in pool order. (Every control loop is
    /// armed at the first arrival, so two ticks pushed at one instant
    /// fall due together only if their periods match, and equal-period
    /// loops have run in pool order since they were armed.) `seq` only
    /// breaks ties between equal times, so skipping pushes changes no
    /// drain order.
    fn skip_idle_ticks(&mut self, to_us: u64) {
        // Per autoscaled pool (at most five, one tick each): the time of
        // the last tick run, the pool, and its successor's time.
        let mut next = [(0u64, 0usize, 0u64); 5];
        let mut n = 0;
        while let Some(Reverse(entry)) = self.calendar.peek().copied() {
            if entry.t_us > to_us {
                break;
            }
            self.calendar.pop();
            let Action::ScaleTick { nf } = entry.action() else {
                unreachable!("an idle calendar holds only ticks");
            };
            let pool = nf as usize;
            let policy = self.nfs[pool]
                .cfg
                .autoscale
                .expect("only autoscaled pools tick");
            let every_us = policy.eval_every_ms * 1_000;
            let last_us = to_us - (to_us - entry.t_us) % every_us;
            let mut t_us = entry.t_us;
            while self.autoscale(pool, policy, t_us) && t_us < last_us {
                t_us += every_us;
            }
            self.end_us = self.end_us.max(last_us);
            next[n] = (last_us, pool, last_us + every_us);
            n += 1;
        }
        next[..n].sort_unstable();
        for &(_, pool, t_us) in &next[..n] {
            self.push(t_us, Action::ScaleTick { nf: pool as u8 });
        }
    }

    fn enqueue(&mut self, pool: usize, job: u32, now_us: u64) {
        let state = &mut self.nfs[pool];
        let nf_idx = nf_index(state.cfg.nf);
        self.obs.nf_depth[nf_idx].record(state.queue.len() as u64);
        state.queue.push_back(job);
        state.peak_depth = state.peak_depth.max(state.queue.len());
        self.dispatch(pool, now_us);
        self.nfs[pool].update_breach(now_us);
    }

    fn dispatch(&mut self, pool: usize, now_us: u64) {
        loop {
            let state = &mut self.nfs[pool];
            if state.busy >= state.servers || state.queue.is_empty() {
                break;
            }
            let job_id = state.queue.pop_front().expect("non-empty");
            state.busy += 1;
            let job = &self.jobs[job_id as usize];
            let service_us = job.stage_service_us[job.stage];
            self.push(now_us + service_us, Action::StageDone { job: job_id });
        }
    }

    fn stage_done(&mut self, job_id: u32, now_us: u64) {
        let (pool, chain_len, service_us, stage_sojourn_us, tx) = {
            let job = &self.jobs[job_id as usize];
            let chain = &self.chains[job.event.code() as usize];
            let (pool, tx) = chain[job.stage];
            (
                pool,
                chain.len(),
                job.stage_service_us[job.stage],
                now_us - job.stage_enqueued_us,
                tx,
            )
        };
        {
            let state = &mut self.nfs[pool];
            let nf_idx = nf_index(state.cfg.nf);
            state.busy -= 1;
            state.busy_us += u128::from(service_us);
            state.stages += 1;
            state.transactions += u64::from(tx);
            state.stage_latencies_us.push(stage_sojourn_us);
            self.obs.nf_stage_latency_us[nf_idx].record(stage_sojourn_us);
            self.obs.nf_transactions[nf_idx].add(u64::from(tx));
        }
        let job = &mut self.jobs[job_id as usize];
        job.stage += 1;
        if job.stage < chain_len {
            job.stage_enqueued_us = now_us;
            let next_pool = self.chains[job.event.code() as usize][job.stage].0;
            self.enqueue(next_pool, job_id, now_us);
        } else {
            let latency_us = now_us - job.arrival_us;
            self.latencies_us.push(latency_us);
            self.obs.latency_us.record(latency_us);
            self.completed += 1;
            self.obs.completed.inc();
            self.outstanding -= 1;
            self.free_jobs.push(job_id);
        }
        self.dispatch(pool, now_us);
        self.nfs[pool].update_breach(now_us);
    }

    fn server_online(&mut self, pool: usize, now_us: u64) {
        let state = &mut self.nfs[pool];
        state.settle_capacity(now_us);
        state.servers += 1;
        state.provisioning -= 1;
        state.scale_ups += 1;
        let nf_idx = nf_index(state.cfg.nf);
        // A lag sample only makes sense against an active breach; if the
        // queue drained itself before the server arrived, there is no
        // breach-to-online delay to report.
        if let Some(since) = state.breach_since_us {
            let lag_ms = (now_us - since) / 1_000;
            state.scaling_lags_ms.push(lag_ms);
            self.obs.nf_scaling_lag_ms[nf_idx].record(lag_ms);
        }
        self.obs.nf_scale_up[nf_idx].inc();
        self.obs.nf_servers[nf_idx].set(state.servers as u64);
        self.dispatch(pool, now_us);
        self.nfs[pool].update_breach(now_us);
    }

    fn scale_tick(&mut self, pool: usize, now_us: u64) {
        let Some(policy) = self.nfs[pool].cfg.autoscale else {
            return;
        };
        self.autoscale(pool, policy, now_us);
        // Keep the control loop alive only while work can still arrive.
        if !self.input_done || self.outstanding > 0 {
            self.push(
                now_us + policy.eval_every_ms * 1_000,
                Action::ScaleTick { nf: pool as u8 },
            );
        }
    }

    /// One control-loop decision of `pool` at `now_us`: order a server,
    /// retire one, or neither (`false`).
    fn autoscale(&mut self, pool: usize, policy: AutoscalePolicy, now_us: u64) -> bool {
        let state = &mut self.nfs[pool];
        let nf_idx = nf_index(state.cfg.nf);
        let effective = state.servers + state.provisioning;
        let depth = state.queue.len() as f64;
        if depth > policy.high_depth_per_server * effective as f64 && effective < policy.max_servers
        {
            state.provisioning += 1;
            self.push(
                now_us + policy.provision_ms * 1_000,
                Action::ServerOnline { nf: pool as u8 },
            );
            true
        } else if depth < policy.low_depth_per_server * state.servers as f64
            && state.servers > policy.min_servers
            && state.busy < state.servers
            && state.provisioning == 0
        {
            state.settle_capacity(now_us);
            state.servers -= 1;
            state.scale_downs += 1;
            self.obs.nf_scale_down[nf_idx].inc();
            self.obs.nf_servers[nf_idx].set(state.servers as u64);
            true
        } else {
            false
        }
    }
}

/// SplitMix64-style seed mix: a distinct, well-scrambled RNG seed per
/// `(run seed, ue, arrival ms, event)` tuple.
fn job_seed(seed: u64, ue: u32, t_ms: u64, code: u8) -> u64 {
    let mut x = seed
        ^ u64::from(ue).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ t_ms.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (u64::from(code) << 56);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic single-point service law (every draw returns
/// `value_us`): the M/D/c building block the analytic sanity suite uses.
pub fn deterministic_service(value_us: f64) -> Dist {
    Dist::Empirical(cn_stats::Ecdf::new(vec![value_us]).expect("finite single sample"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, Timestamp, UeId};

    fn rec(t_ms: u64, ue: u32, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t_ms), UeId(ue), DeviceType::Phone, e)
    }

    /// A single-MME world: every event is one MME transaction.
    fn single_nf_config(servers: usize, service_us: f64) -> DesConfig {
        DesConfig {
            seed: 7,
            nfs: vec![NfConfig {
                nf: NetworkFunction::Mme,
                servers,
                service: deterministic_service(service_us),
                autoscale: None,
            }],
            matrix: TransactionMatrix {
                transactions: [[1, 0, 0, 0, 0]; 6],
            },
            admission: None,
        }
    }

    #[test]
    fn default_config_validates() {
        DesConfig::default_epc(1).validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs[1].servers = 0;
        assert_eq!(
            cfg.validate(),
            Err(DesError::ZeroServers(NetworkFunction::Hss))
        );

        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs.push(cfg.nfs[0].clone());
        assert_eq!(
            cfg.validate(),
            Err(DesError::DuplicateNf(NetworkFunction::Mme))
        );

        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs.retain(|n| n.nf != NetworkFunction::Pcrf);
        assert_eq!(
            cfg.validate(),
            Err(DesError::MissingNf(NetworkFunction::Pcrf))
        );

        let mut cfg = DesConfig::default_epc(1);
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 4,
            max_servers: 2,
            high_depth_per_server: 8.0,
            low_depth_per_server: 2.0,
            eval_every_ms: 1_000,
            provision_ms: 0,
        });
        assert!(matches!(
            cfg.validate(),
            Err(DesError::BadAutoscale {
                nf: NetworkFunction::Mme,
                ..
            })
        ));

        let cfg = DesConfig::default_epc(1).with_admission(AdmissionPolicy {
            rate_per_sec: f64::NAN,
            burst: 10.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        });
        assert!(matches!(
            cfg.validate(),
            Err(DesError::BadAdmission {
                field: "rate_per_sec",
                ..
            })
        ));
    }

    #[test]
    fn chains_preserve_matrix_totals() {
        for matrix in [
            TransactionMatrix::default_epc(),
            crate::messages::derived_matrix(),
        ] {
            for event in EventType::ALL {
                let chain = dependency_chain(event, &matrix);
                let mut totals = [0u32; 5];
                for (nf, tx) in &chain {
                    totals[nf_index(*nf)] += tx;
                    assert!(*tx > 0, "{event}: zero-transaction stage");
                }
                assert_eq!(
                    totals,
                    matrix.transactions[event.code() as usize],
                    "{event}: chain does not preserve the matrix row"
                );
            }
        }
    }

    #[test]
    fn attach_chain_orders_auth_before_session() {
        let chain = dependency_chain(EventType::Attach, &TransactionMatrix::default_epc());
        let pos = |nf| chain.iter().position(|&(n, _)| n == nf).unwrap();
        assert_eq!(chain[0].0, NetworkFunction::Mme, "attach starts at the MME");
        assert!(pos(NetworkFunction::Hss) < pos(NetworkFunction::Sgw));
        assert!(pos(NetworkFunction::Sgw) < pos(NetworkFunction::Pgw));
        assert!(pos(NetworkFunction::Pgw) < pos(NetworkFunction::Pcrf));
    }

    #[test]
    fn unloaded_single_nf_latency_is_pure_service() {
        let mut sim = DesSim::new(single_nf_config(1, 1_000.0)).unwrap();
        for i in 0..10 {
            sim.offer(&rec(i * 1_000, 0, EventType::Tau)).unwrap();
        }
        let report = sim.finish();
        assert_eq!(report.completed, 10);
        assert_eq!(report.total_admitted(), 10);
        assert!((report.mean_latency_ms - 1.0).abs() < 1e-9);
        assert_eq!(report.per_nf.len(), 1);
        assert_eq!(report.per_nf[0].transactions, 10);
        assert!(report.per_nf[0].utilization < 0.01);
    }

    #[test]
    fn chained_stages_run_sequentially() {
        // One attach through the default EPC with deterministic 1 ms
        // services everywhere: latency = total transactions × 1 ms.
        let mut cfg = DesConfig::default_epc(3);
        for nf in &mut cfg.nfs {
            nf.service = deterministic_service(1_000.0);
            nf.autoscale = None;
        }
        let mut sim = DesSim::new(cfg).unwrap();
        sim.offer(&rec(0, 0, EventType::Attach)).unwrap();
        let report = sim.finish();
        let total_tx: u32 = TransactionMatrix::default_epc().transactions
            [EventType::Attach.code() as usize]
            .iter()
            .sum();
        assert_eq!(report.completed, 1);
        assert!(
            (report.max_latency_ms - f64::from(total_tx)).abs() < 1e-9,
            "expected {total_tx} ms, got {}",
            report.max_latency_ms
        );
    }

    #[test]
    fn out_of_order_input_is_a_typed_error() {
        let mut sim = DesSim::new(single_nf_config(1, 100.0)).unwrap();
        sim.offer(&rec(5_000, 0, EventType::Tau)).unwrap();
        assert_eq!(
            sim.offer(&rec(4_000, 0, EventType::Tau)),
            Err(DesError::UnsortedInput {
                prev_ms: 5_000,
                got_ms: 4_000
            })
        );
        // Ties are fine.
        sim.offer(&rec(5_000, 1, EventType::Tau)).unwrap();
    }

    #[test]
    fn reruns_are_bit_identical() {
        let run = || {
            let mut sim = DesSim::new(DesConfig::default_epc(0xDE5)).unwrap();
            for i in 0..200u64 {
                let e = match i % 4 {
                    0 => EventType::Attach,
                    1 => EventType::ServiceRequest,
                    2 => EventType::Handover,
                    _ => EventType::S1ConnRelease,
                };
                sim.offer(&rec(i * 37, (i % 16) as u32, e)).unwrap();
            }
            sim.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.completed > 0);
    }

    #[test]
    fn storm_triggers_autoscaling_and_records_lag() {
        let mut cfg = single_nf_config(1, 20_000.0);
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 1,
            max_servers: 8,
            high_depth_per_server: 4.0,
            low_depth_per_server: 1.0,
            eval_every_ms: 500,
            provision_ms: 2_000,
        });
        let mut sim = DesSim::new(cfg).unwrap();
        // 600 near-simultaneous TAUs at 20 ms service each: one server
        // would need 12 s; the breach is deep and sustained.
        for i in 0..600u64 {
            sim.offer(&rec(i, (i % 64) as u32, EventType::Tau)).unwrap();
        }
        let report = sim.finish();
        let mme = &report.per_nf[0];
        assert!(mme.scale_ups > 0, "storm never scaled up: {report:?}");
        assert!(mme.final_servers > 1);
        assert!(
            mme.max_scaling_lag_ms >= 2_000,
            "lag below the provisioning floor: {}",
            mme.max_scaling_lag_ms
        );
        assert!(mme.utilization <= 1.0);
        // The same storm without autoscaling is strictly slower.
        let mut fixed = DesSim::new(single_nf_config(1, 20_000.0)).unwrap();
        for i in 0..600u64 {
            fixed
                .offer(&rec(i, (i % 64) as u32, EventType::Tau))
                .unwrap();
        }
        let fixed = fixed.finish();
        assert!(fixed.p99_latency_ms > report.p99_latency_ms);
        assert_eq!(fixed.per_nf[0].scale_ups, 0);
    }

    #[test]
    fn calendar_holds_at_most_max_servers_plus_ticks() {
        let mut cfg = DesConfig::default_epc(5);
        cfg.nfs[0].servers = 1;
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 1,
            max_servers: 8,
            high_depth_per_server: 4.0,
            low_depth_per_server: 1.0,
            eval_every_ms: 50,
            provision_ms: 400,
        });
        // Σ max servers (8 + 4 × 2) plus the MME's control tick.
        let bound = 8 + 4 * 2 + 1;
        let mut sim = DesSim::new(cfg).unwrap();
        let mut peak = 0;
        for i in 0..5_000u64 {
            sim.offer(&rec(i / 2, (i % 512) as u32, EventType::Attach))
                .unwrap();
            peak = peak.max(sim.calendar.len());
            assert!(
                sim.calendar.len() <= bound,
                "{} entries",
                sim.calendar.len()
            );
        }
        let report = sim.finish();
        assert!(report.per_nf[0].scale_ups > 0, "the storm never scaled");
        assert!(
            peak > bound / 2,
            "the storm never loaded the calendar: {peak}"
        );
    }

    #[test]
    fn idle_pools_scale_back_down() {
        let mut cfg = single_nf_config(2, 10_000.0);
        cfg.nfs[0].autoscale = Some(AutoscalePolicy {
            min_servers: 1,
            max_servers: 8,
            high_depth_per_server: 4.0,
            low_depth_per_server: 1.0,
            eval_every_ms: 500,
            provision_ms: 0,
        });
        let mut sim = DesSim::new(cfg).unwrap();
        // A trickle that never queues, spread over ten seconds.
        for i in 0..20u64 {
            sim.offer(&rec(i * 500, 0, EventType::Tau)).unwrap();
        }
        let report = sim.finish();
        assert!(report.per_nf[0].scale_downs > 0);
        assert_eq!(report.per_nf[0].final_servers, 1);
    }

    #[test]
    fn a_far_future_arrival_skips_the_idle_ticks_between() {
        // 2^61 µs is ~2.3 × 10^12 one-second MME ticks; the simulator
        // must cover it in a handful of calendar pushes.
        let mut sim = DesSim::new(DesConfig::default_epc(4)).unwrap();
        sim.offer(&rec(0, 0, EventType::Attach)).unwrap();
        let far_ms = (1u64 << 61) / 1_000;
        sim.offer(&rec(far_ms, 1, EventType::Attach)).unwrap();
        assert!(sim.seq < 64, "{} calendar pushes", sim.seq);
        // The last tick run is the last whole second before the arrival.
        assert_eq!(sim.end_us, far_ms * 1_000 / 1_000_000 * 1_000_000);
        assert_eq!(sim.finish().completed, 2);
    }

    /// Every pool autoscaled with deterministic services, so stage
    /// completions, server arrivals and ticks of different pools
    /// (equal and unequal periods) fall on the same microseconds and the
    /// calendar's tie order shows in the report.
    fn many_loops_config() -> DesConfig {
        let mut cfg = DesConfig::default_epc(3);
        for (nf, eval_every_ms) in cfg.nfs.iter_mut().zip([1_000, 400, 1_000, 250, 400]) {
            nf.servers = 3;
            nf.service = deterministic_service(20_000.0);
            nf.autoscale = Some(AutoscalePolicy {
                min_servers: 1,
                max_servers: 6,
                high_depth_per_server: 2.0,
                low_depth_per_server: 1.0,
                eval_every_ms,
                provision_ms: 300,
            });
        }
        cfg
    }

    /// Offer `bursts` of `(gap_ms, size)`: `size` same-instant arrivals
    /// `gap_ms` after the previous burst, with or without the idle
    /// fast-forward. Return the report, the telemetry, and the calendar's
    /// drain order after every offer.
    fn run_bursts(
        bursts: &[(u64, usize)],
        tick_by_tick: bool,
    ) -> (DesReport, cn_obs::ObsSnapshot, Vec<Vec<(u64, Action)>>) {
        let registry = Registry::new();
        let mut sim = DesSim::new(many_loops_config())
            .unwrap()
            .observed(&registry);
        sim.tick_by_tick = tick_by_tick;
        let mut calendars = Vec::new();
        let (mut t_ms, mut ue) = (0, 0);
        for &(gap_ms, size) in bursts {
            t_ms += gap_ms;
            for _ in 0..size {
                sim.offer(&rec(t_ms, ue, EventType::ALL[ue as usize % 6]))
                    .unwrap();
                ue += 1;
                let mut pending: Vec<_> = sim.calendar.iter().map(|r| r.0).collect();
                pending.sort_unstable();
                calendars.push(pending.iter().map(|e| (e.t_us, e.action())).collect());
            }
        }
        (sim.finish(), registry.snapshot(), calendars)
    }

    #[test]
    fn idle_fast_forward_changes_no_report() {
        let bursts = [
            (0, 30),
            (1, 5),
            (2_000, 40),
            (250, 1),
            (40_000, 25),
            (0, 3),
            (7_777, 60),
            (400, 12),
            (10_000_000, 30),
        ];
        let fast = run_bursts(&bursts, false);
        assert!(fast
            .0
            .per_nf
            .iter()
            .any(|nf| nf.scale_ups > 0 && nf.scale_downs > 0));
        assert_eq!(fast, run_bursts(&bursts, true));
    }

    #[test]
    fn admission_sheds_exactly_like_the_overload_module() {
        use crate::overload::apply;
        let policy = AdmissionPolicy {
            rate_per_sec: 50.0,
            burst: 40.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        };
        let records: Vec<TraceRecord> = (0..300u64)
            .map(|i| {
                let e = match i % 3 {
                    0 => EventType::Handover,
                    1 => EventType::ServiceRequest,
                    _ => EventType::Attach,
                };
                rec(i, 0, e)
            })
            .collect();
        let trace = Trace::from_records(records.clone());
        let (shed_report, _) = apply(&trace, &policy);

        let mut sim = DesSim::new(single_nf_config(4, 100.0).with_admission(policy)).unwrap();
        for r in &records {
            sim.offer(r).unwrap();
        }
        let report = sim.finish();
        assert_eq!(report.admitted, shed_report.admitted);
        assert_eq!(report.shed, shed_report.shed);
        assert_eq!(report.completed, shed_report.total_admitted());
        assert!(report.shed_rate > 0.0);
    }

    #[test]
    fn observed_run_fills_the_registry() {
        let registry = Registry::new();
        let trace = Trace::from_records(
            (0..50u64)
                .map(|i| rec(i * 10, (i % 8) as u32, EventType::Attach))
                .collect(),
        );
        let report = DesSim::run_trace(DesConfig::default_epc(9), &trace, &registry).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("cn_mcn_des_completed_total"),
            Some(report.completed)
        );
        assert_eq!(snap.counter("cn_mcn_des_offered_total"), Some(50));
        assert_eq!(
            snap.histogram("cn_mcn_des_latency_us").unwrap().count,
            report.completed
        );
        let mme_tx = snap
            .get("cn_mcn_des_nf_transactions_total", &[("nf", "MME")])
            .map(|m| &m.value);
        let mme = report
            .per_nf
            .iter()
            .find(|n| n.nf == NetworkFunction::Mme)
            .unwrap();
        match mme_tx {
            Some(cn_obs::MetricValue::Counter { value }) => assert_eq!(*value, mme.transactions),
            other => panic!("MME transactions counter missing: {other:?}"),
        }
        assert_eq!(
            snap.counter_total("cn_mcn_des_admitted_total"),
            Some(report.total_admitted())
        );
    }

    #[test]
    fn empty_run_reports_zeros() {
        let report = DesSim::new(single_nf_config(1, 100.0)).unwrap().finish();
        assert_eq!(report.offered, 0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.p99_latency_ms, 0.0);
        assert_eq!(report.shed_rate, 0.0);
    }

    #[test]
    fn every_chain_fits_max_chain() {
        let matrix = TransactionMatrix {
            transactions: [[3; 5]; 6],
        };
        for event in EventType::ALL {
            let len = dependency_chain(event, &matrix).len();
            assert!(len <= MAX_CHAIN, "{event}: {len} stages");
        }
        let attach = dependency_chain(EventType::Attach, &matrix).len();
        assert_eq!(attach, MAX_CHAIN, "attach is the longest chain");
    }

    #[test]
    fn arrival_past_the_horizon_is_a_typed_error() {
        let mut sim = DesSim::new(single_nf_config(1, 100.0)).unwrap();
        assert_eq!(
            sim.offer(&rec(u64::MAX, 0, EventType::Tau)),
            Err(DesError::TimeOutOfRange { t_ms: u64::MAX })
        );
        // The simulator is unchanged: the last in-range instant still
        // runs, and so does an earlier one.
        sim.offer(&rec(0, 0, EventType::Tau)).unwrap();
        sim.offer(&rec(MAX_DELAY_MS, 0, EventType::Tau)).unwrap();
        let report = sim.finish();
        assert_eq!((report.offered, report.completed), (2, 2));
    }

    #[test]
    fn autoscale_delays_past_the_horizon_are_rejected() {
        let with_policy = |eval_every_ms, provision_ms| {
            let mut cfg = DesConfig::default_epc(1);
            let policy = cfg.nfs[0].autoscale.as_mut().unwrap();
            policy.eval_every_ms = eval_every_ms;
            policy.provision_ms = provision_ms;
            cfg
        };
        for cfg in [
            with_policy(u64::MAX / 10, 5_000),
            with_policy(1_000, u64::MAX / 10),
        ] {
            assert!(matches!(
                DesSim::new(cfg).err(),
                Some(DesError::BadAutoscale {
                    nf: NetworkFunction::Mme,
                    ..
                })
            ));
        }
        // The longest accepted delays run a storm without overflow.
        let mut sim = DesSim::new(with_policy(MAX_DELAY_MS, MAX_DELAY_MS)).unwrap();
        for i in 0..200u64 {
            sim.offer(&rec(i, (i % 8) as u32, EventType::Attach))
                .unwrap();
        }
        assert_eq!(sim.finish().completed, 200);
    }

    #[test]
    fn heavy_tailed_service_law_is_a_typed_error() {
        let mut cfg = single_nf_config(4, 0.0);
        cfg.nfs[0].service = Dist::Pareto(cn_stats::Pareto::new(0.1, 1_000.0).unwrap());
        let mut sim = DesSim::new(cfg).unwrap();
        let err = (0..2_000u64)
            .find_map(|i| sim.offer(&rec(i, (i % 64) as u32, EventType::Tau)).err())
            .expect("a 0.1-shape Pareto law leaves the time domain");
        assert!(matches!(err, DesError::ServiceOutOfRange { .. }), "{err}");
        // Even the work admitted before the error drains without overflow.
        sim.finish();
    }

    #[test]
    fn large_in_range_services_run_to_the_horizon() {
        // 10^17 µs per job: about 46 jobs fit below the horizon.
        let mut sim = DesSim::new(single_nf_config(2, 1e17)).unwrap();
        let admitted = (0..100u64)
            .take_while(|&i| sim.offer(&rec(i, 0, EventType::Tau)).is_ok())
            .count() as u64;
        assert_eq!(admitted, MAX_TIME_US / 100_000_000_000_000_000);
        let report = sim.finish();
        assert_eq!(report.completed, admitted);
    }

    mod recorder {
        use super::super::{LatencyRecorder, DENSE_US};
        use cn_stats::summary::percentile_sorted;
        use proptest::prelude::*;

        /// The sort-everything path the recorder replaced: `(mean, p50,
        /// p99, max)` in ms.
        fn oracle(samples: &[u64]) -> [f64; 4] {
            if samples.is_empty() {
                return [0.0; 4];
            }
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            let ms: Vec<f64> = sorted.iter().map(|&l| l as f64 / 1_000.0).collect();
            [
                ms.iter().sum::<f64>() / ms.len() as f64,
                percentile_sorted(&ms, 0.50),
                percentile_sorted(&ms, 0.99),
                *ms.last().expect("non-empty"),
            ]
        }

        fn recorded(samples: &[u64]) -> [f64; 4] {
            let mut rec = LatencyRecorder::new();
            for &us in samples {
                rec.push(us);
            }
            let [p50, p99, max] = rec.quantiles_ms();
            [rec.mean_ms(), p50, p99, max]
        }

        fn assert_bit_identical(samples: &[u64]) -> Result<(), TestCaseError> {
            let (got, want) = (recorded(samples), oracle(samples));
            prop_assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{got:?} vs {want:?}"
            );
            Ok(())
        }

        const EDGE: u64 = DENSE_US as u64;

        fn latency_us() -> impl Strategy<Value = u64> {
            prop_oneof![
                0u64..EDGE,
                EDGE - 3..EDGE + 3,
                0u64..40,
                EDGE..1 << 40,
                Just(0u64),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn recorder_matches_sorting_every_sample(
                samples in prop::collection::vec(latency_us(), 0..400),
            ) {
                assert_bit_identical(&samples)?;
            }

            #[test]
            fn recorder_matches_on_heavy_repeats(
                samples in prop::collection::vec(0u64..50, 0..3_000),
            ) {
                assert_bit_identical(&samples)?;
            }

            #[test]
            fn recorder_matches_on_an_all_tail_run(
                samples in prop::collection::vec(EDGE..1u64 << 50, 1..200),
            ) {
                assert_bit_identical(&samples)?;
            }
        }

        #[test]
        fn recorder_matches_at_the_edges() {
            for samples in [
                vec![],
                vec![0],
                vec![EDGE - 1],
                vec![EDGE],
                vec![0, EDGE - 1, EDGE],
                vec![EDGE, EDGE - 1, 0, EDGE, 0],
                vec![u64::MAX / 4; 3],
            ] {
                assert_bit_identical(&samples).unwrap();
            }
        }

        #[test]
        fn dense_range_pushes_never_touch_the_tail() {
            let mut rec = LatencyRecorder::new();
            for i in 0..10_000_000u64 {
                rec.push(i % EDGE);
            }
            assert_eq!(rec.tail.capacity(), 0);
            assert_eq!(rec.len, 10_000_000);
        }
    }
}
