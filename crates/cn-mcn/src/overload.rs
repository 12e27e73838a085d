//! Overload control: priority shedding under signaling storms.
//!
//! Real MMEs shed load when the signaling queue saturates (3GPP TS 23.401
//! NAS-level congestion control): low-priority procedures are rejected so
//! attaches and service requests survive. This module implements a token-
//! bucket admission controller with per-event priorities and reports what
//! a given policy would shed under a trace — one of the design questions
//! a realistic control-plane generator exists to answer (§3.1).

use cn_obs::Registry;
use cn_trace::{EventType, Trace};
use serde::{Deserialize, Serialize};

/// Admission priority classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Never shed (registration integrity): `ATCH`, `DTCH`.
    Critical,
    /// Shed last (user-visible connectivity): `SRV_REQ`, `S1_CONN_REL`.
    High,
    /// Shed first (mobility housekeeping): `HO`, `TAU`.
    Low,
}

impl Priority {
    /// All three classes, highest first (the [`ShedReport`] array order).
    pub const ALL: [Priority; 3] = [Priority::Critical, Priority::High, Priority::Low];

    /// Lowercase label for metrics (`{priority="critical"}`).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Critical => "critical",
            Priority::High => "high",
            Priority::Low => "low",
        }
    }
}

/// Default 3GPP-style priority assignment.
pub fn priority_of(event: EventType) -> Priority {
    match event {
        EventType::Attach | EventType::Detach => Priority::Critical,
        EventType::ServiceRequest | EventType::S1ConnRelease => Priority::High,
        EventType::Handover | EventType::Tau => Priority::Low,
    }
}

/// A token-bucket admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionPolicy {
    /// Sustained admission rate, events per second.
    pub rate_per_sec: f64,
    /// Burst capacity, events.
    pub burst: f64,
    /// Fraction of the bucket reserved for [`Priority::High`] and above
    /// (low-priority events are shed once the bucket falls below this).
    pub high_reserve: f64,
    /// Fraction reserved for [`Priority::Critical`] only.
    pub critical_reserve: f64,
}

impl AdmissionPolicy {
    /// A policy sized for an expected load: admit `expected_eps` with 2×
    /// headroom, reserving 30% of the bucket for high-priority and 10% for
    /// critical procedures.
    pub fn sized_for(expected_eps: f64) -> AdmissionPolicy {
        AdmissionPolicy {
            rate_per_sec: (expected_eps * 2.0).max(1.0),
            burst: (expected_eps * 4.0).max(8.0),
            high_reserve: 0.3,
            critical_reserve: 0.1,
        }
    }
}

/// What the controller did with a trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedReport {
    /// Admitted events per priority class (Critical, High, Low).
    pub admitted: [u64; 3],
    /// Shed events per priority class.
    pub shed: [u64; 3],
}

impl ShedReport {
    /// Total admitted events.
    pub fn total_admitted(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total shed events.
    pub fn total_shed(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Shed fraction of one priority class.
    pub fn shed_fraction(&self, p: Priority) -> f64 {
        let i = p as usize;
        let total = self.admitted[i] + self.shed[i];
        if total == 0 {
            0.0
        } else {
            self.shed[i] as f64 / total as f64
        }
    }
}

/// The token bucket behind an [`AdmissionPolicy`]: the one admission
/// decision shared by [`apply`] and the DES front door
/// ([`crate::DesSim::offer`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TokenBucket {
    policy: AdmissionPolicy,
    tokens: f64,
    last_us: Option<u64>,
}

impl TokenBucket {
    /// A full bucket (`policy.burst` tokens) that has seen no arrival.
    pub(crate) fn new(policy: AdmissionPolicy) -> TokenBucket {
        TokenBucket {
            policy,
            tokens: policy.burst,
            last_us: None,
        }
    }

    /// Replenish for the time since the previous arrival, then admit an
    /// arrival of `priority` at `now_us` (taking one token) or refuse it.
    /// Each class may only draw the bucket down to its reserve floor.
    pub(crate) fn admit(&mut self, now_us: u64, priority: Priority) -> bool {
        let policy = &self.policy;
        if let Some(prev) = self.last_us {
            self.tokens = (self.tokens
                + (now_us.saturating_sub(prev)) as f64 / 1e6 * policy.rate_per_sec)
                .min(policy.burst);
        }
        self.last_us = Some(now_us);
        let floor = match priority {
            Priority::Critical => 0.0,
            Priority::High => policy.burst * policy.critical_reserve,
            Priority::Low => policy.burst * (policy.critical_reserve + policy.high_reserve),
        };
        if self.tokens >= floor + 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Run the admission controller over a trace; returns the report and the
/// admitted sub-trace.
pub fn apply(trace: &Trace, policy: &AdmissionPolicy) -> (ShedReport, Trace) {
    let mut report = ShedReport::default();
    let mut admitted = Vec::new();
    let mut bucket = TokenBucket::new(*policy);
    for rec in trace.iter() {
        let priority = priority_of(rec.event);
        let idx = priority as usize;
        if bucket.admit(rec.t.as_millis() * 1_000, priority) {
            report.admitted[idx] += 1;
            admitted.push(*rec);
        } else {
            report.shed[idx] += 1;
        }
    }
    (report, Trace::from_records(admitted))
}

/// As [`apply`], folding the outcome into `registry`: counters
/// `cn_mcn_overload_admitted_total{priority=...}` and
/// `cn_mcn_overload_shed_total{priority=...}` accumulate across calls,
/// so a monitoring pipeline sees shed totals by class over a whole run
/// of storms, not just the last [`ShedReport`].
pub fn apply_observed(
    trace: &Trace,
    policy: &AdmissionPolicy,
    registry: &Registry,
) -> (ShedReport, Trace) {
    let (report, admitted) = apply(trace, policy);
    for p in Priority::ALL {
        let labels: &[(&str, &str)] = &[("priority", p.label())];
        registry
            .counter_with("cn_mcn_overload_admitted_total", labels)
            .add(report.admitted[p as usize]);
        registry
            .counter_with("cn_mcn_overload_shed_total", labels)
            .add(report.shed[p as usize]);
    }
    (report, admitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_trace::{DeviceType, Timestamp, TraceRecord, UeId};

    fn rec(t_ms: u64, e: EventType) -> TraceRecord {
        TraceRecord::new(Timestamp::from_millis(t_ms), UeId(0), DeviceType::Phone, e)
    }

    #[test]
    fn priorities_follow_3gpp_intent() {
        assert_eq!(priority_of(EventType::Attach), Priority::Critical);
        assert_eq!(priority_of(EventType::ServiceRequest), Priority::High);
        assert_eq!(priority_of(EventType::Tau), Priority::Low);
        assert!(Priority::Critical < Priority::Low);
    }

    #[test]
    fn unloaded_controller_admits_everything() {
        let trace = Trace::from_records(
            (0..50)
                .map(|i| rec(i * 1_000, EventType::ServiceRequest))
                .collect(),
        );
        let policy = AdmissionPolicy::sized_for(10.0);
        let (report, admitted) = apply(&trace, &policy);
        assert_eq!(report.total_shed(), 0);
        assert_eq!(admitted.len(), 50);
    }

    #[test]
    fn storm_sheds_low_priority_first() {
        // A burst of mixed traffic far above the admission rate.
        let mut records = Vec::new();
        for i in 0..300u64 {
            let e = match i % 3 {
                0 => EventType::Handover,
                1 => EventType::ServiceRequest,
                _ => EventType::Attach,
            };
            records.push(rec(i, e)); // 1 ms apart: a storm
        }
        let trace = Trace::from_records(records);
        let policy = AdmissionPolicy {
            rate_per_sec: 50.0,
            burst: 40.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        };
        let (report, _) = apply(&trace, &policy);
        assert!(report.total_shed() > 0, "storm must overload the bucket");
        let low = report.shed_fraction(Priority::Low);
        let high = report.shed_fraction(Priority::High);
        let critical = report.shed_fraction(Priority::Critical);
        // The policy guarantees an *ordering*, not absolute survival: a
        // storm larger than bucket + replenishment must shed even some
        // critical traffic, but strictly less than the lower classes.
        assert!(low > high, "low {low} vs high {high}");
        assert!(high > critical, "high {high} vs critical {critical}");
        // Low-priority housekeeping is shed almost entirely.
        assert!(low > 0.9, "low shed {low}");
    }

    #[test]
    fn observed_apply_mirrors_the_report_by_priority() {
        use cn_obs::Registry;
        let mut records = Vec::new();
        for i in 0..300u64 {
            let e = match i % 3 {
                0 => EventType::Handover,
                1 => EventType::ServiceRequest,
                _ => EventType::Attach,
            };
            records.push(rec(i, e));
        }
        let trace = Trace::from_records(records);
        let policy = AdmissionPolicy {
            rate_per_sec: 50.0,
            burst: 40.0,
            high_reserve: 0.3,
            critical_reserve: 0.1,
        };
        let registry = Registry::new();
        let (report, admitted) = apply_observed(&trace, &policy, &registry);
        // Observation must not perturb the decision.
        assert_eq!(report, apply(&trace, &policy).0);
        let snap = registry.snapshot();
        for p in Priority::ALL {
            let labels: &[(&str, &str)] = &[("priority", p.label())];
            let counter = |name: &str| match snap.get(name, labels).map(|m| &m.value) {
                Some(cn_obs::MetricValue::Counter { value }) => *value,
                other => panic!("{name}{{{}}}: {other:?}", p.label()),
            };
            assert_eq!(
                counter("cn_mcn_overload_admitted_total"),
                report.admitted[p as usize]
            );
            assert_eq!(
                counter("cn_mcn_overload_shed_total"),
                report.shed[p as usize]
            );
        }
        assert_eq!(
            snap.counter_total("cn_mcn_overload_admitted_total"),
            Some(admitted.len() as u64)
        );
        assert_eq!(
            snap.counter_total("cn_mcn_overload_shed_total"),
            Some(report.total_shed())
        );
        // Counters accumulate across storms.
        apply_observed(&trace, &policy, &registry);
        assert_eq!(
            registry
                .snapshot()
                .counter_total("cn_mcn_overload_shed_total"),
            Some(2 * report.total_shed())
        );
    }

    #[test]
    fn bucket_floors_reserve_tokens_for_higher_classes() {
        // burst 8 (binary-exact reserves): low needs 4 tokens (floor 3 +
        // 1), high needs 2 (floor 1 + 1), critical needs 1.
        let policy = AdmissionPolicy {
            rate_per_sec: 1.0,
            burst: 8.0,
            high_reserve: 0.25,
            critical_reserve: 0.125,
        };
        let mut bucket = TokenBucket::new(policy);
        let admitted = |bucket: &mut TokenBucket, p: Priority| {
            (0..20).take_while(|_| bucket.admit(0, p)).count()
        };
        assert_eq!(admitted(&mut bucket, Priority::Low), 5);
        assert_eq!(admitted(&mut bucket, Priority::High), 2);
        assert_eq!(admitted(&mut bucket, Priority::Critical), 1);
        assert!(!bucket.admit(0, Priority::Critical));
        // One second at 1 token/s refills exactly one critical admission.
        assert!(bucket.admit(1_000_000, Priority::Critical));
        assert!(!bucket.admit(1_000_000, Priority::Critical));
    }

    #[test]
    fn tokens_replenish_between_bursts() {
        // Two bursts separated by a quiet second: the second burst admits
        // as well as the first.
        let mut records: Vec<TraceRecord> =
            (0..20).map(|i| rec(i, EventType::ServiceRequest)).collect();
        records.extend((0..20).map(|i| rec(2_000 + i, EventType::ServiceRequest)));
        let trace = Trace::from_records(records);
        let policy = AdmissionPolicy {
            rate_per_sec: 20.0,
            burst: 25.0,
            high_reserve: 0.0,
            critical_reserve: 0.0,
        };
        let (report, _) = apply(&trace, &policy);
        assert_eq!(report.total_shed(), 0, "{report:?}");
    }
}
