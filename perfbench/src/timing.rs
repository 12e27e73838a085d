//! Outside-in meters: a timing adaptor for any record source, process and
//! thread CPU clocks, peak RSS, and order statistics.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use cn_gen::StreamError;
use cn_scenario::RecordSource;
use cn_trace::TraceRecord;

/// Time spent inside a [`TimedSource`], readable after the source has
/// been moved into a consumer.
#[derive(Debug, Clone, Default)]
pub struct SourceClock {
    ns: Rc<Cell<u64>>,
    records: Rc<Cell<u64>>,
    first_call_ns: Rc<Cell<Option<u64>>>,
}

impl SourceClock {
    /// Nanoseconds spent in `try_next` so far.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Records returned so far.
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Duration of the first `try_next` call (a fresh stream's bootstrap).
    pub fn first_call_ns(&self) -> Option<u64> {
        self.first_call_ns.get()
    }
}

/// A [`RecordSource`] adaptor that times every `try_next` into the
/// wrapped source. Used where a consumer interleaves its own work with
/// pulls (the scenario overlay, the live server), so only per-call timing
/// can separate the two.
pub struct TimedSource<S> {
    inner: S,
    clock: SourceClock,
}

impl<S: RecordSource> TimedSource<S> {
    /// Wrap `inner`; the returned clock reads the accumulated time.
    pub fn new(inner: S) -> (TimedSource<S>, SourceClock) {
        let clock = SourceClock::default();
        (
            TimedSource {
                inner,
                clock: clock.clone(),
            },
            clock,
        )
    }
}

impl<S: RecordSource> RecordSource for TimedSource<S> {
    fn try_next(&mut self) -> Result<Option<TraceRecord>, StreamError> {
        let t = Instant::now();
        let out = self.inner.try_next();
        let dt = t.elapsed().as_nanos() as u64;
        self.clock.ns.set(self.clock.ns.get() + dt);
        if let Ok(Some(_)) = &out {
            self.clock.records.set(self.clock.records.get() + 1);
        }
        if self.clock.first_call_ns.get().is_none() {
            self.clock.first_call_ns.set(Some(dt));
        }
        out
    }

    fn finish(self) -> Result<(), StreamError> {
        self.inner.finish()
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: u64 = 100;

/// CPU time (user + system, all threads, live and exited) this process
/// has used, in nanoseconds, from `/proc/self/stat`.
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, i.e. the 12th and 13th here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> u64 { fields.next().and_then(|f| f.parse().ok()).unwrap_or(0) };
    let ticks = tick() + tick();
    ticks * (1_000_000_000 / USER_HZ)
}

/// CPU time the hypervisor gave other guests while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`, all CPUs), in seconds: the
/// noise a shared host adds to a run.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    ticks as f64 / USER_HZ as f64
}

/// CPU time the calling thread has run, in nanoseconds, from
/// `/proc/thread-self/schedstat`.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of integer samples, selected in place.
pub fn quantile_u64(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let k = ((q.clamp(0.0, 1.0) * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable(k - 1).1
}
