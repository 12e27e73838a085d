//! The pipeline benchmark: fit → generate → scenario → encode/serve → DES,
//! measured end to end per workload, and layer by layer in a traced run.
//!
//! ```text
//! perfbench --workload <steady-20k|wide-1m|storm-des|live-fanout>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny]
//!           [--trace-out PATH]
//! perfbench --list
//! ```
//!
//! Prints one `metric <name> <value> <unit>` line per metric, then, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}` as JSON.
//! Exits 1 when an output check fails, 2 on a usage error. See
//! `perfbench/README.md` for the workloads and the metric map.

mod expected;
mod run;
mod timing;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use cn_fit::ModelSet;
use cn_mcn::{DesReport, NetworkFunction};
use cn_obs::TraceSink;
use cn_trace::TraceRecord;

use run::{Mode, Rep};
use timing::{median, ns_since, peak_rss_mb};
use workload::{Kind, Scale, Workload, DEFAULT_SEED};

/// End-to-end metrics (telemetry off): the result line of `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_ns_per_record", "ns"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed with `--trace 0` but kept out of the result
/// line: the host's CPU steal on a shared 2-core VM moves them more than
/// any allowed bound. Over ten seeds their run-to-run spreads reached 0.21
/// of the median (`first_record_ms`, `steady-20k`), 0.23
/// (`delivery_p50_ms`, `storm-des`) and 0.62 (`delivery_p99_ms`,
/// `live-fanout`).
const REPORTED: &[(&str, &str)] = &[
    ("first_record_ms", "ms"),
    ("delivery_p50_ms", "ms"),
    ("delivery_p99_ms", "ms"),
];

/// Failures over attempts. Printed on every run, but carried in the
/// result line by `attempted` and `failed` rather than as a metric: it is
/// 0 on a healthy run.
const ERROR_RATE: (&str, &str) = ("error_rate", "ratio");

/// Per-layer metrics, printed with `--trace 1`. A layer the workload does
/// not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("world.generate_s", "s"),
    ("fit.fit_s", "s"),
    ("gen.sample_ns_per_event", "ns"),
    ("gen.bootstrap_ms", "ms"),
    ("gen.next_ns_per_record", "ns"),
    ("gen.inline_ns_per_event", "ns"),
    ("trace.encode_ns_per_record", "ns"),
    ("scenario.self_ns_per_record", "ns"),
    ("scenario.injected", "count"),
    ("scenario.suppressed", "count"),
    ("mcn.offer_ns_per_record", "ns"),
    ("mcn.finish_ms", "ms"),
    ("mcn.shed_ratio", "ratio"),
    ("mcn.mme_scale_ups", "count"),
    ("mcn.mme_peak_depth", "count"),
    ("mcn.mme_utilization", "ratio"),
    ("mcn.p99_latency_ms", "sim_ms"),
    ("live.serve_self_ns_per_record", "ns"),
    ("live.consumer_ns_per_record", "ns"),
    ("live.pacer_lag_p99_ms", "ms"),
    ("live.peak_backlog_frames", "count"),
    ("live.dropped_frames", "count"),
    ("obs.registry_overhead_ratio", "ratio"),
    ("bench.tracing_overhead_ratio", "ratio"),
    ("bench.unattributed_ns_per_record", "ns"),
];

/// Seed documented for rechecking claims; never used while the benchmark
/// was built or tuned.
const RECHECK_SEED: u64 = 90_210;

const USAGE: &str = "usage: perfbench --workload <steady-20k|wide-1m|storm-des|live-fanout> \
[--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] [--trace-out PATH]\n       perfbench --list";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    trace_out: Option<PathBuf>,
}

enum Command {
    List,
    Bench(Args),
}

fn parse_args() -> Result<Command, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut traced) = (None, DEFAULT_SEED, 10.0, false);
    let (mut scale, mut trace_out, mut list) = (Scale::Full, None, false);
    while let Some(flag) = args.next() {
        if flag == "--list" {
            list = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--scale" => scale = Scale::parse(&value).ok_or(format!("unknown scale {value}"))?,
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if list {
        return Ok(Command::List);
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Command::Bench(Args {
        kind,
        seed,
        seconds,
        traced,
        scale,
        trace_out,
    }))
}

fn main() {
    let code = match parse_args() {
        Ok(Command::List) => {
            list();
            0
        }
        Ok(Command::Bench(args)) => bench(&args),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn list() {
    println!("workloads: {}", Kind::ALL.map(Kind::name).join(" "));
    println!("default seed {DEFAULT_SEED}; recheck seed {RECHECK_SEED}");
    for (name, unit) in END_TO_END {
        println!("end_to_end {name} {unit}");
    }
    for (name, unit) in REPORTED.iter().chain([&ERROR_RATE]) {
        println!("reported {name} {unit}");
    }
    for (name, unit) in PER_LAYER {
        println!("per_layer {name} {unit}");
    }
}

/// The machine a run measured, printed with its output.
fn machine_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "machine nproc={} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        cn_gen::effective_parallelism(),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
    )
}

/// Median setup cost and the models (and, for `live-fanout`, the served
/// trace) of the last setup.
struct Setup {
    models: ModelSet,
    trace: Vec<TraceRecord>,
    total_s: f64,
    world_s: f64,
    fit_s: f64,
}

/// Simulate the world, fit, and (live) materialise the trace, `times`
/// over; report medians.
fn setup(w: &Workload, times: usize) -> Result<Setup, String> {
    let (mut totals, mut worlds, mut fits) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..times {
        // Drop the previous set-up first, so peak RSS holds one trace.
        drop(last.take());
        let t = Instant::now();
        let world = workload::simulate_world(w.scale);
        let world_ns = ns_since(t);
        let models = workload::fit_models(&world);
        fits.push((ns_since(t) - world_ns) as f64 / 1e9);
        worlds.push(world_ns as f64 / 1e9);
        drop(world);
        let trace = match w.kind {
            Kind::LiveFanout => run::materialise(&models, w)?,
            _ => Vec::new(),
        };
        totals.push(ns_since(t) as f64 / 1e9);
        last = Some((models, trace));
    }
    let (models, trace) = last.ok_or("no setup ran")?;
    Ok(Setup {
        models,
        trace,
        total_s: median(&totals),
        world_s: median(&worlds),
        fit_s: median(&fits),
    })
}

/// The reference every repetition must reproduce.
struct Reference {
    records: u64,
    digest: u64,
    des: Option<DesReport>,
}

impl Reference {
    /// FNV-1a of the DES report's `Debug` text, the form it is pinned in.
    fn des_digest(&self) -> Option<u64> {
        self.des
            .as_ref()
            .map(|d| cn_verify::fnv1a64(format!("{d:?}").as_bytes()))
    }
}

/// Output checks that run before the timed repetitions.
fn reference(w: &Workload, s: &Setup, checks: &mut Vec<String>) -> Reference {
    match w.kind {
        // The 1-shard (inline) engine is the reference the nproc-shard
        // repetitions must match.
        Kind::Steady | Kind::Wide => {
            let rep = run::encode_rep(&s.models, w, 1, Mode::Plain, &TraceSink::disabled());
            checks.extend(rep.errors.iter().cloned());
            Reference {
                records: rep.records,
                digest: rep.digest,
                des: None,
            }
        }
        Kind::StormDes => match run::storm_check(&s.models, w) {
            Ok((records, digest, des)) => Reference {
                records,
                digest,
                des: Some(des),
            },
            Err(e) => {
                checks.push(e);
                Reference {
                    records: 0,
                    digest: 0,
                    des: None,
                }
            }
        },
        Kind::LiveFanout => Reference {
            records: s.trace.len() as u64,
            digest: run::encode_trace(&s.trace).0,
            des: None,
        },
    }
}

/// Compare one repetition against the reference.
fn check_rep(rep: &Rep, reference: &Reference, checks: &mut Vec<String>) {
    checks.extend(rep.errors.iter().cloned());
    if rep.records != reference.records {
        checks.push(format!(
            "{} records, reference {}",
            rep.records, reference.records
        ));
    }
    if rep.digest != reference.digest {
        checks.push(format!(
            "digest {:#018x}, reference {:#018x}",
            rep.digest, reference.digest
        ));
    }
    if rep.des.is_some() && rep.des != reference.des {
        checks.push("DES report differs from the reference pass".into());
    }
}

fn bench(args: &Args) -> i32 {
    let steal0 = timing::steal_s();
    let w = Workload::new(args.kind, args.scale, args.seed);
    println!("{}", machine_line());
    println!(
        "workload {} seed {} scale {:?} ues {} hours {} parallelism {} trace {}",
        w.kind.name(),
        w.seed,
        w.scale,
        w.gen.population.total(),
        w.gen.duration_hours,
        w.parallelism,
        u8::from(args.traced)
    );
    let setups = match w.scale {
        Scale::Full => 11,
        Scale::Tiny => 3,
    };
    let s = match setup(&w, setups) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: setup failed: {e}");
            return 1;
        }
    };
    if w.kind == Kind::LiveFanout {
        run::ConsumerBufs::warm(w.parallelism, &s.trace);
    }
    let mut checks = Vec::new();
    let reference = reference(&w, &s, &mut checks);
    if let Some(pinned) = (w.scale == Scale::Full)
        .then(|| expected::lookup(w.kind.name(), w.seed))
        .flatten()
    {
        if (pinned.records, pinned.digest) != (reference.records, reference.digest) {
            checks.push(format!(
                "reference {} records {:#018x}, pinned {} records {:#018x}",
                reference.records, reference.digest, pinned.records, pinned.digest
            ));
        }
        if pinned.des_digest != reference.des_digest() {
            checks.push(format!(
                "DES report digest {:x?}, pinned {:x?}",
                reference.des_digest(),
                pinned.des_digest
            ));
        }
    }
    println!(
        "reference records {} digest {:#018x} des_digest {:x?}",
        reference.records,
        reference.digest,
        reference.des_digest()
    );

    let spans = if args.traced {
        TraceSink::new()
    } else {
        TraceSink::disabled()
    };
    let modes: &[Mode] = if args.traced {
        &[Mode::Plain, Mode::Traced, Mode::Observed]
    } else {
        &[Mode::Plain]
    };
    let min_rounds = if args.traced { 2 } else { 3 };
    let mut reps: Vec<(Mode, Rep)> = Vec::new();
    let t = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || t.elapsed().as_secs_f64() < args.seconds {
        for &mode in modes {
            let rep = run::rep(&s.models, &w, &s.trace, mode, &spans);
            check_rep(&rep, &reference, &mut checks);
            reps.push((mode, rep));
        }
        rounds += 1;
    }

    let plain: Vec<&Rep> = reps
        .iter()
        .filter(|(m, _)| *m == Mode::Plain)
        .map(|(_, r)| r)
        .collect();
    let (metrics, reported) = if args.traced {
        let layers = layer_metrics(&w, &s, &reference, &reps, &plain, &mut checks);
        (layers, Vec::new())
    } else {
        end_to_end_metrics(&s, &plain)
    };
    let attempted: u64 = reps.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1);
    let mut failed: u64 = reps.iter().map(|(_, r)| r.failed).sum();
    let correct = checks.is_empty();
    if !correct {
        failed = attempted;
        for c in checks.iter().take(20) {
            println!("check FAILED: {c}");
        }
    }
    println!(
        "host steal during the run: {:.2} s",
        timing::steal_s() - steal0
    );
    for (name, value, unit) in &reported {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "metric {} {} {}",
        ERROR_RATE.0,
        failed as f64 / attempted as f64,
        ERROR_RATE.1
    );
    if let Some(path) = &args.trace_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, spans.to_chrome_json()) {
            Ok(()) => println!(
                "trace {} spans ({} dropped) written to {}",
                spans.len(),
                spans.dropped(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        println!("metric {name} {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    i32::from(!correct)
}

/// A finite JSON number (non-finite values print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

type Metric = (&'static str, f64, &'static str);

fn named(defs: &'static [(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    debug_assert_eq!(defs.len(), values.len());
    defs.iter()
        .zip(values)
        .map(|(&(n, u), &v)| (n, v, u))
        .collect()
}

/// Per-repetition median of `f`.
fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Every repetition's delivery windows, in ms.
fn delivery_ms(plain: &[&Rep], pick: impl Fn(&run::Delivery) -> &Vec<u64>) -> Vec<f64> {
    plain
        .iter()
        .flat_map(|r| pick(&r.delivery).iter().map(|&ns| ns as f64 / 1e6))
        .collect()
}

/// The result-line metrics and the reported-only ones.
fn end_to_end_metrics(s: &Setup, plain: &[&Rep]) -> (Vec<Metric>, Vec<Metric>) {
    // Sums, not medians, over repetitions: on two cores a repetition runs
    // in one of two speed modes (whether the consumer thread shares a core
    // with a generator worker), and a median of a handful of bimodal
    // values jumps between the modes from run to run.
    let records: u64 = plain.iter().map(|r| r.records).sum();
    let wall: u64 = plain.iter().map(|r| r.wall_ns).sum();
    let cpu: u64 = plain.iter().map(|r| r.cpu_ns).sum();
    let p50s = delivery_ms(plain, |d| &d.p50_ns);
    let samples: u64 = plain.iter().map(|r| r.delivery.samples).sum();
    let walls: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.1}", r.wall_ns as f64 / 1e6))
        .collect();
    println!(
        "reps {} records {} delivery samples {} wall_ms [{}]",
        plain.len(),
        records,
        samples,
        walls.join(" ")
    );
    let end_to_end = named(
        END_TO_END,
        &[
            s.total_s,
            records as f64 / (wall as f64 / 1e9),
            cpu as f64 / records.max(1) as f64,
            peak_rss_mb(),
        ],
    );
    let reported = named(
        REPORTED,
        &[
            med(plain, |r| r.first_ns as f64 / 1e6),
            p50s.iter().sum::<f64>() / p50s.len().max(1) as f64,
            median(&delivery_ms(plain, |d| &d.p99_ns)),
        ],
    );
    (end_to_end, reported)
}

/// A probe's result, or its default with the failure recorded.
fn or_check<T: Default>(result: Result<T, String>, checks: &mut Vec<String>) -> T {
    result.unwrap_or_else(|e| {
        checks.push(format!("layer probe: {e}"));
        T::default()
    })
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

fn layer_metrics(
    w: &Workload,
    s: &Setup,
    reference: &Reference,
    reps: &[(Mode, Rep)],
    plain: &[&Rep],
    checks: &mut Vec<String>,
) -> Vec<Metric> {
    let of = |mode: Mode| -> Vec<&Rep> {
        reps.iter()
            .filter(|(m, _)| *m == mode)
            .map(|(_, r)| r)
            .collect()
    };
    let (traced, observed) = (of(Mode::Traced), of(Mode::Observed));
    let paced = w.kind == Kind::LiveFanout;
    // Paced wall time is fixed by the schedule, so live-fanout overheads
    // compare process CPU time instead.
    let cost = |reps: &[&Rep]| {
        med(reps, |r| {
            if paced {
                r.cpu_ns as f64
            } else {
                r.wall_ns as f64
            }
        })
    };
    let base = cost(plain);
    let (sample_events, sample_ns) = run::sample_probe(&s.models, w);
    let (inline_events, inline_ns) = or_check(run::inline_probe(&s.models, w), checks);
    let (bootstrap_ms, next_ns) = if paced {
        let p = or_check(run::gen_probe(&s.models, w), checks);
        (p.bootstrap_ns as f64 / 1e6, per(p.next_ns, p.records))
    } else {
        (
            med(&traced, |r| r.layers.gen_bootstrap_ns as f64 / 1e6),
            med(&traced, |r| per(r.layers.gen_next_ns, r.layers.gen_records)),
        )
    };
    let encode = if paced {
        per(run::encode_trace(&s.trace).1, s.trace.len() as u64)
    } else {
        med(&traced, |r| per(r.layers.encode_ns, r.layers.encoded))
    };
    let des = reference.des.as_ref();
    let mme = des.and_then(|d| d.per_nf.iter().find(|nf| nf.nf == NetworkFunction::Mme));
    let l = |f: &dyn Fn(&Rep) -> f64| med(&traced, f);
    named(
        PER_LAYER,
        &[
            s.world_s,
            s.fit_s,
            per(sample_ns, sample_events),
            bootstrap_ms,
            next_ns,
            per(inline_ns, inline_events),
            encode,
            l(&|r| per(r.layers.scenario_self_ns, r.records)),
            l(&|r| r.layers.injected as f64),
            l(&|r| r.layers.suppressed as f64),
            l(&|r| per(r.layers.offer_ns, r.records)),
            l(&|r| r.layers.finish_ns as f64 / 1e6),
            des.map_or(0.0, |d| d.shed_rate),
            mme.map_or(0.0, |m| m.scale_ups as f64),
            mme.map_or(0.0, |m| m.peak_depth as f64),
            mme.map_or(0.0, |m| m.utilization),
            des.map_or(0.0, |d| d.p99_latency_ms),
            l(&|r| per(r.layers.serve_self_ns, r.records)),
            l(&|r| per(r.layers.consumer_cpu_ns, r.layers.consumer_records)),
            l(&|r| r.layers.pacer_lag_p99_ms),
            l(&|r| r.layers.peak_backlog_frames as f64),
            l(&|r| r.layers.dropped_frames as f64),
            cost(&observed) / base,
            cost(&traced) / base,
            l(&|r| per(r.wall_ns.saturating_sub(r.layers.attributed_ns), r.records)),
        ],
    )
}
