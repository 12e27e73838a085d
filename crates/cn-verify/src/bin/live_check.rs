//! Live-service smoke gate: wire fidelity, drift, kill/resume, and the
//! introspection plane.
//!
//! ```text
//! cargo run --release -p cn-verify --bin live_check [-- \
//!     --metrics obs.json --trace trace.json \
//!     --recorder-jsonl rec.jsonl --forensics forensics.json]
//! ```
//!
//! Serves a 20K-UE, one-hour perturbed scenario through `cn-live` at
//! 3600x time compression (one trace hour per wall second) to a
//! localhost TCP consumer, and gates on four properties:
//!
//! * **wire fidelity** — the bytes the consumer captures are the
//!   in-process materialized trace's binary payload byte for byte (no gaps, End marker
//!   at the exact watermark, count-placeholder header);
//! * **bounded drift** — estimated p99 per-record emission lag behind
//!   the absolute deadline stays under the gate (pacing jitter is
//!   expected at 240K records/wall-second; *accumulating* lag is the
//!   failure mode being gated);
//! * **kill/resume exactness** — stopping the server a third of the way
//!   in and resuming a fresh one from the checkpoint file reproduces
//!   the same total byte stream;
//! * **scrape fidelity** — a `/metrics` scraper polling mid-serve sees
//!   `cn_live_emitted_total` climb monotonically to exactly the record
//!   count on the wire, and the final `/status` + `/recorder` bodies
//!   parse and validate. The killed span mounts a flight recorder with
//!   a forensics path, so the induced failure leaves a dump that must
//!   itself validate.
//!
//! Flags (all optional): `--metrics PATH` writes the full-serve
//! cn-obs JSON snapshot; `--trace PATH` writes the Chrome trace-event
//! JSON (Perfetto-loadable) collected by the global sink; `--recorder-jsonl
//! PATH` streams full-serve recorder frames as JSONL; `--forensics PATH`
//! keeps the kill-drill forensics dump. Exits non-zero on any gate
//! failure.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use cn_gen::{GenConfig, ShardedStream};
use cn_live::{capture, Checkpoint, IntrospectionConfig, LiveConfig, LiveServer, SystemClock};
use cn_obs::{PromText, RecorderFrame, Registry, StatusReport, TraceSink};
use cn_scenario::{
    Phase, PhaseKind, ScenarioSpec, ScenarioStream, StormKind, TimeWindow, UeSubset,
};
use cn_trace::{io::to_binary, DeviceType, PopulationMix, Timestamp};
use cn_verify::GroundTruth;

/// Fit the ground-truth models once; both the batch reference and every
/// serve span draw from the same set.
fn gt() -> &'static GroundTruth {
    static GT: OnceLock<GroundTruth> = OnceLock::new();
    GT.get_or_init(|| GroundTruth::standard(11))
}

/// One trace hour per wall second.
const COMPRESSION: f64 = 3600.0;
/// p99 per-record emission lag gate, in milliseconds.
const P99_LAG_GATE_MS: f64 = 5_000.0;
/// Mid-serve scrape cadence; ~25 scrapes over the one-second serve.
const SCRAPE_EVERY_MS: u64 = 40;

fn live_config() -> GenConfig {
    // The gen_bench 20K shape: 12_500 phones, 5_000 connected cars,
    // 2_500 tablets, over a single hour.
    GenConfig::new(
        PopulationMix::new(12_500, 5_000, 2_500),
        Timestamp::at_hour(0, 6),
        1.0,
        2023,
    )
}

/// A storm-and-fleet scenario sized for the 20K population: a paging
/// storm over a 2K-UE slice and a synchronized metering fleet.
fn live_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "live-smoke".into(),
        seed: 0x11FE_57A6,
        phases: vec![
            Phase {
                name: "paging-burst".into(),
                window: TimeWindow::new(600.0, 600.0),
                kind: PhaseKind::SignalingStorm {
                    ues: UeSubset::new(0, 2_000),
                    kind: StormKind::Paging,
                    bursts_per_ue: 2,
                },
            },
            Phase {
                name: "meter-fleet".into(),
                window: TimeWindow::new(1800.0, 900.0),
                kind: PhaseKind::M2mReporting {
                    ues: UeSubset::new(17_500, 18_500),
                    period_s: 60.0,
                    device: DeviceType::Tablet,
                },
            },
        ],
    }
}

/// Read one consumer's whole wire stream off a TCP connection.
fn drain_tcp(addr: SocketAddr) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect to live server");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("drain live stream");
        bytes
    })
}

fn await_consumers(server: &LiveServer<SystemClock>, n: usize) {
    for _ in 0..10_000 {
        if server.hub().consumer_count() >= n {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("consumer never attached to the live server");
}

/// Blocking one-shot HTTP GET against the introspection listener; panics
/// on anything but a clean 200 with a consistent `Content-Length`.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to introspection port");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: live\r\nConnection: close\r\n\r\n"
    )
    .expect("send scrape request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read scrape response");
    let text = String::from_utf8(raw).expect("scrape response is UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("scrape response has a header block");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "scrape {path} failed: {}",
        head.lines().next().unwrap_or(head)
    );
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("scrape response carries Content-Length")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(body.len(), len, "scrape {path} body truncated");
    body.to_string()
}

/// Everything one serve span produced: the wire bytes plus, when the
/// introspection plane was mounted, the mid-serve scrape trail and the
/// final endpoint bodies.
struct ServeOutcome {
    wire: Vec<u8>,
    emitted: u64,
    /// `cn_live_emitted_total` as seen by the mid-serve `/metrics`
    /// scraper, in scrape order.
    mid_emitted: Vec<u64>,
    final_metrics: Option<PromText>,
    final_status: Option<StatusReport>,
    final_frames: Option<Vec<RecorderFrame>>,
}

/// Serve `[resume_from, stop_after)` of the scenario stream over TCP,
/// optionally with the introspection plane mounted and scraped live.
fn serve_span(
    spec: &ScenarioSpec,
    config: &GenConfig,
    registry: &Registry,
    resume_from: u64,
    stop_after: Option<u64>,
    ckpt: Option<(PathBuf, Checkpoint)>,
    introspect: Option<IntrospectionConfig>,
) -> ServeOutcome {
    let mut cfg = LiveConfig::new(COMPRESSION);
    cfg.queue_frames = 1 << 16;
    cfg.stop_after = stop_after;
    let server = LiveServer::new(SystemClock::new(), cfg, registry).expect("server config");
    let addr = server.bind("127.0.0.1:0").expect("bind localhost");

    let obs_addr = introspect.map(|cfg| {
        server
            .mount_introspection(cfg)
            .expect("mount introspection plane")
    });
    // Scrape /metrics concurrently with the serve: the listener must
    // answer while the hot path runs, and every reading lands in the
    // monotone trail gated by the caller.
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper = obs_addr.map(|obs| {
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let text = http_get(obs, "/metrics");
                let prom = PromText::parse(&text).expect("mid-serve scrape parses");
                seen.push(prom.counter("cn_live_emitted_total").unwrap_or(0));
                std::thread::sleep(std::time::Duration::from_millis(SCRAPE_EVERY_MS));
            }
            seen
        })
    });

    let consumer = drain_tcp(addr);
    await_consumers(&server, 1);
    let source = ScenarioStream::new(
        spec,
        config,
        ShardedStream::new(&gt().set, config),
        &Registry::disabled(),
    );
    let report = server
        .serve(source.expect("valid scenario spec"), resume_from, ckpt)
        .expect("serve");
    let report_consumer = report.consumers[0].as_ref().expect("consumer writer");
    report_consumer
        .verdict()
        .expect("consumer lagged: bounded queue overflowed during the gate");

    scrape_stop.store(true, Ordering::Relaxed);
    let mid_emitted = scraper
        .map(|h| h.join().expect("scraper thread"))
        .unwrap_or_default();
    // Final scrapes happen after the serve but before the server (and
    // its listener) wind down on drop.
    let (final_metrics, final_status, final_frames) = match obs_addr {
        None => (None, None, None),
        Some(obs) => {
            let metrics = PromText::parse(&http_get(obs, "/metrics")).expect("final /metrics");
            let status: StatusReport =
                serde_json::from_str(&http_get(obs, "/status")).expect("final /status");
            let frames: Vec<RecorderFrame> =
                serde_json::from_str(&http_get(obs, "/recorder")).expect("final /recorder");
            (Some(metrics), Some(status), Some(frames))
        }
    };
    ServeOutcome {
        wire: consumer.join().expect("consumer thread"),
        emitted: report.emitted,
        mid_emitted,
        final_metrics,
        final_status,
        final_frames,
    }
}

fn main() {
    let mut metrics: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut recorder_jsonl: Option<String> = None;
    let mut forensics: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--metrics" => metrics = Some(args.next().expect("--metrics needs a path")),
            "--trace" => trace_out = Some(args.next().expect("--trace needs a path")),
            "--recorder-jsonl" => {
                recorder_jsonl = Some(args.next().expect("--recorder-jsonl needs a path"))
            }
            "--forensics" => forensics = Some(args.next().expect("--forensics needs a path")),
            other => panic!("unknown argument: {other}"),
        }
    }

    // Collect stage spans (pacer sleeps, shard drains, merge windows,
    // scenario injections) for the whole run; written out as Chrome
    // trace-event JSON at the end when --trace is given.
    let sink = TraceSink::new();
    cn_obs::trace::install_global(&sink);

    let config = live_config();
    let spec = live_spec();

    // Batch reference: the same scenario materialized in process.
    eprintln!("live_check: building the batch reference trace...");
    let (batch, _) = ScenarioStream::new(
        &spec,
        &config,
        ShardedStream::new(&gt().set, &config),
        &Registry::disabled(),
    )
    .expect("valid scenario spec")
    .collect_trace()
    .expect("batch scenario stream");
    let payload = to_binary(&batch);
    let total = batch.len() as u64;
    println!(
        "live_check: {} records over {}h of trace at {}x compression",
        total, config.duration_hours, COMPRESSION
    );

    // Gate 1+2(+4): full serve — wire fidelity, bounded drift, and the
    // introspection plane scraped mid-serve.
    let mut introspect = IntrospectionConfig::new();
    introspect.recorder.interval = std::time::Duration::from_millis(50);
    introspect.recorder.jsonl_path = recorder_jsonl.as_ref().map(PathBuf::from);
    let registry = Registry::new();
    let t0 = std::time::Instant::now();
    let outcome = serve_span(&spec, &config, &registry, 0, None, None, Some(introspect));
    let wall = t0.elapsed();
    let (wire, emitted) = (outcome.wire, outcome.emitted);
    assert_eq!(emitted, total);
    // Wire layout: 16-byte zero-count header, record frames, End frame.
    assert_eq!(&wire[0..8], cn_trace::io::BINARY_MAGIC, "bad wire magic");
    assert_eq!(
        &wire[8..16],
        &0u64.to_le_bytes(),
        "live header count must be the zero placeholder"
    );
    let frames = &wire[16..];
    assert_eq!(
        frames.len(),
        (total as usize + 1) * cn_trace::RECORD_BYTES,
        "wire carries exactly the records plus one End frame"
    );
    let (records_wire, end_frame) = frames.split_at(total as usize * cn_trace::RECORD_BYTES);
    assert_eq!(
        records_wire,
        &payload[16..],
        "served bytes diverge from the batch payload"
    );
    match cn_live::decode_frame(end_frame.try_into().unwrap()).expect("end frame") {
        cn_live::Frame::End { emitted } => assert_eq!(emitted, total),
        other => panic!("stream ended with {other:?}, not an End marker"),
    }
    println!(
        "wire fidelity: {} bytes byte-identical to batch payload",
        records_wire.len()
    );

    // Gate 4: the scrape trail must be monotone, bounded by the wire
    // record count, and end (in the final scrape) at exactly that count.
    assert!(
        !outcome.mid_emitted.is_empty(),
        "scraper never reached /metrics during the serve"
    );
    for pair in outcome.mid_emitted.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "scraped cn_live_emitted_total went backwards: {} -> {}",
            pair[0],
            pair[1]
        );
    }
    let last_mid = *outcome.mid_emitted.last().unwrap();
    assert!(
        last_mid <= total,
        "scraped emitted total {last_mid} exceeds the {total} records on the wire"
    );
    let final_metrics = outcome.final_metrics.expect("introspection was mounted");
    assert_eq!(
        final_metrics.counter("cn_live_emitted_total"),
        Some(total),
        "final /metrics scrape disagrees with the wire"
    );
    let status = outcome.final_status.expect("introspection was mounted");
    assert_eq!(
        status.consumers.len(),
        1,
        "/status must report the single TCP consumer"
    );
    let rec_frames = outcome.final_frames.expect("introspection was mounted");
    let validated = cn_obs::recorder::validate_frames(&rec_frames)
        .expect("recorder ring fails self-validation");
    println!(
        "introspection: {} mid-serve scrapes (last {last_mid}/{total}), {validated} recorder frames valid",
        outcome.mid_emitted.len()
    );

    let snapshot = registry.snapshot();
    let lag = snapshot.histogram("cn_live_lag_ms").expect("lag histogram");
    let p50 = lag.quantile_est(0.50).unwrap_or(0.0);
    let p99 = lag.quantile_est(0.99).unwrap_or(0.0);
    let p100 = lag.quantile_upper_bound(1.0).unwrap_or(0);
    println!(
        "emission lag ms: p50~{p50:.1} p99~{p99:.1} max<={p100} (wall {:.2?}, gate p99<={P99_LAG_GATE_MS})",
        wall
    );
    assert!(
        p99 <= P99_LAG_GATE_MS,
        "estimated p99 emission lag {p99:.1} ms exceeds the {P99_LAG_GATE_MS} ms gate"
    );
    assert_eq!(
        snapshot.counter("cn_live_emitted_total"),
        Some(total),
        "emitted counter out of step"
    );

    // Gate 3: kill a third of the way in, resume from the checkpoint.
    // The killed span carries a flight recorder with a forensics path:
    // the induced early stop must leave a dump, and the dump must
    // validate (obs_check re-checks the same file in CI).
    let ckpt_path = std::env::temp_dir().join(format!("cn-live-check-{}.json", std::process::id()));
    let forensics_path = forensics.clone().map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("cn-live-forensics-{}.json", std::process::id()))
    });
    let template = Checkpoint {
        emitted: 0,
        compression: COMPRESSION,
        config,
        scenario: Some(spec.clone()),
    };
    let cut = total / 3;
    let drill = Registry::new();
    let mut drill_introspect = IntrospectionConfig::new();
    drill_introspect.recorder.interval = std::time::Duration::from_millis(50);
    drill_introspect.forensics_path = Some(forensics_path.clone());
    let outcome_a = serve_span(
        &spec,
        &config,
        &drill,
        0,
        Some(cut),
        Some((ckpt_path.clone(), template.clone())),
        Some(drill_introspect),
    );
    let (wire_a, emitted_a) = (outcome_a.wire, outcome_a.emitted);
    assert_eq!(emitted_a, cut);
    let dump =
        std::fs::read_to_string(&forensics_path).expect("killed span must leave a forensics dump");
    let dump_frames =
        cn_obs::recorder::validate_forensics(&dump).expect("forensics dump fails validation");
    println!("forensics: kill at {cut} left a valid {dump_frames}-frame dump");
    if forensics.is_none() {
        std::fs::remove_file(&forensics_path).ok();
    }
    let ckpt = Checkpoint::load(&ckpt_path).expect("load checkpoint");
    assert_eq!(
        ckpt.emitted, cut,
        "final checkpoint must carry the exact watermark"
    );
    let resumed_spec = ckpt
        .scenario
        .clone()
        .expect("checkpoint carries the scenario");
    let outcome_b = serve_span(
        &resumed_spec,
        &ckpt.config,
        &drill,
        ckpt.emitted,
        None,
        Some((ckpt_path.clone(), template)),
        None,
    );
    let (wire_b, emitted_b) = (outcome_b.wire, outcome_b.emitted);
    std::fs::remove_file(&ckpt_path).ok();
    assert_eq!(emitted_b, total);
    // First span: header + cut records, no End. Second: header + the
    // remaining records + End. Concatenated payloads = batch payload.
    let captured_a = capture(&wire_a[..]).expect("parse first span");
    assert_eq!(
        captured_a.end, None,
        "killed span must not carry an End marker"
    );
    let mut joined = wire_a[16..].to_vec();
    joined.extend_from_slice(&wire_b[16..wire_b.len() - cn_trace::RECORD_BYTES]);
    assert_eq!(
        joined,
        &payload[16..],
        "kill/resume did not reproduce the byte stream"
    );
    println!(
        "kill/resume: {} + {} records splice byte-exactly at watermark {}",
        captured_a.records.len(),
        (joined.len() / cn_trace::RECORD_BYTES) - captured_a.records.len(),
        cut
    );

    if let Some(path) = metrics {
        std::fs::write(&path, snapshot.to_json()).expect("write metrics snapshot");
        eprintln!("wrote {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, sink.to_chrome_json()).expect("write trace JSON");
        eprintln!("wrote {path} ({} spans)", sink.len());
    }
    cn_obs::trace::clear_global();
    println!("live_check: all gates passed");
}
