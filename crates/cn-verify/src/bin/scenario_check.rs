//! Scenario golden gate: identity inertness plus the canonical pins.
//!
//! ```text
//! cargo run --release -p cn-verify --bin scenario_check \
//!     [-- --specs-dir DIR] [--metrics obs.json]
//! ```
//!
//! Runs the three scenario gates over the standard golden config:
//!
//! * **identity** — the empty scenario must reproduce the `standard-v1`
//!   steady-state pin byte for byte on every engine (`apply_scenario`,
//!   sharded × {1,8}, out-of-core export);
//! * **flash-crowd** / **paging-storm** — the two canonical perturbed
//!   scenarios must be engine-consistent and match their own pins.
//!
//! `--specs-dir DIR` writes each canonical spec as JSON into `DIR`
//! (created if needed) so CI can archive the exact scenario definitions
//! the gate ran — the artifact to diff when a pin legitimately moves.
//! `--metrics PATH` writes a `cn-obs` snapshot including the
//! `cn_scenario_*` counter family of the gated runs. Exits non-zero when
//! any gate fails.

use cn_obs::{Registry, Span};
use cn_scenario::ScenarioSpec;
use cn_verify::{
    check_pinned, flash_crowd_spec, identity_spec, paging_storm_spec, run_scenario_golden,
    GroundTruth, PIN_FLASH_CROWD, PIN_IDENTITY, PIN_PAGING_STORM,
};

fn main() {
    let mut specs_dir: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--specs-dir" => specs_dir = Some(args.next().expect("--specs-dir needs a path")),
            "--metrics" => metrics = Some(args.next().expect("--metrics needs a path")),
            other => panic!("unknown argument: {other}"),
        }
    }
    let registry = if metrics.is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    };

    let gt = GroundTruth::standard(11);
    let config = cn_verify::golden::standard_config();
    let gates: [(&str, ScenarioSpec); 3] = [
        (PIN_IDENTITY, identity_spec()),
        (PIN_FLASH_CROWD, flash_crowd_spec()),
        (PIN_PAGING_STORM, paging_storm_spec()),
    ];

    if let Some(dir) = &specs_dir {
        std::fs::create_dir_all(dir).expect("create specs dir");
        for (_, spec) in &gates {
            let path = std::path::Path::new(dir).join(format!("{}.json", spec.name));
            let json = serde_json::to_string_pretty(spec).expect("serialize spec");
            std::fs::write(&path, json + "\n").expect("write spec artifact");
            eprintln!("wrote {}", path.display());
        }
    }

    let mut all_ok = true;
    for (key, spec) in &gates {
        let span = Span::start(&registry, "cn_verify_scenario_ns");
        let report = run_scenario_golden(&gt.set, &config, spec, &registry);
        span.finish();
        println!("== scenario '{}' ==", spec.name);
        print!("{}", report.render());
        let ok = report.consistent
            && match report.hash() {
                Some(hash) => match check_pinned(key, hash) {
                    Ok(()) => {
                        println!("pinned hash matches ({key})");
                        true
                    }
                    Err(e) => {
                        println!("{e}");
                        false
                    }
                },
                None => false,
            };
        registry
            .gauge_with("cn_verify_gate_ok", &[("gate", key)])
            .set(u64::from(ok));
        all_ok &= ok;
    }

    if let Some(path) = &metrics {
        std::fs::write(path, registry.snapshot().to_json()).expect("write metrics snapshot");
        eprintln!("wrote metrics snapshot to {path}");
    }

    if all_ok {
        println!("scenario_check: all gates hold");
    } else {
        println!("scenario_check: FAILURES (see above)");
        std::process::exit(1);
    }
}
