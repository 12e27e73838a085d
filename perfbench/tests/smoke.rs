//! Tiny-scale runs of every workload, untraced and traced: each must pass
//! its output checks and print every listed metric, finite, with its unit.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const WORKLOADS: [&str; 4] = ["steady-20k", "wide-1m", "storm-des", "live-fanout"];

/// `(kind, name, unit)` for every metric `--list` names.
fn listed() -> Vec<(String, String, String)> {
    let out = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(k @ ("end_to_end" | "reported" | "per_layer")), Some(n), Some(u)) => {
                    Some((k.to_string(), n.to_string(), u.to_string()))
                }
                _ => None,
            }
        })
        .collect()
}

/// The value of `name` in the result line, checked to carry `unit`.
fn value_in(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {result}"))
        + key.len();
    let rest = &result[at..];
    let (number, rest) = rest
        .split_once(", ")
        .expect("value is followed by its unit");
    assert!(
        rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} lacks unit {unit}: {rest}"
    );
    number
        .parse()
        .unwrap_or_else(|_| panic!("{name} value {number} is not a number"))
}

fn run(workload: &str, trace: &str) {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--scale",
            "tiny",
            "--seconds",
            "0.2",
            "--seed",
            "7",
        ])
        .args(["--trace", trace])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    assert!(
        result.contains(", \"failed\": 0, \"metrics\": {"),
        "{result}"
    );
    assert!(stdout.contains("metric error_rate 0 ratio"), "{stdout}");
    let kind = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let metrics: Vec<_> = listed()
        .into_iter()
        .filter(|(k, n, _)| k == kind && n != "error_rate")
        .collect();
    assert!(!metrics.is_empty());
    for (_, name, unit) in metrics {
        let v = value_in(result, &name, &unit);
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn every_workload_untraced() {
    for w in WORKLOADS {
        run(w, "0");
    }
}

#[test]
fn every_workload_traced() {
    for w in WORKLOADS {
        run(w, "1");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "7"],
        &["--workload", "wide-1m", "--trace", "2"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
