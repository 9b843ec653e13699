//! The benchmark's self-test at tiny size: every workload runs in both
//! modes, every listed metric is present, finite and in its unit, every
//! run is correct, a different seed changes the inputs, and the same seed
//! reproduces the inputs, the served predictions and the F1.

use crate::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::Command;

struct Run {
    stdout: String,
}

impl Run {
    /// The value after `prefix ` on the line that starts with it.
    fn line(&self, prefix: &str) -> Option<&str> {
        self.stdout.lines().find_map(|l| l.strip_prefix(prefix)?.strip_prefix(' '))
    }

    fn result(&self) -> &str {
        self.stdout.lines().last().unwrap_or("")
    }
}

fn invoke(workload: &str, seed: u64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {trace} exited with {}:\n{}\n{}",
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(Run { stdout })
}

/// Every `(name, unit)` must appear in the result line as a finite number.
fn check_metrics(run: &Run, spec: &[(&str, &str)], what: &str) -> Result<(), String> {
    let line = run.result();
    if !line.starts_with(r#"{"correct": true, "attempted": "#) {
        return Err(format!("{what}: bad result line {line}"));
    }
    let keys = line.matches(r#"{"value": "#).count();
    if keys != spec.len() {
        return Err(format!("{what}: {keys} metrics, expected {}", spec.len()));
    }
    for (name, unit) in spec {
        let head = format!(r#""{name}": {{"value": "#);
        let rest = line
            .split_once(&head)
            .map(|(_, r)| r)
            .ok_or_else(|| format!("{what}: metric {name} missing"))?;
        let (num, tail) = rest.split_once(',').ok_or_else(|| format!("{what}: {name} cut"))?;
        let v: f64 = num.trim().parse().map_err(|_| format!("{what}: {name} = {num}"))?;
        if !v.is_finite() {
            return Err(format!("{what}: {name} is not finite"));
        }
        if !tail.trim_start().starts_with(&format!(r#""unit": "{unit}"}}"#)) {
            return Err(format!("{what}: {name} does not carry unit {unit}"));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` must list exactly this binary's workloads and metrics.
fn check_benchmark_json() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let section = |key: &str, next: Option<&str>| -> String {
        let start = text.find(&format!("\"{key}\"")).unwrap_or(text.len());
        let end = next.and_then(|n| text.find(&format!("\"{n}\""))).unwrap_or(text.len());
        text[start..end.max(start)].to_string()
    };
    let values = |s: &str, key: &str| -> Vec<String> {
        s.split(&format!("\"{key}\": \""))
            .skip(1)
            .filter_map(|p| p.split('"').next().map(str::to_string))
            .collect()
    };
    let workloads = values(&section("workloads", Some("end_to_end")), "name");
    if workloads != WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"));
    }
    for (key, next, spec) in
        [("end_to_end", Some("per_layer"), &END_TO_END[..]), ("per_layer", None, &PER_LAYER[..])]
    {
        let s = section(key, next);
        let listed: Vec<(String, String)> =
            values(&s, "name").into_iter().zip(values(&s, "unit")).collect();
        let want: Vec<(String, String)> =
            spec.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if listed != want {
            return Err(format!("BENCHMARK.json {key} {listed:?} != binary's {want:?}"));
        }
    }
    Ok(())
}

pub fn run() -> Result<(), String> {
    check_benchmark_json()?;
    for wl in WORKLOADS {
        let e2e = invoke(wl, 1, false)?;
        check_metrics(&e2e, &END_TO_END, &format!("{wl} --trace 0"))?;
        check_metrics(&invoke(wl, 1, true)?, &PER_LAYER, &format!("{wl} --trace 1"))?;
        if e2e.line("stamp").is_none() {
            return Err(format!("{wl}: no stamp line"));
        }

        let again = invoke(wl, 1, false)?;
        let other = invoke(wl, 2, false)?;
        let keys: &[&str] =
            if wl == "train_eval" { &["inputs", "f1"] } else { &["inputs", "answers", "f1"] };
        for key in keys {
            if e2e.line(key).is_none() || e2e.line(key) != again.line(key) {
                return Err(format!("{wl}: `{key}` differs between two runs of seed 1"));
            }
        }
        if e2e.line("inputs") == other.line("inputs") {
            return Err(format!("{wl}: seeds 1 and 2 generated the same inputs"));
        }
        println!("self-test {wl}: ok");
    }
    Ok(())
}
