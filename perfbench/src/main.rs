//! End-to-end and per-layer benchmark of the Bootleg reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload doc_serve|single_serve|train_eval --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics instead. Either
//! way it checks every answer, prints a machine/config stamp and each
//! metric with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! A correctness mismatch prints `"correct": false` and exits with 1.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod machine;
mod probes;
mod report;
mod selftest;
mod serve;
mod train;
mod world;

use report::{Metrics, Verdict};
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["doc_serve", "single_serve", "train_eval"];

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sent_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("all_f1", "%"),
    ("tail_f1", "%"),
    ("unseen_f1", "%"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("frozen.thaw_s", "s"),
    ("frozen.artifact_mb", "MB"),
    ("candgen.extract_us_per_sent", "us"),
    ("candgen.mentions_per_sent", "count"),
    ("candgen.cands_per_mention", "count"),
    ("candgen.no_mention_frac", "frac"),
    ("candgen.ms_per_call", "ms"),
    ("serve.call_ms", "ms"),
    ("serve.call_p90_ms", "ms"),
    ("serve.call_p99_ms", "ms"),
    ("serve.loop_self_ms", "ms"),
    ("serve.chain_self_ms", "ms"),
    ("serve.unattributed_frac", "frac"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_wait_mean_us", "us"),
    ("core.run_ms_per_call", "ms"),
    ("core.run_n1_us_per_sent", "us"),
    ("core.run_n8_us_per_sent", "us"),
    ("core.phase_candgen_us_per_sent", "us"),
    ("core.phase_embed_us_per_sent", "us"),
    ("core.phase_attention_us_per_sent", "us"),
    ("core.phase_score_us_per_sent", "us"),
    ("entitycache.hit_frac", "frac"),
    ("entitycache.mb", "MB"),
    ("entitycache.rebuild_s", "s"),
    ("tensor.matmul_calls_per_sent", "count"),
    ("tensor.matmul_kflop_per_call", "kflop"),
    ("tensor.arena_miss_per_sent", "count"),
    ("tensor.gflops_ab", "GFLOP/s"),
    ("tensor.gflops_atb", "GFLOP/s"),
    ("tensor.gflops_abt", "GFLOP/s"),
    ("tensor.pct_peak_ab", "%"),
    ("tensor.pct_peak_atb", "%"),
    ("tensor.pct_peak_abt", "%"),
    ("machine.fma_peak_gflops", "GFLOP/s"),
    ("train.fwd_ms_per_step", "ms"),
    ("train.bwd_ms_per_step", "ms"),
    ("train.adam_ms_per_step", "ms"),
    ("train.unattributed_frac", "frac"),
    ("corpus.generate_s", "s"),
    ("corpus.weaklabel_s", "s"),
    ("eval.sent_per_s", "1/s"),
    ("pool.busy_frac", "frac"),
    ("obs.trace_overhead_frac", "frac"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs (self-test only).
    pub tiny: bool,
}

enum Mode {
    Run(Args),
    MakeArtifact { path: PathBuf, tiny: bool },
    SelfTest,
}

fn parse() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut artifact, mut self_test) = (false, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                })
            }
            "--tiny" => tiny = true,
            "--make-artifact" => artifact = Some(PathBuf::from(value()?)),
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if self_test {
        return Ok(Mode::SelfTest);
    }
    if let Some(path) = artifact {
        return Ok(Mode::MakeArtifact { path, tiny });
    }
    let seed = seed.ok_or("--seed is required")?;
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    }))
}

fn run(args: &Args) -> Result<(Verdict, Metrics), String> {
    let peak = machine::fma_peak_gflops();
    println!(
        "stamp {}",
        machine::stamp_json(&args.workload, args.seed, args.seconds as u64, args.trace, peak)
    );
    let mut out = Metrics::default();
    let mut verdict = Verdict::default();
    match args.workload.as_str() {
        "doc_serve" => serve::run(args, false, &mut out, &mut verdict)?,
        "single_serve" => serve::run(args, true, &mut out, &mut verdict)?,
        _ => train::run(args, &mut out, &mut verdict)?,
    }
    if args.trace {
        out.set("machine.fma_peak_gflops", peak, "GFLOP/s");
        probes::kernel_probe(&mut out, peak);
    }
    // Exactly the listed metrics of this mode, in list order.
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut listed = Metrics::default();
    for &(name, unit) in spec {
        match out.0.iter().find(|m| m.name == name) {
            Some(m) if m.unit == unit && m.value.is_finite() => listed.set(name, m.value, unit),
            Some(m) => {
                return Err(format!("metric {name} = {} {} (want finite, {unit})", m.value, m.unit))
            }
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok((verdict, listed))
}

fn main() -> ExitCode {
    let mode = match parse() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::MakeArtifact { path, tiny } => match serve::make_artifact(&path, tiny) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        Mode::SelfTest => match selftest::run() {
            Ok(()) => {
                println!("self-test passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench self-test: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run(args) => match run(&args) {
            Ok((verdict, metrics)) => {
                for m in &metrics.0 {
                    println!("{:<34} {:>14.6} {}", m.name, m.value, m.unit);
                }
                for why in &verdict.mismatches {
                    eprintln!("perfbench: MISMATCH {why}");
                }
                println!("{}", report::result_line(&verdict, &metrics));
                if verdict.correct() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}
