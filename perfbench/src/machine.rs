//! The machine and config stamp printed beside every result, the
//! benchmark's own FMA peak microbenchmark, and peak-RSS readout.

use crate::report::{json_num, json_object, json_str};
use std::hint::black_box;
use std::time::Instant;

/// CPU features the kernels dispatch on.
pub fn cpu_flags() -> Vec<(&'static str, bool)> {
    #[cfg(target_arch = "x86_64")]
    {
        vec![
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        vec![("avx2", false), ("fma", false), ("avx512f", false)]
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Single-core f32 FMA peak in GFLOP/s: independent accumulator chains of
/// the widest FMA the CPU has, best of several short reps.
pub fn fma_peak_gflops() -> f64 {
    const ITERS: usize = 2_000_000;
    let mut best = 0.0f64;
    for _ in 0..5 {
        let t = Instant::now();
        let flops = fma_chains(ITERS);
        best = best.max(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Runs `iters` rounds of 12 independent FMA chains; returns FLOPs done.
fn fma_chains(iters: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was detected at runtime.
            return unsafe { x86::fma512(iters) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the features were detected at runtime.
            return unsafe { x86::fma256(iters) };
        }
    }
    let mut acc = [[1.0f32; 8]; 12];
    let (x, y) = (black_box(0.999_999f32), black_box(1e-7f32));
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = *v * x + y;
            }
        }
    }
    black_box(acc);
    (iters * 12 * 8 * 2) as f64
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fma512(iters: usize) -> f64 {
        let x = _mm512_set1_ps(black_box(0.999_999));
        let y = _mm512_set1_ps(black_box(1e-7));
        let mut a = [_mm512_set1_ps(1.0); 12];
        for _ in 0..iters {
            for v in a.iter_mut() {
                *v = _mm512_fmadd_ps(*v, x, y);
            }
        }
        black_box(a);
        (iters * 12 * 16 * 2) as f64
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma256(iters: usize) -> f64 {
        let x = _mm256_set1_ps(black_box(0.999_999));
        let y = _mm256_set1_ps(black_box(1e-7));
        let mut a = [_mm256_set1_ps(1.0); 12];
        for _ in 0..iters {
            for v in a.iter_mut() {
                *v = _mm256_fmadd_ps(*v, x, y);
            }
        }
        black_box(a);
        (iters * 12 * 8 * 2) as f64
    }
}

/// Every `BOOTLEG_*` variable set in the environment, sorted.
fn bootleg_env() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("BOOTLEG_")).collect();
    v.sort();
    v
}

/// The stamp line: machine, effective serving/cache/pool config, and the
/// `BOOTLEG_*` environment, so runs under different configs are never
/// compared silently.
pub fn stamp_json(workload: &str, seed: u64, seconds: u64, trace: bool, fma_peak: f64) -> String {
    let serve = bootleg_serve::ServeConfig::default();
    let flags = json_object(cpu_flags().into_iter().map(|(k, on)| (k, on.to_string())));
    let env = bootleg_env();
    let env_obj = json_object(env.iter().map(|(k, v)| (k.as_str(), json_str(v))));
    json_object([
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("cores", cores().to_string()),
        ("cpu_flags", flags),
        ("machine.fma_peak_gflops", json_num(fma_peak)),
        (
            "serve_config",
            json_object([
                ("workers", serve.workers.to_string()),
                ("queue_cap", serve.queue_cap.to_string()),
                ("batch_max", serve.batch_max.to_string()),
                ("batch_wait_us", serve.batch_wait_us.to_string()),
                ("deadline_ms", serve.deadline_ms.map_or("null".into(), |d| d.to_string())),
            ]),
        ),
        ("cache_policy", json_str(&format!("{:?}", bootleg_core::CachePolicy::from_env()))),
        ("pool_threads", bootleg_pool::num_threads().to_string()),
        ("bootleg_env", env_obj),
    ])
}
