//! Per-layer probes for the traced run. Every number here comes from
//! timing calls into a crate's public functions from this file, or from
//! counters and histograms the program already keeps; nothing is added
//! inside the program.

use crate::report::{median, Metrics};
use bootleg_core::{BootlegModel, Example, ForwardOptions, TrainConfig};
use bootleg_corpus::Sentence;
use bootleg_eval::BootlegPredictor;
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_nn::optim::{clip_grad_norm, Adam};
use bootleg_pool::{with_pool, ThreadPool};
use bootleg_tensor::kernels;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

fn counter(name: &str) -> u64 {
    bootleg_obs::metrics::counter(name).value()
}

/// Sum of a histogram's observations (ns for the `forward.*_ns` phases).
fn hist_sum(name: &str) -> f64 {
    bootleg_obs::metrics::histogram(name).snapshot().sum
}

/// A reading of the program's own counters, for deltas around a region.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub matmul_calls: u64,
    pub matmul_flops: u64,
    pub arena_miss: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub serve_batches: u64,
    pub pool_busy_ns: u64,
}

impl Counters {
    pub fn read() -> Self {
        let pool_busy_ns = bootleg_obs::snapshot()
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("pool.") && k.ends_with(".busy_ns"))
            .map(|(_, v)| *v)
            .sum();
        Self {
            matmul_calls: counter("kernel.matmul.calls"),
            matmul_flops: counter("kernel.matmul.flops"),
            arena_miss: counter("arena.miss"),
            cache_hits: counter("entitycache.hits"),
            cache_misses: counter("entitycache.misses"),
            serve_batches: counter("serve.batches"),
            pool_busy_ns,
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            matmul_calls: self.matmul_calls - earlier.matmul_calls,
            matmul_flops: self.matmul_flops - earlier.matmul_flops,
            arena_miss: self.arena_miss - earlier.arena_miss,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            serve_batches: self.serve_batches - earlier.serve_batches,
            pool_busy_ns: self.pool_busy_ns - earlier.pool_busy_ns,
        }
    }

    pub fn add(&mut self, d: Self) {
        self.matmul_calls += d.matmul_calls;
        self.matmul_flops += d.matmul_flops;
        self.arena_miss += d.arena_miss;
        self.cache_hits += d.cache_hits;
        self.cache_misses += d.cache_misses;
        self.serve_batches += d.serve_batches;
        self.pool_busy_ns += d.pool_busy_ns;
    }

    /// The `tensor.*`, `entitycache.hit_frac` and `pool.busy_frac`
    /// metrics of a region that processed `sentences` in `wall_s`.
    pub fn report(&self, out: &mut Metrics, sentences: f64, wall_s: f64) {
        out.set("tensor.matmul_calls_per_sent", self.matmul_calls as f64 / sentences, "count");
        out.set(
            "tensor.matmul_kflop_per_call",
            self.matmul_flops as f64 / 1e3 / self.matmul_calls.max(1) as f64,
            "kflop",
        );
        out.set("tensor.arena_miss_per_sent", self.arena_miss as f64 / sentences, "count");
        let looked_up = (self.cache_hits + self.cache_misses).max(1) as f64;
        out.set("entitycache.hit_frac", self.cache_hits as f64 / looked_up, "frac");
        out.set(
            "pool.busy_frac",
            self.pool_busy_ns as f64 / 1e9 / (wall_s * bootleg_pool::num_threads() as f64),
            "frac",
        );
    }
}

/// Sum of the four forward-phase histograms, in ns.
fn phase_sums() -> [f64; 4] {
    PHASES.map(|(_, hist)| hist_sum(hist))
}

const PHASES: [(&str, &str); 4] = [
    ("core.phase_candgen_us_per_sent", "forward.candgen_ns"),
    ("core.phase_embed_us_per_sent", "forward.embed_ns"),
    ("core.phase_attention_us_per_sent", "forward.attention_ns"),
    ("core.phase_score_us_per_sent", "forward.score_ns"),
];

/// Per-sentence forward-phase times from `BootlegModel::run` over `calls`
/// (each one slice of examples), traced so the phase histograms record.
pub fn phase_probe(
    out: &mut Metrics,
    model: &BootlegModel,
    kb: &KnowledgeBase,
    calls: &[&[Example]],
) {
    bootleg_obs::set_trace_enabled(true);
    let before = phase_sums();
    let mut n = 0usize;
    for exs in calls {
        black_box(model.run(kb, exs, ForwardOptions::inference()).expect("no deadline"));
        n += exs.len();
    }
    let after = phase_sums();
    bootleg_obs::set_trace_enabled(false);
    for (i, (name, _)) in PHASES.iter().enumerate() {
        out.set(name, (after[i] - before[i]) / 1e3 / n.max(1) as f64, "us");
    }
}

/// `core.run_n1_us_per_sent` and `core.run_n8_us_per_sent`: `run` on
/// 1-example slices (sequential engine) and 8-example slices (ragged
/// batched engine), median of three passes each.
pub fn run_probe(out: &mut Metrics, model: &BootlegModel, kb: &KnowledgeBase, exs: &[Example]) {
    let pass = |chunk: usize| {
        let t = Instant::now();
        for c in exs.chunks(chunk) {
            black_box(model.run(kb, c, ForwardOptions::inference()).expect("no deadline"));
        }
        t.elapsed().as_secs_f64() * 1e6 / exs.len().max(1) as f64
    };
    let (mut n1, mut n8) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        n1.push(pass(1));
        n8.push(pass(8));
    }
    out.set("core.run_n1_us_per_sent", median(&n1), "us");
    out.set("core.run_n8_us_per_sent", median(&n8), "us");
}

/// Kernel probe at serving-model shapes: the three matmul layouts called
/// directly on a one-thread pool, against the single-core FMA peak.
pub fn kernel_probe(out: &mut Metrics, peak_gflops: f64) {
    // A micro-batch of token rows through an H = 128 projection.
    let (m, k, n) = (160usize, 128usize, 128usize);
    let fill = |len: usize, salt: u32| -> Vec<f32> {
        (0..len as u32)
            .map(|i| ((i.wrapping_mul(2_654_435_761) ^ salt) % 1000) as f32 / 500.0 - 1.0)
            .collect()
    };
    let a = fill(m * k, 1);
    let b_kn = fill(k * n, 2);
    let b_mn = fill(m * n, 3);
    let b_nk = fill(n * k, 4);
    let flops = 2.0 * (m * k * n) as f64;
    let pool = ThreadPool::new(1);
    let time = |f: &mut dyn FnMut()| -> f64 {
        f(); // warm
        let mut best = f64::INFINITY;
        for _ in 0..7 {
            let t = Instant::now();
            for _ in 0..20 {
                f();
            }
            best = best.min(t.elapsed().as_secs_f64() / 20.0);
        }
        flops / best / 1e9
    };
    let (ab, atb, abt) = with_pool(&pool, || {
        let mut c = vec![0.0f32; m * n];
        let ab = time(&mut || kernels::matmul_acc(black_box(&a), &b_kn, &mut c, m, k, n));
        let mut c = vec![0.0f32; k * n];
        let atb = time(&mut || kernels::matmul_at_b_acc(black_box(&a), &b_mn, &mut c, m, k, n));
        let mut c = vec![0.0f32; m * n];
        let abt = time(&mut || kernels::matmul_a_bt_acc(black_box(&a), &b_nk, &mut c, m, k, n));
        (ab, atb, abt)
    });
    for (name, pct, g) in [
        ("tensor.gflops_ab", "tensor.pct_peak_ab", ab),
        ("tensor.gflops_atb", "tensor.pct_peak_atb", atb),
        ("tensor.gflops_abt", "tensor.pct_peak_abt", abt),
    ] {
        out.set(name, g, "GFLOP/s");
        out.set(pct, 100.0 * g / peak_gflops, "%");
    }
}

/// `eval.sent_per_s`: `par_evaluate_batched` over `sentences`.
pub fn eval_probe(
    out: &mut Metrics,
    model: &BootlegModel,
    kb: &KnowledgeBase,
    sentences: &[Sentence],
    counts: &HashMap<EntityId, u32>,
) {
    let t = Instant::now();
    black_box(bootleg_eval::par_evaluate_batched(
        sentences,
        counts,
        BootlegPredictor::new(model, kb),
        8,
    ));
    out.set("eval.sent_per_s", sentences.len() as f64 / t.elapsed().as_secs_f64(), "1/s");
}

/// The write-side probe: `core::train` for `steps` minibatches on one
/// clone, and a step loop of `run(training)` → `Graph::backward` →
/// `Adam::step` over the same minibatches on another. Reports
/// `train.{fwd,bwd,adam}_ms_per_step`, `train.unattributed_frac`, and
/// `entitycache.rebuild_s` (the read side rebuilding its payload plane
/// after the weights moved).
pub fn train_probe(
    out: &mut Metrics,
    model: &BootlegModel,
    kb: &KnowledgeBase,
    sentences: &[Sentence],
    cfg: &TrainConfig,
    steps: usize,
) {
    let examples: Vec<Example> = sentences.iter().filter_map(Example::training).collect();
    let n_sent = (steps * cfg.batch_size).min(examples.len());
    let one_epoch = TrainConfig { epochs: 1, max_sentences: Some(n_sent), ..cfg.clone() };

    let mut m = model.clone_model();
    let t = Instant::now();
    let report = bootleg_core::train(&mut m, kb, sentences, &one_epoch);
    let core_ms_per_step = t.elapsed().as_secs_f64() * 1e3 / report.steps.max(1) as f64;

    // The same visit order core::train uses for its first epoch.
    let mut order: Vec<usize> = (0..examples.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
    order.truncate(n_sent);

    let mut m = model.clone_model();
    let mut opt = Adam::new(&m.params, cfg.lr);
    let mut step_seed = cfg.seed;
    let (mut fwd, mut bwd, mut adam, mut n_steps) = (0.0f64, 0.0f64, 0.0f64, 0usize);
    for batch in order.chunks(cfg.batch_size) {
        let mut used = 0usize;
        for &i in batch {
            step_seed =
                step_seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = Instant::now();
            let mut outs = m
                .run(kb, std::slice::from_ref(&examples[i]), ForwardOptions::training(step_seed))
                .expect("no deadline");
            let fwd_out = outs.pop().expect("one output");
            fwd += t.elapsed().as_secs_f64();
            let t = Instant::now();
            if let Some(loss) = &fwd_out.loss {
                if loss.value().item().is_finite() {
                    fwd_out.graph.backward(loss, &mut m.params);
                    used += 1;
                }
            }
            drop(fwd_out);
            bwd += t.elapsed().as_secs_f64();
        }
        if used == 0 {
            continue;
        }
        let t = Instant::now();
        m.params.scale_grads(1.0 / used as f32);
        clip_grad_norm(&mut m.params, cfg.clip);
        opt.step(&mut m.params);
        m.params.zero_grad();
        adam += t.elapsed().as_secs_f64();
        n_steps += 1;
    }
    let per = |s: f64| s * 1e3 / n_steps.max(1) as f64;
    out.set("train.fwd_ms_per_step", per(fwd), "ms");
    out.set("train.bwd_ms_per_step", per(bwd), "ms");
    out.set("train.adam_ms_per_step", per(adam), "ms");
    out.set(
        "train.unattributed_frac",
        1.0 - (per(fwd) + per(bwd) + per(adam)) / core_ms_per_step,
        "frac",
    );

    // The weights moved, so the payload plane is stale: time its rebuild.
    let t = Instant::now();
    m.warm_entity_cache();
    out.set("entitycache.rebuild_s", t.elapsed().as_secs_f64(), "s");
}
