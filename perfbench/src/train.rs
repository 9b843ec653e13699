//! The `train_eval` workload: generate, weak-label, train the default
//! (H = 48) model with `core::train`, evaluate popularity slices of a
//! dev sample with `par_evaluate_batched`.

use crate::probes::{self, Counters};
use crate::report::{mean, median, quantile, windowed_rate, Metrics, Verdict};
use crate::serve::{self, Stack, Traffic};
use crate::world::{self, sub_seed};
use crate::Args;
use bootleg_candgen::CandidateGenerator;
use bootleg_core::{BootlegConfig, BootlegModel, TrainConfig};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig, Sentence};
use bootleg_eval::{BootlegPredictor, SliceReport};
use bootleg_kb::{EntityId, KbConfig, KnowledgeBase};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// `sent_per_s` is the median rate over this many slices of the run.
const RATE_WINDOWS: usize = 15;
/// Poll period of the step watcher.
const WATCH_US: u64 = 50;

/// The training recipe: the experiment harness's full-workbench settings.
pub fn train_config() -> TrainConfig {
    TrainConfig { epochs: 2, lr: 1.5e-3, batch_size: 16, ..TrainConfig::default() }
}

/// Seed of the training data. The training job is the same in every run
/// (its F1 is a property of the program, not of a random dataset); the
/// run's `--seed` draws the evaluation sample from a large dev pool.
const DATA_SEED: u64 = 2021;

/// Corpus pages: the training share grows with `--seconds` (about one
/// second of training per 120 pages on the reference machine); the dev
/// pool is large so a sample of it gives stable slice F1.
fn corpus_config(args: &Args) -> CorpusConfig {
    let (train_pages, dev_pages) =
        if args.tiny { (40.0, 80.0) } else { (120.0 * args.seconds, 8_000.0) };
    let total = train_pages + dev_pages;
    CorpusConfig {
        n_pages: total as usize,
        split: [train_pages / total, dev_pages / total, 0.0],
        seed: sub_seed(DATA_SEED, 2),
        ..CorpusConfig::default()
    }
}

fn kb_config(args: &Args) -> KbConfig {
    KbConfig {
        n_entities: if args.tiny { 300 } else { 2_000 },
        n_types: 60,
        n_relations: 30,
        seed: sub_seed(DATA_SEED, 1),
        ..KbConfig::default()
    }
}

/// The run's evaluation sample: three quarters of the dev pool's pages,
/// drawn by `seed`.
fn eval_sample(dev: &[Sentence], seed: u64) -> Vec<Sentence> {
    let (sentences, pages) = world::pages(&[dev]);
    let mut pages = world::shuffled(pages, sub_seed(seed, 4));
    pages.truncate(pages.len() * 3 / 4);
    pages.sort();
    pages.iter().flatten().map(|&i| sentences[i].clone()).collect()
}

/// Everything set-up produces.
struct Prepared {
    kb: KnowledgeBase,
    corpus: Corpus,
    counts: HashMap<EntityId, u32>,
    model: BootlegModel,
    /// This run's evaluation sample of the dev pool.
    eval: Vec<Sentence>,
}

/// Generate → weak-label → `BootlegModel::new`, with the time of the first
/// two stages.
fn prepare(args: &Args) -> (Prepared, f64, f64) {
    let t = Instant::now();
    let kb = bootleg_kb::generate(&kb_config(args));
    let mut corpus = generate_corpus(&kb, &corpus_config(args));
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let vocab = corpus.vocab.clone();
    bootleg_corpus::weaklabel::apply(&kb, &vocab, &mut corpus.train);
    let weaklabel_s = t.elapsed().as_secs_f64();
    let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
    let model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
    let eval = eval_sample(&corpus.dev, args.seed);
    (Prepared { kb, corpus, counts, model, eval }, generate_s, weaklabel_s)
}

/// `core::train` with a watcher thread timing each optimizer step from the
/// outside, by the moments the existing `train.steps` counter moves.
fn train_watched(
    p: &mut Prepared,
    cfg: &TrainConfig,
) -> (bootleg_core::TrainReport, f64, Vec<f64>, Vec<f64>) {
    let steps = bootleg_obs::metrics::counter("train.steps");
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (report, (step_ms, step_end_s)) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut seen = steps.value();
            let mut last = start;
            let (mut step_ms, mut step_end_s) = (Vec::new(), Vec::new());
            while !done.load(Ordering::Relaxed) {
                let now_steps = steps.value();
                if now_steps != seen {
                    let now = Instant::now();
                    let n = (now_steps - seen) as usize;
                    let each = now.duration_since(last).as_secs_f64() * 1e3 / n as f64;
                    step_ms.extend(std::iter::repeat_n(each, n));
                    step_end_s
                        .extend(std::iter::repeat_n(now.duration_since(start).as_secs_f64(), n));
                    seen = now_steps;
                    last = now;
                }
                std::thread::sleep(Duration::from_micros(WATCH_US));
            }
            (step_ms, step_end_s)
        });
        let report = bootleg_core::train(&mut p.model, &p.kb, &p.corpus.train, cfg);
        done.store(true, Ordering::Relaxed);
        (report, watcher.join().expect("step watcher"))
    });
    (report, start.elapsed().as_secs_f64(), step_ms, step_end_s)
}

fn f1s(r: &SliceReport) -> [f64; 3] {
    [r.all.f1(), r.tail.f1(), r.unseen.f1()]
}

/// Dev-slice evaluation, batched and parallel; the serial single-example
/// evaluation must agree exactly.
fn evaluate(p: &Prepared, verdict: &mut Verdict) -> SliceReport {
    let predictor = BootlegPredictor::new(&p.model, &p.kb);
    let report = bootleg_eval::par_evaluate_batched(&p.eval, &p.counts, predictor, 8);
    let serial = bootleg_eval::evaluate_slices(&p.eval, &p.counts, predictor);
    if report != serial {
        verdict.mismatch(format!("batched eval {report:?} != serial eval {serial:?}"));
    }
    report
}

pub fn run(args: &Args, out: &mut Metrics, verdict: &mut Verdict) -> Result<(), String> {
    let (mut setup, mut gen, mut wl) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let t = Instant::now();
        let (p, g, w) = prepare(args);
        setup.push(t.elapsed().as_secs_f64());
        gen.push(g);
        wl.push(w);
        prepared = Some(p);
    }
    let mut p = prepared.expect("at least one set-up rep");
    println!("inputs {:016x}", world::digest_sentences(&p.eval));
    let cfg = train_config();
    let initial = args.trace.then(|| p.model.clone_model());

    let (report, wall_s, step_ms, step_end_s) = train_watched(&mut p, &cfg);
    let skipped = report.skipped_updates() as u64;
    verdict.attempted += report.steps + skipped;
    verdict.failed += skipped;
    if skipped > 0 {
        verdict.mismatch(format!("{skipped} updates skipped by the anomaly guard"));
    }
    let sentence_steps = (report.n_examples * cfg.epochs) as f64;
    let slices = evaluate(&p, verdict);
    let [all, tail, unseen] = f1s(&slices);
    println!("f1 {all:.6} {tail:.6} {unseen:.6}");

    if !args.trace {
        out.set("setup_s", median(&setup), "s");
        let per_step = sentence_steps / step_ms.len().max(1) as f64;
        let done: Vec<(f64, f64)> = step_end_s.iter().map(|&t| (t, per_step)).collect();
        out.set("sent_per_s", windowed_rate(&done, wall_s, RATE_WINDOWS), "1/s");
        out.set("call_p50_ms", quantile(&step_ms, 0.5), "ms");
        out.set("peak_rss_mb", crate::machine::peak_rss_mb(), "MB");
        out.set("all_f1", all, "%");
        out.set("tail_f1", tail, "%");
        out.set("unseen_f1", unseen, "%");
        println!("calls {} sentences {}", step_ms.len(), sentence_steps);
        return Ok(());
    }

    let initial = initial.expect("cloned when tracing");
    out.set("corpus.generate_s", median(&gen), "s");
    out.set("corpus.weaklabel_s", median(&wl), "s");

    // The serving stack over the trained model, fed dev pages.
    let gamma = CandidateGenerator::from_kb(&p.kb, world::MAX_CANDIDATES);
    let (sentences, calls) = world::pages(&[&p.eval]);
    let stack = Stack::new(&p.model, &p.kb, &p.corpus.vocab, &p.counts, &gamma);
    let mut traffic = Traffic::new(&stack, sentences, calls);
    serve::trace_arms(out, &stack, &mut traffic, 2.0, verdict);
    serve::layer_probes(out, &stack, &traffic, if args.tiny { 10 } else { 150 });
    drop(stack);

    // Trace overhead and counters on the workload's own loop: core::train
    // over a slice of the training set, untraced and traced, interleaved.
    let arm_cfg = TrainConfig {
        epochs: 1,
        max_sentences: Some(if args.tiny { 32 } else { 800 }),
        ..cfg.clone()
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    let (mut traced_sent, mut traced_wall) = (0.0, 0.0);
    for _ in 0..2 {
        let mut m = initial.clone_model();
        let t = Instant::now();
        let r = bootleg_core::train(&mut m, &p.kb, &p.corpus.train, &arm_cfg);
        let n = r.n_examples.min(arm_cfg.max_sentences.unwrap_or(usize::MAX)) as f64;
        off.push(n / t.elapsed().as_secs_f64());

        let mut m = initial.clone_model();
        bootleg_obs::set_trace_enabled(true);
        let before = Counters::read();
        let t = Instant::now();
        black_box(bootleg_core::train(&mut m, &p.kb, &p.corpus.train, &arm_cfg));
        let wall = t.elapsed().as_secs_f64();
        counters.add(Counters::read().since(before));
        bootleg_obs::set_trace_enabled(false);
        on.push(n / wall);
        traced_sent += n;
        traced_wall += wall;
    }
    out.set("obs.trace_overhead_frac", 1.0 - mean(&on) / mean(&off), "frac");
    counters.report(out, traced_sent, traced_wall);

    // Read side after training: cache hits while evaluating.
    let before = Counters::read();
    probes::eval_probe(out, &p.model, &p.kb, &p.eval, &p.counts);
    let d = Counters::read().since(before);
    out.set(
        "entitycache.hit_frac",
        d.cache_hits as f64 / (d.cache_hits + d.cache_misses).max(1) as f64,
        "frac",
    );
    out.set("entitycache.mb", p.model.entity_cache_bytes() as f64 / 1e6, "MB");

    frozen_probe(out, &p)?;
    probes::train_probe(
        out,
        &initial,
        &p.kb,
        &p.corpus.train,
        &cfg,
        if args.tiny { 2 } else { 20 },
    );
    Ok(())
}

/// `frozen.thaw_s` / `frozen.artifact_mb` for the trained model.
fn frozen_probe(out: &mut Metrics, p: &Prepared) -> Result<(), String> {
    let dir = std::path::PathBuf::from(world::WORK_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("train-{}.btfz", std::process::id()));
    let result = (|| {
        bootleg_core::freeze_to_path(&p.model, &p.kb, &p.corpus.vocab, &path)
            .map_err(|e| e.to_string())?;
        let mut thaw = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            black_box(bootleg_core::thaw_from_path(&path).map_err(|e| e.to_string())?);
            thaw.push(t.elapsed().as_secs_f64());
        }
        out.set("frozen.thaw_s", median(&thaw), "s");
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        out.set("frozen.artifact_mb", bytes as f64 / 1e6, "MB");
        Ok(())
    })();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    result
}
