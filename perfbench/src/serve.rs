//! The serving stack as a client sees it — text in through the front door,
//! `serve_requests` over a Bootleg → popularity fallback chain — plus the
//! `doc_serve` and `single_serve` workloads and the serving-layer probes.

use crate::probes::{self, Counters};
use crate::report::{mean, median, median_call_rate, quantile, Metrics, Verdict};
use crate::world::{self, Annotated, FrontDoor, ServeSize, SliceCounts};
use crate::Args;
use bootleg_baselines::PopularityPrior;
use bootleg_candgen::CandidateGenerator;
use bootleg_core::{BootlegModel, Deadline, Example, ForwardOptions, ValidationLimits};
use bootleg_corpus::{Sentence, Vocab};
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_serve::{
    serve_requests, FallbackChain, ModelTier, PredictorTier, RequestCx, ServeConfig, ServeOutcome,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One ready-to-serve stack: model, front door, and fallback chain.
pub struct Stack<'a> {
    pub model: &'a BootlegModel,
    pub kb: &'a KnowledgeBase,
    pub counts: &'a HashMap<EntityId, u32>,
    pub door: FrontDoor<'a>,
    pub chain: FallbackChain<'a>,
    pub limits: ValidationLimits,
    pub cfg: ServeConfig,
}

impl<'a> Stack<'a> {
    /// Builds the chain (Bootleg, then the popularity prior) and warms it.
    pub fn new(
        model: &'a BootlegModel,
        kb: &'a KnowledgeBase,
        vocab: &'a Vocab,
        counts: &'a HashMap<EntityId, u32>,
        gamma: &'a CandidateGenerator,
    ) -> Self {
        let tier0 = ModelTier::new(model, kb);
        let limits = tier0.limits();
        let chain = FallbackChain::new()
            .with_slice_counts(counts)
            .tier(tier0)
            .tier(PredictorTier::new("prior", PopularityPrior));
        chain.warm();
        Self {
            model,
            kb,
            counts,
            door: FrontDoor { kb, vocab, gamma },
            chain,
            limits,
            cfg: ServeConfig::default(),
        }
    }

    /// One client call: annotate the call's sentences and serve them.
    pub fn call(&self, sentences: &[Sentence], call: &[usize]) -> (Annotated, Vec<ServeOutcome>) {
        let ann = self.door.annotate(sentences, call);
        let outcomes = if ann.exs.is_empty() {
            Vec::new()
        } else {
            serve_requests(&self.chain, &self.limits, &self.cfg, &ann.exs)
        };
        (ann, outcomes)
    }

    /// The reference answer of every sentence: the front door's example
    /// and the predictions of `BootlegModel::run` on it alone.
    pub fn references(&self, sentences: &[Sentence]) -> Vec<Option<(Example, Vec<usize>)>> {
        let idx: Vec<usize> = (0..sentences.len()).collect();
        bootleg_pool::map(&idx, |&si| {
            let ann = self.door.annotate(sentences, &[si]);
            let ex = ann.exs.into_iter().next()?;
            let out = self
                .model
                .run(self.kb, std::slice::from_ref(&ex), ForwardOptions::inference())
                .expect("no deadline");
            let preds = out.into_iter().next().expect("one output").predictions;
            Some((ex, preds))
        })
    }

    /// F1 of the reference answers against the corpus gold labels.
    pub fn quality(
        &self,
        sentences: &[Sentence],
        refs: &[Option<(Example, Vec<usize>)>],
    ) -> SliceCounts {
        let mut q = SliceCounts::default();
        for (s, r) in sentences.iter().zip(refs) {
            match r {
                Some((ex, preds)) => q.score(s, Some(ex), preds, self.counts),
                None => q.score(s, None, &[], self.counts),
            }
        }
        q
    }
}

/// Checks every served answer: it must exist, come from tier 0, and equal
/// the reference predictions bit for bit.
fn check(
    verdict: &mut Verdict,
    ann: &Annotated,
    outcomes: &[ServeOutcome],
    refs: &[Option<(Example, Vec<usize>)>],
) {
    verdict.attempted += ann.exs.len() as u64;
    for (si, outcome) in ann.sent.iter().zip(outcomes) {
        match outcome {
            Err(e) => {
                verdict.failed += 1;
                verdict.mismatch(format!("sentence {si}: serve error: {e}"));
            }
            Ok(resp) if resp.tier != 0 => {
                verdict.mismatch(format!("sentence {si}: answered by tier {}", resp.tier_name))
            }
            Ok(resp) => match &refs[*si] {
                Some((_, want)) if *want == resp.predictions => {}
                _ => {
                    verdict.mismatch(format!("sentence {si}: served predictions differ from run()"))
                }
            },
        }
    }
}

/// The client's side of a workload: its sentences, the calls it makes
/// (each a list of sentence indices), and the reference answer of every
/// sentence.
pub struct Traffic {
    pub sentences: Vec<Sentence>,
    pub calls: Vec<Vec<usize>>,
    pub refs: Vec<Option<(Example, Vec<usize>)>>,
    /// Position in `calls`; the stream wraps around.
    next: usize,
}

impl Traffic {
    pub fn new(stack: &Stack, sentences: Vec<Sentence>, calls: Vec<Vec<usize>>) -> Self {
        let refs = stack.references(&sentences);
        Self { sentences, calls, refs, next: 0 }
    }
}

/// What a stretch of client calls did.
#[derive(Default)]
pub struct LoopStats {
    pub calls: usize,
    pub sentences: usize,
    pub requests: usize,
    pub wall_s: f64,
    pub lat_ms: Vec<f64>,
    /// Sentences per call.
    pub sent: Vec<f64>,
}

/// Closed loop, one client: call after call until `seconds` have passed
/// and at least `min_calls` were made.
pub fn serve_loop(
    stack: &Stack,
    traffic: &mut Traffic,
    seconds: f64,
    min_calls: usize,
    verdict: &mut Verdict,
) -> LoopStats {
    let mut st = LoopStats::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || st.calls < min_calls {
        let call = &traffic.calls[traffic.next % traffic.calls.len()];
        traffic.next += 1;
        let t = Instant::now();
        let (ann, outcomes) = stack.call(&traffic.sentences, call);
        st.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        st.sent.push(call.len() as f64);
        check(verdict, &ann, &outcomes, &traffic.refs);
        st.calls += 1;
        st.sentences += call.len();
        st.requests += ann.exs.len();
    }
    st.wall_s = start.elapsed().as_secs_f64();
    st
}

/// Serving-layer probes over the first calls of the stream:
/// `candgen.*`, the call decomposition (`core.run_ms_per_call`,
/// `serve.chain_self_ms`, `serve.loop_self_ms`), forward phases, and
/// `core.run_n{1,8}_us_per_sent`.
pub fn layer_probes(out: &mut Metrics, stack: &Stack, traffic: &Traffic, n_calls: usize) {
    let Traffic { sentences, calls, refs, .. } = traffic;
    // Front door, per sentence.
    let (mut mentions, mut cands, mut none) = (0usize, 0usize, 0usize);
    let t = Instant::now();
    for si in 0..sentences.len() {
        let ann = stack.door.annotate(sentences, &[si]);
        none += ann.no_mention;
        for ex in &ann.exs {
            mentions += ex.mentions.len();
            cands += ex.total_candidates();
        }
        black_box(ann);
    }
    let n = sentences.len().max(1) as f64;
    out.set("candgen.extract_us_per_sent", t.elapsed().as_secs_f64() * 1e6 / n, "us");
    out.set("candgen.mentions_per_sent", mentions as f64 / n, "count");
    out.set("candgen.cands_per_mention", cands as f64 / mentions.max(1) as f64, "count");
    out.set("candgen.no_mention_frac", none as f64 / n, "frac");

    // Call decomposition: serve_requests ⊃ predict_batch ⊃ run, each
    // timed on the same examples, interleaved call by call.
    let probe_calls: Vec<(&[usize], Annotated)> = calls
        .iter()
        .take(n_calls)
        .map(|c| (c.as_slice(), stack.door.annotate(sentences, c)))
        .filter(|(_, a)| !a.exs.is_empty())
        .collect();
    let (mut t_door, mut t_serve, mut t_chain, mut t_run) = (0.0, 0.0, 0.0, 0.0);
    for (i, (call, ann)) in probe_calls.iter().enumerate() {
        let t = Instant::now();
        black_box(stack.door.annotate(sentences, call));
        t_door += t.elapsed().as_secs_f64();

        let exs: Vec<&Example> = ann.exs.iter().collect();
        let cxs: Vec<RequestCx> =
            (0..exs.len()).map(|i| RequestCx::new(i as u64 + 1, Deadline::none())).collect();
        // Rotate which of the three goes first, so none is always the one
        // that finds the call's data cold.
        for part in (0..3).map(|k| (k + i) % 3) {
            let t = Instant::now();
            match part {
                0 => drop(black_box(serve_requests(
                    &stack.chain,
                    &stack.limits,
                    &stack.cfg,
                    &ann.exs,
                ))),
                1 => drop(black_box(stack.chain.predict_batch(&exs, &cxs))),
                _ => drop(black_box(
                    stack
                        .model
                        .run(stack.kb, &ann.exs, ForwardOptions::inference())
                        .expect("no deadline"),
                )),
            }
            let dt = t.elapsed().as_secs_f64();
            *[&mut t_serve, &mut t_chain, &mut t_run][part] += dt;
        }
    }
    let per_call = |s: f64| s * 1e3 / probe_calls.len().max(1) as f64;
    out.set("candgen.ms_per_call", per_call(t_door), "ms");
    out.set("core.run_ms_per_call", per_call(t_run), "ms");
    out.set("serve.chain_self_ms", per_call(t_chain - t_run), "ms");
    out.set("serve.loop_self_ms", per_call(t_serve - t_chain), "ms");
    // How much of the measured (untraced) call time the parts account for.
    if let Some(call_ms) = out.get("serve.call_ms") {
        out.set("serve.unattributed_frac", 1.0 - per_call(t_door + t_serve) / call_ms, "frac");
    }

    let slices: Vec<&[Example]> = probe_calls.iter().map(|(_, a)| a.exs.as_slice()).collect();
    probes::phase_probe(out, stack.model, stack.kb, &slices);

    let exs: Vec<Example> = refs.iter().flatten().take(400).map(|(ex, _)| ex.clone()).collect();
    probes::run_probe(out, stack.model, stack.kb, &exs);
}

/// Traced and untraced stretches of the workload's own loop, interleaved:
/// `obs.trace_overhead_frac`, `serve.call_ms` and its p90/p99,
/// `serve.batch_size_mean`,
/// `serve.queue_wait_mean_us`, and the counter-derived layer metrics.
pub fn trace_arms(
    out: &mut Metrics,
    stack: &Stack,
    traffic: &mut Traffic,
    seconds: f64,
    verdict: &mut Verdict,
) {
    let arm = seconds / 4.0;
    let (mut off_rate, mut on_rate, mut off_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = Counters::default();
    let (mut traced_sent, mut traced_wall, mut traced_req) = (0usize, 0.0f64, 0usize);
    let mut queue_us: Vec<f64> = Vec::new();
    for _ in 0..2 {
        let st = serve_loop(stack, traffic, arm, 1, verdict);
        off_rate.push(st.sentences as f64 / st.wall_s);
        off_lat.extend(st.lat_ms);

        bootleg_obs::reqtrace::reset_reqtrace();
        bootleg_obs::set_trace_enabled(true);
        let before = Counters::read();
        let st = serve_loop(stack, traffic, arm, 1, verdict);
        counters.add(Counters::read().since(before));
        bootleg_obs::set_trace_enabled(false);
        on_rate.push(st.sentences as f64 / st.wall_s);
        traced_sent += st.sentences;
        traced_req += st.requests;
        traced_wall += st.wall_s;
        queue_us.extend(bootleg_obs::reqtrace::recent().iter().map(|r| r.queue_ns as f64 / 1e3));
    }
    out.set("obs.trace_overhead_frac", 1.0 - mean(&on_rate) / mean(&off_rate), "frac");
    out.set("serve.call_ms", mean(&off_lat), "ms");
    out.set("serve.call_p90_ms", quantile(&off_lat, 0.9), "ms");
    out.set("serve.call_p99_ms", quantile(&off_lat, 0.99), "ms");
    out.set(
        "serve.batch_size_mean",
        traced_req as f64 / counters.serve_batches.max(1) as f64,
        "count",
    );
    // Queue stamps are whole microseconds, so a median would read the same
    // integer run after run; the mean keeps the resolution.
    out.set("serve.queue_wait_mean_us", mean(&queue_us), "us");
    counters.report(out, traced_sent as f64, traced_wall);
}

// ---------------------------------------------------------------------------
// The doc_serve / single_serve workloads.
// ---------------------------------------------------------------------------

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Builds the serving artifact in a child process (so model construction
/// and freezing never count toward this process's peak RSS).
fn build_artifact(args: &Args, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--make-artifact").arg(path);
    if args.tiny {
        cmd.arg("--tiny");
    }
    let status = cmd.status().map_err(|e| format!("spawn artifact process: {e}"))?;
    if !status.success() {
        return Err(format!("artifact process failed: {status}"));
    }
    Ok(())
}

/// Child-process entry: writes the serving artifact.
pub fn make_artifact(path: &Path, tiny: bool) -> Result<(), String> {
    let size = ServeSize::new(tiny);
    let kb = world::serve_kb(size);
    let (model, vocab) = world::serve_model(&kb, size);
    bootleg_core::freeze_to_path(&model, &kb, &vocab, path).map_err(|e| e.to_string())
}

pub fn run(
    args: &Args,
    single: bool,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let dir = PathBuf::from(world::WORK_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("serve-{}-{}.btfz", args.seed, std::process::id()));
    let result =
        build_artifact(args, &path).and_then(|()| run_with(args, single, &path, out, verdict));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir); // only when empty
    result
}

fn run_with(
    args: &Args,
    single: bool,
    path: &Path,
    out: &mut Metrics,
    verdict: &mut Verdict,
) -> Result<(), String> {
    let size = ServeSize::new(args.tiny);
    let t = Instant::now();
    let kb = world::serve_kb(size);
    let corpus = world::serve_corpus(&kb, args.seed, size);
    let generate_s = t.elapsed().as_secs_f64();
    let weaklabel_s = if args.trace {
        let mut train = corpus.train.clone();
        let t = Instant::now();
        bootleg_corpus::weaklabel::apply(&kb, &corpus.vocab, &mut train);
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let (sentences, pages) = world::pages(&[&corpus.train, &corpus.dev, &corpus.test]);
    let vocab_len = corpus.vocab.len();
    // Quality is scored on the deployment's own held-out split, the same
    // in every run: a property of the deployed artifact and front door.
    let held_out = {
        let deploy = world::serve_corpus(&kb, world::DEPLOY_SEED, size);
        [deploy.dev, deploy.test].concat()
    };
    drop((kb, corpus));
    let calls: Vec<Vec<usize>> = if single {
        world::shuffled(
            (0..sentences.len()).map(|i| vec![i]).collect(),
            world::sub_seed(args.seed, 3),
        )
    } else {
        world::shuffled(pages, world::sub_seed(args.seed, 3))
    };

    // Set-up: thaw, front door, chain build and warm — repeated, median.
    let mut setup = Vec::new();
    let mut thaw = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let bundle = bootleg_core::thaw_from_path(path).map_err(|e| e.to_string())?;
        thaw.push(t.elapsed().as_secs_f64());
        let gamma = CandidateGenerator::from_kb(&bundle.kb, world::MAX_CANDIDATES);
        black_box(Stack::new(&bundle.model, &bundle.kb, &bundle.vocab, &bundle.counts, &gamma));
        setup.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let bundle = bootleg_core::thaw_from_path(path).map_err(|e| e.to_string())?;
    thaw.push(t.elapsed().as_secs_f64());
    let gamma = CandidateGenerator::from_kb(&bundle.kb, world::MAX_CANDIDATES);
    let stack = Stack::new(&bundle.model, &bundle.kb, &bundle.vocab, &bundle.counts, &gamma);
    setup.push(t.elapsed().as_secs_f64());
    if bundle.vocab.len() != vocab_len {
        verdict.mismatch(format!(
            "artifact vocabulary has {} words, the seed's corpus {}",
            bundle.vocab.len(),
            vocab_len
        ));
    }

    let mut traffic = Traffic::new(&stack, sentences, calls);
    println!("inputs {:016x}", world::digest_sentences(&traffic.sentences));
    println!(
        "answers {:016x}",
        world::fnv1a(traffic.refs.iter().flatten().flat_map(|(_, p)| p.iter().map(|&i| i as u64)))
    );
    // Warm the loop (threads, arena free lists) before anything is timed.
    serve_loop(&stack, &mut traffic, 0.5_f64.min(args.seconds), 1, verdict);

    if !args.trace {
        let min_calls = if args.tiny { 20 } else { 5_000 };
        let st = serve_loop(&stack, &mut traffic, args.seconds, min_calls, verdict);
        let q = stack.quality(&held_out, &stack.references(&held_out));
        let f1 = [q.all, q.tail, q.unseen].map(SliceCounts::f1);
        println!("f1 {:.6} {:.6} {:.6}", f1[0], f1[1], f1[2]);
        out.set("setup_s", median(&setup), "s");
        out.set("sent_per_s", median_call_rate(&st.lat_ms, &st.sent), "1/s");
        out.set("call_p50_ms", quantile(&st.lat_ms, 0.5), "ms");
        out.set("peak_rss_mb", crate::machine::peak_rss_mb(), "MB");
        out.set("all_f1", f1[0], "%");
        out.set("tail_f1", f1[1], "%");
        out.set("unseen_f1", f1[2], "%");
        println!("calls {} sentences {} requests {}", st.calls, st.sentences, st.requests);
        return Ok(());
    }

    out.set("frozen.thaw_s", median(&thaw), "s");
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    out.set("frozen.artifact_mb", bytes as f64 / 1e6, "MB");
    out.set("corpus.generate_s", generate_s, "s");
    out.set("corpus.weaklabel_s", weaklabel_s, "s");
    trace_arms(out, &stack, &mut traffic, args.seconds, verdict);
    let n_probe = if args.tiny {
        20
    } else if single {
        400
    } else {
        150
    };
    layer_probes(out, &stack, &traffic, n_probe);
    out.set("entitycache.mb", bundle.model.entity_cache_bytes() as f64 / 1e6, "MB");
    let (model, kb, sentences) = (&bundle.model, &bundle.kb, &traffic.sentences);
    probes::eval_probe(out, model, kb, sentences, &bundle.counts);
    let steps = if args.tiny { 2 } else { 6 };
    probes::train_probe(out, model, kb, sentences, &crate::train::train_config(), steps);
    Ok(())
}
