//! Batch-composition invariance of the forward engine.
//!
//! At inference, running examples together must give *bitwise* the outputs
//! of running each one alone — scores, predictions, mention
//! representations, candidate representations and losses — for every batch
//! size, every model variant, arbitrarily ragged example mixes, and with
//! per-example deadline eviction. In training mode a pass over N examples
//! with seed `s` must equal example `b` run alone with seed `seed_b` of the
//! `lcg` chain, bit for bit on loss and scores, and one backward over the
//! tall graph must match the summed per-example gradients up to summation
//! order. (What a single example produces is pinned separately, by the
//! committed oracle in the workspace's `tests/forward_oracle.rs`.)
//! Comparisons use `f32::to_bits` so `-0.0`/`0.0` and NaN discrepancies
//! cannot hide behind `==`.

use bootleg_core::{
    lcg, BootlegConfig, BootlegModel, Deadline, ExMention, Example, ForwardOptions, ForwardOutput,
    ModelVariant, ValidationLimits,
};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg_kb::{generate as gen_kb, EntityId, KbConfig, KnowledgeBase};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup() -> (KnowledgeBase, Corpus, BootlegModel) {
    let kb = gen_kb(&KbConfig { n_entities: 300, seed: 71, ..KbConfig::default() });
    let c = generate_corpus(&kb, &CorpusConfig { n_pages: 80, seed: 71, ..CorpusConfig::default() });
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
    (kb, c, m)
}

fn corpus_examples(c: &Corpus, n: usize) -> Vec<Example> {
    c.dev.iter().chain(&c.test).chain(&c.train).filter_map(Example::evaluation).take(n).collect()
}

/// `ex` run alone, as a one-example slice.
fn alone(kb: &KnowledgeBase, m: &BootlegModel, ex: &Example, opts: ForwardOptions) -> ForwardOutput {
    m.run(kb, std::slice::from_ref(ex), opts).expect("no deadline").remove(0)
}

fn bits2(v: &[Vec<f32>]) -> Vec<Vec<u32>> {
    v.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
}

fn bits3(v: &[Vec<Vec<f32>>]) -> Vec<Vec<Vec<u32>>> {
    v.iter().map(|r| bits2(r)).collect()
}

/// Asserts the batched outputs of `examples` are bit-identical to running
/// each example alone.
fn assert_parity(kb: &KnowledgeBase, m: &BootlegModel, examples: &[Example], opts: ForwardOptions) {
    let batched = m.run(kb, examples, opts).expect("no deadline");
    assert_eq!(batched.len(), examples.len());
    for (ex, b) in examples.iter().zip(&batched) {
        let s = alone(kb, m, ex, opts);
        assert_eq!(bits2(&s.scores), bits2(&b.scores), "scores diverge");
        assert_eq!(s.predictions, b.predictions, "predictions diverge");
        assert_eq!(bits2(&s.mention_reprs), bits2(&b.mention_reprs), "mention reprs diverge");
        assert_eq!(
            bits3(&s.candidate_reprs),
            bits3(&b.candidate_reprs),
            "candidate reprs diverge"
        );
        match (&s.loss, &b.loss) {
            (None, None) => {}
            (Some(ls), Some(lb)) => {
                assert_eq!(
                    ls.value().item().to_bits(),
                    lb.value().item().to_bits(),
                    "loss diverges"
                );
            }
            _ => panic!("loss presence diverges"),
        }
    }
}

/// Asserts a training pass over `examples` with `seed` gives example `b`
/// the loss and scores of running it alone with seed `seed_b`.
fn assert_training_parity(kb: &KnowledgeBase, m: &BootlegModel, examples: &[Example], seed: u64) {
    let batched = m.run(kb, examples, ForwardOptions::training(seed)).expect("no deadline");
    let mut seed_b = seed;
    for (ex, b) in examples.iter().zip(&batched) {
        let s = alone(kb, m, ex, ForwardOptions::training(seed_b));
        assert_eq!(bits2(&s.scores), bits2(&b.scores), "training scores diverge");
        let (ls, lb) = (s.loss.expect("supervised"), b.loss.as_ref().expect("supervised"));
        assert_eq!(ls.value().item().to_bits(), lb.value().item().to_bits(), "loss diverges");
        seed_b = lcg(seed_b);
    }
}

fn training_examples(c: &Corpus, n: usize) -> Vec<Example> {
    c.dev.iter().chain(&c.test).chain(&c.train).filter_map(Example::training).take(n).collect()
}

/// A ragged mix like the inference sweep's below, but supervised: every
/// mention carries a random gold index.
fn random_supervised_pool(m: &BootlegModel, vocab_size: usize, seed: u64) -> Vec<Example> {
    let mut rng = StdRng::seed_from_u64(0x7a11 ^ seed);
    let max_tokens = m.config.word_encoder.max_len;
    (0..16)
        .map(|_| {
            let n_tokens = rng.gen_range(2..=max_tokens);
            let tokens: Vec<u32> =
                (0..n_tokens).map(|_| rng.gen_range(0..vocab_size as u32)).collect();
            let mentions = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    let first = rng.gen_range(0..n_tokens);
                    let last = (first + rng.gen_range(0..3)).min(n_tokens - 1);
                    let k = rng.gen_range(1..=5usize);
                    let candidates: Vec<EntityId> =
                        (0..k).map(|_| EntityId(rng.gen_range(0..m.n_entities as u32))).collect();
                    ExMention { first, last, candidates, gold: Some(rng.gen_range(0..k) as u32) }
                })
                .collect();
            Example::inference(tokens, mentions)
        })
        .collect()
}

#[test]
fn training_batches_match_single_runs_with_keyed_seeds() {
    let (kb, c, m) = setup();
    let pool = training_examples(&c, 16);
    assert_eq!(pool.len(), 16, "corpus too small for the batch-size sweep");
    for &n in &[2usize, 7, 16] {
        assert_training_parity(&kb, &m, &pool[..n], 0x5eed + n as u64);
    }
    // An example's masks do not depend on its position's neighbours: the
    // tail of the pool, run as its own batch, keys off the same chain.
    let mut seed_7 = 99;
    for _ in 0..7 {
        seed_7 = lcg(seed_7);
    }
    let whole = m.run(&kb, &pool, ForwardOptions::training(99)).expect("no deadline");
    let tail = m.run(&kb, &pool[7..], ForwardOptions::training(seed_7)).expect("no deadline");
    for (a, b) in whole[7..].iter().zip(&tail) {
        assert_eq!(bits2(&a.scores), bits2(&b.scores), "masks depend on batch composition");
    }
}

#[test]
fn training_ragged_batches_match_single_runs_with_keyed_seeds() {
    let (kb, c, m) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let mut bench = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().benchmark());
    bench.set_cooccurrence(bootleg_core::cooccur::CooccurrenceIndex::build(&c.train, 2));
    for seed in 0..3u64 {
        let pool = random_supervised_pool(&m, c.vocab.len(), seed);
        for &n in &[2usize, 7, 16] {
            assert_training_parity(&kb, &m, &pool[..n], seed);
        }
        assert_training_parity(&kb, &bench, &pool[..7], seed);
    }
}

/// Tolerance of the tall step's gradients against the summed per-example
/// gradients, per parameter: the largest elementwise difference may be at
/// most `GRAD_REL_BOUND` times the parameter's largest reference gradient,
/// plus `GRAD_ABS_FLOOR` for parameters whose exact gradient is zero (a
/// LayerNorm shift feeding only per-mention softmaxes) and which therefore
/// hold pure rounding noise. Only the summation order differs between the
/// two, so these bounds are never to be widened.
const GRAD_REL_BOUND: f32 = 1e-5;
const GRAD_ABS_FLOOR: f32 = 1e-6;

#[test]
fn tall_backward_matches_summed_per_example_gradients() {
    let (kb, c, _) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let pool = training_examples(&c, 16);
    for v in [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly]
    {
        let mut m =
            BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().with_variant(v));
        assert_tall_gradients_match(&kb, &mut m, &pool, 4242);
    }
    let mut bench = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().benchmark());
    bench.set_cooccurrence(bootleg_core::cooccur::CooccurrenceIndex::build(&c.train, 2));
    assert_tall_gradients_match(&kb, &mut bench, &pool, 4242);
}

fn assert_tall_gradients_match(
    kb: &KnowledgeBase,
    m: &mut BootlegModel,
    pool: &[Example],
    seed: u64,
) {
    // Reference: one graph and one backward per example, accumulating.
    let mut seed_b = seed;
    for ex in pool {
        let out = alone(kb, m, ex, ForwardOptions::training(seed_b));
        out.graph.backward(&out.loss.expect("supervised"), &mut m.params);
        seed_b = lcg(seed_b);
    }
    let reference: Vec<Vec<f32>> = m.params.iter().map(|(_, p)| p.grad.data().to_vec()).collect();
    m.params.zero_grad();

    // The training step: one tall graph, the summed loss, one backward.
    let outs = m.run(kb, pool, ForwardOptions::training(seed)).expect("no deadline");
    let losses: Vec<_> = outs.iter().map(|o| o.loss.clone().expect("supervised")).collect();
    let total = losses[1..].iter().fold(losses[0].clone(), |acc, l| acc.add(l));
    outs[0].graph.backward(&total, &mut m.params);

    for ((_, p), want) in m.params.iter().zip(&reference) {
        let scale = want.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        assert!(p.grad.data().iter().all(|v| v.is_finite()), "param {} gradient", p.name);
        let diff = p.grad.data().iter().zip(want).fold(0.0f32, |a, (x, y)| a.max((x - y).abs()));
        assert!(
            diff <= GRAD_REL_BOUND * scale + GRAD_ABS_FLOOR,
            "param {}: gradient differs by {diff:e} at scale {scale:e}",
            p.name
        );
    }
}

#[test]
fn batch_sizes_match_single_runs_bitwise() {
    let (kb, c, m) = setup();
    let pool = corpus_examples(&c, 64);
    assert_eq!(pool.len(), 64, "corpus too small for the batch-size sweep");
    for &n in &[2usize, 7, 8, 16, 64] {
        assert_parity(&kb, &m, &pool[..n], ForwardOptions::inference());
    }
}

#[test]
fn all_variants_match_single_runs_bitwise() {
    let (kb, c, _) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let pool = corpus_examples(&c, 7);
    for v in [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly]
    {
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().with_variant(v));
        assert_parity(&kb, &m, &pool, ForwardOptions::inference());
    }
}

#[test]
fn serving_config_matches_single_runs_bitwise() {
    let (kb, c, _) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().serving());
    assert_parity(&kb, &m, &corpus_examples(&c, 8), ForwardOptions::inference());
}

#[test]
fn benchmark_config_matches_single_runs_bitwise() {
    // The kitchen-sink configuration: title feature, co-occurrence KG,
    // two-hop KG, position encoding, ensemble scoring.
    let (kb, c, _) = setup();
    let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
    let mut m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().benchmark());
    m.set_cooccurrence(bootleg_core::cooccur::CooccurrenceIndex::build(&c.train, 2));
    let pool = corpus_examples(&c, 8);
    assert_parity(&kb, &m, &pool, ForwardOptions::inference());
}

#[test]
fn loss_and_candidate_reprs_match_single_runs_bitwise() {
    let (kb, c, m) = setup();
    let pool: Vec<Example> = c.dev.iter().filter_map(Example::training).take(6).collect();
    assert!(pool.len() >= 2, "need supervised dev examples");
    let opts = ForwardOptions::inference().with_loss(true).with_candidate_reprs(true);
    assert_parity(&kb, &m, &pool, opts);
}

/// Randomized ragged mixes: mention counts, candidate counts, span widths
/// and sentence lengths all vary per example, including single-candidate
/// mentions (how unknown-alias requests reach the model) and examples at
/// the `ValidationLimits` boundary.
#[test]
fn random_ragged_batches_match_single_runs_bitwise() {
    let (kb, c, m) = setup();
    let limits = ValidationLimits {
        max_tokens: m.config.word_encoder.max_len,
        vocab_size: c.vocab.len(),
        n_entities: m.n_entities,
    };
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xbadc0de ^ seed);
        let mut pool: Vec<Example> = Vec::new();
        for i in 0..8 {
            let n_tokens = if i == 0 {
                limits.max_tokens // boundary: longest admissible sentence
            } else {
                rng.gen_range(2..limits.max_tokens)
            };
            let tokens: Vec<u32> =
                (0..n_tokens).map(|_| rng.gen_range(0..limits.vocab_size as u32)).collect();
            let n_mentions = rng.gen_range(1..=4usize);
            let mentions: Vec<ExMention> = (0..n_mentions)
                .map(|j| {
                    let first = rng.gen_range(0..n_tokens);
                    let last = (first + rng.gen_range(0..3)).min(n_tokens - 1);
                    let k = if j == 0 { 1 } else { rng.gen_range(1..=5usize) };
                    let candidates: Vec<EntityId> = (0..k)
                        .map(|q| {
                            if q == 0 && i == 1 {
                                // boundary: the last valid entity id
                                EntityId(m.n_entities as u32 - 1)
                            } else {
                                EntityId(rng.gen_range(0..m.n_entities as u32))
                            }
                        })
                        .collect();
                    ExMention { first, last, candidates, gold: None }
                })
                .collect();
            let ex = Example::inference(tokens, mentions);
            ex.validate(&limits).expect("generated example within limits");
            pool.push(ex);
        }
        for &n in &[2usize, 7, 8] {
            assert_parity(&kb, &m, &pool[..n], ForwardOptions::inference());
        }
    }
}

/// A NaN in the entity-embedding row of a candidate that only one example
/// of a ragged inference batch uses poisons that example alone: every
/// other example still equals its single run bit for bit. The matmul
/// kernels do not skip `0 · NaN` terms, so this pins that no batched op
/// (stacked row-wise matmuls, padded bag pooling, per-example attention)
/// mixes rows across examples.
#[test]
fn nan_entity_row_stays_in_its_example() {
    let (kb, c, mut m) = setup();
    let examples = corpus_examples(&c, 8);
    let users = |e: u32| {
        examples
            .iter()
            .filter(|ex| ex.mentions.iter().any(|mn| mn.candidates.contains(&EntityId(e))))
            .count()
    };
    let (poisoned_ex, poisoned) = examples
        .iter()
        .enumerate()
        .skip(3)
        .find_map(|(i, ex)| {
            let mut cands = ex.mentions.iter().flat_map(|mn| mn.candidates.iter().map(|e| e.0));
            cands.find(|&e| users(e) == 1).map(|e| (i, e))
        })
        .expect("some entity is a candidate of exactly one example");
    let id = m
        .params
        .iter()
        .find(|(_, p)| p.name == "embedding.entity")
        .map(|(id, _)| id)
        .expect("entity table");
    m.params.get_mut(id).data.row_mut(poisoned as usize).fill(f32::NAN);

    let batched = m.run(&kb, &examples, ForwardOptions::inference()).expect("no deadline");
    for (i, (ex, b)) in examples.iter().zip(&batched).enumerate() {
        if i == poisoned_ex {
            let poisoned = b.scores.iter().flatten().any(|s| !s.is_finite());
            assert!(poisoned, "the NaN row never reached its example");
            continue;
        }
        let s = alone(&kb, &m, ex, ForwardOptions::inference());
        assert_eq!(bits2(&s.scores), bits2(&b.scores), "example {i}: scores diverge");
        assert!(b.scores.iter().flatten().all(|s| s.is_finite()), "example {i}: NaN leaked");
        assert_eq!(s.predictions, b.predictions, "example {i}: predictions diverge");
    }
}

#[test]
fn empty_slice_returns_no_outputs() {
    let (kb, _, m) = setup();
    assert!(m.run(&kb, &[], ForwardOptions::inference()).expect("empty").is_empty());
    assert!(m.run(&kb, &[], ForwardOptions::training(3)).expect("empty").is_empty());
}

/// Training mode draws dropout and entity masks from seeded streams: the
/// same slice and seed reproduce every bit, and a different seed changes
/// the pass — for a single example and for a multi-example slice alike.
#[test]
fn training_mode_is_deterministic_per_seed() {
    let (kb, c, m) = setup();
    let pool: Vec<Example> = c.dev.iter().filter_map(Example::training).take(4).collect();
    assert_eq!(pool.len(), 4, "need supervised dev examples");
    let fingerprint = |exs: &[Example], seed: u64| -> Vec<(Vec<Vec<u32>>, u32)> {
        let outs = m.run(&kb, exs, ForwardOptions::training(seed)).expect("no deadline");
        outs.iter()
            .map(|o| {
                let loss = o.loss.as_ref().expect("supervised examples carry a loss");
                (bits2(&o.scores), loss.value().item().to_bits())
            })
            .collect()
    };
    for exs in [&pool[..1], &pool[..]] {
        let a = fingerprint(exs, 11);
        assert_eq!(a, fingerprint(exs, 11), "same slice and seed must reproduce every bit");
        assert_ne!(a, fingerprint(exs, 12), "a different seed must change the pass");
    }
}

#[test]
fn per_example_deadline_evicts_only_that_example() {
    let (kb, c, m) = setup();
    let pool = corpus_examples(&c, 8);
    let refs: Vec<&Example> = pool.iter().collect();
    let expired = [1usize, 5];
    let deadlines: Vec<Deadline> = (0..pool.len())
        .map(|i| if expired.contains(&i) { Deadline::expired_now() } else { Deadline::none() })
        .collect();
    let results = m.try_forward_batch(&kb, &refs, &ForwardOptions::inference(), &deadlines);
    assert_eq!(results.len(), pool.len());
    for (i, r) in results.iter().enumerate() {
        if expired.contains(&i) {
            match r {
                Err(e) => assert_eq!(e.phase, "candgen"),
                Ok(_) => panic!("expired example must be interrupted"),
            }
        } else {
            let out = r.as_ref().expect("live examples complete");
            let direct = alone(&kb, &m, &pool[i], ForwardOptions::inference());
            assert_eq!(bits2(&direct.scores), bits2(&out.scores), "survivor diverges");
            assert_eq!(bits2(&direct.mention_reprs), bits2(&out.mention_reprs));
        }
    }
}

#[test]
fn all_expired_deadlines_abort_the_batch() {
    let (kb, c, m) = setup();
    let pool = corpus_examples(&c, 3);
    let refs: Vec<&Example> = pool.iter().collect();
    let deadlines = vec![Deadline::expired_now(); 3];
    let results = m.try_forward_batch(&kb, &refs, &ForwardOptions::inference(), &deadlines);
    for r in &results {
        match r {
            Err(e) => assert_eq!(e.phase, "candgen"),
            Ok(_) => panic!("all-expired batch must interrupt every example"),
        }
    }
}
