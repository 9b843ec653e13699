//! Seeded inputs and the text-in front door shared by every workload.
//!
//! The serving deployment comes from a fixed seed; the traffic sent to it,
//! its call order, and `train_eval`'s evaluation sample come from the
//! `--seed` argument. The program only ever sees the generated token ids.

use bootleg_candgen::{extract_mentions, CandidateGenerator};
use bootleg_core::{BootlegModel, ExMention, Example};
use bootleg_corpus::{generate_corpus, Corpus, CorpusConfig, Sentence, Vocab};
use bootleg_kb::stats::PopularitySlice;
use bootleg_kb::{EntityId, KbConfig, KnowledgeBase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Run scratch (serving artifacts), relative to the working directory;
/// removed when a run ends.
pub const WORK_DIR: &str = ".bench_work";

/// Candidates kept per alias (the paper's K = 30; generated alias groups
/// are smaller, so this keeps every candidate).
pub const MAX_CANDIDATES: usize = 30;

/// Derives an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

/// Seed of the deployed serving artifact. The deployment is part of the
/// system under test, so it is the same in every run; the run's `--seed`
/// varies the traffic sent to it.
pub const DEPLOY_SEED: u64 = 2021;

/// Sizes of the serving workloads' inputs.
#[derive(Clone, Copy)]
pub struct ServeSize {
    pub n_entities: usize,
    pub n_pages: usize,
}

impl ServeSize {
    pub fn new(tiny: bool) -> Self {
        if tiny {
            Self { n_entities: 800, n_pages: 60 }
        } else {
            Self { n_entities: 20_000, n_pages: 1_000 }
        }
    }
}

/// The deployment's knowledge base (serving scale, fixed seed).
pub fn serve_kb(size: ServeSize) -> KnowledgeBase {
    bootleg_kb::generate(&KbConfig {
        n_entities: size.n_entities,
        seed: DEPLOY_SEED,
        ..KbConfig::default()
    })
}

/// A corpus over the deployment's KB. Its vocabulary is a function of the
/// KB alone, so every corpus speaks the artifact's token ids.
pub fn serve_corpus(kb: &KnowledgeBase, seed: u64, size: ServeSize) -> Corpus {
    generate_corpus(
        kb,
        &CorpusConfig { n_pages: size.n_pages, seed: sub_seed(seed, 2), ..CorpusConfig::default() },
    )
}

/// The deployed serving-scale model: serving config, counts from the
/// deployment's own corpus, full entity-payload plane built so the
/// artifact carries it.
pub fn serve_model(kb: &KnowledgeBase, size: ServeSize) -> (BootlegModel, Vocab) {
    let corpus = serve_corpus(kb, DEPLOY_SEED, size);
    let counts = bootleg_corpus::stats::entity_counts(&corpus.train, true);
    let mut model = BootlegModel::new(
        kb,
        &corpus.vocab,
        &counts,
        bootleg_core::BootlegConfig::default().serving(),
    );
    model.set_entity_cache_policy(bootleg_core::CachePolicy::Full);
    model.warm_entity_cache();
    (model, corpus.vocab)
}

/// The sentences of `splits` in order, and their page boundaries as index
/// lists (a page is a run of consecutive sentences about one entity).
pub fn pages(splits: &[&[Sentence]]) -> (Vec<Sentence>, Vec<Vec<usize>>) {
    let mut sentences = Vec::new();
    let mut pages: Vec<Vec<usize>> = Vec::new();
    for split in splits {
        let mut last_page = None;
        for s in split.iter() {
            if last_page != Some(s.page) || pages.is_empty() {
                pages.push(Vec::new());
                last_page = Some(s.page);
            }
            pages.last_mut().expect("page pushed").push(sentences.len());
            sentences.push(s.clone());
        }
    }
    (sentences, pages)
}

/// Shuffles call order deterministically from the seed.
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    items.shuffle(&mut StdRng::seed_from_u64(seed));
    items
}

/// The text-in front door: what an annotator sees for one call.
pub struct FrontDoor<'a> {
    pub kb: &'a KnowledgeBase,
    pub vocab: &'a Vocab,
    pub gamma: &'a CandidateGenerator,
}

/// The examples one call sends to the model. Sentences without any alias
/// hit (the noisy-text outcome) produce no example.
pub struct Annotated {
    pub exs: Vec<Example>,
    /// Sentence index of each example.
    pub sent: Vec<usize>,
    /// Sentences of the call with no alias hit.
    pub no_mention: usize,
}

impl FrontDoor<'_> {
    /// Token ids → `extract_mentions` → Γ candidates → inference examples.
    pub fn annotate(&self, sentences: &[Sentence], call: &[usize]) -> Annotated {
        let mut out = Annotated { exs: Vec::new(), sent: Vec::new(), no_mention: 0 };
        for &si in call {
            let tokens = &sentences[si].tokens;
            let found = extract_mentions(tokens, self.vocab, self.kb, self.gamma);
            if found.is_empty() {
                out.no_mention += 1;
                continue;
            }
            let mentions = found
                .iter()
                .map(|m| ExMention {
                    first: m.start,
                    last: m.last,
                    candidates: self.gamma.candidates(m.alias).to_vec(),
                    gold: None,
                })
                .collect();
            out.exs.push(Example::inference(tokens.clone(), mentions));
            out.sent.push(si);
        }
        out
    }
}

/// Correct / total per popularity slice, closed-set (precision = recall).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SliceCounts {
    pub all: (u64, u64),
    pub tail: (u64, u64),
    pub unseen: (u64, u64),
}

impl SliceCounts {
    pub fn f1(pair: (u64, u64)) -> f64 {
        100.0 * pair.0 as f64 / pair.1.max(1) as f64
    }

    fn add(&mut self, slice: PopularitySlice, hit: bool) {
        let h = u64::from(hit);
        self.all.0 += h;
        self.all.1 += 1;
        match slice {
            PopularitySlice::Tail => {
                self.tail.0 += h;
                self.tail.1 += 1;
            }
            PopularitySlice::Unseen => {
                self.unseen.0 += h;
                self.unseen.1 += 1;
            }
            _ => {}
        }
    }

    /// Scores served answers against the corpus gold labels: every anchor
    /// mention passing the §4.1 filters counts; it is a hit only when the
    /// front door extracted that exact span and the model chose the gold
    /// candidate. A gold mention the front door missed counts as wrong.
    pub fn score(
        &mut self,
        s: &Sentence,
        ex: Option<&Example>,
        preds: &[usize],
        counts: &HashMap<EntityId, u32>,
    ) {
        for m in s.anchor_mentions().filter(|m| m.evaluable()) {
            let hit = ex.is_some_and(|ex| {
                ex.mentions.iter().zip(preds).any(|(em, &p)| {
                    em.first == m.start
                        && em.last == m.last
                        && em.candidates.get(p) == Some(&m.gold)
                })
            });
            self.add(bootleg_eval::slice_of(counts, m.gold), hit);
        }
    }
}

/// FNV-1a over a stream of words: a stable fingerprint of generated inputs
/// or of answers, so the self-test can tell runs apart.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of the token ids of `sentences`.
pub fn digest_sentences(sentences: &[Sentence]) -> u64 {
    fnv1a(sentences.iter().flat_map(|s| s.tokens.iter().map(|&t| t as u64).chain([u64::MAX])))
}
