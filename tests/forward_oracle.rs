//! Forward-pass oracle: pins the exact bits the model produces for single
//! examples, so an engine refactor can prove it changed nothing.
//!
//! `tests/data/forward_oracle.txt` records, one line per (config, example):
//!
//! - inference scores (as `f32` bit patterns), predictions and hashes of
//!   the mention and candidate representations, for the default,
//!   `serving()` and `benchmark()` configs, every [`ModelVariant`], and a
//!   two-hop, non-ensemble ablation;
//! - training-mode loss and scores for fixed seeds (dropout and 2-D entity
//!   masking on);
//! - NED-Base inference scores and training-mode loss.
//!
//! The check compares line for line. A deliberate numerics change
//! regenerates the file (and says so in CHANGES.md):
//! `cargo test --release --test forward_oracle -- --ignored regenerate_forward_oracle`.

use bootleg::baselines::{NedBase, NedBaseConfig};
use bootleg::core::cooccur::CooccurrenceIndex;
use bootleg::core::{BootlegConfig, BootlegModel, Example, ForwardOptions, ModelVariant};
use bootleg::corpus::{generate_corpus, Corpus, CorpusConfig};
use bootleg::kb::{generate, KbConfig, KnowledgeBase};

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/forward_oracle.txt")
}

fn world() -> (KnowledgeBase, Corpus) {
    let kb = generate(&KbConfig { n_entities: 300, seed: 41, ..KbConfig::default() });
    let corpus =
        generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 41, ..CorpusConfig::default() });
    (kb, corpus)
}

/// FNV-1a over the bit patterns of every value, in order.
fn hash_bits<'a>(values: impl IntoIterator<Item = &'a f32>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn bits(values: &[f32]) -> String {
    values.iter().map(|v| format!("{:08x}", v.to_bits())).collect::<Vec<_>>().join(",")
}

fn scores_field(scores: &[Vec<f32>]) -> String {
    scores.iter().map(|s| bits(s)).collect::<Vec<_>>().join("|")
}

fn oracle_lines() -> Vec<String> {
    let (kb, corpus) = world();
    let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
    let train_exs: Vec<Example> =
        corpus.train.iter().filter_map(Example::training).take(8).collect();
    assert_eq!(train_exs.len(), 8, "oracle corpus must supply 8 training sentences");
    // Evaluable sentences (mostly one mention) plus multi-mention training
    // sentences, so Ent2Ent and KG2Ent see cross-mention candidates.
    let infer_exs: Vec<Example> = corpus
        .dev
        .iter()
        .chain(&corpus.test)
        .filter_map(Example::evaluation)
        .take(6)
        .chain(
            corpus
                .train
                .iter()
                .filter_map(Example::training)
                .filter(|ex| ex.mentions.len() >= 3)
                .take(6),
        )
        .collect();
    assert_eq!(infer_exs.len(), 12, "oracle corpus must supply 12 inference sentences");

    let two_hop = BootlegConfig {
        kg_two_hop: true,
        ensemble_scoring: false,
        use_ent2ent: false,
        ..BootlegConfig::default()
    };
    let configs: Vec<(&str, BootlegConfig, bool)> = vec![
        ("default", BootlegConfig::default(), true),
        ("serving", BootlegConfig::default().serving(), false),
        ("benchmark", BootlegConfig::default().benchmark(), true),
        ("ent_only", BootlegConfig::default().with_variant(ModelVariant::EntOnly), false),
        ("type_only", BootlegConfig::default().with_variant(ModelVariant::TypeOnly), false),
        ("kg_only", BootlegConfig::default().with_variant(ModelVariant::KgOnly), false),
        ("two_hop", two_hop, false),
    ];

    let mut lines = Vec::new();
    for (name, cfg, train_mode) in configs {
        let benchmark = cfg.cooccur_kg;
        let mut m = BootlegModel::new(&kb, &corpus.vocab, &counts, cfg);
        if benchmark {
            m.set_cooccurrence(CooccurrenceIndex::build(&corpus.train, 2));
        }
        let opts = ForwardOptions::inference().with_candidate_reprs(true);
        for (i, ex) in infer_exs.iter().enumerate() {
            let out = m.run(&kb, std::slice::from_ref(ex), opts).expect("no deadline").remove(0);
            let preds: Vec<String> = out.predictions.iter().map(|p| p.to_string()).collect();
            lines.push(format!(
                "infer {name} ex={i} preds={} mrepr={} crepr={} scores={}",
                preds.join(","),
                hash_bits(out.mention_reprs.iter().flatten()),
                hash_bits(out.candidate_reprs.iter().flatten().flatten()),
                scores_field(&out.scores),
            ));
        }
        if !train_mode {
            continue;
        }
        for seed in [1u64, 7] {
            for (i, ex) in train_exs.iter().enumerate() {
                let out = m
                    .run(&kb, std::slice::from_ref(ex), ForwardOptions::training(seed))
                    .expect("no deadline")
                    .remove(0);
                let loss = out.loss.as_ref().expect("training examples carry gold").value().item();
                lines.push(format!(
                    "train {name} seed={seed} ex={i} loss={:08x} crepr={} scores={}",
                    loss.to_bits(),
                    hash_bits(out.candidate_reprs.iter().flatten().flatten()),
                    scores_field(&out.scores),
                ));
            }
        }
    }

    let ned = NedBase::new(&kb, &corpus.vocab, NedBaseConfig::default());
    for (i, ex) in infer_exs.iter().enumerate() {
        let (_, _, scores) = ned.forward(ex, false, 0);
        lines.push(format!("ned_infer ex={i} scores={}", scores_field(&scores)));
    }
    for seed in [1u64, 7] {
        for (i, ex) in train_exs.iter().enumerate() {
            let (_, loss, scores) = ned.forward(ex, true, seed);
            let loss = loss.expect("training examples carry gold").value().item();
            lines.push(format!(
                "ned_train seed={seed} ex={i} loss={:08x} scores={}",
                loss.to_bits(),
                scores_field(&scores)
            ));
        }
    }
    lines
}

#[test]
fn forward_matches_committed_oracle() {
    let text = std::fs::read_to_string(fixture_path()).expect("read tests/data/forward_oracle.txt");
    let expected: Vec<&str> = text.lines().collect();
    let actual = oracle_lines();
    assert_eq!(actual.len(), expected.len(), "oracle line count drifted");
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "oracle line {} drifted", i + 1);
    }
}

/// Rewrites the fixture from the current engine. Run only for a deliberate
/// numerics change.
#[test]
#[ignore]
fn regenerate_forward_oracle() {
    let mut text = oracle_lines().join("\n");
    text.push('\n');
    std::fs::write(fixture_path(), text).expect("write tests/data/forward_oracle.txt");
}
