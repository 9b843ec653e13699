//! The Overton-style industry task (§4.3, Table 5).
//!
//! Overton (Ré et al., CIDR 2020) is a production system answering factoid
//! queries; the paper plugs Bootleg representations into it and reports F1
//! *relative to the same system without them*, over four languages. Our
//! simulation: a production-style candidate scorer (its own small encoder
//! and entity table) optionally consuming frozen per-candidate Bootleg
//! representations; "languages" are four generator domains (see the
//! `table5_industry` binary).

use bootleg_core::{BootlegModel, Example, ForwardOptions};
use bootleg_corpus::{Sentence, Vocab};
use bootleg_kb::KnowledgeBase;
use bootleg_nn::encoder::WordEncoderConfig;
use bootleg_nn::optim::{clip_grad_norm, Adam};
use bootleg_nn::{Mlp, WordEncoder};
use bootleg_tensor::{init, Graph, ParamId, ParamStore, Tensor, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The Overton-analog candidate scorer.
pub struct OvertonModel {
    /// Trainable parameters.
    pub params: ParamStore,
    encoder: WordEncoder,
    entity_emb: ParamId,
    scorer: Mlp,
    /// Width of the optional frozen Bootleg feature (0 = baseline system).
    pub bootleg_dim: usize,
}

impl OvertonModel {
    /// Builds the system. `bootleg_dim` > 0 enables the Bootleg feature slot.
    pub fn new(kb: &KnowledgeBase, vocab: &Vocab, bootleg_dim: usize, seed: u64) -> Self {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let d_model = 40;
        let encoder = WordEncoder::new(
            &mut ps,
            &mut rng,
            "wordenc",
            WordEncoderConfig {
                vocab: vocab.len(),
                d_model,
                n_layers: 1,
                n_heads: 4,
                max_len: 48,
                dropout: 0.1,
            },
        );
        let entity_emb = ps.add(
            "embedding.entity",
            init::normal(&mut rng, &[kb.num_entities() + 1, d_model], 0.1),
        );
        let scorer =
            Mlp::new(&mut ps, &mut rng, "net.scorer", 2 * d_model + bootleg_dim, 64, 1, 0.1);
        Self { params: ps, encoder, entity_emb, scorer, bootleg_dim }
    }

    /// Per-mention candidate logits. `bootleg_feats[mi][k]` must be provided
    /// when `bootleg_dim > 0`.
    fn mention_logits(
        &self,
        g: &Graph,
        ex: &Example,
        bootleg_feats: Option<&[Vec<Vec<f32>>]>,
    ) -> Vec<Var> {
        let (w, _) = self.encoder.forward_batch(g, &self.params, &[&ex.tokens]);
        let mut out = Vec::with_capacity(ex.mentions.len());
        for (mi, m) in ex.mentions.iter().enumerate() {
            let k = m.candidates.len();
            let first = w.select_rows(&[m.first as u32]);
            let last = w.select_rows(&[m.last as u32]);
            let mention = first.add(&last); // (1, d)
            // Tile the mention rep per candidate.
            let rows: Vec<u32> = vec![0; k];
            let tiled = mention.select_rows(&rows); // (k, d)
            let cands: Vec<u32> = m.candidates.iter().map(|c| c.0).collect();
            let emb = g.gather_rows(&self.params, self.entity_emb, &cands); // (k, d)
            let mut parts = vec![tiled, emb];
            if self.bootleg_dim > 0 {
                let feats = bootleg_feats.expect("bootleg features required")[mi].clone();
                let flat: Vec<f32> = feats.into_iter().flatten().collect();
                parts.push(g.leaf(Tensor::new(vec![k, self.bootleg_dim], flat)));
            }
            let refs: Vec<&Var> = parts.iter().collect();
            let input = g.concat_last(&refs); // (k, 2d + bdim)
            let scores = self.scorer.forward(g, &self.params, &input); // (k, 1)
            out.push(scores.reshape(&[1, k]));
        }
        out
    }

    /// Predicts candidate indexes for an example.
    pub fn predict_indices(
        &self,
        ex: &Example,
        bootleg_feats: Option<&[Vec<Vec<f32>>]>,
    ) -> Vec<usize> {
        let g = Graph::new();
        self.mention_logits(&g, ex, bootleg_feats)
            .into_iter()
            .map(|l| l.value().argmax())
            .collect()
    }
}

/// Computes per-candidate frozen Bootleg features for an example.
pub fn bootleg_candidate_features(
    bootleg: &BootlegModel,
    kb: &KnowledgeBase,
    ex: &Example,
) -> Vec<Vec<Vec<f32>>> {
    bootleg
        .run(kb, std::slice::from_ref(ex), ForwardOptions::inference().with_candidate_reprs(true))
        .expect("unlimited deadline cannot interrupt")
        .pop()
        .expect("one output per example")
        .candidate_reprs
}

/// Trains the Overton system on labeled sentences; `bootleg` enables the
/// frozen feature when the model was built with a matching `bootleg_dim`.
pub fn train_overton(
    model: &mut OvertonModel,
    kb: &KnowledgeBase,
    sentences: &[Sentence],
    bootleg: Option<&BootlegModel>,
    epochs: usize,
    seed: u64,
) {
    let examples: Vec<Example> = sentences.iter().filter_map(Example::training).collect();
    if examples.is_empty() {
        return;
    }
    // Precompute frozen features once.
    let features: Vec<Option<Vec<Vec<Vec<f32>>>>> = examples
        .iter()
        .map(|ex| bootleg.map(|b| bootleg_candidate_features(b, kb, ex)))
        .collect();
    let mut opt = Adam::new(&model.params, 1.5e-3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut step_seed = seed;
    for _ in 0..epochs {
        order.shuffle(&mut rng);
        for batch in order.chunks(16) {
            for &i in batch {
                step_seed = step_seed.wrapping_mul(6364136223846793005).wrapping_add(7);
                let g = Graph::with_mode(true, step_seed);
                let logits = model.mention_logits(&g, &examples[i], features[i].as_deref());
                let mut loss: Option<Var> = None;
                let mut n = 0;
                for (l, m) in logits.iter().zip(&examples[i].mentions) {
                    if let Some(gi) = m.gold {
                        let ce = l.cross_entropy_rows(&[gi]);
                        n += 1;
                        loss = Some(match loss {
                            Some(acc) => acc.add(&ce),
                            None => ce,
                        });
                    }
                }
                if let Some(loss) = loss {
                    let loss = loss.scale(1.0 / n.max(1) as f32);
                    if loss.value().item().is_finite() {
                        g.backward(&loss, &mut model.params);
                    }
                }
            }
            model.params.scale_grads(1.0 / batch.len() as f32);
            clip_grad_norm(&mut model.params, 5.0);
            opt.step(&mut model.params);
            model.params.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_core::BootlegConfig;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    fn setup() -> (KnowledgeBase, bootleg_corpus::Corpus, BootlegModel) {
        let kb = gen_kb(&KbConfig { n_entities: 300, seed: 131, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 50, seed: 131, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let b = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        (kb, c, b)
    }

    #[test]
    fn baseline_system_trains_and_predicts() {
        let (kb, c, _) = setup();
        let mut m = OvertonModel::new(&kb, &c.vocab, 0, 3);
        train_overton(&mut m, &kb, &c.train[..20.min(c.train.len())], None, 1, 3);
        let ex = c.train.iter().find_map(Example::training).expect("example");
        let preds = m.predict_indices(&ex, None);
        assert_eq!(preds.len(), ex.mentions.len());
        for (p, men) in preds.iter().zip(&ex.mentions) {
            assert!(*p < men.candidates.len());
        }
    }

    #[test]
    fn bootleg_features_flow_through() {
        let (kb, c, b) = setup();
        let mut m = OvertonModel::new(&kb, &c.vocab, b.config.hidden, 4);
        train_overton(&mut m, &kb, &c.train[..10.min(c.train.len())], Some(&b), 1, 4);
        let ex = c.train.iter().find_map(Example::training).expect("example");
        let feats = bootleg_candidate_features(&b, &kb, &ex);
        let preds = m.predict_indices(&ex, Some(&feats));
        assert_eq!(preds.len(), ex.mentions.len());
    }

    #[test]
    #[should_panic]
    fn missing_features_panic_when_required() {
        let (kb, c, _) = setup();
        let m = OvertonModel::new(&kb, &c.vocab, 48, 5);
        let ex = c.train.iter().find_map(Example::training).expect("example");
        m.predict_indices(&ex, None);
    }
}
