//! NED-Base: the Févry et al. (2020) baseline re-implementation (§4.2).
//!
//! "NED-Base learns entity embeddings by maximizing the dot product between
//! the entity candidates and fine-tuned BERT-contextual representations of
//! the mention." The word encoder here is trainable (the paper fine-tunes
//! BERT for NED-Base while freezing it for Bootleg).

use bootleg_core::Example;
use bootleg_corpus::{Sentence, Vocab};
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_nn::encoder::WordEncoderConfig;
use bootleg_nn::optim::{clip_grad_norm, Adam};
use bootleg_nn::{Linear, WordEncoder};
use bootleg_tensor::{init, Graph, ParamId, ParamStore, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// NED-Base hyperparameters.
#[derive(Clone, Debug)]
pub struct NedBaseConfig {
    /// Hidden width (shared by encoder and entity embeddings).
    pub hidden: usize,
    /// Word-encoder configuration.
    pub word_encoder: WordEncoderConfig,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for NedBaseConfig {
    fn default() -> Self {
        Self {
            hidden: 48,
            word_encoder: WordEncoderConfig {
                vocab: 0,
                d_model: 48,
                n_layers: 1,
                n_heads: 4,
                max_len: 48,
                dropout: 0.1,
            },
            seed: 7,
        }
    }
}

/// The NED-Base model.
#[derive(Debug)]
pub struct NedBase {
    /// All trainable parameters.
    pub params: ParamStore,
    word_encoder: WordEncoder,
    entity_emb: ParamId,
    proj: Linear,
    /// Number of entities in the table (plus one padding row).
    pub n_entities: usize,
    /// Configuration.
    pub config: NedBaseConfig,
}

impl NedBase {
    /// Builds the baseline for a knowledge base.
    pub fn new(kb: &KnowledgeBase, vocab: &Vocab, mut config: NedBaseConfig) -> Self {
        config.word_encoder.vocab = vocab.len();
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let word_encoder = WordEncoder::new(&mut ps, &mut rng, "wordenc", config.word_encoder);
        // Random init (Févry et al. train embeddings from scratch).
        let entity_emb = ps.add(
            "embedding.entity",
            init::normal(&mut rng, &[kb.num_entities() + 1, config.hidden], 0.1),
        );
        let proj = Linear::new(
            &mut ps,
            &mut rng,
            "net.mention_proj",
            config.word_encoder.d_model,
            config.hidden,
            true,
        );
        Self { params: ps, word_encoder, entity_emb, proj, n_entities: kb.num_entities(), config }
    }

    /// Forward pass; returns `(graph, loss, per-mention scores)`.
    pub fn forward(
        &self,
        ex: &Example,
        training: bool,
        seed: u64,
    ) -> (Graph, Option<Var>, Vec<Vec<f32>>) {
        let g = Graph::with_mode(training, seed);
        let ps = &self.params;
        let (w, _) = self.word_encoder.forward_batch(&g, ps, &[&ex.tokens]);

        let mut loss: Option<Var> = None;
        let mut n_supervised = 0usize;
        let mut scores = Vec::with_capacity(ex.mentions.len());
        for m in &ex.mentions {
            let first = w.select_rows(&[m.first as u32]);
            let last = w.select_rows(&[m.last as u32]);
            let mention = self.proj.forward(&g, ps, &first.add(&last)); // (1, H)
            let cands: Vec<u32> = m.candidates.iter().map(|c| c.0).collect();
            let emb = g.gather_rows(ps, self.entity_emb, &cands); // (K, H)
            let logits = mention.matmul(&emb.transpose_last2()); // (1, K)
            scores.push(logits.value().data().to_vec());
            if let Some(gi) = m.gold {
                let ce = logits.cross_entropy_rows(&[gi]);
                n_supervised += 1;
                loss = Some(match loss {
                    Some(acc) => acc.add(&ce),
                    None => ce,
                });
            }
        }
        let loss = loss.map(|l| l.scale(1.0 / n_supervised.max(1) as f32));
        (g, loss, scores)
    }

    /// Predicts the candidate index for each mention. Total over any score
    /// values: NaNs (possible only for poisoned inputs on the serving path)
    /// compare under the IEEE total order instead of panicking, and an
    /// empty candidate list falls back to index 0.
    pub fn predict_indices(&self, ex: &Example) -> Vec<usize> {
        let (_, _, scores) = self.forward(ex, false, 0);
        scores
            .iter()
            .map(|s| {
                s.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Predicts entities.
    pub fn predict(&self, ex: &Example) -> Vec<EntityId> {
        self.predict_indices(ex)
            .into_iter()
            .zip(&ex.mentions)
            .map(|(i, m)| m.candidates[i])
            .collect()
    }
}

/// Training hyperparameters and loop for NED-Base (mirrors
/// [`bootleg_core::TrainConfig`]).
pub fn train_ned_base(
    model: &mut NedBase,
    sentences: &[Sentence],
    config: &bootleg_core::TrainConfig,
) -> Vec<f32> {
    let examples: Vec<Example> = sentences.iter().filter_map(Example::training).collect();
    if examples.is_empty() {
        return Vec::new();
    }
    let mut opt = Adam::new(&model.params, config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut seed = config.seed;
    let mut epoch_losses = Vec::new();
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let epoch_order: &[usize] = match config.max_sentences {
            Some(cap) if cap < order.len() => &order[..cap],
            _ => &order,
        };
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for batch in epoch_order.chunks(config.batch_size) {
            let mut batch_n = 0usize;
            for &i in batch {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let (g, loss, _) = model.forward(&examples[i], true, seed);
                let Some(loss) = loss else { continue };
                let lv = loss.value().item();
                if !lv.is_finite() {
                    continue;
                }
                sum += lv as f64;
                count += 1;
                batch_n += 1;
                g.backward(&loss, &mut model.params);
            }
            if batch_n == 0 {
                continue;
            }
            model.params.scale_grads(1.0 / batch_n as f32);
            clip_grad_norm(&mut model.params, config.clip);
            opt.step(&mut model.params);
            model.params.zero_grad();
        }
        epoch_losses.push((sum / count.max(1) as f64) as f32);
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig};

    fn setup() -> (KnowledgeBase, bootleg_corpus::Corpus, NedBase) {
        let kb = gen_kb(&KbConfig { n_entities: 200, seed: 81, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 50, seed: 81, ..CorpusConfig::default() });
        let m = NedBase::new(&kb, &c.vocab, NedBaseConfig::default());
        (kb, c, m)
    }

    #[test]
    fn forward_shapes_and_finite_loss() {
        let (_, c, m) = setup();
        let ex = c.train.iter().find_map(Example::training).expect("example");
        let (_, loss, scores) = m.forward(&ex, true, 1);
        assert_eq!(scores.len(), ex.mentions.len());
        assert!(loss.expect("supervised").value().item().is_finite());
    }

    #[test]
    fn training_reduces_loss() {
        let (_, c, mut m) = setup();
        let losses = train_ned_base(
            &mut m,
            &c.train,
            &bootleg_core::TrainConfig { epochs: 3, lr: 2e-3, batch_size: 8, ..Default::default() },
        );
        assert!(losses.len() == 3);
        assert!(losses[2] < losses[0], "losses {losses:?}");
    }

    #[test]
    fn predictions_are_candidates() {
        let (_, c, m) = setup();
        let ex = c.train.iter().find_map(Example::training).expect("example");
        for (p, men) in m.predict(&ex).iter().zip(&ex.mentions) {
            assert!(men.candidates.contains(p));
        }
    }
}
