//! What a forward pass takes and returns: options, deadlines, outputs. The
//! engine itself is [`crate::BootlegModel::run`] /
//! [`crate::BootlegModel::try_forward_batch`] in [`crate::batch`].

use bootleg_tensor::{Graph, Var};
use std::time::{Duration, Instant};

/// A per-request compute budget, checked at forward-pass phase boundaries.
///
/// A `Deadline` is a point in wall time; [`Deadline::none`] never expires.
/// The forward pass checks it after each phase (candgen, embed, each
/// attention layer, score) so an over-budget request stops at the next
/// boundary instead of running arbitrarily long — the serving layer turns
/// the resulting [`ForwardInterrupted`] into a typed deadline error.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (the default for library callers).
    pub fn none() -> Self {
        Self { at: None }
    }

    /// Expires `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self { at: Instant::now().checked_add(budget) }
    }

    /// Expires `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Self::after(Duration::from_millis(ms))
    }

    /// A deadline that is already in the past (deterministic expiry for
    /// tests: the first boundary check fires).
    pub fn expired_now() -> Self {
        Self { at: Some(Instant::now()) }
    }

    /// True once the deadline has passed. A `none` deadline never expires.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|t| Instant::now() >= t)
    }

    /// Time left before expiry (`None` for an unlimited deadline,
    /// `Some(ZERO)` once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.at.map(|t| t.saturating_duration_since(Instant::now()))
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Self::none()
    }
}

/// A forward pass stopped at a phase boundary because its [`Deadline`]
/// expired. Carries which phase had just finished — the partial diagnostic
/// the serving layer attaches to `ServeError::DeadlineExceeded`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardInterrupted {
    /// The last phase that completed before the budget ran out
    /// (`"candgen"`, `"embed"`, `"attention"`, or `"score"`).
    pub phase: &'static str,
}

impl std::fmt::Display for ForwardInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "forward pass exceeded its deadline after the {} phase", self.phase)
    }
}

impl std::error::Error for ForwardInterrupted {}

/// One step of the training seed chain (Knuth's MMIX LCG). A training pass
/// with seed `s` over N examples gives example `b` the seed `seed_b`, where
/// `seed_0 = s` and `seed_{b+1} = lcg(seed_b)`; `core::train` advances its
/// step seed with the same function, one step per example.
pub fn lcg(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// What a forward pass should compute beyond scores and predictions.
///
/// Inference-only callers (evaluation drivers, bench bins, serving) use
/// [`ForwardOptions::inference`] to skip the loss node and the
/// per-candidate representation matrices; training uses
/// [`ForwardOptions::training`].
#[derive(Clone, Copy, Debug)]
pub struct ForwardOptions {
    /// Enables dropout and 2-D entity-embedding masking.
    pub training: bool,
    /// Seed for dropout/masking (ignored at inference): example `b` of the
    /// pass draws from the `b`-th seed of the [`lcg`] chain started here.
    pub seed: u64,
    /// Build the `L_dis + L_type` loss node (needed to call `backward`).
    pub build_loss: bool,
    /// Materialize per-mention, per-candidate final-layer representations
    /// (needed by the Overton-style downstream system).
    pub candidate_reprs: bool,
    /// Compute budget, checked at phase boundaries. [`Deadline::none`] for
    /// library callers; the serving layer threads per-request deadlines
    /// through here; expiry comes back as [`ForwardInterrupted`].
    pub deadline: Deadline,
}

impl ForwardOptions {
    /// Prediction/scoring only: no loss node, no candidate representations.
    pub fn inference() -> Self {
        Self {
            training: false,
            seed: 0,
            build_loss: false,
            candidate_reprs: false,
            deadline: Deadline::none(),
        }
    }

    /// The full training tape: dropout and 2-D entity masking driven by
    /// `seed`, the loss node, and candidate representations.
    pub fn training(seed: u64) -> Self {
        Self {
            training: true,
            seed,
            build_loss: true,
            candidate_reprs: true,
            deadline: Deadline::none(),
        }
    }

    /// Attaches a compute budget checked at phase boundaries.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides training mode (dropout + entity-embedding masking).
    pub fn with_training(mut self, on: bool) -> Self {
        self.training = on;
        self
    }

    /// Overrides whether candidate representations are materialized.
    pub fn with_candidate_reprs(mut self, on: bool) -> Self {
        self.candidate_reprs = on;
        self
    }

    /// Overrides whether the loss node is built.
    pub fn with_loss(mut self, on: bool) -> Self {
        self.build_loss = on;
        self
    }
}

/// Result of a forward pass.
pub struct ForwardOutput {
    /// The autograd tape (call `graph.backward(&loss, …)` to train). Outputs
    /// of one forward call share it.
    pub graph: Graph,
    /// Total loss (`L_dis + L_type`); only meaningful when mentions carry
    /// gold indexes.
    pub loss: Option<Var>,
    /// Per-mention candidate scores.
    pub scores: Vec<Vec<f32>>,
    /// Per-mention argmax candidate index.
    pub predictions: Vec<usize>,
    /// Per-mention final-layer representation of the *predicted* candidate —
    /// the "contextual Bootleg entity embedding" consumed by downstream
    /// tasks (§4.3).
    pub mention_reprs: Vec<Vec<f32>>,
    /// Per-mention, per-candidate final-layer representations (used by the
    /// Overton-style downstream system, which scores all candidates).
    /// Empty unless [`ForwardOptions::candidate_reprs`] was set.
    pub candidate_reprs: Vec<Vec<Vec<f32>>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BootlegConfig, ModelVariant};
    use crate::example::Example;
    use crate::model::BootlegModel;
    use bootleg_corpus::{generate_corpus, CorpusConfig};
    use bootleg_kb::{generate as gen_kb, KbConfig, KnowledgeBase};

    fn setup() -> (KnowledgeBase, bootleg_corpus::Corpus, BootlegModel) {
        let kb = gen_kb(&KbConfig { n_entities: 300, seed: 41, ..KbConfig::default() });
        let c = generate_corpus(&kb, &CorpusConfig { n_pages: 60, seed: 41, ..CorpusConfig::default() });
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default());
        (kb, c, m)
    }

    fn first_example(c: &bootleg_corpus::Corpus) -> Example {
        c.train.iter().find_map(Example::training).expect("some training example")
    }

    /// `run` on a 1-example slice.
    fn one(
        m: &BootlegModel,
        kb: &KnowledgeBase,
        ex: &Example,
        opts: ForwardOptions,
    ) -> Result<ForwardOutput, ForwardInterrupted> {
        Ok(m.run(kb, std::slice::from_ref(ex), opts)?.remove(0))
    }

    #[test]
    fn forward_produces_scores_and_loss() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let out = one(&m, &kb, &ex, ForwardOptions::training(1)).expect("no deadline");
        assert_eq!(out.scores.len(), ex.mentions.len());
        assert!(out.loss.is_some());
        let lv = out.loss.as_ref().expect("loss").value().item();
        assert!(lv.is_finite() && lv > 0.0, "loss {lv}");
        for (s, m) in out.scores.iter().zip(&ex.mentions) {
            assert_eq!(s.len(), m.candidates.len());
            assert!(s.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn backward_touches_used_embeddings() {
        let (kb, c, mut m) = setup();
        let ex = first_example(&c);
        let out = one(&m, &kb, &ex, ForwardOptions::training(2)).expect("no deadline");
        let loss = out.loss.expect("loss");
        out.graph.backward(&loss, &mut m.params);
        // Entity table grads are sparse; the candidate rows must be touched
        // (unless every row got masked, which seed 2 should not do for all).
        let p = m.params.get(m.entity_emb);
        assert!(!p.touched_rows.is_empty(), "entity rows should be touched");
    }

    #[test]
    fn all_variants_run_forward() {
        let (kb, c, _) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let ex = first_example(&c);
        for v in [ModelVariant::Full, ModelVariant::EntOnly, ModelVariant::TypeOnly, ModelVariant::KgOnly] {
            let m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().with_variant(v));
            let out = one(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
            assert_eq!(out.predictions.len(), ex.mentions.len());
            for (&p, men) in out.predictions.iter().zip(&ex.mentions) {
                assert!(p < men.candidates.len());
            }
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let tape = |seed| ForwardOptions::training(seed).with_training(false);
        let a = one(&m, &kb, &ex, tape(0)).expect("no deadline");
        let b = one(&m, &kb, &ex, tape(99)).expect("no deadline");
        assert_eq!(a.scores, b.scores, "inference must not depend on seed");
    }

    #[test]
    fn training_mode_masking_changes_scores() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let a = one(&m, &kb, &ex, ForwardOptions::training(1)).expect("no deadline");
        let b = one(&m, &kb, &ex, ForwardOptions::training(2)).expect("no deadline");
        // With dropout + entity masking, different seeds almost surely give
        // different scores.
        assert_ne!(a.scores, b.scores);
    }

    #[test]
    fn mention_reprs_have_hidden_width() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let out = one(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
        for r in &out.mention_reprs {
            assert_eq!(r.len(), m.config.hidden);
        }
    }

    #[test]
    fn lean_inference_matches_full_inference_tape() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let full_opts = ForwardOptions::training(0).with_training(false);
        let full = one(&m, &kb, &ex, full_opts).expect("no deadline");
        let lean = one(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
        assert_eq!(full.scores, lean.scores, "skipping the loss must not change scores");
        assert_eq!(full.predictions, lean.predictions);
        assert_eq!(full.mention_reprs, lean.mention_reprs);
        assert!(lean.loss.is_none(), "inference must skip the loss");
        assert!(lean.candidate_reprs.is_empty(), "inference must skip candidate reprs");
        // Opting back into candidate reprs restores them bit-for-bit.
        let with_reprs = one(&m, &kb, &ex, ForwardOptions::inference().with_candidate_reprs(true))
            .expect("no deadline");
        assert_eq!(full.candidate_reprs, with_reprs.candidate_reprs);
    }

    #[test]
    fn expired_deadline_interrupts_at_first_boundary() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let opts = ForwardOptions::inference().with_deadline(Deadline::expired_now());
        let err = match one(&m, &kb, &ex, opts) {
            Err(e) => e,
            Ok(_) => panic!("expired deadline must interrupt the forward pass"),
        };
        assert_eq!(err.phase, "candgen");
        assert!(err.to_string().contains("candgen"));
    }

    #[test]
    fn unexpired_deadline_is_bit_identical_to_none() {
        let (kb, c, m) = setup();
        let ex = first_example(&c);
        let a = one(&m, &kb, &ex, ForwardOptions::inference()).expect("no deadline");
        let opts = ForwardOptions::inference().with_deadline(Deadline::after_ms(60_000));
        let b = one(&m, &kb, &ex, opts).expect("generous deadline");
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.predictions, b.predictions);
    }

    #[test]
    fn deadline_accessors_behave() {
        assert!(!Deadline::none().expired());
        assert_eq!(Deadline::none().remaining(), None);
        assert!(Deadline::expired_now().expired());
        let d = Deadline::after_ms(60_000);
        assert!(!d.expired());
        assert!(d.remaining().expect("bounded") > std::time::Duration::from_secs(1));
    }

    #[test]
    fn benchmark_model_with_cooccurrence_runs() {
        let (kb, c, _) = setup();
        let counts = bootleg_corpus::stats::entity_counts(&c.train, true);
        let mut m = BootlegModel::new(&kb, &c.vocab, &counts, BootlegConfig::default().benchmark());
        m.set_cooccurrence(crate::cooccur::CooccurrenceIndex::build(&c.train, 2));
        let ex = first_example(&c);
        let out = one(&m, &kb, &ex, ForwardOptions::training(3)).expect("no deadline");
        assert!(out.loss.expect("loss").value().item().is_finite());
    }
}
