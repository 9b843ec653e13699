//! # bootleg
//!
//! A from-scratch Rust reproduction of **Bootleg: Chasing the Tail with
//! Self-Supervised Named Entity Disambiguation** (Orr et al., CIDR 2021).
//!
//! This facade crate re-exports the full system; see the individual crates
//! for details:
//!
//! * [`tensor`] — dense tensors + reverse-mode autograd (the numeric substrate).
//! * [`nn`] — layers (MHA, additive attention, layer norm), Adam, the word
//!   encoder standing in for BERT.
//! * [`kb`] — the Wikidata/YAGO-style knowledge base and its synthetic
//!   generator with controlled tail statistics.
//! * [`corpus`] — the Wikipedia-analog corpus built from the paper's four
//!   reasoning-pattern templates, weak labeling, and benchmark sets.
//! * [`candgen`] — candidate maps Γ and mention extraction.
//! * [`core`] — the Bootleg model itself: signal encoding, Phrase2Ent /
//!   Ent2Ent / KG2Ent, 2-D regularization, training, inference, compression.
//! * [`baselines`] — NED-Base (Févry et al. analog) and the priors.
//! * [`eval`] — micro-F1, popularity slices, pattern slices, error buckets.
//! * [`downstream`] — TACRED-analog relation extraction and the
//!   Overton-style industry task.
//! * [`obs`] — metrics, RAII tracing spans, and structured logging
//!   (`BOOTLEG_LOG` / `BOOTLEG_TRACE` / `BOOTLEG_METRICS_PATH`).
//! * [`serve`] — resilient request serving: admission control, deadlines,
//!   load shedding, panic isolation, and a breaker-guarded fallback chain
//!   (Bootleg → NED-Base → popularity prior).
//!
//! ## Quickstart
//!
//! ```
//! use bootleg::kb::{generate, KbConfig};
//! use bootleg::corpus::{generate_corpus, CorpusConfig};
//! use bootleg::core::{BootlegModel, BootlegConfig, TrainConfig, Example, ForwardOptions, train};
//!
//! // 1. A knowledge base and a self-supervised corpus.
//! let kb = generate(&KbConfig { n_entities: 300, seed: 1, ..Default::default() });
//! let corpus = generate_corpus(&kb, &CorpusConfig { n_pages: 40, seed: 1, ..Default::default() });
//!
//! // 2. A Bootleg model over it.
//! let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
//! let mut model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
//!
//! // 3. Train briefly and disambiguate.
//! train(&mut model, &kb, &corpus.train[..20], &TrainConfig { epochs: 1, ..Default::default() });
//! let example = corpus.dev.iter().find_map(Example::evaluation).expect("an evaluable sentence");
//! let outs = model.run(&kb, std::slice::from_ref(&example), ForwardOptions::inference());
//! let predictions = &outs.expect("no deadline")[0].predictions; // candidate index per mention
//! let entities: Vec<_> =
//!     predictions.iter().zip(&example.mentions).map(|(&p, m)| m.candidates[p]).collect();
//! assert_eq!(entities.len(), example.mentions.len());
//! ```

pub use bootleg_baselines as baselines;
pub use bootleg_candgen as candgen;
pub use bootleg_core as core;
pub use bootleg_corpus as corpus;
pub use bootleg_downstream as downstream;
pub use bootleg_eval as eval;
pub use bootleg_kb as kb;
pub use bootleg_nn as nn;
pub use bootleg_obs as obs;
pub use bootleg_serve as serve;
pub use bootleg_tensor as tensor;
