//! The paper's headline phenomenon, live: entities never seen in training
//! ("unseen") are resolved by Bootleg through type and knowledge-graph
//! reasoning patterns, while the text-only NED-Base baseline collapses to
//! popularity guessing.
//!
//! Run: `cargo run --release --example tail_disambiguation`

use bootleg::baselines::{train_ned_base, NedBase, NedBaseConfig};
use bootleg::core::{train, BootlegConfig, BootlegModel, Example, TrainConfig};
use bootleg::corpus::{generate_corpus, CorpusConfig};
use bootleg::eval::{evaluate_slices, par_evaluate, BootlegPredictor, Predictor};
use bootleg::kb::{generate, KbConfig};

fn main() {
    let kb = generate(&KbConfig { n_entities: 1500, seed: 11, ..Default::default() });
    let corpus =
        generate_corpus(&kb, &CorpusConfig { n_pages: 500, seed: 11, ..Default::default() });
    let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
    let tcfg = TrainConfig { epochs: 3, ..TrainConfig::default() };

    let mut bootleg_model =
        BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
    train(&mut bootleg_model, &kb, &corpus.train, &tcfg);

    let mut ned = NedBase::new(&kb, &corpus.vocab, NedBaseConfig::default());
    train_ned_base(&mut ned, &corpus.train, &tcfg);

    // Micro-batched evaluation: BootlegPredictor answers each chunk of
    // sentences with one ragged forward pass (bit-identical to serial).
    let boot = par_evaluate(&corpus.dev, &counts, BootlegPredictor::new(&bootleg_model, &kb));
    let base = evaluate_slices(&corpus.dev, &counts, |ex: &Example| ned.predict_indices(ex));

    println!("{:>10} {:>10} {:>10}", "slice", "NED-Base", "Bootleg");
    for (name, b, o) in [
        ("all", base.all, boot.all),
        ("torso", base.torso, boot.torso),
        ("tail", base.tail, boot.tail),
        ("unseen", base.unseen, boot.unseen),
    ] {
        println!("{name:>10} {:>10.1} {:>10.1}", b.f1(), o.f1());
    }

    // Show one unseen-entity win: Bootleg right, baseline wrong.
    println!("\nAn unseen-entity mention resolved by structure:");
    for s in &corpus.dev {
        let Some(ex) = Example::evaluation(s) else { continue };
        let bpred_idx = BootlegPredictor::new(&bootleg_model, &kb).predict(&ex);
        let npred_idx = ned.predict_indices(&ex);
        for ((m, &bi), &ni) in ex.mentions.iter().zip(&bpred_idx).zip(&npred_idx) {
            let gold = m.candidates[m.gold.expect("eval") as usize];
            let unseen = !counts.contains_key(&gold);
            if unseen && m.candidates[bi] == gold && m.candidates[ni] != gold {
                let e = kb.entity(gold);
                println!("  sentence: \"{}\"", corpus.vocab.decode(&s.tokens));
                println!(
                    "  gold {:?} (never a training label; types {:?}, {} relations)",
                    e.title_tokens,
                    e.types,
                    e.relations.len()
                );
                println!(
                    "  Bootleg: {:?} correct | NED-Base: {:?} wrong",
                    kb.entity(gold).title_tokens,
                    kb.entity(m.candidates[ni]).title_tokens
                );
                return;
            }
        }
    }
    println!("  (no strict win found on this seed — rerun with another seed)");
}
