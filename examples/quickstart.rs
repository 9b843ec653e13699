//! Quickstart: build a knowledge base and corpus, train Bootleg, and
//! disambiguate a sentence, printing what the model saw and decided.
//!
//! Run: `cargo run --release --example quickstart`

use bootleg::core::{train, BootlegConfig, BootlegModel, Example, ForwardOptions, TrainConfig};
use bootleg::corpus::{generate_corpus, CorpusConfig};
use bootleg::kb::{generate, KbConfig};

fn main() {
    // A small world: 800 entities with Zipfian popularity, typed and linked.
    let kb = generate(&KbConfig { n_entities: 800, seed: 7, ..Default::default() });
    let corpus = generate_corpus(&kb, &CorpusConfig { n_pages: 250, seed: 7, ..Default::default() });
    println!(
        "knowledge base: {} entities, {} types, {} relations, {} KG edges",
        kb.num_entities(),
        kb.types.len(),
        kb.relations.len(),
        kb.edges.len()
    );
    println!("corpus: {} train / {} dev sentences\n", corpus.train.len(), corpus.dev.len());

    // Train Bootleg for two epochs.
    let counts = bootleg::corpus::stats::entity_counts(&corpus.train, true);
    let mut model = BootlegModel::new(&kb, &corpus.vocab, &counts, BootlegConfig::default());
    let report = train(
        &mut model,
        &kb,
        &corpus.train,
        &TrainConfig { epochs: 2, ..TrainConfig::default() },
    );
    println!("trained on {} examples; epoch losses {:?}\n", report.n_examples, report.epoch_losses);

    // Disambiguate a few dev sentences.
    let mut shown = 0;
    for s in &corpus.dev {
        let Some(ex) = Example::evaluation(s) else { continue };
        let out = model
            .run(&kb, std::slice::from_ref(&ex), ForwardOptions::inference())
            .expect("no deadline")
            .remove(0);
        println!("sentence: \"{}\"", corpus.vocab.decode(&s.tokens));
        for (m, &p) in ex.mentions.iter().zip(&out.predictions) {
            let pred = &m.candidates[p];
            let gold = m.candidates[m.gold.expect("eval mention") as usize];
            println!(
                "  mention \"{}\" ({} candidates) -> predicted {:?}, gold {:?} [{}]",
                corpus.vocab.word(ex.tokens[m.first]),
                m.candidates.len(),
                kb.entity(*pred).title_tokens,
                kb.entity(gold).title_tokens,
                if *pred == gold { "correct" } else { "wrong" },
            );
        }
        shown += 1;
        if shown >= 5 {
            break;
        }
    }
}
