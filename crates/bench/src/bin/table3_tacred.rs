//! Tables 3, 12, 13 and 4: the TACRED-analog relation-extraction transfer.
//!
//! Trains Bootleg on the Wikipedia-analog corpus, freezes it, and trains
//! three downstream classifiers that differ only in their entity features
//! (§4.3 / Appendix C): text-only (SpanBERT analog), static entity
//! embeddings (KnowBERT analog), and contextual Bootleg representations.
//!
//! Run: `cargo run --release -p bootleg-bench --bin table3_tacred`

use bootleg_bench::{full_train_config, row, scale, Results, ResultsTable, Workbench};
use bootleg_core::{BootlegConfig, ExMention, Example, ForwardOptions};
use bootleg_downstream::analysis::{
    qualitative_wins, signal_proportions, table12_gap, table13_ratio, PairedOutcome,
};
use bootleg_downstream::re_model::{extract_features, tacred_f1, EntityFeatures, ReFeatures};
use bootleg_downstream::{generate_re_dataset, train_re, ReClassifier, ReConfig, ReDataset, ReTrainConfig};

fn main() -> std::io::Result<()> {
    let wb = Workbench::full(2024);
    eprintln!("[training Bootleg for feature extraction]");
    let bootleg = wb.train_bootleg(BootlegConfig::default(), &full_train_config());

    let ds = generate_re_dataset(
        &wb.kb,
        &wb.corpus.vocab,
        &ReConfig {
            n_train: ((1500.0 * scale()) as usize).max(100),
            n_test: ((400.0 * scale()) as usize).max(50),
            ..Default::default()
        },
    );
    eprintln!("[RE dataset] train={} test={} relations={}", ds.train.len(), ds.test.len(), ds.n_relations);

    let widths = [22, 11, 9, 8];
    let headers = ["Model", "Precision", "Recall", "F1"];
    let mut table = ResultsTable::new(&headers);
    println!("Table 3: TACRED-analog test scores");
    println!("{}", row(&headers.map(String::from), &widths));

    let mut errors: Vec<Vec<bool>> = Vec::new();
    for kind in [EntityFeatures::None, EntityFeatures::Static, EntityFeatures::Contextual] {
        let train_feats = extract_features(kind, &ds.train, &wb.kb, &bootleg);
        let test_feats = extract_features(kind, &ds.test, &wb.kb, &bootleg);
        let mut model = ReClassifier::new(&wb.corpus.vocab, ds.n_relations + 1, train_feats.dim, 3);
        train_re(&mut model, &ds, &train_feats, &ReTrainConfig { epochs: 10, ..Default::default() });
        let (p, r, f1) = tacred_f1(&model, &ds, &test_feats);
        let cells =
            [kind.name().to_string(), format!("{p:.1}"), format!("{r:.1}"), format!("{f1:.1}")];
        table.add(&cells);
        println!("{}", row(&cells, &widths));
        errors.push(per_example_errors(&model, &ds, &test_feats));
    }

    // ---- Tables 12 / 13: signal-slice analysis ----
    // Predicted subject/object entities from Bootleg, per test example.
    let outcomes: Vec<PairedOutcome> = ds
        .test
        .iter()
        .enumerate()
        .map(|(i, ex)| {
            let mentions = vec![
                ExMention {
                    first: ex.subj_pos,
                    last: ex.subj_pos,
                    candidates: wb.kb.alias(ex.subj_alias).candidates.clone(),
                    gold: None,
                },
                ExMention {
                    first: ex.obj_pos,
                    last: ex.obj_pos,
                    candidates: wb.kb.alias(ex.obj_alias).candidates.clone(),
                    gold: None,
                },
            ];
            let bex = Example::inference(ex.tokens.clone(), mentions);
            let out = bootleg
                .run(&wb.kb, std::slice::from_ref(&bex), ForwardOptions::inference())
                .expect("no deadline")
                .remove(0);
            let pred = |mi: usize| bex.mentions[mi].candidates[out.predictions[mi]];
            PairedOutcome {
                signals: signal_proportions(&wb.kb, ex, (pred(0), pred(1))),
                base_err: errors[0][i],
                boot_err: errors[2][i],
            }
        })
        .collect();

    println!("\nTable 12: error-rate gap (baseline/Bootleg) above vs below median signal");
    println!("(paper: entity 1.10x, relation 4.67x, type 1.35x)");
    let mut gaps = ResultsTable::new(&["Signal", "n", "gap"]);
    type SigFn = fn(&bootleg_downstream::analysis::SignalProportions) -> f64;
    type SigPred = fn(&bootleg_downstream::analysis::SignalProportions) -> bool;
    let gap_specs: [(&str, SigFn); 3] =
        [("Entity", |s| s.entity), ("Relation", |s| s.relation), ("Type", |s| s.types)];
    for (name, f) in gap_specs {
        let (n, gap) = table12_gap(&outcomes, f);
        println!("  {name:<10} n={n:<5} gap={gap:.2}x");
        gaps.add(&[name.to_string(), n.to_string(), format!("{gap:.2}")]);
    }

    println!("\nTable 13: baseline/Bootleg error-rate ratio on signal slices");
    println!("(paper: entity 1.20x, relation 1.18x, obj-type 1.20x)");
    let mut ratios = ResultsTable::new(&["Signal", "n", "ratio"]);
    let ratio_specs: [(&str, SigPred); 3] = [
        ("Entity", |s| s.entity > 0.0),
        ("Relation", |s| s.relation > 0.0),
        ("Type", |s| s.types > 0.0),
    ];
    for (name, f) in ratio_specs {
        let (n, ratio) = table13_ratio(&outcomes, f);
        println!("  {name:<10} n={n:<5} ratio={ratio:.2}x");
        ratios.add(&[name.to_string(), n.to_string(), format!("{ratio:.2}")]);
    }

    // ---- Table 4: qualitative wins ----
    println!("\nTable 4: examples the Bootleg model corrects (baseline wrong, Bootleg right)");
    let mut wins = qualitative_wins(&outcomes);
    // Prefer positive-relation wins (the paper's cause-of-death / alternate-
    // names style examples) over no_relation ones.
    wins.sort_by_key(|&i| ds.test[i].relation.is_none());
    for &i in wins.iter().take(3) {
        let ex = &ds.test[i];
        let gold = match ex.relation {
            Some(r) => wb.kb.relation_info(r).name.clone(),
            None => "no_relation".into(),
        };
        println!(
            "  \"{}\"\n    gold: {}  (cue hidden: {}; KG edge between gold entities: {})",
            wb.corpus.vocab.decode(&ex.tokens),
            gold,
            ex.cue_hidden,
            wb.kb.connected(ex.subj_gold, ex.obj_gold).is_some(),
        );
    }

    let mut results = Results::new("table3_tacred");
    results.set("train_examples", ds.train.len());
    results.set("test_examples", ds.test.len());
    results.set_table("rows", table);
    results.set_table("table12_gap", gaps);
    results.set_table("table13_ratio", ratios);
    results.write()?;
    Ok(())
}

/// Per-test-example error flags for a trained classifier.
fn per_example_errors(model: &ReClassifier, ds: &ReDataset, feats: &ReFeatures) -> Vec<bool> {
    ds.test
        .iter()
        .zip(&feats.vectors)
        .map(|(ex, f)| model.predict(ex, f) != ds.label(ex))
        .collect()
}
