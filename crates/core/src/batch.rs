//! The forward engine: N examples, one graph, ragged row layout. Every
//! forward pass — training steps, single-example inference, serving
//! micro-batches — runs here.
//!
//! # Layout
//!
//! A batch never pads examples against each other. Candidate rows are
//! concatenated into one tall `(ΣS_i, ·)` matrix and token rows into
//! `(ΣN_i, ·)`; every *row-wise* op (matmul against a weight, LayerNorm,
//! GELU, gather, bias add, the MLPs) runs once on the tall matrix, which is
//! where the speedup lives — per-op dispatch is amortized over the batch
//! and the register-tiled kernels see tall matrices instead of skinny ones.
//! The only cross-row ops — attention softmax/context and the KG adjacency
//! products — run per example on contiguous row slices, so examples cannot
//! attend to each other and each example's inference outputs are
//! bit-identical to running it alone.
//!
//! The per-candidate type/relation bags *are* padded (to the batch's widest
//! bag) because additive-attention pooling dominates the embed phase. Pads
//! sit after the real entries and are erased by a `-inf` additive mask
//! before the softmax: `exp(-inf) = +0.0` exactly, appending `+0.0` to a
//! left-to-right sum changes nothing, and in the weighted sum each pad
//! appends a `±0` product (weight `+0.0` times a finite pad row, a copy of
//! the bag's last real row) to a fused chain whose accumulator is nonzero or
//! `+0.0`, which leaves it unchanged — so pooled rows are bit-identical to
//! the unpadded path (see [`bootleg_nn::AddAttn::pool_ragged`]).
//!
//! # Deadlines
//!
//! Deadlines are per example and checked at phase boundaries (after
//! candgen, after embed, before each attention layer after the first, and
//! after attention). An expired example is marked [`ForwardInterrupted`]
//! and *evicted from the result*, not the batch: its rows keep flowing
//! (they cannot be removed from a built graph), but the batch only aborts
//! early when every example has expired.
//!
//! # Training
//!
//! With `opts.training` the graph runs in training mode, and every example
//! owns its RNG streams. Example `b` of the slice gets the seed `seed_b` of
//! the [`lcg`] chain started at `opts.seed` (`seed_0 = opts.seed`,
//! `seed_{b+1} = lcg(seed_b)`). Its dropout masks draw from a stream seeded
//! with `seed_b` — every dropout over row-stacked matrices splits by the
//! example row spans (`tok_spans`, `cand_spans`, mention ranges) — and its
//! 2-D entity mask from a stream seeded with `seed_b ^ 0x9e37_79b9_7f4a_7c15`,
//! one draw per candidate row. Ops draw in the same order for every
//! example, so each example sees exactly the draws it would see alone with
//! seed `seed_b`: a training pass over N examples equals N one-example
//! passes bit for bit on losses and scores, and `core::train` runs each
//! minibatch as one tall graph with one `backward`.

use crate::example::Example;
use crate::forward::{lcg, Deadline, ForwardInterrupted, ForwardOptions, ForwardOutput};
use crate::model::BootlegModel;
use crate::RegScheme;
use bootleg_kb::{EntityId, KnowledgeBase};
use bootleg_nn::posenc;
use bootleg_tensor::{arena, Graph, Tensor, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-example candidate layout and KG adjacency, built during candgen.
struct ExLayout {
    /// Index into the caller's `examples` slice.
    ei: usize,
    /// Flattened candidate entity ids (one per candidate row).
    cand_entities: Vec<u32>,
    /// Local mention index of each candidate row.
    mention_of: Vec<usize>,
    /// Local candidate-row offsets per mention (`len = mentions + 1`).
    offsets: Vec<usize>,
    /// KG adjacency matrices over this example's candidate rows.
    kg_mats: Vec<Tensor>,
    /// First candidate row of this example in the global stack.
    s_start: usize,
    /// First mention of this example in the global mention list.
    m_start: usize,
    /// This example's training seed (`seed_b` of the [`lcg`] chain).
    seed: u64,
}

impl BootlegModel {
    /// The forward entrypoint: runs the model on a slice of examples as one
    /// ragged pass under a shared `opts.deadline`. An empty slice returns
    /// `Ok(vec![])`; if the deadline expires, the first interrupted
    /// example's phase is returned. Outputs of one call share one tape.
    pub fn run(
        &self,
        kb: &KnowledgeBase,
        examples: &[Example],
        opts: ForwardOptions,
    ) -> Result<Vec<ForwardOutput>, ForwardInterrupted> {
        let refs: Vec<&Example> = examples.iter().collect();
        let deadlines = vec![opts.deadline; examples.len()];
        self.try_forward_batch(kb, &refs, &opts, &deadlines).into_iter().collect()
    }

    /// Runs N examples as one ragged pass with *per-example* deadlines
    /// (the serving layer's eviction rule needs them to differ;
    /// `opts.deadline` is ignored). Returns one result per example, in
    /// order; an expired example fails alone with the phase it reached
    /// while the rest of the batch completes.
    pub fn try_forward_batch(
        &self,
        kb: &KnowledgeBase,
        examples: &[&Example],
        opts: &ForwardOptions,
        deadlines: &[Deadline],
    ) -> Vec<Result<ForwardOutput, ForwardInterrupted>> {
        assert_eq!(examples.len(), deadlines.len(), "one deadline per example");
        if examples.is_empty() {
            return Vec::new();
        }
        for ex in examples {
            assert!(!ex.mentions.is_empty(), "forward needs at least one mention");
        }
        let _fwd = bootleg_obs::span!("forward");
        bootleg_obs::counter!("forward.batch_examples").add(examples.len() as u64);
        let training = opts.training;
        let ps = &self.params;
        let cfg = &self.config;

        let mut out: Vec<Option<Result<ForwardOutput, ForwardInterrupted>>> =
            (0..examples.len()).map(|_| None).collect();
        let fail = |out: &mut Vec<Option<Result<ForwardOutput, ForwardInterrupted>>>,
                    ei: usize,
                    phase: &'static str| {
            out[ei] = Some(Err(ForwardInterrupted { phase }));
        };

        // ---- Candidate generation (per example; plain tensors, no graph
        // nodes) ----  An example whose deadline expires here is excluded
        // from the batch layout entirely — its rows never enter the graph.
        let ph = bootleg_obs::trace::phase("candgen", "forward.candgen_ns");
        let mut included: Vec<ExLayout> = Vec::with_capacity(examples.len());
        let mut s_total = 0usize;
        let mut m_total = 0usize;
        let mut next_seed = opts.seed;
        for (ei, ex) in examples.iter().enumerate() {
            let seed = next_seed;
            next_seed = lcg(next_seed);
            let mut cand_entities: Vec<u32> = Vec::with_capacity(ex.total_candidates());
            let mut mention_of: Vec<usize> = Vec::new();
            let mut offsets: Vec<usize> = Vec::with_capacity(ex.mentions.len() + 1);
            for (mi, m) in ex.mentions.iter().enumerate() {
                offsets.push(cand_entities.len());
                for &c in &m.candidates {
                    cand_entities.push(c.0);
                    mention_of.push(mi);
                }
            }
            offsets.push(cand_entities.len());
            let s_i = cand_entities.len();

            let mut kg_mats: Vec<Tensor> = Vec::new();
            if cfg.use_kg() {
                let mut k = arena::take_zeroed(s_i * s_i);
                // Connectivity is symmetric, so probe each unordered pair
                // once and write both cells.
                for i in 0..s_i {
                    for j in i + 1..s_i {
                        if mention_of[i] != mention_of[j]
                            && kb
                                .connected(EntityId(cand_entities[i]), EntityId(cand_entities[j]))
                                .is_some()
                        {
                            k[i * s_i + j] = 1.0;
                            k[j * s_i + i] = 1.0;
                        }
                    }
                }
                kg_mats.push(Tensor::new([s_i, s_i], k));
                if cfg.cooccur_kg {
                    let mut k2 = arena::take_zeroed(s_i * s_i);
                    if let Some(cx) = &self.cooccur {
                        for i in 0..s_i {
                            for j in 0..s_i {
                                if mention_of[i] != mention_of[j] {
                                    k2[i * s_i + j] = cx.weight(
                                        EntityId(cand_entities[i]),
                                        EntityId(cand_entities[j]),
                                    );
                                }
                            }
                        }
                    }
                    kg_mats.push(Tensor::new([s_i, s_i], k2));
                }
                if cfg.kg_two_hop {
                    let mut k3 = arena::take_zeroed(s_i * s_i);
                    for i in 0..s_i {
                        for j in 0..s_i {
                            if mention_of[i] != mention_of[j]
                                && kb.two_hop_connected(
                                    EntityId(cand_entities[i]),
                                    EntityId(cand_entities[j]),
                                )
                            {
                                k3[i * s_i + j] = 0.5;
                            }
                        }
                    }
                    kg_mats.push(Tensor::new([s_i, s_i], k3));
                }
            }
            if deadlines[ei].expired() {
                fail(&mut out, ei, "candgen");
                continue;
            }
            included.push(ExLayout {
                ei,
                cand_entities,
                mention_of,
                offsets,
                kg_mats,
                s_start: s_total,
                m_start: m_total,
                seed,
            });
            s_total += s_i;
            m_total += examples[ei].mentions.len();
        }
        drop(ph);
        if included.is_empty() {
            return out.into_iter().map(|o| o.expect("all failed at candgen")).collect();
        }

        // Included example `i` owns dropout stream `i`; every row span below
        // lists the included examples in that order.
        let stream_seeds: Vec<u64> =
            if training { included.iter().map(|l| l.seed).collect() } else { Vec::new() };
        let g = Graph::with_streams(training, &stream_seeds);

        // Global index maps over the included examples.
        let cand_spans: Vec<(usize, usize)> =
            included.iter().map(|l| (l.s_start, l.cand_entities.len())).collect();
        let mut global_cands: Vec<u32> = Vec::with_capacity(s_total);
        let mut cand_mention_row: Vec<u32> = Vec::with_capacity(s_total);
        for l in &included {
            global_cands.extend_from_slice(&l.cand_entities);
            cand_mention_row.extend(l.mention_of.iter().map(|&mi| (l.m_start + mi) as u32));
        }

        // ---- Signal encoding (§3.1), batched ----
        let ph = bootleg_obs::trace::phase("embed", "forward.embed_ns");

        // W: all sentences through the word encoder in one ragged pass.
        let sentences: Vec<&[u32]> =
            included.iter().map(|l| examples[l.ei].tokens.as_slice()).collect();
        let (w, tok_spans) = {
            let _s = bootleg_obs::span!("wordenc");
            self.word_encoder.forward_batch(&g, ps, &sentences)
        };

        let mut parts: Vec<Var> = Vec::new();
        // Static per-entity payloads (entity row, pooled type/rel bags, title
        // mean) may come straight from the entity-repr cache; the
        // mention-dependent parts (coarse type, position encoding) stay live.
        // Training and loss-building passes skip the cache: leaves carry no
        // params, and the entity mask applies to the live gather.
        let mut cached = if training || opts.build_loss {
            None
        } else {
            self.gather_cached_parts(&global_cands)
        };
        if cfg.use_entity() {
            if let Some(t) = cached.as_mut().and_then(|c| c.entity.take()) {
                parts.push(g.leaf(t));
            } else {
                let u = g.gather_rows(ps, self.entity_emb, &global_cands);
                parts.push(if training && !matches!(cfg.regularization, RegScheme::None) {
                    // 2-D regularization: zero the whole embedding with p(e),
                    // one draw per candidate row from the example's mask stream.
                    let mut mask = arena::take(s_total * cfg.entity_dim);
                    let mut mrows = mask.chunks_exact_mut(cfg.entity_dim);
                    for l in &included {
                        let mut mask_rng = StdRng::seed_from_u64(l.seed ^ 0x9e37_79b9_7f4a_7c15);
                        for (&e, mrow) in l.cand_entities.iter().zip(&mut mrows) {
                            let keep = mask_rng.gen::<f32>() >= self.reg_p[e as usize];
                            mrow.fill(if keep { 1.0 } else { 0.0 });
                        }
                    }
                    u.mul(&g.leaf(Tensor::new([s_total, cfg.entity_dim], mask)))
                } else {
                    u
                });
            }
        }

        // Type prediction (Appendix A), batched over all mentions: the
        // first/last contextual token rows of every mention at once.
        let mut type_losses: Vec<Option<Var>> = vec![None; examples.len()];
        let mut mention_type_vec: Option<Var> = None;
        if let Some(tp) = &self.type_pred {
            let mut firsts: Vec<u32> = Vec::with_capacity(m_total);
            let mut lasts: Vec<u32> = Vec::with_capacity(m_total);
            for (l, &(t_start, _)) in included.iter().zip(&tok_spans) {
                for m in &examples[l.ei].mentions {
                    firsts.push((t_start + m.first) as u32);
                    lasts.push((t_start + m.last) as u32);
                }
            }
            let mention_spans: Vec<(usize, usize)> =
                included.iter().map(|l| (l.m_start, examples[l.ei].mentions.len())).collect();
            let mention_emb = w.select_rows(&firsts).add(&w.select_rows(&lasts));
            let logits = tp.mlp.forward_ragged(&g, ps, &mention_emb, &mention_spans); // (M, 6)
            let probs = logits.softmax_last();
            let coarse = g.dense_param(ps, tp.coarse_emb); // (6, coarse_dim)
            mention_type_vec = Some(probs.matmul(&coarse)); // (M, coarse_dim)
            // Per-example supervision, kept per example so each output's
            // loss matches running that example alone bit-for-bit.
            if opts.build_loss {
                for l in &included {
                    let ex = examples[l.ei];
                    let mut targets = Vec::new();
                    let mut sup_rows: Vec<u32> = Vec::new();
                    for (mi, m) in ex.mentions.iter().enumerate() {
                        if let Some(gi) = m.gold {
                            let gold_entity = m.candidates[gi as usize];
                            targets.push(self.entity_coarse[gold_entity.idx()]);
                            sup_rows.push((l.m_start + mi) as u32);
                        }
                    }
                    if !sup_rows.is_empty() {
                        let rows = logits.select_rows(&sup_rows);
                        type_losses[l.ei] = Some(rows.cross_entropy_rows(&targets));
                    }
                }
            }
        }

        if cfg.use_types() {
            let _s = bootleg_obs::span!("pool_types");
            parts.push(match cached.as_mut().and_then(|c| c.types.take()) {
                Some(t) => g.leaf(t),
                None => self.pool_bags_batched(
                    &g,
                    &global_cands,
                    self.type_emb,
                    &self.entity_types,
                    &self.type_attn,
                ),
            });
            if let Some(tv) = &mention_type_vec {
                // The predicted coarse type of each mention, repeated onto
                // every one of its candidates.
                parts.push(tv.select_rows(&cand_mention_row)); // (S, coarse_dim)
            }
        }

        if cfg.use_kg() {
            let _s = bootleg_obs::span!("pool_rels");
            parts.push(match cached.as_mut().and_then(|c| c.rels.take()) {
                Some(t) => g.leaf(t),
                None => self.pool_bags_batched(
                    &g,
                    &global_cands,
                    self.rel_emb,
                    &self.entity_rels,
                    &self.rel_attn,
                ),
            });
        }

        if cfg.title_feature {
            parts.push(match cached.as_mut().and_then(|c| c.titles.take()) {
                Some(t) => g.leaf(t),
                None => self.pool_titles_batched(&g, &global_cands),
            });
        }

        let part_refs: Vec<&Var> = parts.iter().collect();
        let _s2 = bootleg_obs::span!("emb_mlp");
        let concat = g.concat_last(&part_refs); // (ΣS, mlp_input_dim)
        let mut e_mat = self.mlp.forward_ragged(&g, ps, &concat, &cand_spans); // (ΣS, H)
        drop(_s2);

        if cfg.position_encoding {
            let table = self.word_encoder.pos_table();
            let d = cfg.word_encoder.d_model;
            let mut enc = arena::take(s_total * 2 * d);
            {
                let mut erows = enc.chunks_exact_mut(2 * d);
                for l in &included {
                    let ex = examples[l.ei];
                    for &mi in &l.mention_of {
                        let m = &ex.mentions[mi];
                        let erow = erows.next().expect("one encoding row per candidate");
                        posenc::write_mention_span_encoding(table, m.first, m.last, erow);
                    }
                }
            }
            let enc_var = g.leaf(Tensor::new([s_total, 2 * d], enc));
            e_mat = e_mat.add(&self.pos_proj.forward(&g, ps, &enc_var));
        }
        drop(ph);
        let mut all_failed = true;
        for l in &included {
            if out[l.ei].is_none() && deadlines[l.ei].expired() {
                fail(&mut out, l.ei, "embed");
            }
            all_failed &= out[l.ei].is_some();
        }
        if all_failed {
            return out.into_iter().map(|o| o.expect("all failed by embed")).collect();
        }

        // ---- Stacked layers (§3.2), ragged ----
        let ph = bootleg_obs::trace::phase("attention", "forward.attention_ns");
        let mut e_prime = e_mat.clone();
        // Per KG matrix, the per-example outputs of the last layer (for the
        // scoring ensemble): `last_e_ks[j][b]` is example b's `(S_b, H)`.
        let n_kg = included[0].kg_mats.len();
        let mut last_e_ks: Vec<Vec<Var>> = Vec::new();
        for l in 0..cfg.n_layers {
            if l > 0 {
                let mut live = false;
                for lay in &included {
                    if out[lay.ei].is_none() && deadlines[lay.ei].expired() {
                        fail(&mut out, lay.ei, "attention");
                    }
                    live |= out[lay.ei].is_none();
                }
                if !live {
                    return out
                        .into_iter()
                        .map(|o| o.expect("all failed in attention"))
                        .collect();
                }
            }
            let p2e = self.phrase2ent[l].forward_ragged(
                &g,
                ps,
                &e_mat,
                Some(&w),
                &cand_spans,
                &tok_spans,
            );
            e_prime = if cfg.use_ent2ent {
                let e2e =
                    self.ent2ent[l].forward_ragged(&g, ps, &e_mat, None, &cand_spans, &cand_spans);
                p2e.add(&e2e)
            } else {
                p2e
            };
            last_e_ks.clear();
            last_e_ks.resize_with(n_kg, Vec::new);
            let mut per_ex_next: Vec<Var> = Vec::with_capacity(included.len());
            for (lay, &(s_start, s_len)) in included.iter().zip(&cand_spans) {
                let rows: Vec<u32> = (s_start..s_start + s_len).map(|r| r as u32).collect();
                let ep = e_prime.select_rows(&rows); // (S_b, H)
                let mut eks: Vec<Var> = Vec::with_capacity(n_kg);
                for (j, kmat) in lay.kg_mats.iter().enumerate() {
                    let kv = g.leaf(kmat.clone());
                    let wv = g.dense_param(ps, self.kg_w[l][j]);
                    let attn = kv.add_scaled_identity(&wv).softmax_last();
                    eks.push(attn.matmul(&ep).add(&ep));
                }
                let next = match eks.len() {
                    0 => ep,
                    1 => eks[0].clone(),
                    n => {
                        let mut acc = eks[0].clone();
                        for ek in &eks[1..] {
                            acc = acc.add(ek);
                        }
                        acc.scale(1.0 / n as f32)
                    }
                };
                per_ex_next.push(next);
                for (j, ek) in eks.into_iter().enumerate() {
                    last_e_ks[j].push(ek);
                }
            }
            e_mat = if n_kg == 0 {
                e_prime.clone()
            } else {
                let refs: Vec<&Var> = per_ex_next.iter().collect();
                g.concat_rows(&refs)
            };
        }
        drop(ph);
        {
            let mut live = false;
            for lay in &included {
                if out[lay.ei].is_none() && deadlines[lay.ei].expired() {
                    fail(&mut out, lay.ei, "attention");
                }
                live |= out[lay.ei].is_none();
            }
            if !live {
                return out.into_iter().map(|o| o.expect("all failed by attention")).collect();
            }
        }

        // ---- Ensemble scoring: S = max(E_k vᵀ, E′ vᵀ) ----
        let ph = bootleg_obs::trace::phase("score", "forward.score_ns");
        let v = g.dense_param(ps, self.score_v); // (H, 1)
        let s_var = if cfg.ensemble_scoring {
            let mut s = e_prime.matmul(&v); // (ΣS, 1)
            for per_ex in &last_e_ks {
                let refs: Vec<&Var> = per_ex.iter().collect();
                let ek = g.concat_rows(&refs); // (ΣS, H)
                s = s.maximum(&ek.matmul(&v));
            }
            s
        } else {
            e_mat.matmul(&v)
        };

        // ---- Per-example unstacking: scores, predictions, losses, reprs ----
        let final_e = e_mat.value();
        for lay in &included {
            if out[lay.ei].is_some() {
                continue;
            }
            let ex = examples[lay.ei];
            let mut dis_loss: Option<Var> = None;
            let mut n_supervised = 0usize;
            let mut scores = Vec::with_capacity(ex.mentions.len());
            let mut predictions = Vec::with_capacity(ex.mentions.len());
            for (mi, m) in ex.mentions.iter().enumerate() {
                let k = m.candidates.len();
                let rows: Vec<u32> = (lay.s_start + lay.offsets[mi]
                    ..lay.s_start + lay.offsets[mi + 1])
                    .map(|r| r as u32)
                    .collect();
                let mention_scores = s_var.select_rows(&rows).reshape(&[1, k]);
                let values = mention_scores.value();
                scores.push(values.data().to_vec());
                predictions.push(values.argmax());
                if opts.build_loss {
                    if let Some(gi) = m.gold {
                        let ce = mention_scores.cross_entropy_rows(&[gi]);
                        n_supervised += 1;
                        dis_loss = Some(match dis_loss {
                            Some(acc) => acc.add(&ce),
                            None => ce,
                        });
                    }
                }
            }
            let loss = match (dis_loss, n_supervised) {
                (Some(lv), n) if n > 0 => {
                    let lv = lv.scale(1.0 / n as f32);
                    Some(match type_losses[lay.ei].take() {
                        Some(tl) => lv.add(&tl),
                        None => lv,
                    })
                }
                _ => None,
            };
            let mention_reprs = predictions
                .iter()
                .enumerate()
                .map(|(mi, &p)| final_e.row(lay.s_start + lay.offsets[mi] + p).to_vec())
                .collect();
            let candidate_reprs = if opts.candidate_reprs {
                ex.mentions
                    .iter()
                    .enumerate()
                    .map(|(mi, m)| {
                        (0..m.candidates.len())
                            .map(|j| final_e.row(lay.s_start + lay.offsets[mi] + j).to_vec())
                            .collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            out[lay.ei] = Some(Ok(ForwardOutput {
                graph: g.clone(),
                loss,
                scores,
                predictions,
                mention_reprs,
                candidate_reprs,
            }));
        }
        drop(ph);

        out.into_iter().map(|o| o.expect("every example resolved")).collect()
    }

    /// Pools every candidate's embedding bag (types or relations) in one
    /// padded ragged pass — bit-identical per row to a per-candidate
    /// `AddAttn::forward` loop for any pad width (see
    /// [`bootleg_nn::AddAttn::pool_ragged`]). Shared by the forward engine and
    /// the entity-repr cache's build kernel.
    pub(crate) fn pool_bags_batched(
        &self,
        g: &Graph,
        cand_entities: &[u32],
        emb: bootleg_tensor::ParamId,
        bags: &[Vec<u32>],
        attn: &bootleg_nn::AddAttn,
    ) -> Var {
        let lens: Vec<usize> = cand_entities.iter().map(|&e| bags[e as usize].len()).collect();
        let t_max = lens.iter().copied().max().unwrap_or(1).max(1);
        let mut flat: Vec<u32> = Vec::with_capacity(cand_entities.len() * t_max);
        for &e in cand_entities {
            let ids = &bags[e as usize];
            flat.extend_from_slice(ids);
            // Pad with the bag's last id: always a valid row, and its
            // softmax weight is exactly zero, so the choice is inert.
            let pad = *ids.last().expect("bags are never empty");
            flat.resize(flat.len() + (t_max - ids.len()), pad);
        }
        let bag = g.gather_rows(&self.params, emb, &flat); // (S·t_max, d)
        attn.pool_ragged(g, &self.params, &bag, &lens, t_max)
    }

    /// Mean word embedding of every candidate's title tokens (App. B) as one
    /// flat gather + ragged segment mean — bit-identical per row to a
    /// per-candidate `mean_rows` loop, since
    /// [`bootleg_tensor::Var::mean_rows_segments`] replays `mean_rows`'
    /// accumulation order within each segment. Shared by the forward engine and
    /// the entity-repr cache's build kernel.
    pub(crate) fn pool_titles_batched(&self, g: &Graph, cand_entities: &[u32]) -> Var {
        let mut lens: Vec<usize> = Vec::with_capacity(cand_entities.len());
        let mut flat: Vec<u32> = Vec::new();
        for &e in cand_entities {
            let ids = &self.entity_titles[e as usize];
            lens.push(ids.len());
            flat.extend_from_slice(ids);
        }
        let rows = g.gather_rows(&self.params, self.word_encoder.emb, &flat); // (Σ|title|, d)
        rows.mean_rows_segments(&lens) // (S, d_model)
    }
}
