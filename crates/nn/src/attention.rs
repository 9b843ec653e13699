//! Multi-head attention blocks and additive attention pooling.

use crate::linear::Linear;
use crate::norm::LayerNorm;
use bootleg_tensor::{arena, Graph, ParamStore, Tensor, Var};
use rand::Rng;

/// The paper's "standard multi-headed attention with a feed-forward layer and
/// skip connections" (§3.2). With `kv = None` it is self-attention (Ent2Ent);
/// with `kv = Some(w)` it is cross-attention from entities to words
/// (Phrase2Ent).
#[derive(Debug, Clone, Copy)]
pub struct MhaBlock {
    n_heads: usize,
    d_head: usize,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    ln1: LayerNorm,
    ffn1: Linear,
    ffn2: Linear,
    ln2: LayerNorm,
    dropout: f32,
}

impl MhaBlock {
    /// Registers a block over hidden width `d` with `n_heads` heads and a
    /// feed-forward expansion of `ffn_mult`.
    pub fn new<R: Rng>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d: usize,
        n_heads: usize,
        ffn_mult: usize,
        dropout: f32,
    ) -> Self {
        assert_eq!(d % n_heads, 0, "hidden dim {d} not divisible by heads {n_heads}");
        Self {
            n_heads,
            d_head: d / n_heads,
            wq: Linear::new(ps, rng, &format!("{name}.wq"), d, d, false),
            wk: Linear::new(ps, rng, &format!("{name}.wk"), d, d, false),
            wv: Linear::new(ps, rng, &format!("{name}.wv"), d, d, false),
            wo: Linear::new(ps, rng, &format!("{name}.wo"), d, d, true),
            ln1: LayerNorm::new(ps, &format!("{name}.ln1"), d),
            ffn1: Linear::new(ps, rng, &format!("{name}.ffn1"), d, d * ffn_mult, true),
            ffn2: Linear::new(ps, rng, &format!("{name}.ffn2"), d * ffn_mult, d, true),
            ln2: LayerNorm::new(ps, &format!("{name}.ln2"), d),
            dropout,
        }
    }

    /// Forward over B sequences stacked by rows. `x` is the
    /// row-concatenation of B per-sequence `(S_i, d)` matrices and `kv` (if
    /// given) the concatenation of the matching `(N_i, d)` key/value
    /// matrices; `q_spans[i]` / `kv_spans[i]` are each sequence's contiguous
    /// `(start, len)` row ranges. A single sequence passes one span covering
    /// all of its rows.
    ///
    /// The projections, output head, FFN and both LayerNorms are row-wise,
    /// so they run once on the tall concatenated matrices; only the
    /// attention core (scores / softmax / context) runs per sequence, on row
    /// slices, which keeps cross-sequence attention impossible. At
    /// inference every row of the result is bit-identical to running its
    /// sequence alone: row-wise kernels accumulate per row regardless of how
    /// rows are stacked, and the per-sequence core replays the same op
    /// sequence on bitwise-equal inputs.
    ///
    /// In a training-mode graph sequence `i` draws every dropout mask from
    /// the graph's RNG stream `i`, in a fixed order — its attention weights,
    /// its output-head rows, its FFN rows — so its masks are the ones it
    /// would draw alone. That order is part of the training numerics pinned
    /// by the forward oracle (`tests/forward_oracle.rs`).
    pub fn forward_ragged(
        &self,
        g: &Graph,
        ps: &ParamStore,
        x: &Var,
        kv: Option<&Var>,
        q_spans: &[(usize, usize)],
        kv_spans: &[(usize, usize)],
    ) -> Var {
        assert_eq!(q_spans.len(), kv_spans.len(), "one kv span per query span");
        assert!(!q_spans.is_empty(), "ragged attention needs at least one example");
        let d = self.n_heads * self.d_head;
        let kv_var = kv.unwrap_or(x);

        // One tall projection each for Q/K/V over every example's rows.
        let _sp = bootleg_obs::span!("mha_proj");
        let q_full = self.wq.forward(g, ps, x);
        let k_full = self.wk.forward(g, ps, kv_var);
        let v_full = self.wv.forward(g, ps, kv_var);
        drop(_sp);
        let _sc = bootleg_obs::span!("mha_cores");
        let scale = 1.0 / (self.d_head as f32).sqrt();
        let mut ctx_parts: Vec<Var> = Vec::with_capacity(q_spans.len());
        for (i, (&(qs, ql), &(ks, kl))) in q_spans.iter().zip(kv_spans).enumerate() {
            let q_rows: Vec<u32> = (qs..qs + ql).map(|r| r as u32).collect();
            let kv_rows: Vec<u32> = (ks..ks + kl).map(|r| r as u32).collect();
            let q = q_full
                .select_rows(&q_rows)
                .reshape(&[ql, self.n_heads, self.d_head])
                .swap_axes01();
            let k = k_full
                .select_rows(&kv_rows)
                .reshape(&[kl, self.n_heads, self.d_head])
                .swap_axes01();
            let v = v_full
                .select_rows(&kv_rows)
                .reshape(&[kl, self.n_heads, self.d_head])
                .swap_axes01();
            let attn = q
                .batch_matmul(&k.transpose_last2())
                .scale(scale)
                .softmax_last()
                .dropout_from(self.dropout, i);
            ctx_parts.push(attn.batch_matmul(&v).swap_axes01().reshape(&[ql, d]));
        }
        drop(_sc);
        let _sm = bootleg_obs::span!("mha_merge");
        let refs: Vec<&Var> = ctx_parts.iter().collect();
        let merged = g.concat_rows(&refs);

        let out = self.wo.forward(g, ps, &merged).dropout_spans(self.dropout, q_spans);

        // Residual + LN, then FFN residual + LN.
        let h = self.ln1.forward(g, ps, &x.add(&out));
        let f = self
            .ffn2
            .forward(g, ps, &self.ffn1.forward(g, ps, &h).gelu())
            .dropout_spans(self.dropout, q_spans);
        self.ln2.forward(g, ps, &h.add(&f))
    }
}

/// Bahdanau additive attention pooling a bag `(T, d_in)` into `(1, d_in)`:
/// `score_i = vᵀ tanh(W xᵢ)`, `out = Σ softmax(score)_i · xᵢ` (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct AddAttn {
    proj: Linear,
    score: Linear,
}

impl AddAttn {
    /// Registers additive attention with an internal width `d_att`.
    pub fn new<R: Rng>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d_in: usize,
        d_att: usize,
    ) -> Self {
        Self {
            proj: Linear::new(ps, rng, &format!("{name}.proj"), d_in, d_att, true),
            score: Linear::new(ps, rng, &format!("{name}.score"), d_att, 1, false),
        }
    }

    /// Pools `bag` of shape `(T, d_in)` into `(1, d_in)`.
    pub fn forward(&self, g: &Graph, ps: &ParamStore, bag: &Var) -> Var {
        let t = bag.shape()[0];
        let scores = self.score.forward(g, ps, &self.proj.forward(g, ps, bag).tanh_()); // (T,1)
        let weights = scores.reshape(&[1, t]).softmax_last(); // (1,T)
        weights.matmul(bag) // (1, d_in)
    }

    /// Pools C padded bags at once: `bag` is `(C·t_max, d_in)` where bag `c`
    /// occupies rows `c·t_max .. (c+1)·t_max` with its `lens[c]` real rows
    /// first and finite padding rows after them. Returns `(C, d_in)`.
    ///
    /// Padding rows are neutralized with a `-inf` additive mask before the
    /// softmax: `exp(-inf) = +0.0` exactly, and the pads sit *after* the
    /// real entries, so the softmax's left-to-right sum is unchanged. In the
    /// weighted sum each output element is one fused chain over the bag
    /// rows, ascending; the pads append `fma(+0.0, v, acc)` terms at its
    /// end. For a finite pad value `v` the product is `±0`, which leaves a
    /// nonzero accumulator unchanged, and a zero accumulator is `+0.0` (a
    /// chain started from a zeroed output cannot reach `-0.0`), which
    /// `+0.0 + ±0` keeps. So row `c` of the result is bit-identical to
    /// [`AddAttn::forward`] on the unpadded bag, provided the padding rows
    /// are finite (callers pad with a copy of a real row).
    pub fn pool_ragged(
        &self,
        g: &Graph,
        ps: &ParamStore,
        bag: &Var,
        lens: &[usize],
        t_max: usize,
    ) -> Var {
        let c = lens.len();
        let d_in = bag.shape()[1];
        assert_eq!(bag.shape()[0], c * t_max, "bag must have C·t_max rows");
        let scores = self.score.forward(g, ps, &self.proj.forward(g, ps, bag).tanh_()); // (C·t_max, 1)
        let mut mask = arena::take_zeroed(c * t_max);
        for (mrow, &len) in mask.chunks_exact_mut(t_max).zip(lens) {
            debug_assert!(len >= 1 && len <= t_max, "bag length {len} outside 1..={t_max}");
            for m in &mut mrow[len..] {
                *m = f32::NEG_INFINITY;
            }
        }
        let mask = g.leaf(Tensor::new([c, t_max], mask));
        let weights = scores.reshape(&[c, t_max]).add(&mask).softmax_last(); // (C, t_max)
        weights
            .reshape(&[c, 1, t_max])
            .batch_matmul(&bag.reshape(&[c, t_max, d_in])) // (C, 1, d_in)
            .reshape(&[c, d_in])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_tensor::{init, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mha_self_attention_shape() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 2, 2, 0.0);
        let g = Graph::new();
        let x = g.leaf(init::normal(&mut rng, &[5, 8], 1.0));
        let y = blk.forward_ragged(&g, &ps, &x, None, &[(0, 5)], &[(0, 5)]);
        assert_eq!(y.shape(), vec![5, 8]);
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn mha_cross_attention_shape() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 4, 2, 0.0);
        let g = Graph::new();
        let x = g.leaf(init::normal(&mut rng, &[3, 8], 1.0));
        let kv = g.leaf(init::normal(&mut rng, &[7, 8], 1.0));
        let y = blk.forward_ragged(&g, &ps, &x, Some(&kv), &[(0, 3)], &[(0, 7)]);
        assert_eq!(y.shape(), vec![3, 8]);
    }

    #[test]
    fn mha_gradients_flow_to_all_params() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 2, 2, 0.0);
        let g = Graph::new();
        let x = g.leaf(init::normal(&mut rng, &[4, 8], 1.0));
        let loss = blk.forward_ragged(&g, &ps, &x, None, &[(0, 4)], &[(0, 4)]).sum_all();
        g.backward(&loss, &mut ps);
        for (_, p) in ps.iter() {
            assert!(p.dense_touched, "param {} got no gradient", p.name);
        }
    }

    #[test]
    fn add_attn_is_convex_combination() {
        // With one bag item, output must equal the item.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let attn = AddAttn::new(&mut ps, &mut rng, "a", 4, 6);
        let g = Graph::new();
        let bag = g.leaf(Tensor::from_rows(&[vec![1.0, -2.0, 0.5, 3.0]]));
        let out = attn.forward(&g, &ps, &bag).value();
        for (o, e) in out.data().iter().zip(&[1.0, -2.0, 0.5, 3.0]) {
            assert!((o - e).abs() < 1e-5);
        }
    }

    /// Padding a bag after its real rows (with copies of its last row, as
    /// the ragged engine does) must not change a single bit of its pooled
    /// row, for every pad width 0–8. The bags mix signs and exact zeros so
    /// the pads' products include `-0.0`.
    #[test]
    fn pool_ragged_matches_forward_bitwise() {
        let d = 6;
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let attn = AddAttn::new(&mut ps, &mut rng, "a", d, 5);
        let mut bags: Vec<Tensor> =
            [1, 3, 2, 5, 4].iter().map(|&t| init::normal(&mut rng, &[t, d], 1.0)).collect();
        bags[1].row_mut(2)[..3].copy_from_slice(&[0.0, -0.0, -1.0]);
        bags[3].row_mut(4).fill(-0.5);
        let lens: Vec<usize> = bags.iter().map(|b| b.shape()[0]).collect();
        let g = Graph::new();
        let want: Vec<Tensor> =
            bags.iter().map(|b| attn.forward(&g, &ps, &g.leaf(b.clone())).value()).collect();
        let longest = *lens.iter().max().unwrap();
        for pad in 0..=8 {
            let t_max = longest + pad;
            let mut rows = Vec::new();
            for b in &bags {
                let t = b.shape()[0];
                rows.extend((0..t_max).map(|r| b.row(r.min(t - 1)).to_vec()));
            }
            let padded = g.leaf(Tensor::from_rows(&rows));
            let got = attn.pool_ragged(&g, &ps, &padded, &lens, t_max).value();
            for (c, w) in want.iter().enumerate() {
                for (j, (x, y)) in got.row(c).iter().zip(w.data()).enumerate() {
                    let at = format!("pad {pad}, bag {c}, coord {j}");
                    assert_eq!(x.to_bits(), y.to_bits(), "{at}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn add_attn_output_within_bag_hull_bounds() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let attn = AddAttn::new(&mut ps, &mut rng, "a", 3, 5);
        let g = Graph::new();
        let bag = g.leaf(Tensor::from_rows(&[
            vec![0.0, 1.0, -1.0],
            vec![2.0, 3.0, 1.0],
            vec![-1.0, 0.0, 0.0],
        ]));
        let out = attn.forward(&g, &ps, &bag).value();
        // Each coordinate lies within the min/max of the bag coordinates.
        for j in 0..3 {
            let col: Vec<f32> = (0..3).map(|i| bag.value().at2(i, j)).collect();
            let (mn, mx) = (col.iter().cloned().fold(f32::INFINITY, f32::min),
                            col.iter().cloned().fold(f32::NEG_INFINITY, f32::max));
            let v = out.data()[j];
            assert!(v >= mn - 1e-4 && v <= mx + 1e-4, "coord {j}: {v} not in [{mn},{mx}]");
        }
    }
}
