//! Finite-difference parameter-gradient checks through whole layers — the
//! strongest correctness evidence for the composed forward/backward paths.

use bootleg_nn::encoder::WordEncoderConfig;
use bootleg_nn::{AddAttn, MhaBlock, Mlp, WordEncoder};
use bootleg_tensor::gradcheck::{assert_no_mismatch, check_param_grads};
use bootleg_tensor::{init, ParamStore, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 5e-2;

#[test]
fn mlp_param_grads() {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let mlp = Mlp::new(&mut ps, &mut rng, "m", 4, 6, 3, 0.0);
    let x = init::normal(&mut rng, &[3, 4], 0.8);
    let mm = check_param_grads(
        &mut ps,
        |g, s| {
            let xv = g.leaf(x.clone());
            weighted(g, &mlp.forward(g, s, &xv))
        },
        TOL,
        24,
    );
    assert_no_mismatch(&mm);
}

#[test]
fn mha_block_param_grads_self_attention() {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 2, 2, 0.0);
    let x = init::normal(&mut rng, &[4, 8], 0.6);
    let mm = check_param_grads(
        &mut ps,
        |g, s| {
            let xv = g.leaf(x.clone());
            weighted(g, &blk.forward_ragged(g, s, &xv, None, &[(0, 4)], &[(0, 4)]))
        },
        TOL,
        16,
    );
    assert_no_mismatch(&mm);
}

#[test]
fn mha_block_param_grads_cross_attention() {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let blk = MhaBlock::new(&mut ps, &mut rng, "b", 8, 4, 2, 0.0);
    let x = init::normal(&mut rng, &[3, 8], 0.6);
    let kv = init::normal(&mut rng, &[5, 8], 0.6);
    let mm = check_param_grads(
        &mut ps,
        |g, s| {
            let xv = g.leaf(x.clone());
            let kvv = g.leaf(kv.clone());
            weighted(g, &blk.forward_ragged(g, s, &xv, Some(&kvv), &[(0, 3)], &[(0, 5)]))
        },
        TOL,
        16,
    );
    assert_no_mismatch(&mm);
}

#[test]
fn add_attn_param_grads() {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(4);
    let attn = AddAttn::new(&mut ps, &mut rng, "a", 5, 7);
    let bag = init::normal(&mut rng, &[4, 5], 0.9);
    let mm = check_param_grads(
        &mut ps,
        |g, s| {
            let b = g.leaf(bag.clone());
            weighted(g, &attn.forward(g, s, &b))
        },
        TOL,
        32,
    );
    assert_no_mismatch(&mm);
}

#[test]
fn word_encoder_param_grads() {
    let mut ps = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let cfg = WordEncoderConfig { vocab: 12, d_model: 8, n_layers: 1, n_heads: 2, max_len: 8, dropout: 0.0 };
    let enc = WordEncoder::new(&mut ps, &mut rng, "e", cfg);
    let mm = check_param_grads(
        &mut ps,
        |g, s| weighted(g, &enc.forward_batch(g, s, &[&[1, 5, 9, 3]]).0),
        TOL,
        16,
    );
    assert_no_mismatch(&mm);
}

/// Asymmetric scalar reduction keeping all gradient paths alive.
fn weighted(g: &bootleg_tensor::Graph, v: &bootleg_tensor::Var) -> bootleg_tensor::Var {
    let shape = v.shape();
    let n: usize = shape.iter().product();
    let w: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin() + 0.15).collect();
    v.mul(&g.leaf(Tensor::new(shape, w))).sum_all()
}
