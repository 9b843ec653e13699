//! Edge-case behavior of the autograd tape.

use bootleg_tensor::{Graph, ParamStore, Tensor};

#[test]
fn nodes_after_loss_are_ignored() {
    // Ops recorded after the loss node must not corrupt the backward pass.
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
    let loss = x.scale(2.0).sum_all();
    let _later = x.scale(100.0).sum_all(); // recorded after, not part of loss
    g.backward(&loss, &mut ps);
    assert_eq!(x.grad().expect("grad").data(), &[2.0, 2.0]);
}

#[test]
fn disconnected_leaves_get_no_gradient() {
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[1.0]));
    let y = g.leaf(Tensor::from_slice(&[5.0]));
    let loss = x.scale(3.0).sum_all();
    g.backward(&loss, &mut ps);
    assert!(y.grad().is_none(), "disconnected node must have no grad");
}

#[test]
#[should_panic]
fn non_scalar_loss_panics() {
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[1.0, 2.0]));
    g.backward(&x, &mut ps);
}

#[test]
fn diamond_graph_accumulates_once_per_path() {
    // x -> a, x -> b, loss = a + b: dx = da/dx + db/dx.
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[2.0]));
    let a = x.scale(3.0);
    let b = x.mul(&x); // x², d/dx = 2x = 4
    let loss = a.add(&b).sum_all();
    g.backward(&loss, &mut ps);
    assert!((x.grad().expect("grad").data()[0] - 7.0).abs() < 1e-6);
}

#[test]
fn deep_chain_backward_is_linear_not_exponential() {
    // 200 chained ops must backward quickly and correctly: d/dx (x * 1.01^200).
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[1.0]));
    let mut h = x.scale(1.01);
    for _ in 0..199 {
        h = h.scale(1.01);
    }
    let loss = h.sum_all();
    g.backward(&loss, &mut ps);
    let expected = 1.01f32.powi(200);
    let got = x.grad().expect("grad").data()[0];
    assert!((got - expected).abs() / expected < 1e-3, "{got} vs {expected}");
}

#[test]
fn reuse_of_same_var_in_one_op_is_sound() {
    // loss = x ⊙ x summed: grad = 2x even when both operands are the node.
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_slice(&[3.0, -2.0]));
    let loss = x.mul(&x).sum_all();
    g.backward(&loss, &mut ps);
    assert_eq!(x.grad().expect("grad").data(), &[6.0, -4.0]);
}

#[test]
fn empty_graph_reports_empty() {
    let g = Graph::new();
    assert!(g.is_empty());
    assert_eq!(g.len(), 0);
    let _ = g.leaf(Tensor::scalar(1.0));
    assert!(!g.is_empty());
}

#[test]
fn identity_selections_and_inactive_dropout_record_no_node() {
    let mut ps = ParamStore::new();
    let g = Graph::new();
    let x = g.leaf(Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
    let before = g.len();
    let all = x.select_rows(&[0, 1]);
    let one = g.concat_rows(&[&all]);
    let kept = one.dropout(0.5); // inference-mode graph: inactive
    assert_eq!(g.len(), before, "identity ops must not grow the tape");
    assert_eq!(kept.value().data(), x.value().data());
    // Any other selection still copies.
    assert_eq!(x.select_rows(&[1, 0]).value().data(), &[3.0, 4.0, 1.0, 2.0]);
    assert_eq!(g.len(), before + 1);
    // Gradients flow through the identities unchanged.
    let loss = kept.scale(2.0).sum_all();
    g.backward(&loss, &mut ps);
    assert_eq!(x.grad().expect("grad").data(), &[2.0, 2.0, 2.0, 2.0]);
}

#[test]
fn zero_rate_dropout_in_training_records_no_node() {
    let g = Graph::with_mode(true, 7);
    let x = g.leaf(Tensor::from_slice(&[1.0, -2.0, 3.0]));
    let before = g.len();
    let y = x.dropout(0.0);
    assert_eq!(g.len(), before);
    assert_eq!(y.value().data(), &[1.0, -2.0, 3.0]);
    x.dropout(0.5);
    assert_eq!(g.len(), before + 1, "active dropout records its node");
}
