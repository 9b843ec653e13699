//! Linear projections and small MLPs.

use bootleg_tensor::{init, Graph, ParamId, ParamStore, Var};
use rand::Rng;

/// A dense affine layer `y = xW + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Weight parameter, shape `(d_in, d_out)`.
    pub w: ParamId,
    /// Optional bias, shape `(d_out,)`.
    pub b: Option<ParamId>,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer in `ps`.
    pub fn new<R: Rng>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d_in: usize,
        d_out: usize,
        bias: bool,
    ) -> Self {
        let w = ps.add(format!("{name}.w"), init::xavier_uniform(rng, d_in, d_out));
        let b = bias.then(|| ps.add(format!("{name}.b"), bootleg_tensor::Tensor::zeros(&[d_out])));
        Self { w, b }
    }

    /// Applies the layer to `x` of shape `(…, d_in)`.
    pub fn forward(&self, g: &Graph, ps: &ParamStore, x: &Var) -> Var {
        let w = g.dense_param(ps, self.w);
        let y = x.matmul(&w);
        match self.b {
            Some(b) => y.add_bias(&g.dense_param(ps, b)),
            None => y,
        }
    }

    /// Input width.
    pub fn d_in(&self, ps: &ParamStore) -> usize {
        ps.get(self.w).data.shape()[0]
    }

    /// Output width.
    pub fn d_out(&self, ps: &ParamStore) -> usize {
        ps.get(self.w).data.shape()[1]
    }
}

/// A two-layer perceptron with GELU: `y = W2 · gelu(W1 x + b1) + b2`.
///
/// Bootleg uses this as the candidate projection
/// `e = MLP([uₑ, tₑ, rₑ])` (§3.1).
#[derive(Debug, Clone, Copy)]
pub struct Mlp {
    /// First projection.
    pub fc1: Linear,
    /// Second projection.
    pub fc2: Linear,
    /// Dropout applied after the activation.
    pub dropout: f32,
}

impl Mlp {
    /// Registers a two-layer MLP `d_in -> d_hidden -> d_out`.
    pub fn new<R: Rng>(
        ps: &mut ParamStore,
        rng: &mut R,
        name: &str,
        d_in: usize,
        d_hidden: usize,
        d_out: usize,
        dropout: f32,
    ) -> Self {
        Self {
            fc1: Linear::new(ps, rng, &format!("{name}.fc1"), d_in, d_hidden, true),
            fc2: Linear::new(ps, rng, &format!("{name}.fc2"), d_hidden, d_out, true),
            dropout,
        }
    }

    /// Applies the MLP to `x` of shape `(…, d_in)`; dropout draws from the
    /// graph's RNG stream 0.
    pub fn forward(&self, g: &Graph, ps: &ParamStore, x: &Var) -> Var {
        let h = self.fc1.forward(g, ps, x).gelu().dropout(self.dropout);
        self.fc2.forward(g, ps, &h)
    }

    /// Applies the MLP to the row-stacked `(Σrows, d_in)` matrix of several
    /// examples: row span `i` draws its dropout mask from RNG stream `i`
    /// (see [`Var::dropout_spans`]).
    pub fn forward_ragged(
        &self,
        g: &Graph,
        ps: &ParamStore,
        x: &Var,
        spans: &[(usize, usize)],
    ) -> Var {
        let h = self.fc1.forward(g, ps, x).gelu().dropout_spans(self.dropout, spans);
        self.fc2.forward(g, ps, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bootleg_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut ps, &mut rng, "l", 4, 3, true);
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[5, 4]));
        let y = lin.forward(&g, &ps, &x);
        assert_eq!(y.shape(), vec![5, 3]);
        assert_eq!(lin.d_in(&ps), 4);
        assert_eq!(lin.d_out(&ps), 3);
    }

    #[test]
    fn linear_no_bias_is_pure_matmul() {
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut ps, &mut rng, "l", 2, 2, false);
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[1, 2]));
        let y = lin.forward(&g, &ps, &x);
        assert_eq!(y.value().data(), &[0.0, 0.0]);
    }

    #[test]
    fn mlp_trains_toward_target() {
        // One gradient step must reduce the loss of a tiny regression task.
        let mut ps = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut ps, &mut rng, "m", 3, 8, 2, 0.0);
        let xs = Tensor::from_rows(&[vec![1.0, 0.0, -1.0], vec![0.5, 2.0, 0.0]]);
        let loss_of = |ps: &mut ParamStore| {
            let g = Graph::new();
            let x = g.leaf(xs.clone());
            let y = mlp.forward(&g, ps, &x);
            let target = g.leaf(Tensor::from_rows(&[vec![1.0, -1.0], vec![0.0, 2.0]]));
            let d = y.sub(&target);
            let loss = d.mul(&d).mean_all();
            (g, loss)
        };
        let (g, l0) = loss_of(&mut ps);
        let before = l0.value().item();
        g.backward(&l0, &mut ps);
        // plain SGD step
        let updates: Vec<(bootleg_tensor::ParamId, Tensor)> =
            ps.iter().map(|(id, p)| (id, p.grad.clone())).collect();
        for (id, grad) in updates {
            let p = ps.get_mut(id);
            for (w, g) in p.data.data_mut().iter_mut().zip(grad.data()) {
                *w -= 0.1 * g;
            }
        }
        ps.zero_grad();
        let (_, l1) = loss_of(&mut ps);
        assert!(l1.value().item() < before, "loss should decrease");
    }
}
