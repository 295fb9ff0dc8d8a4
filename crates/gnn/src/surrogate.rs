//! The full surrogate: graph embedding ⊕ matrix-feature embedding ⊕
//! MCMC-parameter embedding → fused FC stack → (μ̂, σ̂) heads (paper Eq. 1).
//!
//! Training runs on the autodiff tape ([`Surrogate::forward`]). Inference
//! runs through a [`SurrogateHead`] built once per matrix: the same
//! arithmetic in the same order without a tape, so it is bit-identical to
//! the training forward and its back-propagated `x_M` gradients.

use crate::graph_data::MatrixGraph;
use crate::layers::{
    ConvKind, EdgeConvLayer, FrozenMlp, GatV2Layer, GcnLayer, GineLayer, Mlp, MlpActivations,
    PnaLayer,
};
use crate::params::{BoundParams, ParamSet};
use mcmcmi_autodiff::{AggKind, Graph, Tensor, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Architecture hyperparameters (the searchable space of paper §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// Message-passing family.
    pub conv: ConvKind,
    /// Neighbourhood aggregation.
    pub agg: AggKind,
    /// Number of message-passing layers (paper searched 1–4; HPO chose 1).
    pub gnn_layers: usize,
    /// Graph embedding width (HPO chose 256).
    pub gnn_hidden: usize,
    /// FC layers for `x_A` (HPO chose 1).
    pub xa_layers: usize,
    /// Width for the `x_A` stack (HPO chose 64).
    pub xa_hidden: usize,
    /// FC layers for `x_M` (HPO chose 3).
    pub xm_layers: usize,
    /// Width for the `x_M` stack (HPO chose 16).
    pub xm_hidden: usize,
    /// Combined FC layers (HPO chose 2).
    pub comb_layers: usize,
    /// Combined width (HPO chose 128).
    pub comb_hidden: usize,
    /// Dropout probability in the combined stack (searched 0–0.2).
    pub dropout: f64,
    /// Dimensionality of `x_A` (matrix features).
    pub xa_dim: usize,
    /// Dimensionality of `x_M` (α, ε, δ + solver one-hot).
    pub xm_dim: usize,
    /// Parameter-init seed.
    pub seed: u64,
}

impl SurrogateConfig {
    /// The paper's HPO-selected architecture (§4.4).
    pub fn paper(xa_dim: usize, xm_dim: usize) -> Self {
        Self {
            conv: ConvKind::EdgeConv,
            agg: AggKind::Mean,
            gnn_layers: 1,
            gnn_hidden: 256,
            xa_layers: 1,
            xa_hidden: 64,
            xm_layers: 3,
            xm_hidden: 16,
            comb_layers: 2,
            comb_hidden: 128,
            dropout: 0.1,
            xa_dim,
            xm_dim,
            seed: 42,
        }
    }

    /// CPU-friendly preset: same topology, narrower widths.
    pub fn lite(xa_dim: usize, xm_dim: usize) -> Self {
        Self {
            gnn_hidden: 64,
            xa_hidden: 32,
            xm_hidden: 16,
            comb_hidden: 64,
            ..Self::paper(xa_dim, xm_dim)
        }
    }
}

enum ConvStack {
    Edge(Vec<EdgeConvLayer>),
    Gine(Vec<GineLayer>),
    Gcn(Vec<GcnLayer>),
    Gat(Vec<GatV2Layer>),
    Pna(Vec<PnaLayer>),
}

/// The graph neural surrogate model.
pub struct Surrogate {
    cfg: SurrogateConfig,
    params: ParamSet,
    conv: ConvStack,
    xa_mlp: Mlp,
    xm_mlp: Mlp,
    comb_mlp: Mlp,
    head_mu: (usize, usize),
    head_sigma: (usize, usize),
    dropout_rng: ChaCha8Rng,
}

/// Serialisable snapshot of a surrogate (config + weights).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SurrogateSnapshot {
    /// Architecture.
    pub config: SurrogateConfig,
    /// All parameter tensors.
    pub params: ParamSet,
}

impl Surrogate {
    /// Build a freshly initialised surrogate.
    pub fn new(cfg: SurrogateConfig) -> Self {
        assert!(
            cfg.gnn_layers >= 1,
            "Surrogate: need at least one GNN layer"
        );
        let mut ps = ParamSet::new();
        let seed = cfg.seed;
        let conv = match cfg.conv {
            ConvKind::EdgeConv => ConvStack::Edge(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        EdgeConvLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            cfg.agg,
                            seed.wrapping_add(l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::Gine => ConvStack::Gine(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        GineLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(100 + l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::Gcn => ConvStack::Gcn(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        GcnLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(200 + l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::GatV2 => ConvStack::Gat(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        GatV2Layer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(300 + l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::Pna => ConvStack::Pna(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        PnaLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(400 + l as u64),
                        )
                    })
                    .collect(),
            ),
        };
        // FC stacks: [in, hidden × layers].
        let xa_dims: Vec<usize> = std::iter::once(cfg.xa_dim)
            .chain(std::iter::repeat_n(cfg.xa_hidden, cfg.xa_layers))
            .collect();
        let xm_dims: Vec<usize> = std::iter::once(cfg.xm_dim)
            .chain(std::iter::repeat_n(cfg.xm_hidden, cfg.xm_layers))
            .collect();
        let xa_mlp = Mlp::new(&mut ps, "xa", &xa_dims, true, true, seed ^ 0x1111);
        let xm_mlp = Mlp::new(&mut ps, "xm", &xm_dims, true, true, seed ^ 0x2222);
        let comb_in = cfg.gnn_hidden + cfg.xa_hidden + cfg.xm_hidden;
        let comb_dims: Vec<usize> = std::iter::once(comb_in)
            .chain(std::iter::repeat_n(cfg.comb_hidden, cfg.comb_layers))
            .collect();
        let comb_mlp = Mlp::new(&mut ps, "comb", &comb_dims, true, true, seed ^ 0x3333);
        let head_mu = (
            ps.register(
                "head_mu.w",
                mcmcmi_autodiff::xavier_uniform(1, cfg.comb_hidden, seed ^ 0x44),
                true,
            ),
            ps.register("head_mu.b", Tensor::zeros(1, 1), false),
        );
        let head_sigma = (
            ps.register(
                "head_sigma.w",
                mcmcmi_autodiff::xavier_uniform(1, cfg.comb_hidden, seed ^ 0x55),
                true,
            ),
            ps.register("head_sigma.b", Tensor::full(1, 1, -1.0), false),
        );
        Self {
            cfg,
            params: ps,
            conv,
            xa_mlp,
            xm_mlp,
            comb_mlp,
            head_mu,
            head_sigma,
            dropout_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xd20),
        }
    }

    /// Architecture.
    pub fn config(&self) -> &SurrogateConfig {
        &self.cfg
    }

    /// Parameter store (for the optimiser).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable parameter store.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Snapshot for persistence.
    pub fn snapshot(&self) -> SurrogateSnapshot {
        SurrogateSnapshot {
            config: self.cfg,
            params: self.params.clone(),
        }
    }

    /// Restore from a snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot's parameters disagree with the surrogate its
    /// config builds — a different count, or a tensor whose name or shape
    /// differs; the message names the first mismatch (a width change in
    /// the config would otherwise load and fail deep inside a product).
    pub fn from_snapshot(snap: SurrogateSnapshot) -> Self {
        let mut s = Self::new(snap.config);
        let describe = |ps: &ParamSet, i: usize| match (ps.names().get(i), ps.tensors().get(i)) {
            (Some(name), Some(t)) => format!("`{name}` {}×{}", t.rows(), t.cols()),
            _ => "missing".to_string(),
        };
        let n = s.params.len().max(snap.params.len());
        if let Some(i) = (0..n).find(|&i| describe(&s.params, i) != describe(&snap.params, i)) {
            panic!(
                "SurrogateSnapshot: parameter {i} is {}, but the config builds {}",
                describe(&snap.params, i),
                describe(&s.params, i)
            );
        }
        s.params = snap.params;
        s
    }

    /// Graph-side forward: message passing + global mean pool → `1 × H`.
    fn graph_forward(&self, g: &mut Graph, bound: &BoundParams, data: &MatrixGraph) -> Var {
        let mut x = g.leaf(data.node_feat.clone());
        match &self.conv {
            ConvStack::Edge(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Gine(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Gcn(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Gat(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Pna(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
        }
        g.mean_rows(x)
    }

    /// Full forward for a batch of `x_M` rows on one matrix. Returns
    /// `(μ̂, σ̂)` tape nodes, each `B × 1`. This is the training path; the
    /// inference path is [`Surrogate::head`], bit-identical to it.
    ///
    /// `training` enables dropout (masks drawn from the surrogate's own RNG).
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &mut self,
        g: &mut Graph,
        bound: &BoundParams,
        data: &MatrixGraph,
        xa: &[f64],
        xm_batch: Var,
        batch: usize,
        training: bool,
    ) -> (Var, Var) {
        assert_eq!(xa.len(), self.cfg.xa_dim, "forward: xa dimension mismatch");
        let hg_row = self.graph_forward(g, bound, data);
        let hg = g.repeat_rows(hg_row, batch);
        let xa_row = g.leaf(Tensor::row_vector(xa));
        let ha_row = self.xa_mlp.forward(g, bound, xa_row);
        let ha = g.repeat_rows(ha_row, batch);
        let hm = self.xm_mlp.forward(g, bound, xm_batch);
        let cat = g.concat_cols(hg, ha);
        let fused_in = g.concat_cols(cat, hm);
        let mut h = self.comb_mlp.forward(g, bound, fused_in);
        if training && self.cfg.dropout > 0.0 {
            let len = g.value(h).len();
            let p = self.cfg.dropout;
            let mask: Vec<f64> = (0..len)
                .map(|_| {
                    if self.dropout_rng.gen::<f64>() < p {
                        0.0
                    } else {
                        1.0
                    }
                })
                .collect();
            h = g.dropout(h, &mask, p);
        }
        // Heads (Eq. 1): μ̂ = ReLU(Wh + b), σ̂ = softplus(Wh + b).
        let mu_lin = g.linear(h, bound.var(self.head_mu.0), bound.var(self.head_mu.1));
        let mu = g.relu(mu_lin);
        let sg_lin = g.linear(
            h,
            bound.var(self.head_sigma.0),
            bound.var(self.head_sigma.1),
        );
        let sigma = g.softplus(sg_lin);
        (mu, sigma)
    }

    /// Compute the graph embedding `h_g` as a plain tensor (no grads).
    pub fn embed_graph(&self, data: &MatrixGraph) -> Tensor {
        let mut g = Graph::new();
        let bound = self.params.bind(&mut g);
        let hg = self.graph_forward(&mut g, &bound, data);
        g.value(hg).clone()
    }

    /// The inference head for one matrix: its graph embedding `h_g` (from
    /// [`Surrogate::embed_graph`]) and standardised features `x_A` are
    /// folded in once, leaving a function of `x_M` alone.
    ///
    /// # Panics
    /// Panics if `h_g` or `xa` has the wrong width.
    pub fn head(&self, h_g: &Tensor, xa: &[f64]) -> SurrogateHead {
        assert_eq!(
            (h_g.rows(), h_g.cols()),
            (1, self.cfg.gnn_hidden),
            "head: h_g must be 1 × gnn_hidden"
        );
        assert_eq!(xa.len(), self.cfg.xa_dim, "head: xa dimension mismatch");
        let xa_mlp = self.xa_mlp.freeze(&self.params);
        let (h_a, _) = xa_mlp.forward(xa_mlp.prefix(&[]), xa);
        let constant: Vec<f64> = h_g.data().iter().chain(&h_a).copied().collect();
        let comb = self.comb_mlp.freeze(&self.params);
        let head = |(w, b): (usize, usize)| {
            (
                self.params.get(w).data().to_vec(),
                self.params.get(b).scalar(),
            )
        };
        SurrogateHead {
            comb_prefix: comb.prefix(&constant),
            xm: self.xm_mlp.freeze(&self.params),
            comb,
            mu: head(self.head_mu),
            sigma: head(self.head_sigma),
        }
    }
}

/// Tape-free inference for one matrix (see [`Surrogate::head`]): `(μ̂, σ̂)`
/// and their `x_M` gradients — the quantities the EI optimiser evaluates
/// thousands of times per recommendation.
///
/// Bit-identical to [`Surrogate::forward`] + `Graph::backward` at
/// inference (no dropout). The combined stack's layer-0 sums over the
/// constant `[h_g | h_A]` columns are stored once; each call continues
/// them over the `x_M` embedding, in the tape's column order, and the
/// gradients back-propagate only to `x_M`. The solver is part of `x_M`
/// (its one-hot), so one head serves every solver on its matrix.
#[derive(Clone, Debug)]
pub struct SurrogateHead {
    xm: FrozenMlp,
    comb: FrozenMlp,
    comb_prefix: Vec<f64>,
    /// `(w, b)` of the μ̂ head.
    mu: (Vec<f64>, f64),
    /// `(w, b)` of the σ̂ head.
    sigma: (Vec<f64>, f64),
}

/// Affine head `h · w + b`, summed as `Tensor::matmul` does.
fn head_linear(h: &[f64], (w, b): &(Vec<f64>, f64)) -> f64 {
    let mut acc = 0.0;
    for (&hk, &wk) in h.iter().zip(w) {
        if hk != 0.0 {
            acc += hk * wk;
        }
    }
    acc + b
}

/// Softplus as the tape computes it (the σ̂ head).
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else {
        x.exp().ln_1p()
    }
}

impl SurrogateHead {
    /// Forward through the `x_M` and combined stacks: the combined output
    /// `h` plus the activations of both stacks.
    fn hidden(&self, xm: &[f64]) -> (Vec<f64>, MlpActivations, MlpActivations) {
        assert_eq!(xm.len(), self.xm.in_dim(), "SurrogateHead: x_M width");
        let (h_m, xm_acts) = self.xm.forward(self.xm.prefix(&[]), xm);
        let (h, comb_acts) = self.comb.forward(self.comb_prefix.clone(), &h_m);
        (h, xm_acts, comb_acts)
    }

    /// Predict `(μ̂, σ̂)` for one `x_M` (standardised).
    ///
    /// # Panics
    /// Panics if `xm` has the wrong width.
    pub fn predict(&self, xm: &[f64]) -> (f64, f64) {
        let (h, _, _) = self.hidden(xm);
        (
            head_linear(&h, &self.mu).max(0.0),
            softplus(head_linear(&h, &self.sigma)),
        )
    }

    /// Predict with input gradients: returns
    /// `(μ̂, σ̂, ∂μ̂/∂x_M, ∂σ̂/∂x_M)` — the quantities the EI optimiser needs
    /// ("back-propagation supplies the exact gradient", paper §3.2).
    ///
    /// # Panics
    /// Panics if `xm` has the wrong width.
    pub fn predict_grad(&self, xm: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
        let (h, xm_acts, comb_acts) = self.hidden(xm);
        let mu_lin = head_linear(&h, &self.mu);
        let sg_lin = head_linear(&h, &self.sigma);
        // Seeds at the head inputs: ReLU mask for μ̂, sigmoid for σ̂.
        let mu_seed = if mu_lin <= 0.0 { 0.0 } else { 1.0 };
        let sg_seed = if sg_lin > 30.0 {
            1.0
        } else if sg_lin < -30.0 {
            0.0
        } else {
            1.0 / (1.0 + (-sg_lin).exp())
        };
        let to_xm = |seed: f64, w: &[f64]| {
            // The tape's `seed · w` product skips a zero seed and sums from
            // +0 (so a −0 term reads +0).
            let g_h: Vec<f64> = if seed == 0.0 {
                vec![0.0; w.len()]
            } else {
                w.iter().map(|&wk| 0.0 + seed * wk).collect()
            };
            let g_hm = self.comb.input_grad(&comb_acts, g_h, self.xm.out_dim());
            self.xm.input_grad(&xm_acts, g_hm, xm.len())
        };
        (
            mu_lin.max(0.0),
            softplus(sg_lin),
            to_xm(mu_seed, &self.mu.0),
            to_xm(sg_seed, &self.sigma.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_matgen::laplace_1d;
    use rand::Rng;

    fn small_cfg() -> SurrogateConfig {
        SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            ..SurrogateConfig::lite(5, 6)
        }
    }

    fn toy_data() -> MatrixGraph {
        MatrixGraph::from_csr(&laplace_1d(6))
    }

    #[test]
    fn forward_shapes_and_head_ranges() {
        let mut s = Surrogate::new(small_cfg());
        let data = toy_data();
        let xa = [0.1, -0.2, 0.3, 0.0, 1.0];
        let xm = Tensor::from_vec(
            2,
            6,
            vec![
                1.0, 0.5, 0.5, 1.0, 0.0, 0.0, 2.0, 0.25, 0.125, 0.0, 1.0, 0.0,
            ],
        );
        let mut g = Graph::new();
        let bound = s.params.bind(&mut g);
        let xm_var = g.leaf(xm);
        let (mu, sigma) = s.forward(&mut g, &bound, &data, &xa, xm_var, 2, false);
        assert_eq!(g.value(mu).rows(), 2);
        assert_eq!(g.value(sigma).rows(), 2);
        // Heads respect their codomain: μ̂ ≥ 0, σ̂ > 0.
        assert!(g.value(mu).data().iter().all(|&v| v >= 0.0));
        assert!(g.value(sigma).data().iter().all(|&v| v > 0.0));
    }

    /// `(μ̂, σ̂, ∂μ̂/∂x_M, ∂σ̂/∂x_M)` through the training tape: the full
    /// forward from the matrix graph, then one reverse sweep per output.
    fn tape_predict_grad(
        s: &mut Surrogate,
        data: &MatrixGraph,
        xa: &[f64],
        xm: &[f64],
    ) -> (f64, f64, Vec<f64>, Vec<f64>) {
        let mut g = Graph::new();
        let bound = s.params.bind(&mut g);
        let xm_var = g.leaf(Tensor::row_vector(xm));
        let (mu, sigma) = s.forward(&mut g, &bound, data, xa, xm_var, 1, false);
        let dmu = g.backward(mu).get_or_zero(xm_var, 1, xm.len());
        let dsigma = g.backward(sigma).get_or_zero(xm_var, 1, xm.len());
        (
            g.value(mu).scalar(),
            g.value(sigma).scalar(),
            dmu.data().to_vec(),
            dsigma.data().to_vec(),
        )
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn set_param(s: &mut Surrogate, name: &str, value: f64) {
        let i = s.params.names().iter().position(|n| n == name).unwrap();
        s.params_mut().tensors_mut()[i] = Tensor::full(1, 1, value);
    }

    /// The head is the training tape's arithmetic without the tape: for
    /// every conv family, both presets, random `x_M` (one-hot zeros
    /// included), and head biases that clamp μ̂'s ReLU to 0, push σ̂'s
    /// softplus input past ±30, or leave both in their smooth range,
    /// `(μ̂, σ̂, ∂μ̂, ∂σ̂)` agree with forward + backward bit for bit.
    #[test]
    fn head_matches_training_tape_bit_for_bit() {
        let data = toy_data();
        let xa = [0.3, -1.2, 0.0, 2.5, -0.4];
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for conv in [
            ConvKind::EdgeConv,
            ConvKind::Gine,
            ConvKind::Gcn,
            ConvKind::GatV2,
            ConvKind::Pna,
        ] {
            for base in [SurrogateConfig::lite(5, 6), SurrogateConfig::paper(5, 6)] {
                // Smooth-case points where μ̂'s ReLU passes a gradient.
                let mut live = 0;
                // (μ̂ bias, σ̂ bias, what the bias pins)
                for (mu_b, sg_b, case) in [
                    (50.0, -1.0, "smooth"),
                    (-1e3, -1.0, "mu clamped"),
                    (50.0, 1e3, "softplus > 30"),
                    (50.0, -1e3, "softplus < -30"),
                ] {
                    let mut s = Surrogate::new(SurrogateConfig { conv, ..base });
                    set_param(&mut s, "head_mu.b", mu_b);
                    set_param(&mut s, "head_sigma.b", sg_b);
                    let head = s.head(&s.embed_graph(&data), &xa);
                    for p in 0..12 {
                        let mut xm = [0.0; 6];
                        for v in &mut xm[..3] {
                            *v = rng.gen_range(-3.0..3.0);
                        }
                        xm[3 + p % 3] = 1.0;
                        if p == 5 {
                            xm[1] = 0.0;
                        }
                        let want = tape_predict_grad(&mut s, &data, &xa, &xm);
                        let got = head.predict_grad(&xm);
                        let at =
                            format!("{conv:?} gnn_hidden={} {case} x_M={xm:?}", base.gnn_hidden);
                        assert_eq!(got.0.to_bits(), want.0.to_bits(), "μ̂ {at}");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "σ̂ {at}");
                        assert_eq!(bits(&got.2), bits(&want.2), "∂μ̂ {at}");
                        assert_eq!(bits(&got.3), bits(&want.3), "∂σ̂ {at}");
                        let plain = head.predict(&xm);
                        assert_eq!(
                            (plain.0.to_bits(), plain.1.to_bits()),
                            (got.0.to_bits(), got.1.to_bits()),
                            "{at}"
                        );
                        match case {
                            "mu clamped" => assert_eq!(got.0, 0.0, "{at}"),
                            "softplus > 30" => assert!(got.1 > 30.0, "{at}"),
                            "softplus < -30" => assert!(got.3.iter().all(|&d| d == 0.0), "{at}"),
                            _ => live += usize::from(got.2.iter().any(|&d| d != 0.0)),
                        }
                    }
                }
                assert!(live > 0, "{conv:?}: μ̂ clamped at every smooth-case point");
            }
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let s = Surrogate::new(small_cfg());
        let xa = [0.3, -0.1, 0.7, 0.2, 0.9];
        let xm = [1.5, 0.4, 0.3, 1.0, 0.0, 0.0];
        let head = s.head(&s.embed_graph(&toy_data()), &xa);
        let (_, _, dmu, dsigma) = head.predict_grad(&xm);
        let h = 1e-6;
        for k in 0..xm.len() {
            let mut xp = xm;
            xp[k] += h;
            let (mu_p, sg_p) = head.predict(&xp);
            xp[k] -= 2.0 * h;
            let (mu_m, sg_m) = head.predict(&xp);
            let nmu = (mu_p - mu_m) / (2.0 * h);
            let nsg = (sg_p - sg_m) / (2.0 * h);
            assert!((dmu[k] - nmu).abs() < 1e-5, "dmu[{k}]: {} vs {nmu}", dmu[k]);
            assert!(
                (dsigma[k] - nsg).abs() < 1e-5,
                "dsigma[{k}]: {} vs {nsg}",
                dsigma[k]
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let s = Surrogate::new(small_cfg());
        let data = toy_data();
        let xa = [0.0, 0.1, 0.2, 0.3, 0.4];
        let xm = [2.0, 0.25, 0.5, 0.0, 1.0, 0.0];
        let before = s.head(&s.embed_graph(&data), &xa).predict(&xm);
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let snap: SurrogateSnapshot = serde_json::from_str(&json).unwrap();
        let s2 = Surrogate::from_snapshot(snap);
        let after = s2.head(&s2.embed_graph(&data), &xa).predict(&xm);
        assert!((before.0 - after.0).abs() < 1e-12);
        assert!((before.1 - after.1).abs() < 1e-12);
    }

    /// Weights of one architecture under another architecture's config:
    /// same tensor count, different widths. Loading must fail at once and
    /// name the first tensor that disagrees.
    #[test]
    #[should_panic(
        expected = "parameter 0 is `conv0.w0` 8×2, but the config builds `conv0.w0` 16×2"
    )]
    fn from_snapshot_rejects_width_mismatched_weights() {
        let mut snap = Surrogate::new(small_cfg()).snapshot();
        snap.config.gnn_hidden = 16;
        let _ = Surrogate::from_snapshot(snap);
    }

    #[test]
    fn different_graphs_give_different_embeddings() {
        let s = Surrogate::new(small_cfg());
        let d1 = MatrixGraph::from_csr(&laplace_1d(6));
        let d2 = MatrixGraph::from_csr(&mcmcmi_matgen::fd_laplace_2d(4));
        let h1 = s.embed_graph(&d1);
        let h2 = s.embed_graph(&d2);
        assert_ne!(h1, h2);
    }

    #[test]
    fn all_conv_kinds_run() {
        for conv in [
            ConvKind::EdgeConv,
            ConvKind::Gine,
            ConvKind::Gcn,
            ConvKind::GatV2,
            ConvKind::Pna,
        ] {
            let cfg = SurrogateConfig {
                conv,
                ..small_cfg()
            };
            let s = Surrogate::new(cfg);
            let data = toy_data();
            let h = s.embed_graph(&data);
            assert_eq!(h.cols(), 8, "{conv:?}");
            assert!(h.data().iter().all(|v| v.is_finite()), "{conv:?}");
        }
    }

    #[test]
    fn dropout_only_active_in_training_mode() {
        let s = Surrogate::new(SurrogateConfig {
            dropout: 0.5,
            ..small_cfg()
        });
        let data = toy_data();
        let xa = [0.1; 5];
        let xm = [1.0, 0.5, 0.5, 1.0, 0.0, 0.0];
        // Inference is deterministic.
        let head = s.head(&s.embed_graph(&data), &xa);
        assert_eq!(head.predict(&xm), head.predict(&xm));
        // …and matches the tape with dropout off, though the config has it.
        let mut s = s;
        let mut g = Graph::new();
        let bound = s.params.bind(&mut g);
        let xm_var = g.leaf(Tensor::row_vector(&xm));
        let (mu, sigma) = s.forward(&mut g, &bound, &data, &xa, xm_var, 1, false);
        assert_eq!(
            head.predict(&xm),
            (g.value(mu).scalar(), g.value(sigma).scalar())
        );
    }
}
