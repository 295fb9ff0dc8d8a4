//! Adapter exposing the GNN surrogate to the Bayesian optimiser.
//!
//! The optimiser works in the *physical* (α, ε, δ) space; the surrogate
//! consumes standardised 6-vectors `[α, ε, δ, onehot(solver)]`. This adapter
//! borrows the matrix's tape-free [`SurrogateHead`] (graph embedding and
//! `x_A` already folded in, so each EI evaluation runs only the `x_M` and
//! combined stacks), owns the standardiser view, and applies the chain rule
//! (`∂/∂raw = ∂/∂std / σ_col`) so gradients arrive in physical coordinates.

use mcmcmi_bayesopt::SurrogateModel;
use mcmcmi_gnn::SurrogateHead;
use mcmcmi_krylov::SolverType;
use mcmcmi_stats::Standardizer;

/// Physical-space view of the trained surrogate for one (matrix, solver).
pub struct GnnSurrogateAdapter<'a> {
    head: &'a SurrogateHead,
    xm_std: &'a Standardizer,
    solver: SolverType,
    /// `∂z/∂x` of the standardiser per `(α, ε, δ)` column.
    inv_scale: [f64; 3],
}

impl<'a> GnnSurrogateAdapter<'a> {
    /// Wrap a matrix's inference head (built from standardised `x_A`) for
    /// one solver; `xm_std` is the 6-dim standardiser fitted on the
    /// training dataset.
    pub fn new(head: &'a SurrogateHead, xm_std: &'a Standardizer, solver: SolverType) -> Self {
        assert_eq!(
            xm_std.dim(),
            6,
            "GnnSurrogateAdapter: expected 6-dim x_M standardiser"
        );
        // Recover the per-column scale from the standardiser by
        // transforming two probe points (avoids exposing internals).
        let probe0 = xm_std.transform(&[0.0; 6]);
        let probe1 = xm_std.transform(&[1.0; 6]);
        let inv_scale = std::array::from_fn(|i| probe1[i] - probe0[i]);
        Self {
            head,
            xm_std,
            solver,
            inv_scale,
        }
    }

    fn std6(&self, x: &[f64]) -> Vec<f64> {
        let mut v = x.to_vec();
        v.extend_from_slice(&self.solver.one_hot());
        self.xm_std.transform(&v)
    }
}

impl SurrogateModel for GnnSurrogateAdapter<'_> {
    fn dim(&self) -> usize {
        3
    }

    fn predict(&mut self, x: &[f64]) -> (f64, f64) {
        assert_eq!(
            x.len(),
            3,
            "GnnSurrogateAdapter::predict: expected (α, ε, δ)"
        );
        self.head.predict(&self.std6(x))
    }

    fn predict_grad(&mut self, x: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
        assert_eq!(
            x.len(),
            3,
            "GnnSurrogateAdapter::predict_grad: expected (α, ε, δ)"
        );
        let (mu, sigma, dmu6, dsg6) = self.head.predict_grad(&self.std6(x));
        // Chain rule through z = (x − m)/s: ∂f/∂x_i = ∂f/∂z_i / s_i.
        let dmu = (0..3).map(|i| dmu6[i] * self.inv_scale[i]).collect();
        let dsigma = (0..3).map(|i| dsg6[i] * self.inv_scale[i]).collect();
        (mu, sigma, dmu, dsigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_gnn::{MatrixGraph, Surrogate, SurrogateConfig};
    use mcmcmi_matgen::laplace_1d;

    fn setup() -> (SurrogateHead, Standardizer) {
        let s = Surrogate::new(SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            dropout: 0.0,
            ..SurrogateConfig::lite(3, 6)
        });
        let data = MatrixGraph::from_csr(&laplace_1d(6));
        let head = s.head(&s.embed_graph(&data), &[0.1, -0.2, 0.3]);
        // A standardiser with non-trivial scales.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|k| {
                let t = k as f64 / 19.0;
                vec![
                    1.0 + 4.0 * t,
                    0.1 + 0.8 * t,
                    0.05 + 0.9 * t,
                    1.0 - t,
                    t,
                    0.0,
                ]
            })
            .collect();
        let xm_std = Standardizer::fit(&rows);
        (head, xm_std)
    }

    #[test]
    fn predict_outputs_valid_gaussian_params() {
        let (head, xm_std) = setup();
        let mut ad = GnnSurrogateAdapter::new(&head, &xm_std, SolverType::Gmres);
        let (mu, sigma) = ad.predict(&[2.0, 0.25, 0.25]);
        assert!(mu >= 0.0);
        assert!(sigma > 0.0);
        assert_eq!(ad.dim(), 3);
    }

    #[test]
    fn physical_gradients_match_finite_differences() {
        let (head, xm_std) = setup();
        let mut ad = GnnSurrogateAdapter::new(&head, &xm_std, SolverType::Gmres);
        let x = [2.0, 0.3, 0.4];
        let (_, _, dmu, dsg) = ad.predict_grad(&x);
        let h = 1e-6;
        for k in 0..3 {
            let mut xp = x;
            xp[k] += h;
            let (mp, sp) = ad.predict(&xp);
            xp[k] -= 2.0 * h;
            let (mm, sm) = ad.predict(&xp);
            let nmu = (mp - mm) / (2.0 * h);
            let nsg = (sp - sm) / (2.0 * h);
            assert!((dmu[k] - nmu).abs() < 1e-5, "dmu[{k}] {} vs {nmu}", dmu[k]);
            assert!((dsg[k] - nsg).abs() < 1e-5, "dsg[{k}] {} vs {nsg}", dsg[k]);
        }
    }

    #[test]
    fn solver_choice_changes_predictions() {
        let (head, xm_std) = setup();
        let x = [2.0, 0.25, 0.25];
        let p_gmres = GnnSurrogateAdapter::new(&head, &xm_std, SolverType::Gmres).predict(&x);
        let p_bicg = GnnSurrogateAdapter::new(&head, &xm_std, SolverType::BiCgStab).predict(&x);
        assert_ne!(p_gmres, p_bicg);
    }
}
