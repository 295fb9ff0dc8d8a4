//! The benchmark's own answer check: it trusts no convergence flag and no
//! residual the program reports, and recomputes `‖b − A·x‖ / ‖b‖` with the
//! plain serial `Csr::spmv` on the returned `x`.

use mcmcmi_krylov::SolveResult;
use mcmcmi_sparse::Csr;
use std::collections::BTreeMap;

/// An answer passes when its recomputed relative residual is at most this
/// multiple of the requested tolerance.
pub const CHECK_FACTOR: f64 = 10.0;

/// Recomputed relative residual `‖b − A·x‖₂ / ‖b‖₂` (`‖b − A·x‖₂` when
/// `b = 0`; infinite when `x` has the wrong length).
pub fn rel_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != a.ncols() || b.len() != a.nrows() {
        return f64::INFINITY;
    }
    let mut ax = vec![0.0; a.nrows()];
    a.spmv(x, &mut ax);
    let r: f64 = b
        .iter()
        .zip(&ax)
        .map(|(bi, ai)| (bi - ai) * (bi - ai))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if bn > 0.0 {
        r / bn
    } else {
        r
    }
}

/// Answers checked and failures by label.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub by_label: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Check one solver result against `(a, b)` at tolerance `tol`. A failed
    /// answer is filed under its structured failure label; an answer the
    /// program called converged that fails the check is `unverified` and
    /// also reported in `problems`. Returns whether the answer passed.
    pub fn solve(
        &mut self,
        what: &str,
        a: &Csr,
        b: &[f64],
        tol: f64,
        res: &SolveResult,
        problems: &mut Vec<String>,
    ) -> bool {
        let label = res.failure().map(|f| f.label());
        self.answer(what, a, b, tol, &res.x, res.converged, label, problems)
    }

    /// Check a bare answer `x`. `claimed` is the program's convergence
    /// claim; `label` its structured failure label, when it gave one.
    #[allow(clippy::too_many_arguments)]
    pub fn answer(
        &mut self,
        what: &str,
        a: &Csr,
        b: &[f64],
        tol: f64,
        x: &[f64],
        claimed: bool,
        label: Option<&'static str>,
        problems: &mut Vec<String>,
    ) -> bool {
        self.attempted += 1;
        let rel = rel_residual(a, x, b);
        if rel.is_finite() && rel <= CHECK_FACTOR * tol {
            return true;
        }
        let label = if claimed {
            problems.push(format!(
                "{what}: reported converged but ‖b−Ax‖/‖b‖ = {rel:.3e} > {CHECK_FACTOR}·tol"
            ));
            "unverified"
        } else {
            label.unwrap_or("not-converged")
        };
        self.fail(label);
        false
    }

    /// Count a request that produced no answer.
    pub fn reject(&mut self) {
        self.attempted += 1;
        self.fail("rejected");
    }

    fn fail(&mut self, label: &'static str) {
        self.failed += 1;
        *self.by_label.entry(label).or_insert(0) += 1;
    }

    /// Add another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (l, c) in &other.by_label {
            *self.by_label.entry(l).or_insert(0) += c;
        }
    }

    /// Failure counts in [`crate::FAILURE_LABELS`] order.
    pub fn label_counts(&self) -> Vec<u64> {
        crate::FAILURE_LABELS
            .iter()
            .map(|l| self.by_label.get(l).copied().unwrap_or(0))
            .collect()
    }

    /// Insert `krylov.failed.<label>` for every label.
    pub fn insert_metrics(&self, m: &mut BTreeMap<String, f64>) {
        for (l, c) in crate::FAILURE_LABELS.iter().zip(self.label_counts()) {
            m.insert(format!("krylov.failed.{l}"), c as f64);
        }
    }
}
