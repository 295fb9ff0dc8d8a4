//! The Ulam–von Neumann random-walk engine.
//!
//! Estimates rows of `M = (I − C)⁻¹ = Σ_k C^k` by running independent Markov
//! chains with MAO (Monte-Carlo-almost-optimal) transition probabilities
//! `p_ij = |c_ij| / Σ_l |c_il|`. Each visited state `k_m` contributes the
//! current weight `W_m` to entry `(i, k_m)`; on transition `k → j` the weight
//! is multiplied by `c_kj / p_kj = sign(c_kj)·S_k`, with `S_k` the row
//! absolute sum. Chains stop when `|W| < δ`, on absorption (`S_k = 0`), or at
//! a hard step cap.
//!
//! # Transition sampling: Walker/Vose alias tables
//!
//! Every transition draws from the *fixed* discrete distribution of its
//! current row, so the classic repeated-sampling optimisation applies:
//! [`WalkMatrix::from_perturbed`] precomputes a Walker/Vose **alias table**
//! per row (O(nnz) once), and [`WalkMatrix::sample_transition`] then costs
//! O(1) — a single 64-bit draw is split into a slot index (high bits,
//! multiply-shift) and a 32-bit fixed-point coin flip (low bits) against
//! the slot's cutoff, replacing the O(log nnz_row) binary search of
//! inverse-CDF sampling. Slots are packed to 12 bytes (cutoff, donor,
//! column+sign) so a transition resolves in one or two cache-line touches
//! with no floating-point arithmetic.
//!
//! Alias construction (Vose's stable variant): scale the row's MAO
//! probabilities by the row length `m` so they average 1, split the entries
//! into a "small" (< 1) and "large" (≥ 1) worklist, and repeatedly pair one
//! small entry with one large donor — the small entry's slot keeps its own
//! probability as the cutoff and records the donor as its alias; the donor's
//! residual mass is pushed back onto the appropriate worklist. Leftovers get
//! cutoff 1 (no alias ever taken). Construction is branch-deterministic:
//! worklists are filled in ascending index order, so the table — and hence
//! every sampled stream — is identical on every run.
//!
//! # Determinism contract
//!
//! Sampling consumes exactly **one** 64-bit word from the per-chain ChaCha
//! stream per transition, and the stream is keyed by `(seed, row, chain)`
//! only. The result of a build is therefore bit-identical for any thread
//! count or scheduling order (`RAYON_NUM_THREADS=1` vs `=8` produce equal
//! preconditioners; see `tests/determinism.rs`).
//!
//! # One walk loop
//!
//! [`WalkMatrix::walk_row`] runs a row's chains one after another and is
//! the only walk loop: every build, partial rebuild, safeguarded build and
//! tuner trial goes through it. At the paper's parameters (δ ≥ 1/16) a
//! chain is about three transitions long, so per-chain bookkeeping, not
//! the alias-table fetch, bounds the loop, and a lockstep lane-batched loop
//! measures slower at every workload point (README, "Walk engine").

use mcmcmi_sparse::Csr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic stream for chain `chain` of row `row`: every transition
/// of that chain draws from this exact stream, so the estimate is
/// independent of thread count and scheduling.
#[inline]
fn chain_rng(seed: u64, row: usize, chain: usize) -> ChaCha8Rng {
    let h = seed
        ^ 0x9e3779b97f4a7c15u64.wrapping_mul(row as u64 + 1)
        ^ 0x94d049bb133111ebu64.wrapping_mul(chain as u64 + 1);
    ChaCha8Rng::seed_from_u64(h)
}

/// The Jacobi-splitting iteration matrix `C = I − D̂⁻¹Â` in walk-ready form:
/// per row, the column indices, signed values, a Walker/Vose alias table for
/// O(1) sampling, and the absolute row sum.
#[derive(Clone, Debug)]
pub struct WalkMatrix {
    n: usize,
    indptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Packed alias table, one slot per entry (aligned with `cols`).
    alias: Vec<AliasSlot>,
    /// Absolute row sums `S_k` (the weight multiplier magnitude).
    rowsum: Vec<f64>,
    /// Inverse of the perturbed diagonal `D̂⁻¹` (for assembling `P = M·D̂⁻¹`).
    inv_diag: Vec<f64>,
}

/// Sign flag packed into [`AliasSlot::col_sign`] bit 31.
const SIGN_BIT: u32 = 1 << 31;

/// One alias-table slot, packed to 12 bytes so a transition touches one
/// (sometimes two) cache lines and needs **zero floating-point ops** to
/// resolve: the coin flip is a `u32` compare against the fixed-point
/// cutoff, and the signed weight multiplier is reconstructed as
/// `±rowsum[k]` from the sign bit folded into the column word.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AliasSlot {
    /// In-slot acceptance cutoff, fixed point in 2⁻³² units. Saturated
    /// slots store `u32::MAX` and alias to themselves, so the 2⁻³²
    /// acceptance shortfall still selects the same entry.
    prob: u32,
    /// Donor slot within the row, selected when the coin flip fails.
    alias: u32,
    /// Column (next state) in bits 0..31; sign of the entry in bit 31.
    col_sign: u32,
}

/// Append the Walker/Vose alias table of one row (`cols`/`vals` are the
/// row's entries, `s > 0` their absolute sum) to the flat slot array.
/// Vose runs in f64 and the final cutoffs are quantised to 32-bit fixed
/// point (≈2⁻³³ rounding per slot — orders of magnitude below any Monte
/// Carlo error this engine can reach). Worklists are filled in ascending
/// index order so construction is fully deterministic.
fn push_row_alias(cols: &[usize], vals: &[f64], s: f64, slots: &mut Vec<AliasSlot>) {
    let m = cols.len();
    debug_assert!(m > 0 && s > 0.0);
    assert_row_width(m);
    let scale = m as f64 / s;
    let mut prob: Vec<f64> = vals.iter().map(|v| v.abs() * scale).collect();
    let mut alias: Vec<u32> = (0..m as u32).collect();
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &p) in prob.iter().enumerate() {
        if p < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(l), Some(&g)) = (small.pop(), large.last()) {
        alias[l as usize] = g;
        // Donor g covers slot l's deficit; fold the transfer into g's mass.
        let residual = (prob[g as usize] + prob[l as usize]) - 1.0;
        prob[g as usize] = residual;
        if residual < 1.0 {
            large.pop();
            small.push(g);
        }
    }
    // Leftovers (numerically ≈ 1): saturate so the alias is never taken.
    for &g in large.iter().chain(small.iter()) {
        prob[g as usize] = 1.0;
    }
    slots.extend((0..m).map(|i| AliasSlot {
        prob: (prob[i] * 4294967296.0).round().min(u32::MAX as f64) as u32,
        alias: alias[i],
        col_sign: cols[i] as u32 | if vals[i] < 0.0 { SIGN_BIT } else { 0 },
    }));
}

/// Hard guard on the packed alias representation: a row with more than
/// `u32::MAX` entries cannot be indexed by the 32-bit slot/donor fields —
/// the old `debug_assert!` here meant a release build would silently
/// truncate such a row into garbage alias slots. Unreachable through
/// [`WalkMatrix::from_perturbed`] (which rejects `n ≥ 2³¹` outright, and a
/// row holds at most `n − 1` off-diagonals), but kept as a hard assert so
/// any future construction path fails loudly instead of corrupting walks.
#[inline]
fn assert_row_width(m: usize) {
    assert!(
        m <= u32::MAX as usize,
        "alias table: row with {m} entries exceeds the u32 slot-index range"
    );
}

/// Outcome summary of one row's walks.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowWalkStats {
    /// Total transitions taken.
    pub transitions: usize,
    /// Chains that hit the hard step cap (possible divergence).
    pub capped: usize,
    /// Chains whose weight grew beyond the blow-up guard.
    pub blown_up: usize,
}

impl WalkMatrix {
    /// Build the splitting for `Â = A + α·diag(A)` — the paper's "scale the
    /// added diagonal" perturbation, i.e. `â_ii = (1 + α)·a_ii`, which
    /// amplifies the diagonal *sign-preservingly* (so rows with negative
    /// diagonals are regularised too, and every row's splitting sum shrinks
    /// monotonically: `S_k(α) = S_k(0)/(1 + α)`). `C = I − D̂⁻¹Â`
    /// (so `c_ii = 0`, `c_ij = −â_ij/â_ii`).
    ///
    /// Rows whose diagonal is zero fall back to `â_ii = α·‖row‖₁` so the
    /// perturbation still regularises them; if that is also zero the walk
    /// row is empty (identity fallback).
    pub fn from_perturbed(a: &Csr, alpha: f64) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "WalkMatrix: matrix must be square");
        let n = a.nrows();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        assert!(
            n < SIGN_BIT as usize,
            "WalkMatrix: dimension exceeds 2^31 − 1 (alias slots pack the \
             column and sign into one u32)"
        );
        let mut alias = Vec::new();
        let mut rowsum = Vec::with_capacity(n);
        let mut inv_diag = Vec::with_capacity(n);
        indptr.push(0);
        for i in 0..n {
            let aii = a.get(i, i);
            let dii = if aii != 0.0 {
                (1.0 + alpha) * aii
            } else {
                alpha
                    * a.row_values(i)
                        .iter()
                        .map(|v| v.abs())
                        .sum::<f64>()
                        .max(1.0)
            };
            if dii.abs() < f64::MIN_POSITIVE {
                // Degenerate row: identity action.
                inv_diag.push(1.0);
                rowsum.push(0.0);
                indptr.push(cols.len());
                continue;
            }
            inv_diag.push(1.0 / dii);
            let mut s = 0.0;
            let row_start = cols.len();
            for (&j, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                // c_ij = −â_ij / â_ii; off-diagonal entries of Â equal A's.
                if j == i {
                    continue;
                }
                let c = -v / dii;
                if c != 0.0 {
                    cols.push(j);
                    vals.push(c);
                    s += c.abs();
                }
            }
            if cols.len() > row_start {
                push_row_alias(&cols[row_start..], &vals[row_start..], s, &mut alias);
            }
            rowsum.push(s);
            indptr.push(cols.len());
        }
        debug_assert_eq!(alias.len(), cols.len());
        Self {
            n,
            indptr,
            cols,
            vals,
            alias,
            rowsum,
            inv_diag,
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Absolute row sum `S_k` (‖row k of C‖₁). Values ≥ 1 signal a
    /// non-contractive row: walks through it can diverge.
    pub fn rowsum(&self, k: usize) -> f64 {
        self.rowsum[k]
    }

    /// Fraction of rows with `S_k ≥ 1` — a cheap divergence predictor.
    pub fn noncontractive_fraction(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.rowsum.iter().filter(|&&s| s >= 1.0).count() as f64 / self.n as f64
    }

    /// Inverse perturbed diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Deterministic power-iteration estimate of `ρ(|C|)`, the spectral
    /// radius of the entrywise-absolute iteration matrix — the quantity
    /// that actually governs walk-weight growth: the expected absolute
    /// weight mass after `k` steps is `‖|C|ᵏx‖`, so `ρ(|C|) < 1` means
    /// chains contract in expectation and the Neumann estimator's mass is
    /// summable, while `ρ(|C|) > 1` means weights blow up no matter how
    /// many chains are run. This is sharper than the ∞-norm bound
    /// `max_k S_k` (a matrix can have non-contractive rows yet still
    /// satisfy `ρ(|C|) < 1`) and far cheaper than running pilot walks:
    /// `iters` sweeps over the nnz of `C`, no RNG, no allocation beyond
    /// two dense vectors.
    ///
    /// The iteration actually runs on the **shifted** matrix
    /// `|C| + σI` (σ = ½) and subtracts σ from the final ratio. The shift
    /// is what makes the estimate trustworthy: Jacobi iteration matrices
    /// have zero diagonal, so `|C|` is frequently *imprimitive*
    /// (bipartite grids, directed cyclic coupling), and a plain power
    /// iteration's per-step ratio then oscillates around ρ forever —
    /// period 2 flips between `ρ·c` and `ρ/c`, longer cycles are worse —
    /// which can pass a divergent splitting or reject a contractive one.
    /// Adding σI leaves the eigenvectors untouched and shifts every
    /// eigenvalue by exactly σ (so `ρ(|C|+σI) = ρ(|C|) + σ` for a
    /// nonnegative matrix), but makes the matrix primitive whenever
    /// `|C|` is irreducible: the peripheral eigenvalues `ρ·ω` (ω a root
    /// of unity) land at `|ρω + σ| < ρ + σ`, so the ratio converges
    /// geometrically for *any* cycle period.
    ///
    /// Starts from the all-ones vector (∞-norm 1, so the very first
    /// ratio is `max_k S_k + σ` — the honest ∞-norm upper bound).
    /// `iters` below 8 is clamped: the shifted ratio needs a few sweeps
    /// to damp the oscillatory transient, and 8 extra nnz-sweeps are
    /// noise next to any build, so a degenerate `probe_iters` can never
    /// silently disable the guard. Zero rows and reducible structure are
    /// handled naturally — an all-absorbing matrix reports 0.
    pub fn abs_spectral_radius_estimate(&self, iters: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        const SHIFT: f64 = 0.5;
        let mut x = vec![1.0; self.n];
        let mut y = vec![0.0; self.n];
        let mut lam = SHIFT;
        for _ in 0..iters.max(8) {
            for i in 0..self.n {
                let (rs, re) = (self.indptr[i], self.indptr[i + 1]);
                let mut s = SHIFT * x[i];
                for e in rs..re {
                    s += self.vals[e].abs() * x[self.cols[e]];
                }
                y[i] = s;
            }
            let norm = y.iter().fold(0.0f64, |m, &v| m.max(v));
            if !norm.is_finite() {
                return norm;
            }
            lam = norm;
            let inv = 1.0 / norm;
            for (xi, &yi) in x.iter_mut().zip(&y) {
                *xi = yi * inv;
            }
        }
        // The shifted iteration's ratio converges to ρ(|C|) + σ.
        (lam - SHIFT).max(0.0)
    }

    /// Entry range of row `k` in the flat arrays (empty ⇒ absorbing row).
    /// Exposed for the regenerative variant's custom walk loop.
    #[inline]
    pub fn row_range(&self, k: usize) -> (usize, usize) {
        (self.indptr[k], self.indptr[k + 1])
    }

    /// Sample one transition from a non-absorbing row `k` with the O(1)
    /// alias method; returns `(next_state, signed weight multiplier)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the row is absorbing — check
    /// [`WalkMatrix::row_range`] first.
    #[inline]
    pub fn sample_transition<R: Rng>(&self, k: usize, rng: &mut R) -> (usize, f64) {
        self.step(k, rng).expect("sample_transition: absorbing row")
    }

    /// Sample the next state from row `k` via the alias table; returns
    /// `(next_state, signed weight multiplier)` or `None` on absorption.
    /// One `u64` draw, split into disjoint bit ranges: the high 32 bits
    /// pick the slot by multiply-shift, the low 32 bits are the
    /// fixed-point coin flip against the slot's cutoff — no float ops
    /// until the multiplier is produced.
    #[inline]
    fn step<R: Rng>(&self, k: usize, rng: &mut R) -> Option<(usize, f64)> {
        let (rs, re) = (self.indptr[k], self.indptr[k + 1]);
        if rs == re {
            return None;
        }
        let r = rng.next_u64();
        let m = (re - rs) as u64;
        let idx = (((r >> 32) * m) >> 32) as usize;
        let coin = r as u32;
        let slot = self.alias[rs + idx];
        let chosen = if coin < slot.prob {
            slot
        } else {
            self.alias[rs + slot.alias as usize]
        };
        let s = self.rowsum[k];
        let mult = if chosen.col_sign & SIGN_BIT == 0 {
            s
        } else {
            -s
        };
        Some(((chosen.col_sign & !SIGN_BIT) as usize, mult))
    }

    /// Run `n_chains` walks from row `i`, accumulating weight tallies into
    /// `scratch` (dense, length n, zeroed on entry; `touched` records the
    /// indices written so the caller can harvest sparsely). `delta` is the
    /// truncation error; `max_len` the hard step cap.
    ///
    /// Returns per-row statistics. The scratch tallies are *sums*; divide by
    /// `n_chains` to get the estimator.
    pub fn walk_row(
        &self,
        i: usize,
        n_chains: usize,
        delta: f64,
        max_len: usize,
        seed: u64,
        scratch: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> RowWalkStats {
        debug_assert_eq!(scratch.len(), self.n);
        let mut stats = RowWalkStats::default();
        const BLOWUP: f64 = 1e12;
        for chain in 0..n_chains {
            // Per-chain deterministic stream: independent of scheduling.
            let mut rng = chain_rng(seed, i, chain);
            let mut k = i;
            let mut w = 1.0f64;
            // Step 0 contribution.
            if scratch[k] == 0.0 {
                touched.push(k);
            }
            scratch[k] += w;
            let mut steps = 0usize;
            loop {
                if steps >= max_len {
                    stats.capped += 1;
                    break;
                }
                match self.step(k, &mut rng) {
                    None => break, // absorbed
                    Some((j, mult)) => {
                        w *= mult;
                        k = j;
                        steps += 1;
                        stats.transitions += 1;
                        if w.abs() < delta {
                            break;
                        }
                        if w.abs() > BLOWUP || !w.is_finite() {
                            stats.blown_up += 1;
                            break;
                        }
                        if scratch[k] == 0.0 {
                            touched.push(k);
                        }
                        scratch[k] += w;
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_sparse::Coo;

    fn two_by_two() -> Csr {
        // A = [[2, -1], [-1, 2]]; with α = 0: C = [[0, 1/2], [1/2, 0]],
        // (I−C)⁻¹ = (4/3)·[[1, 1/2],[1/2, 1]].
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 1, 2.0);
        coo.to_csr()
    }

    #[test]
    fn splitting_values_are_correct() {
        let w = WalkMatrix::from_perturbed(&two_by_two(), 0.0);
        assert_eq!(w.dim(), 2);
        assert!((w.rowsum(0) - 0.5).abs() < 1e-15);
        assert!((w.rowsum(1) - 0.5).abs() < 1e-15);
        assert!((w.inv_diag()[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn perturbation_shrinks_rowsums() {
        let w0 = WalkMatrix::from_perturbed(&two_by_two(), 0.0);
        let w2 = WalkMatrix::from_perturbed(&two_by_two(), 2.0);
        // α = 2: â_ii = 2 + 2·2 = 6 ⇒ |c_ij| = 1/6.
        assert!(w2.rowsum(0) < w0.rowsum(0));
        assert!((w2.rowsum(0) - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn walks_estimate_neumann_sum() {
        // Monte Carlo estimate of (I−C)⁻¹ row 0 = (4/3)·[1, 1/2].
        let w = WalkMatrix::from_perturbed(&two_by_two(), 0.0);
        let mut scratch = vec![0.0; 2];
        let mut touched = Vec::new();
        let chains = 200_000;
        let stats = w.walk_row(0, chains, 1e-6, 10_000, 42, &mut scratch, &mut touched);
        assert_eq!(stats.blown_up, 0);
        let m00 = scratch[0] / chains as f64;
        let m01 = scratch[1] / chains as f64;
        assert!((m00 - 4.0 / 3.0).abs() < 0.01, "m00 = {m00}");
        assert!((m01 - 2.0 / 3.0).abs() < 0.01, "m01 = {m01}");
    }

    #[test]
    fn determinism_per_seed() {
        // A ring with two neighbours per row so transitions actually branch
        // (a 2×2 system has deterministic walks regardless of seed).
        let mut coo = Coo::new(4, 4);
        for i in 0..4usize {
            coo.push(i, i, 3.0);
            coo.push(i, (i + 1) % 4, -1.0);
            coo.push(i, (i + 3) % 4, -0.5);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.5);
        let run = |seed| {
            let mut scratch = vec![0.0; 4];
            let mut touched = Vec::new();
            w.walk_row(0, 100, 1e-4, 100, seed, &mut scratch, &mut touched);
            scratch
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn spectral_estimate_handles_imprimitive_structure() {
        // |C| = [[0, 4], [0.5, 0]] is period-2 (cyclic), so the raw
        // per-step ∞-norm ratio oscillates between 0.5 and 4 forever; the
        // true ρ(|C|) = √2. The geometric-mean estimator must report ≈√2
        // at any iteration count — including counts of both parities and
        // the degenerate 0/1 (clamped to 2).
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, -4.0);
        coo.push(1, 0, -0.5);
        coo.push(1, 1, 1.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let rho = 2.0f64.sqrt();
        for iters in [31usize, 32, 33] {
            let est = w.abs_spectral_radius_estimate(iters);
            assert!(
                (est - rho).abs() < 1e-9,
                "iters = {iters}: estimate {est} vs ρ = {rho}"
            );
        }
        // Degenerate iteration counts are clamped past the oscillatory
        // transient: even iters = 0 must flag this divergent splitting
        // (the old last-ratio estimator reported 0.5 here and let a
        // divergent build through).
        for iters in [0usize, 1, 2, 8] {
            let est = w.abs_spectral_radius_estimate(iters);
            assert!(
                (est - rho).abs() < 0.05,
                "iters = {iters}: estimate {est} vs ρ = {rho}"
            );
            assert!(est > 1.0, "iters = {iters} must still flag divergence");
        }
    }

    #[test]
    fn spectral_estimate_handles_longer_cycles() {
        // Directed 3-cycle with wildly unequal weights: |C| entries 9.6,
        // 1.2, 0.15 around the cycle ⇒ ρ = (9.6·1.2·0.15)^(1/3) = 1.2.
        // Per-step ratios cycle with period 3, so any fixed-window
        // geometric mean not a multiple of 3 misestimates badly (down to
        // ~0.42 — below the safeguard limit); the shifted iteration must
        // converge to the true ρ regardless of `iters` mod 3.
        let mut coo = Coo::new(3, 3);
        for (i, wgt) in [(0usize, 9.6f64), (1, 1.2), (2, 0.15)] {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 3, wgt);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        for iters in [30usize, 31, 32] {
            let est = w.abs_spectral_radius_estimate(iters);
            assert!(
                (est - 1.2).abs() < 1e-4,
                "iters = {iters}: estimate {est} vs ρ = 1.2"
            );
            assert!(est > 1.0, "divergent 3-cycle must be flagged");
        }
    }

    #[test]
    fn spectral_estimate_converges_on_aperiodic_structure() {
        // Ring with unequal neighbour weights and a self-damping diagonal
        // contribution through α: the estimate must agree with the exact
        // ρ(|C|) computed densely. For a circulant |C| with entries
        // (0, a, 0, b) per row, ρ = a + b (Perron value at eigenvector 1).
        let mut coo = Coo::new(4, 4);
        for i in 0..4usize {
            coo.push(i, i, 3.0);
            coo.push(i, (i + 1) % 4, -1.0);
            coo.push(i, (i + 3) % 4, -0.5);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.5);
        // |c| entries: 1/4.5 and 0.5/4.5 ⇒ ρ = 1.5/4.5 = 1/3.
        let est = w.abs_spectral_radius_estimate(64);
        assert!((est - 1.0 / 3.0).abs() < 1e-9, "estimate {est}");
    }

    #[test]
    fn noncontractive_rows_detected() {
        // Off-diagonal heavier than diagonal and α = 0 ⇒ S ≥ 1.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        assert_eq!(w.noncontractive_fraction(), 1.0);
        // Perturbation cures it: â_ii = 1 + 4·1 = 5, S = 3/5.
        let w4 = WalkMatrix::from_perturbed(&coo.to_csr(), 4.0);
        assert_eq!(w4.noncontractive_fraction(), 0.0);
    }

    #[test]
    fn blowup_guard_fires_on_divergent_walks() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 5.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 1, 1.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let mut scratch = vec![0.0; 2];
        let mut touched = Vec::new();
        // δ tiny so truncation never stops the chain before blow-up.
        let stats = w.walk_row(0, 50, 1e-300, 100_000, 1, &mut scratch, &mut touched);
        assert!(stats.blown_up > 0);
    }

    /// Implied selection probability of entry `e` of row `k` under the alias
    /// table: own-slot mass plus donated mass from every slot aliasing to it.
    fn alias_implied_prob(w: &WalkMatrix, k: usize, e: usize) -> f64 {
        const FIX: f64 = 4294967296.0; // 2³², the fixed-point scale
        let (rs, re) = w.row_range(k);
        let m = (re - rs) as f64;
        let mut p = w.alias[rs + e].prob as f64 / FIX;
        for t in 0..(re - rs) {
            if t != e && w.alias[rs + t].alias as usize == e {
                p += 1.0 - w.alias[rs + t].prob as f64 / FIX;
            }
        }
        p / m
    }

    #[test]
    fn alias_table_reconstructs_mao_probabilities() {
        // Property: for every row of several suite matrices, the alias
        // table's implied probabilities equal |c_kj| / S_k up to the 2⁻³²
        // fixed-point quantisation, and each slot carries its own entry's
        // column and sign.
        let mats = [
            mcmcmi_matgen::pdd_real_sparse(64, 7),
            mcmcmi_matgen::fd_laplace_2d(8),
            mcmcmi_matgen::unsteady_adv_diff(8, mcmcmi_matgen::AdvDiffOrder::One),
        ];
        for a in &mats {
            let w = WalkMatrix::from_perturbed(a, 0.5);
            for k in 0..w.dim() {
                let (rs, re) = w.row_range(k);
                let s = w.rowsum(k);
                for e in 0..(re - rs) {
                    let expect = w.vals[rs + e].abs() / s;
                    let got = alias_implied_prob(&w, k, e);
                    assert!(
                        (got - expect).abs() < 1e-8,
                        "row {k} entry {e}: implied {got} vs MAO {expect}"
                    );
                    let slot = w.alias[rs + e];
                    assert_eq!((slot.col_sign & !SIGN_BIT) as usize, w.cols[rs + e]);
                    assert_eq!(slot.col_sign & SIGN_BIT != 0, w.vals[rs + e] < 0.0);
                }
            }
        }
    }

    #[test]
    fn alias_sampler_passes_chi_square_against_mao_distribution() {
        // One heavily skewed 10-entry row; the alias sampler must match the
        // MAO distribution |c_kj|/S_k. χ²₀.₉₉₉(9 dof) = 27.88.
        let n = 11;
        let mut coo = Coo::new(n, n);
        coo.push(0, 0, 20.0);
        for j in 1..n {
            // Off-diagonal weights 1, 2, …, 10 — far from uniform.
            coo.push(0, j, j as f64);
        }
        for j in 1..n {
            coo.push(j, j, 1.0);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let (rs, re) = w.row_range(0);
        let m = re - rs;
        assert_eq!(m, 10);
        let s = w.rowsum(0);
        let draws = 200_000usize;

        let mut rng = ChaCha8Rng::seed_from_u64(12345);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            let (j, mult) = w.sample_transition(0, &mut rng);
            assert!((mult.abs() - s).abs() < 1e-15);
            counts[j] += 1;
        }
        let mut chi2 = 0.0;
        for e in 0..m {
            let p = w.vals[rs + e].abs() / s;
            let expected = p * draws as f64;
            let d = counts[w.cols[rs + e]] as f64 - expected;
            chi2 += d * d / expected;
        }
        assert!(chi2 < 27.88, "alias χ² = {chi2}");
    }

    #[test]
    fn alias_row_width_guard_panics_in_release_too() {
        // Regression for the silent-truncation hazard: the guard used to be
        // a `debug_assert!`, so a release build would pack a > 2³²-entry
        // row into garbage 32-bit slot indices. It must be a hard assert.
        let wide = u32::MAX as usize + 1;
        let caught = std::panic::catch_unwind(|| assert_row_width(wide));
        let err = caught.expect_err("oversized row must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("exceeds the u32 slot-index range"),
            "unexpected panic message: {msg}"
        );
        // And the boundary itself is fine.
        assert_row_width(u32::MAX as usize);
    }

    #[test]
    fn absorbing_rows_end_walks() {
        // Row 1 has no off-diagonals: every chain entering it is absorbed.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 1, 3.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let mut scratch = vec![0.0; 2];
        let mut touched = Vec::new();
        let stats = w.walk_row(0, 1000, 1e-12, 10_000, 3, &mut scratch, &mut touched);
        assert_eq!(stats.capped, 0);
        assert_eq!(stats.blown_up, 0);
        // M = (I−C)⁻¹ with C = [[0, 1/2], [0, 0]] ⇒ row 0 of M = [1, 1/2].
        let m00 = scratch[0] / 1000.0;
        let m01 = scratch[1] / 1000.0;
        assert!((m00 - 1.0).abs() < 1e-12);
        assert!((m01 - 0.5).abs() < 1e-12);
    }
}
