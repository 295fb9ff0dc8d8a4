//! Property-based tests for preconditioner compression.
//!
//! The load-bearing contract: the identity policy (`drop_tol = 0`, no
//! row cap, f64 storage) is a *bit-identical* round trip of the
//! preconditioner CSR — pattern and values — because the whole
//! compressed-path validation story (identity-policy session parity in
//! `tests/flexible.rs`) leans on it.

use mcmcmi_krylov::{CompressedPrecond, Preconditioner};
use mcmcmi_mcmc::{compress, sparsify, BuildConfig, CompressionPolicy, McmcInverse, McmcParams};
use mcmcmi_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Strategy: a random sparse square matrix as (n, triplets) with a wide
/// magnitude spread so drop tolerances actually discriminate.
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..16).prop_flat_map(|n| {
        let triplet = (0..n, 0..n, -8i32..=8);
        proptest::collection::vec(triplet, 0..80).prop_map(move |ts| {
            (
                n,
                ts.into_iter()
                    .map(|(i, j, e)| {
                        (
                            i,
                            j,
                            10f64.powi(e / 2) * if e % 3 == 0 { -1.0 } else { 1.0 },
                        )
                    })
                    .collect(),
            )
        })
    })
}

fn build(n: usize, ts: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(n, n);
    for &(i, j, v) in ts {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

proptest! {
    /// drop_tol = 0 + f64 storage round-trips pattern and values exactly.
    #[test]
    fn identity_policy_roundtrips_bit_exact((n, ts) in arb_matrix()) {
        let p = build(n, &ts);
        let kept = sparsify(&p, 0.0, None);
        prop_assert_eq!(kept.indptr(), p.indptr());
        for i in 0..n {
            prop_assert_eq!(kept.row_indices(i), p.row_indices(i));
            prop_assert_eq!(kept.row_values(i), p.row_values(i));
        }
        let (cp, report) = compress(&p, &CompressionPolicy::default());
        prop_assert_eq!(report.nnz_before, report.nnz_after);
        prop_assert_eq!(report.nnz_kept, 1.0);
        prop_assert_eq!(report.fro_mass_kept, 1.0);
        match cp {
            CompressedPrecond::F64(sp) => prop_assert_eq!(sp.matrix(), &p),
            CompressedPrecond::F32(_) => prop_assert!(false, "identity policy must stay f64"),
        }
    }

    /// Sparsification never invents entries, keeps survivors' values
    /// untouched, and is monotone in the drop tolerance.
    #[test]
    fn sparsify_is_a_monotone_subset((n, ts) in arb_matrix()) {
        let p = build(n, &ts);
        let mild = sparsify(&p, 1e-4, None);
        let harsh = sparsify(&p, 1e-1, None);
        prop_assert!(harsh.nnz() <= mild.nnz());
        prop_assert!(mild.nnz() <= p.nnz());
        prop_assert!(mild.check_invariants().is_ok());
        prop_assert!(harsh.check_invariants().is_ok());
        for (i, j, v) in mild.triplets() {
            prop_assert_eq!(v, p.get(i, j));
        }
        for (i, j, v) in harsh.triplets() {
            // Everything harsh keeps, mild keeps too (thresholds nest).
            prop_assert_eq!(mild.get(i, j), v);
        }
    }

    /// A row cap of k leaves at most k entries per row, never drops a
    /// stored diagonal (it claims one slot with priority), and fills the
    /// remaining slots with the largest-magnitude off-diagonals.
    #[test]
    fn row_topk_caps_and_never_drops_the_diagonal(((n, ts), cap) in (arb_matrix(), 1usize..4)) {
        let p = build(n, &ts);
        let kept = sparsify(&p, 0.0, Some(cap));
        for i in 0..n {
            prop_assert!(kept.row_indices(i).len() <= cap);
            // The satellite contract: a cap smaller than the row's nnz
            // must not evict the diagonal.
            if p.row_indices(i).contains(&i) {
                prop_assert!(
                    kept.row_indices(i).contains(&i),
                    "row {} lost its diagonal under cap {}", i, cap
                );
            } else if !p.row_indices(i).is_empty() {
                // No diagonal stored: the heaviest entry survives.
                let best = p.row_values(i).iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let kept_best = kept
                    .row_values(i)
                    .iter()
                    .fold(0.0f64, |m, v| m.max(v.abs()));
                prop_assert_eq!(kept_best, best, "row {} lost its heaviest entry", i);
            }
            // Off-diagonal selection is by magnitude: every kept
            // off-diagonal is at least as heavy as every dropped one.
            let kept_cols = kept.row_indices(i);
            let min_kept = p
                .row_indices(i)
                .iter()
                .zip(p.row_values(i))
                .filter(|(&j, _)| j != i && kept_cols.contains(&j))
                .fold(f64::INFINITY, |m, (_, v)| m.min(v.abs()));
            let max_dropped = p
                .row_indices(i)
                .iter()
                .zip(p.row_values(i))
                .filter(|(&j, _)| j != i && !kept_cols.contains(&j))
                .fold(0.0f64, |m, (_, v)| m.max(v.abs()));
            prop_assert!(
                min_kept >= max_dropped,
                "row {}: kept off-diagonal {} lighter than dropped {}",
                i, min_kept, max_dropped
            );
        }
    }

    /// `drop_tol` edge cases: empty rows stay empty, singleton rows are
    /// untouched for any tolerance ≤ 1 (the sole entry is its own row
    /// maximum), and a stored diagonal survives any tolerance.
    #[test]
    fn drop_tol_zero_and_singleton_rows(((n, ts), tol) in (arb_matrix(), 0.0f64..1.0)) {
        let p = build(n, &ts);
        let kept = sparsify(&p, tol, None);
        for i in 0..n {
            if p.row_indices(i).is_empty() {
                prop_assert!(kept.row_indices(i).is_empty(), "row {} grew entries", i);
            }
            if p.row_indices(i).len() == 1 {
                prop_assert_eq!(kept.row_indices(i), p.row_indices(i),
                    "singleton row {} was modified", i);
                prop_assert_eq!(kept.row_values(i), p.row_values(i));
            }
            if p.row_indices(i).contains(&i) {
                prop_assert!(kept.row_indices(i).contains(&i),
                    "row {} lost its diagonal at drop_tol {}", i, tol);
            }
        }
    }

    /// Report invariants for arbitrary policies: the nnz ratio and the
    /// Frobenius mass fraction are genuine fractions, byte accounting
    /// matches the precision, and compression never grows the operator.
    #[test]
    fn report_invariants_hold_for_any_policy(
        ((n, ts), tol, cap_raw, precision_raw)
            in (arb_matrix(), 0.0f64..0.5, 0usize..6, 0usize..2)
    ) {
        let f32_storage = precision_raw == 1;
        let p = build(n, &ts);
        let policy = CompressionPolicy {
            drop_tol: tol,
            // 0 encodes "no cap" so the cap axis covers both branches.
            row_topk: if cap_raw == 0 { None } else { Some(cap_raw) },
            precision: if f32_storage {
                mcmcmi_mcmc::StoragePrecision::F32
            } else {
                mcmcmi_mcmc::StoragePrecision::F64
            },
        };
        let (cp, r) = compress(&p, &policy);
        prop_assert!(r.nnz_after <= r.nnz_before, "nnz grew");
        prop_assert!((0.0..=1.0).contains(&r.nnz_kept) || r.nnz_before == 0,
            "nnz_kept {} out of range", r.nnz_kept);
        prop_assert!((0.0..=1.0).contains(&r.fro_mass_kept),
            "fro_mass_kept {} out of range", r.fro_mass_kept);
        prop_assert_eq!(r.value_bytes_before, p.nnz() * 8);
        let per_value = if f32_storage { 4 } else { 8 };
        prop_assert_eq!(r.value_bytes_after, r.nnz_after * per_value);
        prop_assert_eq!(cp.nnz(), r.nnz_after);
        prop_assert_eq!(cp.value_bytes(), r.value_bytes_after);
    }
}

/// The same round-trip contract on a *real* MCMC-built preconditioner —
/// the object the policy is actually applied to in the pipeline.
#[test]
fn identity_policy_roundtrips_a_built_preconditioner() {
    let a = mcmcmi_matgen::fd_laplace_2d(8);
    let out =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.5, 0.125, 0.0625));
    let p = out.precond.matrix().clone();
    let (cp, report) = out.compress(&CompressionPolicy::default());
    assert_eq!(report.nnz_kept, 1.0);
    match &cp {
        CompressedPrecond::F64(sp) => assert_eq!(sp.matrix(), &p),
        CompressedPrecond::F32(_) => panic!("identity policy must stay f64"),
    }
    // And the compressed operator applies identically to the original.
    let n = p.nrows();
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
    let mut z1 = vec![0.0; n];
    let mut z2 = vec![0.0; n];
    cp.apply(&r, &mut z1);
    out.precond.apply(&r, &mut z2);
    assert_eq!(z1, z2);
}
