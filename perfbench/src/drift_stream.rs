//! `drift_stream`: a hardening operator solved step by step through one
//! `DriftSession` — the solve-heavy workload.
//!
//! The operator is `pdd_real_sparse_scaled(16384, 16)` with its diagonal
//! fortified 3×; each of 100 `DiagonalShiftDrift` steps moves 3% of the
//! diagonals by up to ±35% within [1/3, 1] of the fortified value, and the
//! session solves one right-hand side per step with GMRES (α = 1,
//! ε = δ = 1/8), refreshing its preconditioner through the partial-rebuild
//! ladder. A pass includes the session's initial build.

use crate::check::Tally;
use crate::trace::{SpanId, Tracer};
use crate::{median, Outcome, RunConfig, Scale};
use mcmcmi_core::{DriftSession, RefreshAction, RefreshPolicy};
use mcmcmi_krylov::{SolveOptions, SolverType, StalenessConfig};
use mcmcmi_matgen::{pdd_real_sparse_scaled, DiagonalShiftDrift};
use mcmcmi_mcmc::{BuildConfig, McmcParams, SafeguardConfig};
use mcmcmi_sparse::Csr;
use std::time::Instant;

fn opts() -> SolveOptions {
    crate::cold_solve::opts()
}

/// Refresh policy: react at 1.3× the calibrated iteration count and allow
/// partial rebuilds over up to half the rows.
fn policy() -> RefreshPolicy {
    RefreshPolicy {
        staleness: StalenessConfig {
            degrading_ratio: 1.3,
            ..StalenessConfig::default()
        },
        max_partial_fraction: 0.5,
        ..RefreshPolicy::default()
    }
}

/// The drift sequence, stored compactly: the initial operator, the position
/// of each row's diagonal in the value array, and the steps.
struct Input {
    a0: Csr,
    diag_pos: Vec<usize>,
    steps: Vec<StepInput>,
}

/// One step's changed `(row, new diagonal)` pairs and right-hand side.
struct StepInput {
    changes: Vec<(usize, f64)>,
    b: Vec<f64>,
}

impl Input {
    /// Apply step `t`'s diagonal changes to `a`.
    fn advance(&self, a: &mut Csr, t: usize) {
        for &(i, v) in &self.steps[t].changes {
            a.row_values_mut(i)[self.diag_pos[i]] = v;
        }
    }
}

fn setup(seed: u64, scale: Scale) -> Input {
    let (n, steps) = match scale {
        Scale::Full => (16_384, 100),
        Scale::Minimal => (1_024, 10),
    };
    let mut a0 = pdd_real_sparse_scaled(n, 16, seed);
    let diag_pos: Vec<usize> = (0..n)
        .map(|i| {
            a0.row_indices(i)
                .binary_search(&i)
                .expect("pdd_real_sparse_scaled stores every diagonal")
        })
        .collect();
    for (i, &p) in diag_pos.iter().enumerate() {
        a0.row_values_mut(i)[p] *= 3.0;
    }
    let mut gen = DiagonalShiftDrift::new(a0.clone(), 0.03, 0.35, 1.0 / 3.0, 1.0, seed ^ 0x5eed);
    let phase = (seed % 1000) as f64 * 0.001 * std::f64::consts::TAU;
    let steps = (0..steps)
        .map(|t| {
            let s = gen.advance();
            let changes = s
                .dirty_rows
                .iter()
                .map(|&i| (i, s.matrix.row_values(i)[diag_pos[i]]))
                .collect();
            // A smoothly rotating load: the previous solution is only a
            // partial guess, so iteration counts track preconditioner
            // quality instead of a perfect warm start.
            let th = phase + t as f64 * 0.35;
            let b = (0..n)
                .map(|i| (i as f64 * 0.17 + th).sin() + 0.5 * (i as f64 * 0.05 - th).cos())
                .collect();
            StepInput { changes, b }
        })
        .collect();
    Input {
        a0,
        diag_pos,
        steps,
    }
}

struct StepRecord {
    latency_s: f64,
    action: RefreshAction,
    iterations: usize,
    resolve_iterations: Option<usize>,
    rows_rebuilt: usize,
    initial_rel_residual: f64,
    passed: bool,
}

struct PassRecord {
    steps: Vec<StepRecord>,
    tally: Tally,
}

fn pass(
    inp: &Input,
    seed: u64,
    tr: &Tracer,
    parent: SpanId,
    problems: &mut Vec<String>,
) -> (PassRecord, f64) {
    let mut a = inp.a0.clone();
    let mut sess = tr.span("core.drift.new", parent, || {
        DriftSession::new(
            a.clone(),
            McmcParams::new(1.0, 0.125, 0.125),
            BuildConfig {
                seed,
                ..BuildConfig::default()
            },
            SafeguardConfig::default(),
            SolverType::Gmres,
            opts(),
            policy(),
        )
    });
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(inp.steps.len());
    let mut passed = Vec::with_capacity(inp.steps.len());
    let mut input_s = 0.0;
    for t in 0..inp.steps.len() {
        let t_in = Instant::now();
        let next = tr.span("bench.input", parent, || {
            inp.advance(&mut a, t);
            a.clone()
        });
        input_s += t_in.elapsed().as_secs_f64();
        let b = &inp.steps[t].b;
        let t0 = Instant::now();
        let res = tr.span("core.drift.step", parent, || sess.step(next, b));
        latencies.push(t0.elapsed().as_secs_f64());
        passed.push(tr.span("bench.check", parent, || {
            tally.solve(&format!("step {t}"), &a, b, opts().tol, &res, problems)
        }));
    }
    let steps = sess
        .trail()
        .steps
        .iter()
        .zip(latencies.into_iter().zip(passed))
        .map(|(s, (latency_s, passed))| StepRecord {
            latency_s,
            action: s.action,
            iterations: s.iterations,
            resolve_iterations: s.resolve_iterations,
            rows_rebuilt: s.rows_rebuilt,
            initial_rel_residual: s.initial_rel_residual,
            passed,
        })
        .collect();
    (PassRecord { steps, tally }, input_s)
}

fn action_code(a: RefreshAction) -> u64 {
    match a {
        RefreshAction::KeepApplying => 0,
        RefreshAction::PartialRebuild => 1,
        RefreshAction::FullRebuild => 2,
        RefreshAction::Retune => 3,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let inp = crate::timed_setup(&mut out, || setup(cfg.seed, cfg.scale), drop);

    let tracer = Tracer::on();
    let mut problems = Vec::new();
    let passes = crate::run_passes(cfg, &tracer, |tr, span| {
        pass(&inp, cfg.seed, tr, span, &mut problems)
    });
    out.problems.append(&mut problems);
    out.notes.push(crate::pass_note(&passes));
    out.counts = crate::same_counts(
        &passes,
        |r| {
            let mut c: Vec<u64> = r
                .steps
                .iter()
                .flat_map(|s| {
                    [
                        action_code(s.action),
                        s.iterations as u64,
                        s.resolve_iterations.map_or(u64::MAX, |v| v as u64),
                        s.rows_rebuilt as u64,
                        s.passed as u64,
                    ]
                })
                .collect();
            c.extend(r.tally.label_counts());
            c
        },
        &mut out.problems,
    );
    let (attempted, failed) = crate::per_pass_failures(&passes, |r| &r.tally);
    out.attempted += attempted;
    out.failed += failed;

    let untraced_steps = || crate::untraced(&passes).flat_map(|p| p.record.steps.iter());
    crate::EndToEnd {
        peak_rss_mb: passes[0].rss_mb,
        pass_walls_s: crate::untraced(&passes).map(|p| p.wall_s).collect(),
        op_latencies_s: untraced_steps().map(|s| s.latency_s).collect(),
        // A step that needed an in-step rescue solved twice.
        solve_iterations: untraced_steps()
            .flat_map(|s| std::iter::once(s.iterations).chain(s.resolve_iterations))
            .map(|it| it as f64)
            .collect(),
    }
    .insert(&mut out.metrics);
    let first = &passes[0].record;
    let count = |a: RefreshAction| first.steps.iter().filter(|s| s.action == a).count();
    let (keep, partial) = (
        count(RefreshAction::KeepApplying),
        count(RefreshAction::PartialRebuild),
    );
    let full = count(RefreshAction::FullRebuild) + count(RefreshAction::Retune);
    out.notes.push(format!(
        "drift_stream: n = {}, {} steps: {keep} keep, {partial} partial-rebuild, {full} full-rebuild/retune; {} of {} steps pass the check",
        inp.a0.nrows(),
        first.steps.len(),
        first.steps.iter().filter(|s| s.passed).count(),
        first.steps.len()
    ));
    first.tally.insert_metrics(&mut out.metrics);

    if cfg.trace {
        let spans = tracer.take();
        let traced: Vec<&PassRecord> = crate::traced(&passes).map(|p| &p.record).collect();
        let step_ms = |a: RefreshAction| {
            let v: Vec<f64> = traced
                .iter()
                .flat_map(|p| p.steps.iter())
                .filter(|s| s.action == a)
                .map(|s| s.latency_s * 1e3)
                .collect();
            median(&v)
        };
        let m = &mut out.metrics;
        m.insert(
            "core.drift.keep_step_ms_p50".into(),
            step_ms(RefreshAction::KeepApplying),
        );
        m.insert(
            "core.drift.partial_step_ms_p50".into(),
            step_ms(RefreshAction::PartialRebuild),
        );
        m.insert("core.drift.partial_rebuilds".into(), partial as f64);
        m.insert("core.drift.full_rebuilds".into(), full as f64);
        m.insert(
            "core.drift.rows_rebuilt".into(),
            first.steps.iter().map(|s| s.rows_rebuilt).sum::<usize>() as f64,
        );
        let warm: Vec<f64> = first.steps.iter().map(|s| s.initial_rel_residual).collect();
        m.insert(
            "core.drift.warm_initial_rel_residual_p50".into(),
            median(&warm),
        );

        // `Csr::diff_rows` over the drift sequence, outside the passes.
        let mut a = inp.a0.clone();
        let mut diff_s = 0.0;
        for t in 0..inp.steps.len() {
            let prev = a.clone();
            inp.advance(&mut a, t);
            let t0 = Instant::now();
            let dirty = std::hint::black_box(prev.diff_rows(&a));
            diff_s += t0.elapsed().as_secs_f64();
            if dirty.len() != inp.steps[t].changes.len() {
                out.problems.push(format!(
                    "step {t}: diff_rows disagrees with the drift generator"
                ));
            }
        }
        m.insert(
            "sparse.diff_rows_ms".into(),
            diff_s * 1e3 / inp.steps.len() as f64,
        );
        crate::insert_trace_metrics(m, &passes, &spans, 1);
        out.spans = spans;
    }
    out
}
