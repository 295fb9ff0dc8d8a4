//! `tune_unseen`: the paper's own use — tune an MCMC preconditioner for a
//! matrix the recommender never saw, then solve with it.
//!
//! Set-up measures a small grid dataset on four Table-1 matrices and trains
//! a lite recommender on it. A pass restores the recommender from its
//! trained weights and runs `AutoTuner::with_recommender` with
//! the default budget on `unsteady_adv_diff_order2_0001` (the paper's
//! unseen matrix) and `2DFDLaplace_32`, once for each of [`REPLICAS`]
//! tuning seeds, and solves one right-hand side with each tuned
//! preconditioner at tol 1e-8.

use crate::check::Tally;
use crate::trace::{self, SolveWork, SpanId, Tracer};
use crate::{median, Outcome, RunConfig, Scale};
use mcmcmi_core::{
    AutoTuner, AutotuneConfig, MeasureConfig, MeasurementRunner, PaperDataset, Recommender,
};
use mcmcmi_gnn::{SurrogateConfig, TrainConfig};
use mcmcmi_krylov::{SolveOptions, SolverType, TuneBudget};
use mcmcmi_matgen::PaperMatrix;
use mcmcmi_mcmc::BuildConfig;
use mcmcmi_sparse::{Csr, SpecializedBackend};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const TRAINING: [PaperMatrix; 4] = [
    PaperMatrix::Laplace16,
    PaperMatrix::A00512,
    PaperMatrix::UnsteadyAdvDiffOrder1,
    PaperMatrix::PddRealSparseN128,
];

const TARGETS: [PaperMatrix; 2] = [PaperMatrix::UnsteadyAdvDiffOrder2, PaperMatrix::Laplace32];

struct Target {
    name: &'static str,
    a: Csr,
    op: SpecializedBackend,
    b: Vec<f64>,
}

struct Input {
    snapshot: mcmcmi_core::pipeline::RecommenderSnapshot,
    targets: Vec<Target>,
    dataset_s: f64,
    train_s: f64,
}

/// The recommender is trained on fixed data with a fixed seed, like a
/// shipped model.
const TRAINING_SEED: u64 = 20_260_611;

/// Tuning seeds `0..REPLICAS` per target in one pass; the workload seed
/// picks the right-hand sides. The seeds are fixed because the amount of
/// tuning work itself swings with the seed (the recommender's multi-start
/// searches and the sampled trial parameters): with seeds taken from the
/// workload seed, three seeds per run still left the time metrics spread
/// by 18–25% across runs.
pub const REPLICAS: u64 = 3;

fn replicas(scale: Scale) -> u64 {
    match scale {
        Scale::Full => REPLICAS,
        Scale::Minimal => 1,
    }
}

fn setup(seed: u64, scale: Scale) -> Input {
    let training = match scale {
        Scale::Full => &TRAINING[..],
        Scale::Minimal => &TRAINING[..1],
    };
    let matrices: Vec<(String, Csr, bool)> = training
        .iter()
        .map(|&m| (crate::matrix_name(m).to_string(), m.generate(), m.is_spd()))
        .collect();
    let runner = MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 200,
            restart: 20,
            ..SolveOptions::default()
        },
        ..MeasureConfig::default()
    });
    let t0 = Instant::now();
    let ds = PaperDataset::build(&runner, &matrices, 1, 0, TRAINING_SEED);
    let dataset_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let rec = Recommender::fit(
        &ds,
        &matrices,
        SurrogateConfig::lite(mcmcmi_core::features::N_MATRIX_FEATURES, 6),
        TrainConfig {
            epochs: 6,
            patience: 0,
            seed: TRAINING_SEED,
            ..TrainConfig::default()
        },
    );
    let train_s = t1.elapsed().as_secs_f64();
    let targets = TARGETS
        .iter()
        .enumerate()
        .map(|(k, &m)| {
            let a = m.generate();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x7f4a_7c15 * (k as u64 + 1)));
            let x_star: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut b = vec![0.0; a.nrows()];
            a.spmv(&x_star, &mut b);
            Target {
                name: crate::matrix_name(m),
                op: SpecializedBackend::detect(a.clone()),
                a,
                b,
            }
        })
        .collect();
    Input {
        snapshot: rec.to_snapshot(),
        targets,
        dataset_s,
        train_s,
    }
}

fn budget(seed: u64, scale: Scale) -> TuneBudget {
    match scale {
        Scale::Full => TuneBudget {
            seed,
            ..TuneBudget::default()
        },
        Scale::Minimal => TuneBudget::smoke(seed),
    }
}

struct TargetRecord {
    target: usize,
    latency_s: f64,
    trials: usize,
    converged_trials: usize,
    certification_attempts: usize,
    iterations: usize,
    passed: bool,
}

struct PassRecord {
    targets: Vec<TargetRecord>,
    tally: Tally,
    work: SolveWork,
}

fn pass(
    inp: &Input,
    cfg: &RunConfig,
    tr: &Tracer,
    parent: SpanId,
    problems: &mut Vec<String>,
) -> (PassRecord, f64) {
    let mut tally = Tally::default();
    let mut work = SolveWork::default();
    let mut input_s = 0.0;
    let mut targets = Vec::new();
    let jobs = (0..replicas(cfg.scale))
        .flat_map(|j| inp.targets.iter().enumerate().map(move |(k, t)| (j, k, t)));
    for (j, k, t) in jobs {
        let seed = j;
        // A fresh tuner per target, restored from the trained weights; the
        // copy of the weights is the benchmark's, the restore the program's.
        let t_in = Instant::now();
        let snapshot = tr.span("bench.input", parent, || inp.snapshot.clone());
        input_s += t_in.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let rec = tr.span("core.restore", parent, || {
            Recommender::from_snapshot(snapshot)
        });
        let mut tuner = AutoTuner::new(AutotuneConfig {
            build: BuildConfig {
                seed,
                ..BuildConfig::default()
            },
            ..AutotuneConfig::default()
        })
        .with_recommender(rec);
        let tuned = tr.span("core.autotune", parent, || {
            tuner.tune_parts(&t.a, &budget(seed, cfg.scale))
        });
        let record = match tuned {
            Err(e) => {
                tally.reject();
                problems.push(format!("{}: tuning failed: {e:?}", t.name));
                TargetRecord {
                    target: k,
                    latency_s: t0.elapsed().as_secs_f64(),
                    trials: 0,
                    converged_trials: 0,
                    certification_attempts: 0,
                    iterations: 0,
                    passed: false,
                }
            }
            Ok((precond, report)) => {
                // The tuned session's own options, tightened to tol 1e-8.
                let opts = SolveOptions {
                    tol: 1e-8,
                    ..budget(seed, cfg.scale).probe_opts
                };
                let (res, _) = trace::solve(
                    tr,
                    parent,
                    &t.op,
                    &t.b,
                    &precond,
                    report.solver,
                    opts,
                    &mut work,
                );
                let latency_s = t0.elapsed().as_secs_f64();
                let passed = tr.span("bench.check", parent, || {
                    tally.solve(t.name, &t.a, &t.b, opts.tol, &res, problems)
                });
                TargetRecord {
                    target: k,
                    latency_s,
                    trials: report.trials.len(),
                    converged_trials: report.trials.iter().filter(|r| r.converged).count(),
                    certification_attempts: report.certification_attempts,
                    iterations: res.iterations,
                    passed,
                }
            }
        };
        targets.push(record);
    }
    (
        PassRecord {
            targets,
            tally,
            work,
        },
        input_s,
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (mut dataset_s, mut train_s) = (Vec::new(), Vec::new());
    let inp = crate::timed_setup(
        &mut out,
        || setup(cfg.seed, cfg.scale),
        |prev| {
            dataset_s.push(prev.dataset_s);
            train_s.push(prev.train_s);
        },
    );
    dataset_s.push(inp.dataset_s);
    train_s.push(inp.train_s);

    let tracer = Tracer::on();
    let mut problems = Vec::new();
    let passes = crate::run_passes(cfg, &tracer, |tr, span| {
        pass(&inp, cfg, tr, span, &mut problems)
    });
    out.problems.append(&mut problems);
    out.notes.push(crate::pass_note(&passes));
    out.counts = crate::same_counts(
        &passes,
        |r| {
            let mut c: Vec<u64> = r
                .targets
                .iter()
                .flat_map(|t| {
                    [
                        t.trials,
                        t.converged_trials,
                        t.certification_attempts,
                        t.iterations,
                        t.passed as usize,
                    ]
                })
                .map(|v| v as u64)
                .collect();
            c.extend(r.tally.label_counts());
            c
        },
        &mut out.problems,
    );
    let (attempted, failed) = crate::per_pass_failures(&passes, |r| &r.tally);
    out.attempted += attempted;
    out.failed += failed;

    let untraced_targets = || crate::untraced(&passes).flat_map(|p| p.record.targets.iter());
    crate::EndToEnd {
        peak_rss_mb: passes[0].rss_mb,
        pass_walls_s: crate::untraced(&passes).map(|p| p.wall_s).collect(),
        // An operation is one tuning seed's tune + solve of both targets,
        // as in `cold_solve`.
        op_latencies_s: crate::untraced(&passes)
            .flat_map(|p| {
                p.record
                    .targets
                    .chunks(inp.targets.len())
                    .map(|c| c.iter().map(|t| t.latency_s).sum())
            })
            .collect(),
        solve_iterations: untraced_targets().map(|t| t.iterations as f64).collect(),
    }
    .insert(&mut out.metrics);
    let first = &passes[0].record;
    for r in &first.targets {
        out.notes.push(format!(
            "tune_unseen {}: {} trials ({} converged), {} certification attempt(s), tuned solve {} iterations, check {}",
            inp.targets[r.target].name,
            r.trials,
            r.converged_trials,
            r.certification_attempts,
            r.iterations,
            if r.passed { "pass" } else { "FAIL" }
        ));
    }
    first.tally.insert_metrics(&mut out.metrics);

    if cfg.trace {
        let spans = tracer.take();
        let traced: Vec<&PassRecord> = crate::traced(&passes).map(|p| &p.record).collect();
        let k = traced.len().max(1);
        let m = &mut out.metrics;
        let tunes = spans.iter().filter(|s| s.name == "core.autotune").count();
        m.insert(
            "core.autotune_s".into(),
            trace::total_s(&spans, "core.autotune") / tunes.max(1) as f64,
        );
        let sum = |f: fn(&TargetRecord) -> usize| first.targets.iter().map(f).sum::<usize>() as f64;
        let trials = sum(|t| t.trials);
        m.insert("core.autotune.trials".into(), trials);
        m.insert(
            "core.autotune.converged_trial_frac".into(),
            if trials > 0.0 {
                sum(|t| t.converged_trials) / trials
            } else {
                0.0
            },
        );
        m.insert(
            "core.autotune.certification_attempts".into(),
            sum(|t| t.certification_attempts),
        );
        let restores = spans.iter().filter(|s| s.name == "core.restore").count();
        m.insert(
            "core.restore_s".into(),
            trace::total_s(&spans, "core.restore") / restores.max(1) as f64,
        );
        m.insert("core.dataset_s".into(), median(&dataset_s));
        m.insert("gnn.train_s".into(), median(&train_s));
        let mut work = SolveWork::default();
        for p in &traced {
            work.merge(&p.work);
        }
        work.per_pass(k).insert_metrics(m);

        // The recommender's share of one tuning call, repeated outside the
        // passes with the tuner's own arguments (solver, tuning seed 0,
        // ξ = 0.05) on each target.
        let mut recommend_s = Vec::new();
        let mut predict_us = Vec::new();
        for t in &inp.targets {
            let mut rec = Recommender::from_snapshot(inp.snapshot.clone());
            let seed = 0;
            let t0 = Instant::now();
            let y_min = rec.predicted_min(&t.a, SolverType::Gmres, seed);
            let (params, _) = rec.recommend(&t.a, SolverType::Gmres, y_min, 0.05, seed);
            recommend_s.push(t0.elapsed().as_secs_f64());
            for _ in 0..20 {
                let t1 = Instant::now();
                std::hint::black_box(rec.predict(&t.a, SolverType::Gmres, params));
                predict_us.push(t1.elapsed().as_secs_f64() * 1e6);
            }
        }
        m.insert("core.recommend_s".into(), crate::mean(&recommend_s));
        m.insert("gnn.predict_us".into(), median(&predict_us));
        crate::insert_trace_metrics(m, &passes, &spans, 1);
        out.spans = spans;
    }
    out
}
