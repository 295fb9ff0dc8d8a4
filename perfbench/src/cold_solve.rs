//! `cold_solve`: fresh operator, one right-hand side, nothing cached.
//!
//! A pass builds the MCMC preconditioner at the fixed paper-box point
//! (α = 2, ε = 1/32, δ = 1/16) and solves with GMRES(50) on each suite
//! matrix — the build-heavy workload — once for each of [`REPLICAS`] build
//! seeds derived from the workload seed, each with its own seeded `x*`.
//! Iteration counts swing with the random walks on the ill-conditioned
//! matrices and with `x*`, so one build per matrix would make a run's
//! figures depend mostly on its seed. Once per run, the first right-hand
//! sides are also
//! solved with no preconditioner, Jacobi, ILU(0) and IC(0) (SPD matrices
//! only); those reference rows give the time-to-solution table and the
//! break-even right-hand-side count against ILU(0).

use crate::check::Tally;
use crate::trace::{self, SolveWork, SpanId, Tracer};
use crate::{median, Outcome, RunConfig, Scale, COLD_MATRICES};
use mcmcmi_krylov::{
    Ic0, IdentityPrecond, Ilu0, JacobiPrecond, Preconditioner, SolveOptions, SolverType,
};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams};
use mcmcmi_sparse::{Csr, SpecializedBackend};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Build seeds per matrix in one pass.
pub const REPLICAS: u64 = 6;

/// GMRES(50) at tol 1e-8, at most 2000 iterations — every solve here.
pub fn opts() -> SolveOptions {
    SolveOptions {
        tol: 1e-8,
        max_iter: 2000,
        restart: 50,
        ..SolveOptions::default()
    }
}

fn params() -> McmcParams {
    McmcParams::new(2.0, 1.0 / 32.0, 1.0 / 16.0)
}

struct Input {
    name: &'static str,
    spd: bool,
    a: Csr,
    op: SpecializedBackend,
    /// One right-hand side `b = A·x*` per build seed, each with its own
    /// seeded `x*`; the reference rows use the first.
    b: Vec<Vec<f64>>,
}

fn setup(seed: u64, scale: Scale) -> Vec<Input> {
    let count = match scale {
        Scale::Full => COLD_MATRICES.len(),
        Scale::Minimal => 3,
    };
    COLD_MATRICES[..count]
        .iter()
        .enumerate()
        .map(|(k, &m)| {
            let a = m.generate();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0x9e37_79b9 * (k as u64 + 1)));
            let b = (0..REPLICAS)
                .map(|_| {
                    let x_star: Vec<f64> =
                        (0..a.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut b = vec![0.0; a.nrows()];
                    a.spmv(&x_star, &mut b);
                    b
                })
                .collect();
            Input {
                name: crate::matrix_name(m),
                spd: m.is_spd(),
                op: SpecializedBackend::detect(a.clone()),
                a,
                b,
            }
        })
        .collect()
}

/// One MCMC build + solve (matrix `m`, one build seed) in one pass.
#[derive(Clone, Debug)]
struct McmcRow {
    m: usize,
    build_s: f64,
    solve_s: f64,
    iterations: usize,
    transitions: usize,
    precond_nnz: usize,
    capped: usize,
    blown_up: usize,
    /// `Csr::fingerprint` of the preconditioner: it covers the value bits,
    /// so builds must be bit-identical to match.
    fingerprint: u64,
    passed: bool,
}

impl McmcRow {
    fn counts(&self) -> [u64; 7] {
        [
            self.iterations as u64,
            self.transitions as u64,
            self.precond_nnz as u64,
            self.capped as u64,
            self.blown_up as u64,
            self.fingerprint,
            self.passed as u64,
        ]
    }
}

struct PassRecord {
    rows: Vec<McmcRow>,
    tally: Tally,
    work: SolveWork,
}

fn pass(
    inputs: &[Input],
    builders: &[McmcInverse],
    tr: &Tracer,
    parent: SpanId,
    problems: &mut Vec<String>,
) -> PassRecord {
    let mut tally = Tally::default();
    let mut work = SolveWork::default();
    let mut rows = Vec::new();
    for (j, builder) in builders.iter().enumerate() {
        for (m, inp) in inputs.iter().enumerate() {
            let b = &inp.b[j];
            let t0 = Instant::now();
            let out = tr.span("mcmc.build", parent, || builder.build(&inp.a, params()));
            let build_s = t0.elapsed().as_secs_f64();
            let (res, solve_s) = trace::solve(
                tr,
                parent,
                &inp.op,
                b,
                &out.precond,
                SolverType::Gmres,
                opts(),
                &mut work,
            );
            let (passed, fingerprint) = tr.span("bench.check", parent, || {
                (
                    tally.solve(inp.name, &inp.a, b, opts().tol, &res, problems),
                    out.precond.matrix().fingerprint(),
                )
            });
            rows.push(McmcRow {
                m,
                build_s,
                solve_s,
                iterations: res.iterations,
                transitions: out.transitions,
                precond_nnz: out.precond.matrix().nnz(),
                capped: out.capped_chains,
                blown_up: out.blown_up_chains,
                fingerprint,
                passed,
            });
        }
    }
    PassRecord { rows, tally, work }
}

/// One reference preconditioner on one matrix.
struct BaselineRow {
    setup_s: f64,
    solve_s: f64,
    iterations: usize,
    passed: bool,
}

fn baseline(
    inp: &Input,
    which: &str,
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Option<BaselineRow> {
    let n = inp.a.nrows();
    let t0 = Instant::now();
    let p: Box<dyn Preconditioner> = match which {
        "none" => Box::new(IdentityPrecond::new(n)),
        "jacobi" => Box::new(JacobiPrecond::new(&inp.a)),
        "ilu0" => match Ilu0::new(&inp.a) {
            Ok(f) => Box::new(f),
            Err(_) => {
                tally.reject();
                return None;
            }
        },
        "ic0" if inp.spd => match Ic0::new(&inp.a) {
            Ok(f) => Box::new(f),
            Err(_) => {
                tally.reject();
                return None;
            }
        },
        _ => return None,
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let res = mcmcmi_krylov::solve(&inp.op, &inp.b[0], &p, SolverType::Gmres, opts());
    let solve_s = t1.elapsed().as_secs_f64();
    let what = format!("{} / {which}", inp.name);
    let passed = tally.solve(&what, &inp.a, &inp.b[0], opts().tol, &res, problems);
    Some(BaselineRow {
        setup_s,
        solve_s,
        iterations: res.iterations,
        passed,
    })
}

/// `krylov.break_even_rhs.<matrix>` when MCMC never breaks even. It is
/// larger than any count reported, so that "never" cannot read as an
/// improvement over a real count.
pub const BREAK_EVEN_NEVER: f64 = 1e6;

/// Smallest `k ≥ 1` at which `build + k·solve` (MCMC) beats
/// `factor + k·solve` (ILU(0)), capped at [`BREAK_EVEN_NEVER`];
/// [`BREAK_EVEN_NEVER`] when MCMC is not faster per right-hand side or
/// failed its check.
fn break_even(build_s: f64, solve_s: f64, passed: bool, ilu: Option<&BaselineRow>) -> f64 {
    match ilu {
        _ if !passed => BREAK_EVEN_NEVER,
        Some(ilu) if ilu.passed => {
            if solve_s >= ilu.solve_s {
                BREAK_EVEN_NEVER
            } else {
                (((build_s - ilu.setup_s) / (ilu.solve_s - solve_s)).floor() + 1.0)
                    .clamp(1.0, BREAK_EVEN_NEVER)
            }
        }
        // ILU(0) produced no checked answer, so MCMC wins at once.
        _ => 1.0,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let inputs = crate::timed_setup(&mut out, || setup(cfg.seed, cfg.scale), drop);
    let builders: Vec<McmcInverse> = (0..REPLICAS)
        .map(|j| {
            McmcInverse::new(BuildConfig {
                seed: cfg.seed.wrapping_mul(REPLICAS).wrapping_add(j),
                ..BuildConfig::default()
            })
        })
        .collect();

    let tracer = Tracer::on();
    let mut problems = Vec::new();
    let passes = crate::run_passes(cfg, &tracer, |tr, span| {
        (pass(&inputs, &builders, tr, span, &mut problems), 0.0)
    });
    out.problems.append(&mut problems);
    out.counts = crate::same_counts(
        &passes,
        |r| {
            let mut c: Vec<u64> = r.rows.iter().flat_map(McmcRow::counts).collect();
            c.extend(r.tally.label_counts());
            c
        },
        &mut out.problems,
    );
    let (attempted, failed) = crate::per_pass_failures(&passes, |r| &r.tally);
    out.attempted += attempted;
    out.failed += failed;
    out.notes.push(crate::pass_note(&passes));

    // End-to-end, from the untraced passes. An operation is one build seed's
    // cold build + solve of every matrix: single matrices differ in cost by
    // 30×, so their pooled percentiles would jump between matrices.
    let untraced_rows = || crate::untraced(&passes).flat_map(|p| p.record.rows.iter());
    let op_latencies_s: Vec<f64> = crate::untraced(&passes)
        .flat_map(|p| {
            p.record
                .rows
                .chunks(inputs.len())
                .map(|c| c.iter().map(|r| r.build_s + r.solve_s).sum())
        })
        .collect();
    crate::EndToEnd {
        peak_rss_mb: passes[0].rss_mb,
        pass_walls_s: crate::untraced(&passes).map(|p| p.wall_s).collect(),
        op_latencies_s,
        solve_iterations: untraced_rows().map(|r| r.iterations as f64).collect(),
    }
    .insert(&mut out.metrics);
    let first = &passes[0].record;

    // Reference rows, once per run.
    let mut base_tally = Tally::default();
    let base: Vec<Vec<Option<BaselineRow>>> = inputs
        .iter()
        .map(|inp| {
            crate::BASELINES
                .iter()
                .map(|w| baseline(inp, w, &mut base_tally, &mut out.problems))
                .collect()
        })
        .collect();
    out.attempted += base_tally.attempted;
    out.failed += base_tally.failed;

    // Time-to-solution table; MCMC rows are medians over the untraced
    // passes and build seeds.
    let mcmc_rows = |m: usize| {
        crate::untraced(&passes)
            .flat_map(|p| p.record.rows.iter())
            .filter(move |r| r.m == m)
    };
    out.notes.push(format!(
        "cold_solve time-to-solution (GMRES(50), tol 1e-8, max 2000 it; seed {}, {REPLICAS} MCMC build seeds):",
        cfg.seed
    ));
    out.notes.push(format!(
        "{:<32} {:<7} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "matrix", "precond", "setup_ms", "solve_ms", "total_ms", "iters", "check"
    ));
    let mut break_evens = Vec::new();
    for (m, inp) in inputs.iter().enumerate() {
        let row = |p: &str, s: f64, v: f64, it: f64, check: String| {
            format!(
                "{:<32} {:<7} {:>10.3} {:>10.3} {:>10.3} {:>6} {:>6}",
                inp.name,
                p,
                s * 1e3,
                v * 1e3,
                (s + v) * 1e3,
                it,
                check
            )
        };
        let verdict = |ok: bool| if ok { "pass" } else { "FAIL" }.to_string();
        for (w, b) in crate::BASELINES.iter().zip(&base[m]) {
            if let Some(b) = b {
                out.notes.push(row(
                    w,
                    b.setup_s,
                    b.solve_s,
                    b.iterations as f64,
                    verdict(b.passed),
                ));
            }
        }
        let med = |f: fn(&McmcRow) -> f64| median(&mcmc_rows(m).map(f).collect::<Vec<_>>());
        let (bm, sm) = (med(|r| r.build_s), med(|r| r.solve_s));
        let it = med(|r| r.iterations as f64);
        let all_passed = first.rows.iter().filter(|r| r.m == m).all(|r| r.passed);
        let passed_count = first.rows.iter().filter(|r| r.m == m && r.passed).count();
        out.notes.push(row(
            "mcmc",
            bm,
            sm,
            it,
            format!("{passed_count}/{REPLICAS}"),
        ));
        let per_seed: Vec<String> = first
            .rows
            .iter()
            .filter(|r| r.m == m)
            .map(|r| r.iterations.to_string())
            .collect();
        out.notes.push(format!(
            "{:<32} mcmc iterations per build seed: {}",
            inp.name,
            per_seed.join(" ")
        ));
        let be = break_even(bm, sm, all_passed, base[m][2].as_ref());
        out.metrics
            .insert(format!("krylov.break_even_rhs.{}", inp.name), be);
        let shown = if be >= BREAK_EVEN_NEVER {
            "never".to_string()
        } else {
            be.to_string()
        };
        break_evens.push(format!("{}: {shown}", inp.name));
    }
    out.notes.push(format!(
        "break-even rhs count vs ILU(0) (never = {BREAK_EVEN_NEVER}): {}",
        break_evens.join(", ")
    ));

    for (j, w) in crate::BASELINES.iter().enumerate() {
        let rows: Vec<&BaselineRow> = base.iter().filter_map(|r| r[j].as_ref()).collect();
        let fails = rows.iter().filter(|r| !r.passed).count();
        let m = &mut out.metrics;
        m.insert(
            format!("krylov.baseline.{w}.tts_s"),
            rows.iter().map(|r| r.setup_s + r.solve_s).sum(),
        );
        m.insert(
            format!("krylov.baseline.{w}.iterations"),
            rows.iter().map(|r| r.iterations).sum::<usize>() as f64,
        );
        m.insert(
            format!("krylov.baseline.{w}.fail_frac"),
            fails as f64 / rows.len().max(1) as f64,
        );
    }
    let factor: f64 = base
        .iter()
        .filter_map(|r| r[2].as_ref())
        .map(|r| r.setup_s)
        .sum();
    out.metrics.insert("krylov.ilu0.factor_s".into(), factor);
    let mut failures = first.tally.clone();
    failures.merge(&base_tally);
    failures.insert_metrics(&mut out.metrics);

    if cfg.trace {
        let spans = tracer.take();
        let traced: Vec<&PassRecord> = crate::traced(&passes).map(|p| &p.record).collect();
        let k = traced.len().max(1);
        let build_s = trace::total_s(&spans, "mcmc.build") / k as f64;
        let rows = &first.rows;
        let sum = |f: fn(&McmcRow) -> usize| rows.iter().map(f).sum::<usize>() as f64;
        let transitions = sum(|r| r.transitions);
        let m = &mut out.metrics;
        m.insert("mcmc.build_s".into(), build_s);
        m.insert("mcmc.transitions".into(), transitions);
        m.insert("mcmc.ns_per_transition".into(), build_s * 1e9 / transitions);
        m.insert("mcmc.precond_nnz".into(), sum(|r| r.precond_nnz));
        m.insert("mcmc.capped_chains".into(), sum(|r| r.capped));
        m.insert("mcmc.blown_up_chains".into(), sum(|r| r.blown_up));
        for (j, inp) in inputs.iter().enumerate() {
            let of = |p: &&PassRecord, f: fn(&McmcRow) -> f64| {
                p.rows.iter().filter(|r| r.m == j).map(f).sum::<f64>()
            };
            let build: f64 = traced.iter().map(|p| of(p, |r| r.build_s)).sum();
            let trans: f64 = traced.iter().map(|p| of(p, |r| r.transitions as f64)).sum();
            m.insert(
                format!("mcmc.ns_per_transition.{}", inp.name),
                build * 1e9 / trans,
            );
        }
        let mut work = SolveWork::default();
        for p in &traced {
            work.merge(&p.work);
        }
        work.per_pass(k).insert_metrics(m);

        // Single-thread baseline for one build seed; it must reproduce the
        // multi-thread builds exactly.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("one-thread pool builds");
        let mut one_thread_s = 0.0;
        for (j, inp) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            let o = pool.install(|| builders[0].build(&inp.a, params()));
            one_thread_s += t0.elapsed().as_secs_f64();
            if o.transitions != rows[j].transitions
                || o.precond.matrix().fingerprint() != rows[j].fingerprint
            {
                out.problems.push(format!(
                    "{}: one-thread build differs from the multi-thread build",
                    inp.name
                ));
            }
        }
        let multi_s: f64 = traced
            .iter()
            .map(|p| {
                p.rows[..inputs.len()]
                    .iter()
                    .map(|r| r.build_s)
                    .sum::<f64>()
            })
            .sum::<f64>()
            / k as f64;
        m.insert("mcmc.build_s_1thread".into(), one_thread_s);
        out.notes.push(format!(
            "one build seed over all matrices: {one_thread_s:.3} s on 1 thread, {multi_s:.3} s on {} threads",
            rayon::current_num_threads()
        ));
        crate::insert_trace_metrics(m, &passes, &spans, 1);
        out.spans = spans;
    }
    out
}
