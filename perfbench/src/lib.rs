//! Layered time-to-solution benchmark for the mcmcmi workspace.
//!
//! One binary runs four named workloads. Each run makes its inputs from a
//! seed, plays the workload's fixed script ("pass") repeatedly for the
//! requested number of seconds, recomputes every answer's residual itself,
//! and reports metrics by name and unit:
//!
//! - untraced runs (`--trace 0`) report the end-to-end metrics
//!   ([`end_to_end_metrics`]);
//! - traced runs (`--trace 1`) split their time between untraced and traced
//!   passes, record spans around the benchmark's calls into each workspace
//!   crate plus counting wrappers over `KernelBackend`/`Preconditioner`,
//!   and report the per-layer metrics ([`per_layer_metrics`]) including the
//!   tracing overhead.
//!
//! Passes of one run see identical inputs, so every deterministic count
//! (iterations, transitions, refresh actions, builds) must repeat exactly
//! from pass to pass; a mismatch marks the run incorrect.

pub mod check;
pub mod cold_solve;
pub mod drift_stream;
pub mod serve_mixed;
pub mod trace;
pub mod tune_unseen;

use mcmcmi_matgen::PaperMatrix;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{SpanId, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cold_solve", "drift_stream", "tune_unseen", "serve_mixed"];

/// The Table-1 matrices `cold_solve` solves (`nonsym_r3_a11` is left out:
/// no preconditioner converges it within the iteration cap and one pass
/// over it alone takes tens of seconds).
pub const COLD_MATRICES: [PaperMatrix; 5] = [
    PaperMatrix::A00512,
    PaperMatrix::UnsteadyAdvDiffOrder2,
    PaperMatrix::Laplace64,
    PaperMatrix::A08192,
    PaperMatrix::Laplace128,
];

/// Reference preconditioners `cold_solve` compares MCMC against.
pub const BASELINES: [&str; 4] = ["none", "jacobi", "ilu0", "ic0"];

/// Labels under which failed answers are counted: the six
/// `SolveFailure::label`s, `not-converged` (a served reply that reports no
/// convergence without a structured cause), `unverified` (the program
/// claimed convergence but the benchmark's residual check failed) and
/// `rejected` (no answer at all: an error reply, a shed request, a
/// transport failure, a failed factorisation or tuning run).
pub const FAILURE_LABELS: [&str; 9] = [
    "breakdown",
    "stagnated",
    "diverged",
    "non-finite",
    "budget-exhausted",
    "cancelled",
    "not-converged",
    "unverified",
    "rejected",
];

/// Set-up runs until [`SETUP_MIN_S`] seconds of set-up time have passed
/// (at least once), so that millisecond set-ups are timed over many
/// repetitions; `setup_s` is the median.
pub const SETUP_MIN_S: f64 = 1.0;

/// `(name, unit)` of every end-to-end metric; every workload reports all of
/// them in an untraced run.
pub fn end_to_end_metrics() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("tts_s", "s"),
        ("iters_per_solve", "count"),
        ("latency_ms_p50", "ms"),
        ("req_per_s", "1/s"),
        ("peak_rss_mb", "MB"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// `(name, unit)` of every per-layer metric; every workload reports all of
/// them in a traced run, with 0 for layers its script does not call.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| m.push((n, u));
    for (n, u) in [
        ("mcmc.build_s", "s"),
        ("mcmc.build_s_1thread", "s"),
        ("mcmc.transitions", "count"),
        ("mcmc.ns_per_transition", "ns"),
        ("mcmc.precond_nnz", "count"),
        ("mcmc.capped_chains", "count"),
        ("mcmc.blown_up_chains", "count"),
    ] {
        add(n.into(), u);
    }
    for mat in COLD_MATRICES {
        add(format!("mcmc.ns_per_transition.{}", matrix_name(mat)), "ns");
    }
    for (n, u) in [
        ("krylov.solve_s", "s"),
        ("krylov.iterations", "count"),
        ("krylov.us_per_iteration", "us"),
        ("krylov.precond_apply_s", "s"),
        ("krylov.precond_apply_calls", "count"),
        ("krylov.self_s", "s"),
        ("krylov.ilu0.factor_s", "s"),
    ] {
        add(n.into(), u);
    }
    for label in FAILURE_LABELS {
        add(format!("krylov.failed.{label}"), "count");
    }
    for p in BASELINES {
        add(format!("krylov.baseline.{p}.tts_s"), "s");
        add(format!("krylov.baseline.{p}.iterations"), "count");
        add(format!("krylov.baseline.{p}.fail_frac"), "ratio");
    }
    for mat in COLD_MATRICES {
        add(
            format!("krylov.break_even_rhs.{}", matrix_name(mat)),
            "count",
        );
    }
    for (n, u) in [
        ("sparse.spmv_calls", "count"),
        ("sparse.spmv_s", "s"),
        ("sparse.spmv_ns_per_nnz", "ns"),
        ("sparse.spmv_gb_per_s", "GB/s"),
        ("sparse.diff_rows_ms", "ms"),
        ("core.autotune_s", "s"),
        ("core.autotune.trials", "count"),
        ("core.autotune.converged_trial_frac", "ratio"),
        ("core.autotune.certification_attempts", "count"),
        ("core.restore_s", "s"),
        ("core.recommend_s", "s"),
        ("core.dataset_s", "s"),
        ("core.drift.keep_step_ms_p50", "ms"),
        ("core.drift.partial_step_ms_p50", "ms"),
        ("core.drift.partial_rebuilds", "count"),
        ("core.drift.full_rebuilds", "count"),
        ("core.drift.rows_rebuilt", "count"),
        ("core.drift.warm_initial_rel_residual_p50", "ratio"),
        ("gnn.train_s", "s"),
        ("gnn.predict_us", "us"),
        ("serve.hot_ms_p50", "ms"),
        ("serve.cold_ms_p50", "ms"),
        ("serve.cache_hit_frac", "ratio"),
        ("serve.builds", "count"),
        ("serve.coalesced_width_mean", "count"),
        ("serve.shed", "count"),
        ("serve.worker_solves", "count"),
        ("serve.parse_us", "us"),
        ("serve.request_bytes_mean", "bytes"),
        ("serve.reply_bytes_mean", "bytes"),
        ("fail_frac", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.span_coverage", "ratio"),
    ] {
        add(n.into(), u);
    }
    m
}

/// Table-1 name of a suite matrix (used in per-matrix metric names).
pub fn matrix_name(m: PaperMatrix) -> &'static str {
    m.paper_row().name
}

/// How large a run's inputs are. `Minimal` shrinks every script so the
/// package's own tests can exercise each workload end to end in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Minimal,
}

/// One run's settings, straight from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No answer contradicted the program's own claims and every
    /// deterministic count repeated across passes.
    pub correct: bool,
    /// Answers checked in one pass (plus once-per-run reference solves).
    pub attempted: u64,
    /// Answers that failed the residual check, errored or were shed.
    pub failed: u64,
    /// Every metric the run measured (both families; the caller selects).
    pub metrics: BTreeMap<String, f64>,
    /// Deterministic per-pass counts, for cross-run comparison.
    pub counts: Vec<u64>,
    /// Human-readable report lines (tables, context).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
    /// Reasons the run is marked incorrect.
    pub problems: Vec<String>,
}

/// Run one workload by name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = match name {
        "cold_solve" => cold_solve::run(cfg),
        "drift_stream" => drift_stream::run(cfg),
        "tune_unseen" => tune_unseen::run(cfg),
        "serve_mixed" => serve_mixed::run(cfg),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    let (attempted, failed) = (out.attempted.max(1), out.failed);
    out.metrics
        .insert("fail_frac".into(), failed as f64 / attempted as f64);
    for (n, _) in per_layer_metrics() {
        out.metrics.entry(n).or_insert(0.0);
    }
    out.notes.push(format!(
        "context: rayon threads {}, nproc {}",
        rayon::current_num_threads(),
        nproc()
    ));
    for p in &out.problems {
        out.notes.push(format!("INCORRECT: {p}"));
    }
    out.correct = out.problems.is_empty();
    Ok(out)
}

/// Render the final result line: exactly the metrics of one family.
pub fn result_json(out: &Outcome, trace: bool) -> Result<String, String> {
    let family = if trace {
        per_layer_metrics()
    } else {
        end_to_end_metrics()
    };
    let mut parts = Vec::with_capacity(family.len());
    for (name, unit) in family {
        let v = *out
            .metrics
            .get(&name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        parts.join(", ")
    ))
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean after dropping the lowest and highest tenth of the samples. Failing
/// solves stop at chaotic iteration counts (hundreds to the cap), and a
/// plain mean would follow the few largest.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// Run `setup` until [`SETUP_MIN_S`] of set-up time has passed (at least
/// once), hand every result but the last to `retire` (outside the timing),
/// record the median wall time as `setup_s` and every repetition's time as
/// a note, and return the last result.
pub fn timed_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> T,
    mut retire: impl FnMut(T),
) -> T {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.iter().sum::<f64>() < SETUP_MIN_S {
        if let Some(prev) = last.take() {
            retire(prev);
        }
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    out.metrics.insert("setup_s".into(), median(&times));
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    out.notes
        .push(format!("set-up times (s): [{}]", shown.join(" ")));
    last.expect("set-up ran at least once")
}

/// One pass's result: its wall time and the workload's own record.
pub struct Pass<T> {
    /// Wall time of the pass, minus the time the benchmark spent making
    /// inputs mid-pass (operators that arrive from outside the program).
    pub wall_s: f64,
    pub traced: bool,
    /// Peak resident set of the process when the pass ended (NaN when
    /// unreadable, which fails the result line).
    pub rss_mb: f64,
    pub record: T,
}

/// Play passes for up to `cfg.seconds` (at least one). A traced run spends the
/// first half untraced and the second half traced (at least one of each),
/// so tracing overhead is the difference of the two halves' median pass
/// times. `pass` receives the tracer and the pass's own span, and returns
/// its record plus the seconds it spent making inputs (inside
/// `bench.input` spans), which do not count as pass time.
pub fn run_passes<T>(
    cfg: &RunConfig,
    tracer: &Tracer,
    mut pass: impl FnMut(&Tracer, SpanId) -> (T, f64),
) -> Vec<Pass<T>> {
    let untraced = Tracer::off();
    let mut passes = Vec::new();
    let halves: &[(bool, f64)] = if cfg.trace {
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    for &(traced, share) in halves {
        let budget = cfg.seconds * share;
        let t_half = Instant::now();
        let mut played = 0.0;
        loop {
            let tr = if traced { tracer } else { &untraced };
            let span = tr.begin("bench.pass", None);
            let t0 = Instant::now();
            let (record, input_s) = pass(tr, span);
            let wall_s = t0.elapsed().as_secs_f64() - input_s;
            tr.end(span);
            passes.push(Pass {
                wall_s,
                traced,
                rss_mb: peak_rss_mb().unwrap_or(f64::NAN),
                record,
            });
            // Stop before a pass that would end past the budget.
            played += 1.0;
            let elapsed = t_half.elapsed().as_secs_f64();
            if elapsed + elapsed / played > budget {
                break;
            }
        }
    }
    passes
}

/// Report line listing every pass's time.
pub fn pass_note<T>(passes: &[Pass<T>]) -> String {
    let show = |traced: bool| {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| format!("{:.3}", p.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "pass times (s): untraced [{}], traced [{}]",
        show(false),
        show(true)
    )
}

/// Records of the untraced passes.
pub fn untraced<T>(passes: &[Pass<T>]) -> impl Iterator<Item = &Pass<T>> {
    passes.iter().filter(|p| !p.traced)
}

/// Records of the traced passes.
pub fn traced<T>(passes: &[Pass<T>]) -> impl Iterator<Item = &Pass<T>> {
    passes.iter().filter(|p| p.traced)
}

/// Check that every pass produced the same deterministic counts; return
/// those counts (empty when there are no passes).
pub fn same_counts<T>(
    passes: &[Pass<T>],
    counts: impl Fn(&T) -> Vec<u64>,
    problems: &mut Vec<String>,
) -> Vec<u64> {
    let first = match passes.first() {
        Some(p) => counts(&p.record),
        None => return Vec::new(),
    };
    for (i, p) in passes.iter().enumerate().skip(1) {
        let c = counts(&p.record);
        if c != first {
            problems.push(format!(
                "pass {i} counts {c:?} differ from pass 0 counts {first:?} on identical inputs"
            ));
            break;
        }
    }
    first
}

/// `(attempted, failed)` of one pass: the mean over the passes, rounded up
/// so that a failure in any pass stays visible. Every pass plays the same
/// script, so the figures do not depend on how many passes fit in the run.
pub fn per_pass_failures<T>(passes: &[Pass<T>], tally: impl Fn(&T) -> &check::Tally) -> (u64, u64) {
    let n = passes.len().max(1) as u64;
    let (mut attempted, mut failed) = (0, 0);
    for p in passes {
        attempted += tally(&p.record).attempted;
        failed += tally(&p.record).failed;
    }
    (attempted.div_ceil(n), failed.div_ceil(n))
}

/// Tracing overhead from the two halves of a traced run:
/// `(median traced − median untraced pass time, that / median untraced)`.
pub fn tracing_overhead<T>(passes: &[Pass<T>]) -> (f64, f64) {
    let u: Vec<f64> = untraced(passes).map(|p| p.wall_s).collect();
    let t: Vec<f64> = traced(passes).map(|p| p.wall_s).collect();
    if u.is_empty() || t.is_empty() {
        return (0.0, 0.0);
    }
    let (mu, mt) = (median(&u), median(&t));
    (mt - mu, (mt - mu) / mu)
}

/// What the untraced passes of a run measured, for the end-to-end metrics.
pub struct EndToEnd {
    /// Peak resident set after set-up and the first pass. Later passes may
    /// grow caches further, and how many passes fit depends on speed.
    pub peak_rss_mb: f64,
    /// Wall time of each untraced pass.
    pub pass_walls_s: Vec<f64>,
    /// Latency of each operation (the workload's unit of work) in them.
    pub op_latencies_s: Vec<f64>,
    /// Krylov iterations of each solve in them.
    pub solve_iterations: Vec<f64>,
}

impl EndToEnd {
    /// Insert every end-to-end metric except `setup_s`.
    pub fn insert(&self, metrics: &mut BTreeMap<String, f64>) {
        metrics.insert("peak_rss_mb".into(), self.peak_rss_mb);
        let ms: Vec<f64> = self.op_latencies_s.iter().map(|s| s * 1e3).collect();
        let total: f64 = self.pass_walls_s.iter().sum();
        metrics.insert("tts_s".into(), median(&self.pass_walls_s));
        metrics.insert(
            "iters_per_solve".into(),
            trimmed_mean(&self.solve_iterations),
        );
        metrics.insert("latency_ms_p50".into(), median(&ms));
        metrics.insert(
            "req_per_s".into(),
            self.solve_iterations.len() as f64 / total,
        );
    }
}

/// Insert `trace.overhead_s`, `trace.overhead_frac` and
/// `trace.span_coverage` for a traced run with `clients` concurrent callers.
pub fn insert_trace_metrics<T>(
    metrics: &mut BTreeMap<String, f64>,
    passes: &[Pass<T>],
    spans: &[trace::Span],
    clients: usize,
) {
    let (over_s, over_frac) = tracing_overhead(passes);
    metrics.insert("trace.overhead_s".into(), over_s);
    metrics.insert("trace.overhead_frac".into(), over_frac);
    metrics.insert(
        "trace.span_coverage".into(),
        trace::layer_coverage(spans, clients),
    );
}
