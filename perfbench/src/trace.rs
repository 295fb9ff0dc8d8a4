//! In-memory spans around the benchmark's calls into each layer, and
//! counting wrappers over the public kernel and preconditioner traits.
//!
//! The wrappers delegate every call unchanged, so a traced solve performs
//! exactly the arithmetic of an untraced one; they only add two clock reads
//! and two relaxed counter updates per call.

use mcmcmi_krylov::Preconditioner;
use mcmcmi_sparse::KernelBackend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Client thread for concurrent callers (0 otherwise).
    pub thread: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder; [`Tracer::off`] records nothing and reads no clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn on() -> Self {
        Self {
            on: true,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.begin_on(name, parent, 0)
    }

    /// Open a span under `parent` on client thread `thread`.
    pub fn begin_on(&self, name: &'static str, parent: SpanId, thread: usize) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panic");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            thread,
        });
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            self.spans
                .lock()
                .expect("span list lock poisoned by a panic")[i]
                .end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span list lock poisoned by a panic"),
        )
    }
}

/// Sum of the durations of spans named `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// Share of the `bench.pass` spans' time covered by their direct children
/// that are layer calls (every child whose name does not start with
/// `bench.`), divided by the number of concurrent client threads. Input
/// generation (`bench.input` children) is not pass time.
pub fn layer_coverage(spans: &[Span], clients: usize) -> f64 {
    let is_pass = |p: Option<usize>| p.is_some_and(|p| spans[p].name == "bench.pass");
    let children = |pred: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| is_pass(s.parent) && pred(s.name))
            .map(Span::secs)
            .sum()
    };
    let wall = total_s(spans, "bench.pass") - children(&|n| n == "bench.input");
    let covered = children(&|n| !n.starts_with("bench."));
    if wall > 0.0 {
        covered / (wall * clients as f64)
    } else {
        0.0
    }
}

/// Render spans as JSON lines: name, start, end, parent, thread.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"thread\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.thread
        ));
    }
    out
}

/// Calls and busy nanoseconds of one wrapped operation.
#[derive(Default, Debug)]
pub struct Counter {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Counter {
    fn time<R>(&self, count: u64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(count, Ordering::Relaxed);
        r
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// `KernelBackend` wrapper counting matrix–vector products (an `n×k` SpMM
/// counts as `k` products) and their busy time.
pub struct CountingBackend<'a, A: KernelBackend + ?Sized> {
    pub inner: &'a A,
    pub products: Counter,
}

impl<'a, A: KernelBackend + ?Sized> CountingBackend<'a, A> {
    pub fn new(inner: &'a A) -> Self {
        Self {
            inner,
            products: Counter::default(),
        }
    }
}

impl<A: KernelBackend + ?Sized> KernelBackend for CountingBackend<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.products.time(1, || self.inner.spmv(x, y))
    }
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        self.products.time(k as u64, || self.inner.spmm(x, k, y))
    }
    fn kernel_name(&self) -> &'static str {
        self.inner.kernel_name()
    }
}

/// `Preconditioner` wrapper counting applications (a block apply over `k`
/// columns counts as `k`) and their busy time.
pub struct CountingPrecond<'a, P: Preconditioner + ?Sized> {
    pub inner: &'a P,
    pub applies: Counter,
}

impl<'a, P: Preconditioner + ?Sized> CountingPrecond<'a, P> {
    pub fn new(inner: &'a P) -> Self {
        Self {
            inner,
            applies: Counter::default(),
        }
    }
}

impl<P: Preconditioner + ?Sized> Preconditioner for CountingPrecond<'_, P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.applies.time(1, || self.inner.apply(r, z))
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        self.applies
            .time(k as u64, || self.inner.apply_block(r, k, z))
    }
    fn is_compressed(&self) -> bool {
        self.inner.is_compressed()
    }
}

/// Kernel and preconditioner work accumulated over a set of traced solves.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveWork {
    pub solve_s: f64,
    pub iterations: u64,
    pub spmv_calls: u64,
    pub spmv_s: f64,
    /// Stored non-zeros touched by all products.
    pub spmv_nnz: u64,
    /// Array bytes the products read and write (CSR arrays plus the input
    /// and output vectors): computed, not measured traffic.
    pub spmv_bytes: f64,
    pub apply_calls: u64,
    pub apply_s: f64,
}

impl SolveWork {
    /// Fold one wrapped solve into the totals.
    pub fn add<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
        &mut self,
        solve_s: f64,
        iterations: usize,
        a: &CountingBackend<'_, A>,
        p: &CountingPrecond<'_, P>,
    ) {
        let calls = a.products.calls();
        let (n, nnz) = (a.nrows() as f64, a.nnz() as f64);
        self.solve_s += solve_s;
        self.iterations += iterations as u64;
        self.spmv_calls += calls;
        self.spmv_s += a.products.secs();
        self.spmv_nnz += calls * a.nnz() as u64;
        self.spmv_bytes += calls as f64 * (nnz * 16.0 + (n + 1.0) * 8.0 + 2.0 * n * 8.0);
        self.apply_calls += p.applies.calls();
        self.apply_s += p.applies.secs();
    }

    /// Add another set of totals into this one.
    pub fn merge(&mut self, o: &SolveWork) {
        self.solve_s += o.solve_s;
        self.iterations += o.iterations;
        self.spmv_calls += o.spmv_calls;
        self.spmv_s += o.spmv_s;
        self.spmv_nnz += o.spmv_nnz;
        self.spmv_bytes += o.spmv_bytes;
        self.apply_calls += o.apply_calls;
        self.apply_s += o.apply_s;
    }

    /// Scale every total by `1 / passes` (per-pass means).
    pub fn per_pass(self, passes: usize) -> Self {
        let k = passes.max(1) as f64;
        Self {
            solve_s: self.solve_s / k,
            iterations: (self.iterations as f64 / k).round() as u64,
            spmv_calls: (self.spmv_calls as f64 / k).round() as u64,
            spmv_s: self.spmv_s / k,
            spmv_nnz: (self.spmv_nnz as f64 / k).round() as u64,
            spmv_bytes: self.spmv_bytes / k,
            apply_calls: (self.apply_calls as f64 / k).round() as u64,
            apply_s: self.apply_s / k,
        }
    }

    /// Insert the `krylov.*` and `sparse.*` per-layer metrics.
    pub fn insert_metrics(&self, m: &mut std::collections::BTreeMap<String, f64>) {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        m.insert("krylov.solve_s".into(), self.solve_s);
        m.insert("krylov.iterations".into(), self.iterations as f64);
        m.insert(
            "krylov.us_per_iteration".into(),
            per(self.solve_s * 1e6, self.iterations as f64),
        );
        m.insert("krylov.precond_apply_s".into(), self.apply_s);
        m.insert("krylov.precond_apply_calls".into(), self.apply_calls as f64);
        m.insert(
            "krylov.self_s".into(),
            self.solve_s - self.spmv_s - self.apply_s,
        );
        m.insert("sparse.spmv_calls".into(), self.spmv_calls as f64);
        m.insert("sparse.spmv_s".into(), self.spmv_s);
        m.insert(
            "sparse.spmv_ns_per_nnz".into(),
            per(self.spmv_s * 1e9, self.spmv_nnz as f64),
        );
        m.insert(
            "sparse.spmv_gb_per_s".into(),
            per(self.spmv_bytes * 1e-9, self.spmv_s),
        );
    }
}

/// Solve through the counting wrappers inside a `krylov.solve` span when
/// tracing is on, or directly when it is off. Returns the result and the
/// solve's wall time; traced solves also fold their work into `work`.
#[allow(clippy::too_many_arguments)]
pub fn solve<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    tr: &Tracer,
    parent: SpanId,
    a: &A,
    b: &[f64],
    p: &P,
    solver: mcmcmi_krylov::SolverType,
    opts: mcmcmi_krylov::SolveOptions,
    work: &mut SolveWork,
) -> (mcmcmi_krylov::SolveResult, f64) {
    if !tr.is_on() {
        let t0 = Instant::now();
        let res = mcmcmi_krylov::solve(a, b, p, solver, opts);
        return (res, t0.elapsed().as_secs_f64());
    }
    let (ca, cp) = (CountingBackend::new(a), CountingPrecond::new(p));
    let id = tr.begin("krylov.solve", parent);
    let t0 = Instant::now();
    let res = mcmcmi_krylov::solve(&ca, b, &cp, solver, opts);
    let secs = t0.elapsed().as_secs_f64();
    tr.end(id);
    work.add(secs, res.iterations, &ca, &cp);
    (res, secs)
}
