//! `serve_mixed`: the solver daemon under two closed-loop clients.
//!
//! The `Server` runs in-process with its default configuration and one
//! worker per CPU. Set-up starts it and warms three small "hot" operators.
//! A pass plays a fixed seeded script of requests: 90% name a hot operator
//! by fingerprint (cache hits), 10% carry a fresh `pdd_real_sparse(300, ·)`
//! operator (a build per request). Two client threads each send their half
//! of the script and wait for every reply, so HTTP, JSON, queueing and
//! the cache make up most of a hot request's latency and cold builds form
//! the tail. Every reply's `x` is parsed from its JSON and checked.

use crate::check::Tally;
use crate::trace::{SpanId, Tracer};
use crate::{median, Outcome, RunConfig, Scale};
use mcmcmi_matgen::{pdd_real_sparse, PaperMatrix};
use mcmcmi_serve::{ServeConfig, Server, SolveRequest, StatsSnapshot};
use mcmcmi_sparse::Csr;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Value};
use std::net::SocketAddr;
use std::time::Instant;

const HOT: [PaperMatrix; 3] = [
    PaperMatrix::A00512,
    PaperMatrix::Laplace32,
    PaperMatrix::PddRealSparseN256,
];

/// Requests per pass, and the share that carries a fresh operator.
const SCRIPT_LEN: usize = 1000;
const COLD_SHARE: f64 = 0.1;
const COLD_N: usize = 300;
const CLIENTS: usize = 2;

/// Tolerance the server applies when a request names none.
fn tol() -> f64 {
    mcmcmi_krylov::SolveOptions::default().tol
}

/// One scripted request: which operator (`None` = cold) and its rhs.
struct Step {
    hot: Option<usize>,
    b: Vec<f64>,
}

struct Input {
    server: Server,
    hot: Vec<(Csr, u64)>,
    script: Vec<Step>,
    /// Hot request bodies, built once (they repeat every pass).
    hot_bodies: Vec<Option<String>>,
}

fn body(matrix: Option<&Csr>, fingerprint: Option<u64>, b: &[f64]) -> String {
    let mut parts = Vec::new();
    if let Some(m) = matrix {
        parts.push(format!(
            "\"matrix\":{}",
            serde_json::to_string(m).expect("CSR serialises")
        ));
    }
    if let Some(f) = fingerprint {
        parts.push(format!("\"fingerprint\":{f}"));
    }
    parts.push(format!(
        "\"b\":{}",
        serde_json::to_string(b).expect("vector serialises")
    ));
    format!("{{{}}}", parts.join(","))
}

fn script_len(scale: Scale) -> usize {
    match scale {
        Scale::Full => SCRIPT_LEN,
        Scale::Minimal => 60,
    }
}

fn setup(seed: u64, scale: Scale) -> Result<Input, String> {
    let server = Server::start(ServeConfig {
        workers: crate::nproc(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let hot: Vec<(Csr, u64)> = HOT
        .iter()
        .map(|m| {
            let a = m.generate();
            let fp = a.fingerprint();
            (a, fp)
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for (a, _) in &hot {
        let b: Vec<f64> = (0..a.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let (status, text) = httpd::client::post(server.addr(), "/solve", &body(Some(a), None, &b))
            .map_err(|e| format!("warm-up request: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up request failed ({status}): {text}"));
        }
    }
    // Exactly `COLD_SHARE` of the script is cold, at seeded positions.
    let len = script_len(scale);
    let mut cold_at: Vec<bool> = (0..len)
        .map(|i| (i as f64) < COLD_SHARE * len as f64)
        .collect();
    cold_at.shuffle(&mut rng);
    let script: Vec<Step> = cold_at
        .iter()
        .map(|&cold| {
            let hot_pick = (!cold).then(|| rng.gen_range(0..HOT.len()));
            let n = hot_pick.map_or(COLD_N, |h| hot[h].0.nrows());
            let b = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Step { hot: hot_pick, b }
        })
        .collect();
    let hot_bodies = script
        .iter()
        .map(|s| s.hot.map(|h| body(None, Some(hot[h].1), &s.b)))
        .collect();
    Ok(Input {
        server,
        hot,
        script,
        hot_bodies,
    })
}

/// What one client saw for one request.
struct Reply {
    latency_s: f64,
    status: u16,
    text: String,
}

/// What the benchmark keeps of one reply once it is checked.
struct Served {
    latency_s: f64,
    /// Solver iterations and lockstep group width, for a successful reply.
    iterations: Option<u64>,
    coalesced_width: Option<u64>,
    bytes: usize,
}

struct PassRecord {
    /// Checked replies, in script order.
    replies: Vec<Served>,
    tally: Tally,
    hot_iterations: u64,
    request_bytes: usize,
    stats_before: StatsSnapshot,
    stats_after: StatsSnapshot,
}

/// Post every body in `order` from `CLIENTS` closed-loop threads (client `c`
/// takes indices `≡ c mod CLIENTS`). Returns replies in script order.
fn play(
    addr: SocketAddr,
    bodies: &[&str],
    tr: &Tracer,
    parent: SpanId,
) -> Result<Vec<Reply>, String> {
    let mut slots: Vec<Option<Reply>> = (0..bodies.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, body) in bodies.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let span = tr.begin_on("serve.post", parent, c);
                        let t0 = Instant::now();
                        let r = httpd::client::post(addr, "/solve", body);
                        let latency_s = t0.elapsed().as_secs_f64();
                        tr.end(span);
                        let (status, text) = r.unwrap_or_else(|e| (0, e.to_string()));
                        mine.push((
                            i,
                            Reply {
                                latency_s,
                                status,
                                text,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().map_err(|_| "client thread panicked".to_string())? {
                slots[i] = Some(r);
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every script index is played by one client"))
        .collect())
}

/// Parse one reply, check its `x` against `(a, b)`, and keep its figures.
fn check_reply(
    r: Reply,
    a: &Csr,
    b: &[f64],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Served {
    let mut served = Served {
        latency_s: r.latency_s,
        iterations: None,
        coalesced_width: None,
        bytes: r.text.len(),
    };
    let v = match serde_json::parse_value_str(&r.text) {
        Ok(v) if r.status == 200 => v,
        _ => {
            tally.reject();
            return served;
        }
    };
    let x = match v.get("x").map(Vec::<f64>::from_value) {
        Some(Ok(x)) => x,
        _ => {
            problems.push("a 200 reply carries no parsable `x`".into());
            tally.reject();
            return served;
        }
    };
    let claimed = v.get("converged") == Some(&Value::Bool(true));
    tally.answer("served reply", a, b, tol(), &x, claimed, None, problems);
    served.iterations = v.get("iterations").and_then(Value::as_u64);
    served.coalesced_width = v.get("coalesced_width").and_then(Value::as_u64);
    served
}

fn pass(
    inp: &Input,
    seed: u64,
    index: usize,
    tr: &Tracer,
    parent: SpanId,
    problems: &mut Vec<String>,
) -> (PassRecord, f64) {
    // Fresh cold operators every pass, so cold requests stay cold.
    let t_in = Instant::now();
    let (cold, bodies) = tr.span("bench.input", parent, || {
        let cold: Vec<Option<Csr>> = inp
            .script
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.hot.is_none().then(|| {
                    pdd_real_sparse(COLD_N, seed ^ ((index as u64) << 32) ^ (i as u64 + 1))
                })
            })
            .collect();
        let bodies: Vec<String> = inp
            .script
            .iter()
            .zip(&cold)
            .zip(&inp.hot_bodies)
            .map(|((s, c), hb)| match (c, hb) {
                (Some(a), _) => body(Some(a), None, &s.b),
                (None, Some(hb)) => hb.clone(),
                (None, None) => unreachable!("a step is hot or cold"),
            })
            .collect();
        (cold, bodies)
    });
    let input_s = t_in.elapsed().as_secs_f64();
    let stats_before = inp.server.stats();
    let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
    let replies = play(inp.server.addr(), &refs, tr, parent).unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    let stats_after = inp.server.stats();

    // Verification after the closed loop, so the clients never wait on it.
    let t_check = Instant::now();
    let mut tally = Tally::default();
    let mut hot_iterations = 0;
    for _ in replies.len()..inp.script.len() {
        tally.reject();
    }
    let replies: Vec<Served> = inp
        .script
        .iter()
        .zip(&cold)
        .zip(replies)
        .map(|((s, c), r)| {
            let a = match (s.hot, c) {
                (Some(h), _) => &inp.hot[h].0,
                (None, Some(a)) => a,
                (None, None) => unreachable!("a step is hot or cold"),
            };
            let served = check_reply(r, a, &s.b, &mut tally, problems);
            if s.hot.is_some() {
                hot_iterations += served.iterations.unwrap_or(0);
            }
            served
        })
        .collect();
    let check_s = t_check.elapsed().as_secs_f64();
    (
        PassRecord {
            replies,
            tally,
            hot_iterations,
            request_bytes: bodies.iter().map(String::len).sum(),
            stats_before,
            stats_after,
        },
        input_s + check_s,
    )
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut retired = Vec::new();
    let inp = crate::timed_setup(
        &mut out,
        || setup(cfg.seed, cfg.scale),
        |prev| {
            if let Ok(prev) = prev {
                retired.push(prev.server.join().map(|_| ()));
            }
        },
    );
    for r in retired {
        if let Err(e) = r {
            out.problems.push(format!("server drain after set-up: {e}"));
        }
    }
    let inp = match inp {
        Ok(i) => i,
        Err(e) => {
            out.problems.push(e);
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };

    let tracer = Tracer::on();
    let mut problems = Vec::new();
    let mut index = 0;
    let passes = crate::run_passes(cfg, &tracer, |tr, span| {
        index += 1;
        pass(&inp, cfg.seed, index, tr, span, &mut problems)
    });
    out.problems.append(&mut problems);
    out.notes.push(crate::pass_note(&passes));
    let delta =
        |p: &PassRecord, f: fn(&StatsSnapshot) -> u64| f(&p.stats_after) - f(&p.stats_before);
    out.counts = crate::same_counts(
        &passes,
        |r| {
            let mut c = vec![
                r.replies.len() as u64,
                r.hot_iterations,
                delta(r, |s| s.builds),
                delta(r, |s| s.cache_hits),
            ];
            c.extend(r.tally.label_counts());
            c
        },
        &mut out.problems,
    );
    let (attempted, failed) = crate::per_pass_failures(&passes, |r| &r.tally);
    out.attempted += attempted;
    out.failed += failed;

    let untraced_replies = || crate::untraced(&passes).flat_map(|p| p.record.replies.iter());
    crate::EndToEnd {
        peak_rss_mb: passes[0].rss_mb,
        pass_walls_s: crate::untraced(&passes).map(|p| p.wall_s).collect(),
        op_latencies_s: untraced_replies().map(|r| r.latency_s).collect(),
        solve_iterations: untraced_replies()
            .filter_map(|r| r.iterations)
            .map(|v| v as f64)
            .collect(),
    }
    .insert(&mut out.metrics);
    let first = &passes[0].record;
    first.tally.insert_metrics(&mut out.metrics);
    out.notes.push(format!(
        "serve_mixed: {} requests per pass ({} cold), {} client(s), {} worker(s)",
        inp.script.len(),
        inp.script.iter().filter(|s| s.hot.is_none()).count(),
        CLIENTS,
        crate::nproc()
    ));

    if cfg.trace {
        let spans = tracer.take();
        let traced: Vec<&PassRecord> = crate::traced(&passes).map(|p| &p.record).collect();
        let k = traced.len().max(1) as f64;
        let by_kind = |hot: bool| {
            let v: Vec<f64> = traced
                .iter()
                .flat_map(|p| inp.script.iter().zip(&p.replies))
                .filter(|(s, _)| s.hot.is_some() == hot)
                .map(|(_, r)| r.latency_s * 1e3)
                .collect();
            median(&v)
        };
        let total =
            |f: fn(&StatsSnapshot) -> u64| traced.iter().map(|p| delta(p, f)).sum::<u64>() as f64;
        let m = &mut out.metrics;
        m.insert("serve.hot_ms_p50".into(), by_kind(true));
        m.insert("serve.cold_ms_p50".into(), by_kind(false));
        let completed = total(|s| s.completed);
        m.insert(
            "serve.cache_hit_frac".into(),
            if completed > 0.0 {
                total(|s| s.cache_hits) / completed
            } else {
                0.0
            },
        );
        m.insert("serve.builds".into(), total(|s| s.builds) / k);
        m.insert(
            "serve.shed".into(),
            total(|s| s.shed_overload + s.shed_draining) / k,
        );
        m.insert("serve.worker_solves".into(), total(|s| s.worker_solves) / k);
        let widths: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.replies.iter())
            .filter_map(|r| r.coalesced_width)
            .map(|w| w as f64)
            .collect();
        m.insert("serve.coalesced_width_mean".into(), crate::mean(&widths));
        let replies: Vec<&Served> = traced.iter().flat_map(|p| p.replies.iter()).collect();
        m.insert(
            "serve.reply_bytes_mean".into(),
            replies.iter().map(|r| r.bytes).sum::<usize>() as f64 / replies.len().max(1) as f64,
        );
        m.insert(
            "serve.request_bytes_mean".into(),
            traced.iter().map(|p| p.request_bytes).sum::<usize>() as f64
                / (k * inp.script.len() as f64),
        );

        // Request parsing, on the script's own hot bodies.
        let hot_bodies: Vec<&String> = inp.hot_bodies.iter().flatten().collect();
        let t0 = Instant::now();
        for b in &hot_bodies {
            if SolveRequest::parse(b).is_err() {
                out.problems
                    .push("a scripted request does not parse".into());
            }
        }
        m.insert(
            "serve.parse_us".into(),
            t0.elapsed().as_secs_f64() * 1e6 / hot_bodies.len().max(1) as f64,
        );
        crate::insert_trace_metrics(m, &passes, &spans, CLIENTS);
        out.spans = spans;
    }
    match inp.server.join() {
        Ok(d) => out.notes.push(format!("server drained: {d:?}")),
        Err(e) => out.problems.push(format!("server drain: {e}")),
    }
    out
}
