//! Minimal-size passes of every workload: each emits every metric of both
//! families, keeps its own correctness checks green, and repeats its
//! deterministic counts and its `attempted`/`failed` figures exactly across
//! a one-pass and a two-pass run with the same seed.

use mcmcmi_perfbench::cold_solve::BREAK_EVEN_NEVER;
use mcmcmi_perfbench::{
    end_to_end_metrics, per_layer_metrics, result_json, run_workload, Outcome, RunConfig, Scale,
    WORKLOADS,
};
use serde::Value;

/// Minimal size, as few passes as possible: one untraced pass, or one
/// untraced and one traced pass when `trace` is set.
fn minimal(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Minimal,
    };
    run_workload(workload, &cfg).expect("known workload")
}

fn metric(out: &Outcome, name: &str) -> f64 {
    *out.metrics
        .get(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn check_workload(workload: &str) -> Outcome {
    let a = minimal(workload, 7, true);
    let b = minimal(workload, 7, false);
    assert!(a.correct, "{workload}: {:?}", a.problems);
    assert!(a.attempted > 0, "{workload}: nothing was checked");
    for trace in [false, true] {
        let line = result_json(&a, trace).expect("every metric measured and finite");
        let v = serde_json::parse_value_str(&line).expect("result line is JSON");
        let metrics = v.get("metrics").expect("metrics object");
        let family = if trace {
            per_layer_metrics()
        } else {
            end_to_end_metrics()
        };
        for (name, unit) in family {
            let m = metric_value(metrics, &name);
            assert_eq!(m.1, unit, "{workload}: unit of {name}");
        }
    }
    for (name, _) in end_to_end_metrics() {
        assert!(metric(&a, &name) > 0.0, "{workload}: {name} must not be 0");
    }
    assert!(!a.counts.is_empty(), "{workload}: no deterministic counts");
    assert_eq!(a.counts, b.counts, "{workload}: counts differ between runs");
    // Two passes against one: the figures are per pass, so they must not
    // depend on how many passes fit in the run.
    assert_eq!(
        (a.attempted, a.failed),
        (b.attempted, b.failed),
        "{workload}: attempted/failed differ between a 2-pass and a 1-pass run"
    );
    assert!(
        !a.spans.is_empty(),
        "{workload}: the traced pass recorded no spans"
    );
    a
}

fn metric_value(metrics: &Value, name: &str) -> (f64, String) {
    let m = metrics
        .get(name)
        .unwrap_or_else(|| panic!("{name} not in result line"));
    let value = m
        .get("value")
        .and_then(Value::as_f64)
        .expect("numeric value");
    let unit = match m.get("unit") {
        Some(Value::Str(u)) => u.clone(),
        other => panic!("{name}: bad unit {other:?}"),
    };
    (value, unit)
}

#[test]
fn cold_solve_minimal() {
    let out = check_workload("cold_solve");
    for name in ["mcmc.transitions", "mcmc.build_s", "mcmc.build_s_1thread"] {
        assert!(metric(&out, name) > 0.0, "{name}");
    }
    for name in [
        "krylov.iterations",
        "krylov.precond_apply_calls",
        "sparse.spmv_calls",
    ] {
        assert!(metric(&out, name) > 0.0, "{name}");
    }
    assert!(metric(&out, "krylov.baseline.ilu0.tts_s") > 0.0);
    for name in per_layer_metrics()
        .into_iter()
        .map(|(n, _)| n)
        .filter(|n| n.starts_with("krylov.break_even_rhs."))
        .take(3)
    {
        let k = metric(&out, &name);
        assert!((1.0..=BREAK_EVEN_NEVER).contains(&k), "{name} = {k}");
    }
    assert!(metric(&out, "trace.span_coverage") >= 0.95);
}

#[test]
fn drift_stream_minimal() {
    let out = check_workload("drift_stream");
    assert!(metric(&out, "core.drift.keep_step_ms_p50") > 0.0);
    assert!(metric(&out, "sparse.diff_rows_ms") > 0.0);
    assert!(metric(&out, "trace.span_coverage") >= 0.95);
}

#[test]
fn tune_unseen_minimal() {
    let out = check_workload("tune_unseen");
    for name in [
        "core.autotune_s",
        "core.autotune.trials",
        "core.restore_s",
        "core.recommend_s",
        "core.dataset_s",
        "gnn.train_s",
        "gnn.predict_us",
        "krylov.iterations",
    ] {
        assert!(metric(&out, name) > 0.0, "{name}");
    }
    assert!(metric(&out, "trace.span_coverage") >= 0.95);
}

#[test]
fn serve_mixed_minimal() {
    let out = check_workload("serve_mixed");
    assert_eq!(out.failed, 0);
    assert!(metric(&out, "serve.builds") > 0.0);
    assert!(metric(&out, "serve.cache_hit_frac") > 0.5);
    assert!(metric(&out, "serve.parse_us") > 0.0);
}

#[test]
fn unknown_workload_is_an_error() {
    let cfg = RunConfig {
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Minimal,
    };
    assert!(run_workload("no_such_workload", &cfg).is_err());
}

/// `BENCHMARK.json` names exactly the workloads and metrics this package
/// measures, with the same units.
#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    let v = serde_json::parse_value_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match v.get(key) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("{key}: expected an array, got {other:?}"),
    };
    let field = |item: &Value, key: &str| match item.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("{key}: expected a string, got {other:?}"),
    };
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, family) in [
        ("end_to_end", end_to_end_metrics()),
        ("per_layer", per_layer_metrics()),
    ] {
        let listed: Vec<(String, String)> = list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let expected: Vec<(String, String)> = family
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
}
