//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable report lines, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced
//! run also writes its spans to `perfbench/out/` as JSON lines.

use mcmcmi_perfbench::{result_json, run_workload, trace, RunConfig, Scale};
use std::process::ExitCode;

fn parse_args() -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad value `{value}` for {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("--seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("--seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("--seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let missing = |f: &str| format!("missing required flag {f}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        RunConfig {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            scale: Scale::Full,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                mcmcmi_perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = match run_workload(&workload, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &out.notes {
        println!("{line}");
    }
    if cfg.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::spans_jsonl(&out.spans)));
        match written {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    match result_json(&out, cfg.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
