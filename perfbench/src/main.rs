//! The mstacks benchmark: end-to-end simulator speed, memory and serve
//! latency on four workloads, and a traced run that splits host time by
//! layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload detail|sampled|corun|serve --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Run from the repository root (core tables are read from `cores/`).
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). `--smoke` shrinks every input to seconds-scale while
//! keeping every check.

mod common;
mod corun;
mod detail;
mod report;
mod sampled;
mod serve;
mod stats;
mod trace;

use common::RunConfig;
use std::process::ExitCode;
use trace::Tracer;

const USAGE: &str = "usage: mstacks-perfbench --workload detail|sampled|corun|serve --seed N --seconds S --trace 0|1 [--smoke]";

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, cfg })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let tracer = Tracer::new(cfg.traced);
    let run = match args.workload.as_str() {
        "detail" => detail::run,
        "sampled" => sampled::run,
        "corun" => corun::run,
        "serve" => serve::run,
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", common::host_fingerprint());
    println!(
        "workload {}, seed {}, {} s, trace {}{}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        if cfg.smoke { ", smoke" } else { "" }
    );
    let mut out = match run(cfg, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.traced {
        let path = format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, cfg.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => out.line(format!("spans: {} written to {path}", tracer.spans().len())),
            Err(e) => out.fail(format!("writing {path}: {e}")),
        }
    }
    for line in &out.lines {
        println!("{line}");
    }
    let result = out.result_line(cfg.traced);
    for f in out.failures.iter().take(20) {
        eprintln!("failed: {f}");
    }
    println!("{result}");
    ExitCode::SUCCESS
}
