//! Seconds-scale runs of every workload in both modes: every correctness
//! check passes, the result line carries exactly the metrics and units
//! `BENCHMARK.json` declares, and a seed reproduces its digests.

use mstacks_serve::jsonin::{self, Value};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["detail", "sampled", "corun", "serve"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mstacks-perfbench"))
        // The benchmark runs from the repository root.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn smoke(workload: &str, seed: u64, trace: u8) -> String {
    let seed = seed.to_string();
    let trace = trace.to_string();
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "0.3",
        "--trace",
        &trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn result_line(stdout: &str) -> Value {
    jsonin::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = jsonin::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn digests(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("digest: "))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_and_prints_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        for (trace, table) in [(0, &end_to_end), (1, &per_layer)] {
            let stdout = smoke(w, 3, trace);
            let r = result_line(&stdout);
            assert_eq!(
                r.get("correct"),
                Some(&Value::Bool(true)),
                "{w}/{trace}:\n{stdout}"
            );
            assert_eq!(
                r.get("failed").and_then(Value::as_u64),
                Some(0),
                "{w}/{trace}"
            );
            assert!(r
                .get("attempted")
                .and_then(Value::as_u64)
                .is_some_and(|n| n >= 1));
            assert_eq!(
                &printed(&r),
                table,
                "{w}/{trace}: metrics differ from BENCHMARK.json"
            );
            if trace == 0 {
                for (name, m) in printed(&r).iter().zip(match r.get("metrics") {
                    Some(Value::Obj(m)) => m,
                    _ => unreachable!(),
                }) {
                    let v = m.1.get("value").and_then(Value::as_f64).unwrap();
                    assert!(v > 0.0, "{w}: end-to-end metric {} is {v}", name.0);
                }
            } else {
                assert!(stdout.contains("closure: layers "), "{w}: closure line");
            }
        }
    }
}

#[test]
fn a_seed_reproduces_its_digests_and_another_seed_changes_them() {
    for w in ["detail", "corun"] {
        let a = smoke(w, 11, 0);
        let b = smoke(w, 11, 0);
        let c = smoke(w, 12, 0);
        assert!(!digests(&a).is_empty());
        assert_eq!(digests(&a), digests(&b), "{w}: same seed");
        assert_ne!(digests(&a), digests(&c), "{w}: another seed");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "detail",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "detail",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--seed", "1"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stdout).contains("\"correct\""),
            "{args:?}"
        );
    }
}
