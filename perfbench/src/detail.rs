//! `detail`: full-detail multi-stage CPI and FLOPS stacks on three
//! machines, run serially — what `mstacks simulate --json` pays per job:
//! trace capture, `Session::run` with every accountant, `jsonfmt` emit.

use crate::common::{
    check_conservation, digest, load_core, peak_rss_mb, repeated_setup, seeded, tally, timed_loop,
    Counters, OpSummary, RunConfig,
};
use crate::report::Outcome;
use crate::stats::{median, p99_from_spread};
use crate::trace::Tracer;
use mstacks_core::{jsonfmt, Session, SimReport};
use mstacks_model::IdealFlags;
use mstacks_pipeline::Engine;
use mstacks_workloads::{SharedTraceBuffer, TraceBuffer, Workload};
use std::sync::Arc;

/// (profile, machine, CPI metric): memory-bound, vector-FP and
/// branch-bound.
const JOBS: [(&str, &str, &str); 3] = [
    ("mcf", "bdw", "pipeline.cpi.mcf_bdw"),
    ("imagick", "knl", "pipeline.cpi.imagick_knl"),
    ("exchange2", "skx", "pipeline.cpi.exchange2_skx"),
];

struct Job {
    label: String,
    workload: Workload,
    session: Session,
    metric: &'static str,
}

/// One simulated job of one operation.
struct JobRun {
    report: Result<SimReport, String>,
    buf: Arc<TraceBuffer>,
    capture_s: f64,
    session_s: f64,
    json_s: f64,
}

fn simulate(job: &Job, uops: u64, tracer: &Tracer, req: u64) -> JobRun {
    let (buf, capture_s) = tracer.span("workloads.capture", req, || {
        TraceBuffer::capture(&job.workload, uops).shared()
    });
    let (report, session_s) = tracer.span("core.session", req, || job.session.run(buf.cursor()));
    let (report, json_s) = match report {
        Ok(r) => {
            let (text, secs) = tracer.span("core.jsonfmt", req, || jsonfmt::sim_report(&r, None));
            std::hint::black_box(text);
            (Ok(r), secs)
        }
        Err(e) => (Err(format!("{}: {e}", job.label)), 0.0),
    };
    JobRun {
        report,
        buf,
        capture_s,
        session_s,
        json_s,
    }
}

fn operation(jobs: &[Job], uops: u64, tracer: &Tracer, req: u64) -> Vec<JobRun> {
    jobs.iter()
        .map(|j| simulate(j, uops, tracer, req))
        .collect()
}

/// Checks one operation's reports (no error, every stack conserves) and
/// returns their digest.
fn check(jobs: &[Job], runs: &[JobRun]) -> Result<u64, String> {
    let mut reports = Vec::new();
    for (job, run) in jobs.iter().zip(runs) {
        let r = run.report.as_ref().map_err(Clone::clone)?;
        check_conservation(&job.label, &r.multi, &r.flops)?;
        reports.push(r);
    }
    Ok(digest(&reports))
}

/// Probe timings of one traced operation, in seconds.
#[derive(Default)]
struct Probe {
    capture: f64,
    decode: f64,
    engine: f64,
    session: f64,
    json: f64,
    cycles: u64,
    /// The root span's duration and self time.
    traced: (f64, f64),
}

/// Re-runs each job's buffer through the batched cursor alone (decode
/// time) and the engine with unit observers (engine time, decode
/// included); accounting is then `Session − Engine`.
fn probe(jobs: &[Job], runs: &[JobRun], tracer: &Tracer, req: u64) -> Result<Probe, String> {
    let mut p = Probe::default();
    for (job, run) in jobs.iter().zip(runs) {
        let (n, decode) = tracer.span("workloads.decode", req, || run.buf.cursor().count());
        std::hint::black_box(n);
        let (res, engine) = tracer.span("pipeline.engine", req, || {
            Engine::new(
                job.session.config().clone(),
                IdealFlags::none(),
                vec![run.buf.cursor()],
            )
            .run(&mut [(); 1])
        });
        let cycles = res.map_err(|e| format!("{}: engine probe: {e}", job.label))?[0].cycles;
        if run.report.as_ref().map(|r| r.result.cycles) != Ok(cycles) {
            return Err(format!(
                "{}: unit-observer engine disagrees with Session",
                job.label
            ));
        }
        p.capture += run.capture_s;
        p.decode += decode;
        p.engine += engine;
        p.session += run.session_s;
        p.json += run.json_s;
        p.cycles += cycles;
    }
    Ok(p)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let uops = cfg.size(400_000, 20_000);
    let quiet = Tracer::new(false);
    let (jobs, setup_s) = repeated_setup(|| {
        let jobs = JOBS
            .iter()
            .map(|&(w, c, metric)| {
                Ok(Job {
                    label: format!("{w}/{c}"),
                    workload: seeded(w, cfg.seed, uops, 32)?,
                    session: Session::new(load_core(c)?),
                    metric,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        // One short operation lets allocators and caches settle.
        for r in operation(&jobs, uops / 10, &quiet, 0) {
            r.report?;
        }
        Ok(jobs)
    })?;

    let phase = if tracer.enabled() {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (untraced, reports) = timed_loop(
        cfg,
        phase,
        3,
        |i| operation(&jobs, uops, &quiet, i),
        |_, runs, _| OpSummary::<Probe>::untraced(check(&jobs, runs)),
    );
    let traced = if tracer.enabled() {
        timed_loop(
            cfg,
            phase,
            3,
            |i| {
                tracer
                    .span("bench.detail_op", i, || operation(&jobs, uops, tracer, i))
                    .0
            },
            |i, runs, secs| {
                let own = *tracer
                    .self_times("bench.detail_op")
                    .last()
                    .expect("root span");
                let probe = tracer
                    .span("bench.probe", i, || probe(&jobs, runs, tracer, i))
                    .0
                    .map(|p| Probe {
                        traced: (secs, own),
                        ..p
                    });
                OpSummary::traced(check(&jobs, runs), probe)
            },
        )
        .0
    } else {
        Vec::new()
    };

    // Correctness: every stack conserves and every repeat reproduces the
    // first operation's statistics bit for bit.
    let mut out = Outcome::default();
    let first_digest = tally(&mut out, &untraced);
    if tally(&mut out, &traced) != first_digest && !traced.is_empty() {
        out.fail("traced operations reproduce another digest than untraced ones");
    }
    let mut counters = Counters::default();
    let mut cpis = Vec::new();
    for (job, run) in jobs.iter().zip(&reports) {
        if let Ok(r) = &run.report {
            counters.add(&r.result);
            out.set(job.metric, r.cpi());
            cpis.push(format!("{} CPI {:.4}", job.label, r.cpi()));
        }
    }
    out.line(format!("detail: {uops} µops per job, {}", cpis.join(", ")));
    out.line(format!(
        "digest: {:016x} (every simulated statistic, seed {})",
        first_digest, cfg.seed
    ));

    let total = (uops * jobs.len() as u64) as f64;
    let times: Vec<f64> = untraced.iter().map(|(_, t)| *t).collect();
    let op = median(&times);
    out.operations(&times);

    if !tracer.enabled() {
        out.set("sim_uops_per_s", total / op);
        out.set("p50_ms", op * 1e3);
        out.set("p99_ms", p99_from_spread(&times) * 1e3);
        // No result cache on this path: every operation computes.
        out.set("miss_p50_ms", op * 1e3);
        out.set("peak_rss_mb", peak_rss_mb()?);
        out.set("setup_s", setup_s);
        return Ok(out);
    }

    let probes = OpSummary::probes(&traced);
    if probes.is_empty() {
        return Err("every traced operation failed".to_string());
    }
    let med = |f: &dyn Fn(&Probe) -> f64| median(&probes.iter().map(|p| f(p)).collect::<Vec<_>>());
    let per_uop = |f: &dyn Fn(&Probe) -> f64| med(f) / total * 1e9;
    out.set("workloads.capture_ns_per_uop", per_uop(&|p| p.capture));
    out.set("workloads.decode_ns_per_uop", per_uop(&|p| p.decode));
    let bytes: usize = reports.iter().map(|r| r.buf.approx_bytes()).sum();
    out.set("workloads.buffer_bytes_per_uop", bytes as f64 / total);
    out.set(
        "pipeline.engine_ns_per_uop",
        per_uop(&|p| p.engine - p.decode),
    );
    out.set(
        "pipeline.engine_ns_per_cycle",
        med(&|p| (p.engine - p.decode) / p.cycles as f64) * 1e9,
    );
    out.set(
        "core.accounting_ns_per_uop",
        per_uop(&|p| p.session - p.engine),
    );
    out.set(
        "core.jsonfmt_us",
        med(&|p| p.json) / jobs.len() as f64 * 1e6,
    );
    out.set("core.detail_fraction", 1.0);
    counters.report(&mut out);
    let layers = [
        med(&|p| p.capture + p.decode),
        med(&|p| p.engine - p.decode),
        med(&|p| p.session - p.engine + p.json),
        med(&|p| p.traced.1),
    ];
    out.closure(layers, op, med(&|p| p.traced.0));
    Ok(out)
}
