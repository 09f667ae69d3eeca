//! `corun`: a lockstep 2-core co-run of `mcf` and `lbm` on the shared
//! uncore — what `mstacks corun mcf lbm --json` pays. The workloads are
//! distinct, so their generators stream straight into `CoRun::run`.

use crate::common::{
    check_conservation, digest, load_core, peak_rss_mb, repeated_setup, seeded, tally, timed_loop,
    Counters, OpSummary, RunConfig,
};
use crate::report::Outcome;
use crate::stats::{median, p99_from_spread};
use crate::trace::Tracer;
use mstacks_core::{jsonfmt, CoRun, CoRunReport, Session};
use mstacks_model::IdealFlags;
use mstacks_pipeline::Engine;
use mstacks_workloads::{SharedTraceBuffer, TraceBuffer, Workload};

const CORES: [(&str, &str); 2] = [
    ("mcf", "pipeline.cpi.mcf_bdw"),
    ("lbm", "pipeline.cpi.lbm_bdw"),
];

struct OpRun {
    report: Result<CoRunReport, String>,
    json_s: f64,
}

fn operation(
    names: &[String],
    ws: &[Workload],
    corun: &CoRun,
    uops: u64,
    tracer: &Tracer,
    req: u64,
) -> OpRun {
    let (report, _) = tracer.span("core.corun", req, || {
        corun.run(ws.iter().map(|w| w.trace(uops)).collect())
    });
    let (report, json_s) = match report {
        Ok(r) => {
            let (text, secs) = tracer.span("core.jsonfmt", req, || {
                jsonfmt::corun_report(names, &r, None)
            });
            std::hint::black_box(text);
            (Ok(r), secs)
        }
        Err(e) => (Err(format!("co-run: {e}")), 0.0),
    };
    OpRun { report, json_s }
}

fn check(r: &Result<CoRunReport, String>) -> Result<u64, String> {
    let r = r.as_ref().map_err(Clone::clone)?;
    for (c, core) in r.cores.iter().enumerate() {
        check_conservation(&format!("co-run core {c}"), &core.multi, &core.flops)?;
    }
    Ok(digest(r))
}

/// Layer times of one traced operation, in seconds, from probes on the
/// same inputs: generating each stream alone, capturing it, draining its
/// batched cursor, the bare engine and a solo `Session` on it, and the
/// co-run again over the captured buffers.
#[derive(Default)]
struct Probe {
    generate: f64,
    capture: f64,
    decode: f64,
    engine: f64,
    solo: f64,
    corun_buffered: f64,
    json: f64,
    cycles: u64,
    bytes: usize,
    /// The root span's duration and self time.
    traced: (f64, f64),
}

fn probe(
    ws: &[Workload],
    corun: &CoRun,
    run: &OpRun,
    uops: u64,
    tracer: &Tracer,
    req: u64,
) -> Result<Probe, String> {
    let streamed = run.report.as_ref().map_err(Clone::clone)?;
    let cfg = corun.config();
    let mut p = Probe {
        json: run.json_s,
        ..Probe::default()
    };
    let mut bufs = Vec::new();
    for w in ws {
        let (n, generate) = tracer.span("workloads.generate", req, || w.trace(uops).count());
        std::hint::black_box(n);
        let (buf, capture) = tracer.span("workloads.capture", req, || {
            TraceBuffer::capture(w, uops).shared()
        });
        let (n, decode) = tracer.span("workloads.decode", req, || buf.cursor().count());
        std::hint::black_box(n);
        let (res, engine) = tracer.span("pipeline.engine", req, || {
            Engine::new(cfg.clone(), IdealFlags::none(), vec![buf.cursor()]).run(&mut [(); 1])
        });
        p.cycles += res.map_err(|e| format!("engine probe: {e}"))?[0].cycles;
        let (res, solo) = tracer.span("core.session", req, || {
            Session::new(cfg.clone()).run(buf.cursor())
        });
        res.map_err(|e| format!("solo probe: {e}"))?;
        p.generate += generate;
        p.capture += capture;
        p.decode += decode;
        p.engine += engine;
        p.solo += solo;
        p.bytes += buf.approx_bytes();
        bufs.push(buf);
    }
    let (res, buffered) = tracer.span("core.corun_buffered", req, || {
        corun.run(bufs.iter().map(|b| b.cursor()).collect())
    });
    // The buffer round trip is lossless, so both feeds give one report.
    if res.map_err(|e| format!("buffered co-run: {e}"))? != *streamed {
        return Err("co-run over captured buffers differs from the streamed co-run".to_string());
    }
    p.corun_buffered = buffered;
    Ok(p)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let uops = cfg.size(200_000, 20_000);
    let names: Vec<String> = CORES.iter().map(|(n, _)| n.to_string()).collect();
    let quiet = Tracer::new(false);
    let ((ws, corun), setup_s) = repeated_setup(|| {
        let ws = CORES
            .iter()
            .map(|(n, _)| seeded(n, cfg.seed, uops, 32))
            .collect::<Result<Vec<_>, String>>()?;
        let corun = CoRun::new(load_core("bdw")?);
        operation(&names, &ws, &corun, uops / 10, &quiet, 0).report?;
        Ok((ws, corun))
    })?;

    let phase = if tracer.enabled() {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (untraced, last) = timed_loop(
        cfg,
        phase,
        3,
        |i| operation(&names, &ws, &corun, uops, &quiet, i),
        |_, run, _| OpSummary::<Probe>::untraced(check(&run.report)),
    );
    let traced = if tracer.enabled() {
        timed_loop(
            cfg,
            phase,
            3,
            |i| {
                tracer
                    .span("bench.corun_op", i, || {
                        operation(&names, &ws, &corun, uops, tracer, i)
                    })
                    .0
            },
            |i, run, secs| {
                let own = *tracer
                    .self_times("bench.corun_op")
                    .last()
                    .expect("root span");
                let probe = tracer
                    .span("bench.probe", i, || {
                        probe(&ws, &corun, run, uops, tracer, i)
                    })
                    .0
                    .map(|p| Probe {
                        traced: (secs, own),
                        ..p
                    });
                OpSummary::traced(check(&run.report), probe)
            },
        )
        .0
    } else {
        Vec::new()
    };

    let mut out = Outcome::default();
    let first_digest = tally(&mut out, &untraced);
    if tally(&mut out, &traced) != first_digest && !traced.is_empty() {
        out.fail("traced operations reproduce another digest than untraced ones");
    }
    let report = last.report.map_err(|e| format!("co-run failed: {e}"))?;
    let mut counters = Counters::default();
    let mut cpis = Vec::new();
    for ((name, metric), core) in CORES.iter().zip(&report.cores) {
        counters.add(&core.result);
        out.set(metric, core.cpi());
        cpis.push(format!("{name} CPI {:.4}", core.cpi()));
    }
    let interference: u64 = report
        .shared
        .cores
        .iter()
        .map(|c| c.interference_cycles)
        .sum();
    out.set("core.interference_cycles", interference as f64);
    out.set(
        "mem.shared_l3_miss_ratio",
        report.shared.l3_misses as f64 / report.shared.l3_accesses as f64,
    );
    out.line(format!(
        "corun: mcf+lbm on bdw, {uops} µops per core, {}, interference {interference} request-cycles",
        cpis.join(", ")
    ));
    out.line(format!(
        "digest: {:016x} (every simulated statistic, seed {})",
        first_digest, cfg.seed
    ));

    let total = (uops * CORES.len() as u64) as f64;
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
    out.set("workloads.generate_ns_per_uop", per_uop(&|p| p.generate));
    out.set("workloads.capture_ns_per_uop", per_uop(&|p| p.capture));
    out.set("workloads.decode_ns_per_uop", per_uop(&|p| p.decode));
    out.set(
        "workloads.buffer_bytes_per_uop",
        probes[0].bytes as f64 / total,
    );
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
        per_uop(&|p| p.solo - p.engine),
    );
    out.set(
        "core.corun_shared_ns_per_uop",
        per_uop(&|p| p.corun_buffered - p.solo),
    );
    out.set("core.jsonfmt_us", med(&|p| p.json) * 1e6);
    out.set("core.detail_fraction", 1.0);
    counters.report(&mut out);
    // The streamed co-run generates its µops instead of decoding them:
    // generate + (engine − decode) + (solo − engine) + (co-run − solo)
    // covers it layer by layer.
    let layers = [
        med(&|p| p.generate),
        med(&|p| p.engine - p.decode),
        med(&|p| p.corun_buffered - p.engine + p.json),
        med(&|p| p.traced.1),
    ];
    out.closure(layers, op, med(&|p| p.traced.0));
    Ok(out)
}
