//! `sampled`: one long `mcf`/`bdw` trace under the tracked SMARTS plan —
//! what `mstacks simulate --sample 4000:2500:118500 --json` pays: trace
//! capture, `Session::run_sampled`, `jsonfmt` emit. The sampled CPI is
//! compared with a full-detail run of the same trace outside the timed
//! region.

use crate::common::{
    check_conservation, digest, load_core, peak_rss_mb, repeated_setup, seeded, tally, timed_loop,
    Counters, OpSummary, RunConfig,
};
use crate::report::Outcome;
use crate::stats::{median, p99_from_spread};
use crate::trace::Tracer;
use mstacks_core::sampling::COOLDOWN_UOPS;
use mstacks_core::{jsonfmt, SamplePlan, SampledReport, Session};
use mstacks_model::{CoreConfig, IdealFlags};
use mstacks_pipeline::{Engine, PipelineError};
use mstacks_workloads::{SampleSource, SharedTraceBuffer, TraceBuffer, Workload};
use std::sync::Arc;

/// The tracked plan: ~5% of µops in detail (warmup + measured).
pub const PLAN: &str = "4000:2500:118500";

/// The repository's sampling budget: the sampled CPI lies within its 95%
/// confidence half-width plus 2% of the full-detail CPI.
const BUDGET: f64 = 0.02;

struct OpRun {
    report: Result<SampledReport, String>,
    buf: Arc<TraceBuffer>,
    capture_s: f64,
    sampled_s: f64,
    json_s: f64,
}

fn operation(
    w: &Workload,
    session: &Session,
    total: u64,
    plan: SamplePlan,
    tracer: &Tracer,
    req: u64,
) -> OpRun {
    let (buf, capture_s) = tracer.span("workloads.capture", req, || {
        TraceBuffer::capture(w, total).shared()
    });
    let (report, sampled_s) = tracer.span("core.run_sampled", req, || {
        session.run_sampled(total, plan, &buf)
    });
    let (report, json_s) = match report {
        Ok(r) => {
            let (text, secs) = tracer.span("core.jsonfmt", req, || jsonfmt::sampled_report(&r));
            std::hint::black_box(text);
            (Ok(r), secs)
        }
        Err(e) => (Err(format!("sampled run: {e}")), 0.0),
    };
    OpRun {
        report,
        buf,
        capture_s,
        sampled_s,
        json_s,
    }
}

/// The fast-forward ranges `run_sampled` warms functionally under `plan`.
fn warm_ranges(total: u64, plan: SamplePlan) -> Vec<(u64, u64)> {
    let cooldown = plan.ff.min(COOLDOWN_UOPS);
    let mut ranges = Vec::new();
    let mut pos = 0;
    loop {
        pos = (pos + plan.warmup + plan.detailed + cooldown).min(total);
        if pos >= total {
            return ranges;
        }
        let ff_end = (pos + plan.ff - cooldown).min(total);
        ranges.push((pos, ff_end));
        pos = ff_end;
        if pos >= total {
            return ranges;
        }
    }
}

/// A drained engine ready to be warmed.
fn idle_engine(
    cfg: &CoreConfig,
    buf: &Arc<TraceBuffer>,
) -> Result<Engine<mstacks_workloads::BatchCursor>, PipelineError> {
    let mut engine = Engine::new(
        cfg.clone(),
        IdealFlags::none(),
        vec![SampleSource::window(buf, 0, 0)],
    );
    engine.run(&mut [(); 1])?;
    Ok(engine)
}

/// Functional warming alone: `warm_range` into `Engine::warmer` over the
/// plan's fast-forward ranges.
fn warm_only(
    cfg: &CoreConfig,
    buf: &Arc<TraceBuffer>,
    ranges: &[(u64, u64)],
) -> Result<(), PipelineError> {
    let mut engine = idle_engine(cfg, buf)?;
    for &(a, b) in ranges {
        buf.warm_range(a, b, &mut engine.warmer(0));
    }
    Ok(())
}

/// The sampled schedule with unit observers: every detailed window runs
/// on the bare engine and the fast-forward ranges are warmed as in
/// `run_sampled`. Returns the simulated cycles.
fn engine_sampled(
    cfg: &CoreConfig,
    buf: &Arc<TraceBuffer>,
    total: u64,
    plan: SamplePlan,
) -> Result<u64, PipelineError> {
    let cooldown = plan.ff.min(COOLDOWN_UOPS);
    let span_of = |pos: u64| (pos + plan.warmup + plan.detailed + cooldown).min(total);
    let mut pos = 0;
    let mut end = span_of(pos);
    let mut engine = Engine::new(
        cfg.clone(),
        IdealFlags::none(),
        vec![SampleSource::window(buf, pos, end)],
    );
    loop {
        engine.run(&mut [(); 1])?;
        pos = end;
        if pos >= total {
            break;
        }
        let ff_end = (pos + plan.ff - cooldown).min(total);
        buf.warm_range(pos, ff_end, &mut engine.warmer(0));
        pos = ff_end;
        if pos >= total {
            break;
        }
        end = span_of(pos);
        engine.resume(0, SampleSource::window(buf, pos, end));
    }
    Ok(engine.results()[0].cycles)
}

fn check(r: &Result<SampledReport, String>) -> Result<u64, String> {
    let r = r.as_ref().map_err(Clone::clone)?;
    check_conservation("sampled mcf/bdw", &r.report.multi, &r.report.flops)?;
    Ok(digest(r))
}

/// Layer times of one traced operation, in seconds.
struct Probe {
    capture: f64,
    warm: f64,
    /// The whole sampled schedule on the bare engine (warming included).
    engine: f64,
    sampled: f64,
    json: f64,
    window_cycles: u64,
    /// The root span's duration and self time.
    traced: (f64, f64),
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let total = cfg.size(8_000_000, 400_000);
    let plan = SamplePlan::parse(PLAN)?;
    let quiet = Tracer::new(false);
    let ((w, session), setup_s) = repeated_setup(|| {
        // 48 phases of 166,666 µops: phase starts drift against the 125,000-µop
        // sampling period instead of landing on every window.
        let w = seeded("mcf", cfg.seed, total, 48)?;
        let session = Session::new(load_core("bdw")?);
        operation(&w, &session, total / 16, plan, &quiet, 0).report?;
        Ok((w, session))
    })?;
    let ranges = warm_ranges(total, plan);
    let warmed: u64 = ranges.iter().map(|(a, b)| b - a).sum();
    let detailed = (total - warmed) as f64;

    // Only the latest operation's buffer stays resident; it is dropped
    // before the next capture so peak memory holds one trace.
    let phase = if tracer.enabled() {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (untraced, last) = timed_loop(
        cfg,
        phase,
        3,
        |i| operation(&w, &session, total, plan, &quiet, i),
        |_, run, _| OpSummary::<Probe>::untraced(check(&run.report)),
    );
    // Probes on each traced operation's buffer: functional warming alone,
    // and the whole schedule on the bare engine. Detailed windows cost
    // (engine schedule − warming) in the pipeline and (run_sampled −
    // engine schedule) in the accountants.
    let probe = |run: &OpRun, traced: (f64, f64), req: u64| -> Result<Probe, String> {
        let core = session.config();
        let (res, warm) = tracer.span("workloads.warm", req, || warm_only(core, &run.buf, &ranges));
        res.map_err(|e| format!("warm probe: {e}"))?;
        let (res, engine) = tracer.span("pipeline.engine", req, || {
            engine_sampled(core, &run.buf, total, plan)
        });
        let window_cycles = res.map_err(|e| format!("engine probe: {e}"))?;
        Ok(Probe {
            capture: run.capture_s,
            warm,
            engine,
            sampled: run.sampled_s,
            json: run.json_s,
            window_cycles,
            traced,
        })
    };
    let traced = if tracer.enabled() {
        timed_loop(
            cfg,
            phase,
            3,
            |i| {
                tracer
                    .span("bench.sampled_op", i, || {
                        operation(&w, &session, total, plan, tracer, i)
                    })
                    .0
            },
            |i, run, secs| {
                let own = *tracer
                    .self_times("bench.sampled_op")
                    .last()
                    .expect("root span");
                let probe = tracer
                    .span("bench.probe", i, || probe(run, (secs, own), i))
                    .0;
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
    let times: Vec<f64> = untraced.iter().map(|(_, t)| *t).collect();
    let op = median(&times);

    // Accuracy, outside the timed region: full detail on the same trace.
    out.attempted += 1;
    let buffer_bytes = last.buf.approx_bytes();
    let full = session
        .run(last.buf.cursor())
        .map_err(|e| format!("full-detail reference: {e}"))?;
    drop(last.buf);
    if let Err(e) = check_conservation("full-detail mcf/bdw", &full.multi, &full.flops) {
        out.fail(e);
    }
    let sampled = last
        .report
        .map_err(|e| format!("sampled run failed: {e}"))?;
    let err = (sampled.cpi_mean - full.cpi()).abs();
    let err_pct = err / full.cpi() * 100.0;
    let allowed = sampled.cpi_ci95 + BUDGET * full.cpi();
    if err > allowed {
        out.fail(format!(
            "sampled CPI {:.4} is {:.4} from full-detail {:.4}, over the budget {:.4} (95% CI + 2%)",
            sampled.cpi_mean,
            err,
            full.cpi(),
            allowed
        ));
    }
    out.line(format!(
        "sampled: {total} µops, plan {plan}, {} windows, {:.2}% of µops measured; CPI {:.4} ± {:.4} vs full detail {:.4}: cpi_err_pct {err_pct:.3} (budget: within CI + 2%)",
        sampled.windows,
        sampled.sampled_fraction() * 100.0,
        sampled.cpi_mean,
        sampled.cpi_ci95,
        full.cpi()
    ));
    out.line(format!(
        "digest: {:016x} sampled, {:016x} full detail (every simulated statistic, seed {})",
        first_digest,
        digest(&full),
        cfg.seed
    ));
    out.operations(&times);
    out.set("cpi_err_pct", err_pct);
    out.set("pipeline.cpi.mcf_bdw", full.cpi());

    if !tracer.enabled() {
        out.set("sim_uops_per_s", total as f64 / op);
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
    out.set(
        "workloads.capture_ns_per_uop",
        med(&|p| p.capture) / total as f64 * 1e9,
    );
    out.set(
        "workloads.warm_ns_per_uop",
        med(&|p| p.warm) / warmed as f64 * 1e9,
    );
    out.set(
        "workloads.buffer_bytes_per_uop",
        buffer_bytes as f64 / total as f64,
    );
    out.set(
        "core.sampled_window_ns_per_uop",
        med(&|p| p.sampled - p.warm) / detailed * 1e9,
    );
    out.set("core.detail_fraction", detailed / total as f64);
    out.set(
        "pipeline.engine_ns_per_uop",
        med(&|p| p.engine - p.warm) / detailed * 1e9,
    );
    out.set(
        "pipeline.engine_ns_per_cycle",
        med(&|p| (p.engine - p.warm) / p.window_cycles as f64) * 1e9,
    );
    out.set(
        "core.accounting_ns_per_uop",
        med(&|p| p.sampled - p.engine) / detailed * 1e9,
    );
    out.set("core.jsonfmt_us", med(&|p| p.json) * 1e6);
    let mut counters = Counters::default();
    counters.add(&full.result);
    counters.report(&mut out);
    let layers = [
        med(&|p| p.capture + p.warm),
        med(&|p| p.engine - p.warm),
        med(&|p| p.sampled - p.engine + p.json),
        med(&|p| p.traced.1),
    ];
    out.closure(layers, op, med(&|p| p.traced.0));
    Ok(out)
}
