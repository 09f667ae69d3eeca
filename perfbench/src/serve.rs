//! `serve`: an in-process `mstacks serve` with its default configuration
//! under open-loop traffic. Requests arrive on a seeded Poisson schedule
//! at one fixed rate over at most `nproc` keep-alive connections; each is
//! timed from its scheduled send time. Most repeat a primed hot set of
//! keys (cache hits); the rest use fresh keys (cache misses), half of
//! which reuse a trace the capture registry already holds.

use crate::common::{
    check_conservation, digest, load_core, peak_rss_mb, repeated_setup, Counters, RunConfig,
};
use crate::report::Outcome;
use crate::stats::{beyond, median, percentile};
use crate::trace::Tracer;
use mstacks_core::{jsonfmt, Session};
use mstacks_model::{IdealFlags, SmallRng};
use mstacks_pipeline::Engine;
use mstacks_serve::client::Client;
use mstacks_serve::request::Request;
use mstacks_serve::{jsonin, Server, ServerConfig, ServerHandle};
use mstacks_workloads::{spec, SharedTraceBuffer, TraceBuffer};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load in requests per second: the miss path stays about a
/// fifth busy, so the backlog does not grow.
const RATE: f64 = 200.0;
/// One request in every block of this many carries a fresh key.
const MISS_EVERY: usize = 32;
const HOT_KEYS: usize = 16;
const PROFILES: [&str; 8] = [
    "mcf",
    "lbm",
    "exchange2",
    "imagick",
    "xz",
    "gcc",
    "x264",
    "omnetpp",
];
const MACHINES: [&str; 5] = ["bdw", "knl", "skx", "zen", "atom"];
const FLAGS: [&str; 4] = ["icache", "dcache", "bpred", "alu"];

/// One `/v1/simulate` request's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    workload: &'static str,
    core: &'static str,
    uops: u64,
    /// Subset of [`FLAGS`] as a bit mask.
    ideal: u8,
}

impl Key {
    fn ideal_list(&self) -> String {
        let on: Vec<&str> = FLAGS
            .iter()
            .enumerate()
            .filter(|(i, _)| self.ideal & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        on.join(",")
    }

    fn body(&self) -> String {
        format!(
            r#"{{"workload":"{}","core":"{}","uops":{},"ideal":"{}"}}"#,
            self.workload,
            self.core,
            self.uops,
            self.ideal_list()
        )
    }

    fn flags(&self) -> IdealFlags {
        let mut f = IdealFlags::none();
        for (i, set) in [
            IdealFlags::with_perfect_icache,
            IdealFlags::with_perfect_dcache,
            IdealFlags::with_perfect_bpred,
            IdealFlags::with_single_cycle_alu,
        ]
        .into_iter()
        .enumerate()
        {
            if self.ideal & (1 << i) != 0 {
                f = set(f);
            }
        }
        f
    }
}

/// The seeded traffic: a hot set and an arrival schedule.
struct Traffic {
    hot: Vec<Key>,
    /// (scheduled offset in seconds, key, whether the key was fresh).
    schedule: Vec<(f64, Key, bool)>,
    /// Fresh keys whose trace the registry does not yet hold.
    new_traces: HashSet<Key>,
}

fn shuffled<T: Copy, const N: usize>(rng: &mut SmallRng, mut xs: [T; N]) -> [T; N] {
    for i in (1..N).rev() {
        xs.swap(i, rng.gen_range(0..i + 1));
    }
    xs
}

/// The traffic for one seed. Its make-up is fixed by construction —
/// every profile twice in the hot set, fresh keys cycling through every
/// profile × machine pair and every flag set, exactly one fresh key per
/// block of [`MISS_EVERY`] requests, half of them reusing a resident
/// trace — so the seed changes which keys meet when, not how much work
/// the misses carry.
fn traffic(cfg: &RunConfig) -> Traffic {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5E_4E_u64.rotate_left(40));
    let sizes = [
        cfg.size(16_000, 2_000),
        cfg.size(20_000, 2_500),
        cfg.size(24_000, 3_000),
    ];
    let profiles = shuffled(&mut rng, PROFILES);
    let machines = shuffled(&mut rng, MACHINES);
    let flag_sets = shuffled(&mut rng, std::array::from_fn::<u8, 16, _>(|i| i as u8));
    let pairs: Vec<(&str, &str)> = (0..profiles.len() * machines.len())
        .map(|i| (profiles[i % profiles.len()], machines[i / profiles.len()]))
        .collect();
    let hot: Vec<Key> = (0..HOT_KEYS)
        .map(|j| Key {
            workload: profiles[j % profiles.len()],
            core: machines[j % machines.len()],
            uops: sizes[j % sizes.len()],
            ideal: flag_sets[j],
        })
        .collect();
    let mut used: HashSet<Key> = hot.iter().copied().collect();
    let mut schedule = Vec::new();
    let mut new_traces = HashSet::new();
    let mut t = 0.0;
    let mut fresh = 0usize;
    let mut miss_slot = 0;
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / RATE;
        if t >= cfg.seconds {
            return Traffic {
                hot,
                schedule,
                new_traces,
            };
        }
        let slot = schedule.len() % MISS_EVERY;
        if slot == 0 {
            miss_slot = rng.gen_range(0..MISS_EVERY);
        }
        if slot != miss_slot {
            schedule.push((t, hot[rng.gen_range(0..hot.len())], false));
            continue;
        }
        let reuse = fresh % 2 == 0;
        let round = fresh / 2;
        fresh += 1;
        let key = (0..)
            .map(|k| {
                let ideal = flag_sets[(round + k) % flag_sets.len()];
                if reuse {
                    // A resident trace under another machine or flag set.
                    let h = hot[round % hot.len()];
                    let at = machines.iter().position(|m| *m == h.core).unwrap_or(0);
                    Key {
                        core: machines[(at + 1 + round / hot.len()) % machines.len()],
                        ideal,
                        ..h
                    }
                } else {
                    // A trace length no request has used.
                    let (workload, core) = pairs[round % pairs.len()];
                    Key {
                        workload,
                        core,
                        uops: sizes[1] + 1 + round as u64,
                        ideal,
                    }
                }
            })
            .find(|k| !used.contains(k))
            .expect("an unused key");
        used.insert(key);
        if !reuse {
            new_traces.insert(key);
        }
        schedule.push((t, key, true));
    }
}

/// A server that is shut down when dropped.
struct Running(Option<ServerHandle>);

impl Running {
    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

/// Spawns a default server and primes the hot set; returns the server
/// and each hot key's (miss) response body.
fn start(hot: &[Key]) -> Result<(Running, HashMap<Key, String>), String> {
    let server = Running(Some(
        Server::spawn(ServerConfig::default()).map_err(|e| format!("spawn server: {e}"))?,
    ));
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut bodies = HashMap::new();
    for k in hot {
        let r = c
            .post("/v1/simulate", &k.body())
            .map_err(|e| format!("prime: {e}"))?;
        if r.status != 200 || r.header("X-Cache") != Some("miss") {
            return Err(format!(
                "priming {} gave {} {:?}",
                k.body(),
                r.status,
                r.header("X-Cache")
            ));
        }
        bodies.insert(*k, r.body);
    }
    Ok((server, bodies))
}

/// One answered request.
struct Answer {
    status: u16,
    hit: bool,
    body: String,
    late_s: f64,
    latency_s: f64,
}

/// Drives the schedule open-loop over `conns` keep-alive connections;
/// requests scheduled at or after `traced_from` seconds are traced.
fn drive(
    addr: SocketAddr,
    schedule: &[(f64, Key, bool)],
    conns: usize,
    tracer: &Tracer,
    traced_from: f64,
) -> Result<Vec<Answer>, String> {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Answer>>> =
        Mutex::new((0..schedule.len()).map(|_| None).collect());
    let quiet = Tracer::new(false);
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| -> Result<(), String> {
                    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((at, key, _)) = schedule.get(i) else {
                            return Ok(());
                        };
                        let due = t0 + Duration::from_secs_f64(*at);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let t = if *at >= traced_from { tracer } else { &quiet };
                        let (r, _) = t.span("serve.http", i as u64, || {
                            c.post("/v1/simulate", &key.body())
                        });
                        let done = Instant::now();
                        t.record("serve.request", i as u64, due, done);
                        let r = r.map_err(|e| format!("request {i}: {e}"))?;
                        answers.lock().expect("answers")[i] = Some(Answer {
                            status: r.status,
                            hit: r.header("X-Cache") == Some("hit"),
                            body: r.body,
                            late_s: sent.saturating_duration_since(due).as_secs_f64(),
                            latency_s: done.duration_since(due).as_secs_f64(),
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<()>, String>>()
    })?;
    answers
        .into_inner()
        .expect("answers")
        .into_iter()
        .enumerate()
        .map(|(i, a)| a.ok_or_else(|| format!("request {i} was never answered")))
        .collect()
}

/// The in-process twin of one miss: capture (when the server had to),
/// `Session` on the core loaded from its table, `jsonfmt` emit.
struct Local {
    body: String,
    capture_s: f64,
    session_s: f64,
    json_s: f64,
    engine_s: f64,
    bytes: usize,
    report: mstacks_core::SimReport,
}

fn local(key: &Key, traced: bool) -> Result<Local, String> {
    let w = spec::by_name(key.workload).ok_or("unknown profile")?;
    let core = load_core(key.core)?;
    let t = Instant::now();
    let buf = TraceBuffer::capture(&w, key.uops).shared();
    let capture_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = Session::new(core.clone())
        .with_ideal(key.flags())
        .run(buf.cursor())
        .map_err(|e| format!("{}: {e}", key.body()))?;
    let session_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let body = jsonfmt::sim_report(&report, None);
    let json_s = t.elapsed().as_secs_f64();
    let engine_s = if traced {
        let t = Instant::now();
        Engine::new(core, key.flags(), vec![buf.cursor()])
            .run(&mut [(); 1])
            .map_err(|e| format!("engine probe: {e}"))?;
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    check_conservation(&key.body(), &report.multi, &report.flops)?;
    Ok(Local {
        body,
        capture_s,
        session_s,
        json_s,
        engine_s,
        bytes: buf.approx_bytes(),
        report,
    })
}

fn stat(stats: &jsonin::Value, group: &str, field: &str) -> f64 {
    stats
        .get(group)
        .and_then(|g| g.get(field))
        .and_then(jsonin::Value::as_f64)
        .unwrap_or(f64::NAN)
}

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let plan = traffic(cfg);
    let conns = std::thread::available_parallelism().map_or(2, |n| n.get());
    let ((server, primed), setup_s) = repeated_setup(|| start(&plan.hot))?;
    let traced_from = if tracer.enabled() {
        cfg.seconds / 2.0
    } else {
        f64::INFINITY
    };
    let answers = drive(server.addr(), &plan.schedule, conns, tracer, traced_from)?;
    // Peak memory of serving the traffic, before the in-process checks.
    let peak_rss = peak_rss_mb()?;
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let stats = c.get("/v1/stats").map_err(|e| format!("stats: {e}"))?;
    drop(c);
    drop(server);
    let stats = jsonin::parse(&stats.body)?;

    // Correctness: every answer is a 200 with the expected cache outcome
    // and the byte-exact body of the in-process run of its request.
    let mut out = Outcome::default();
    let mut reference: HashMap<Key, Local> = HashMap::new();
    let mut keys: Vec<&Key> = plan.hot.iter().collect();
    keys.extend(
        plan.schedule
            .iter()
            .filter(|(_, _, fresh)| *fresh)
            .map(|(_, k, _)| k),
    );
    let traced = tracer.enabled();
    for k in keys {
        match local(k, traced) {
            Ok(l) => {
                reference.insert(*k, l);
            }
            Err(e) => out.fail(e),
        }
    }
    for k in &plan.hot {
        if reference.get(k).map(|l| &l.body) != primed.get(k) {
            out.fail(format!(
                "primed body of {} differs from the in-process run",
                k.body()
            ));
        }
    }
    for ((_, key, fresh), a) in plan.schedule.iter().zip(&answers) {
        out.attempted += 1;
        let expected = reference.get(key).map(|l| &l.body);
        if a.status != 200 {
            out.fail(format!("{} answered {}: {}", key.body(), a.status, a.body));
        } else if a.hit == *fresh {
            out.fail(format!(
                "{} was a cache {} (expected the opposite)",
                key.body(),
                if a.hit { "hit" } else { "miss" }
            ));
        } else if expected != Some(&a.body) {
            out.fail(format!(
                "{} body differs from the in-process run",
                key.body()
            ));
        }
    }
    let mut all: Vec<(&Key, &Local)> = reference.iter().collect();
    all.sort_by_key(|(k, _)| k.body());
    let reports: Vec<&mstacks_core::SimReport> = all.iter().map(|(_, l)| &l.report).collect();
    out.line(format!(
        "digest: {:016x} (every simulated statistic of {} distinct requests, seed {})",
        digest(&reports),
        all.len(),
        cfg.seed
    ));

    let lat: Vec<f64> = answers.iter().map(|a| a.latency_s * 1e3).collect();
    let miss_idx: Vec<usize> = (0..answers.len()).filter(|&i| plan.schedule[i].2).collect();
    let miss_lat: Vec<f64> = miss_idx.iter().map(|&i| lat[i]).collect();
    let late: Vec<f64> = answers.iter().map(|a| a.late_s * 1e3).collect();
    let cache_hits = stat(&stats, "cache", "hits");
    let cache_misses = stat(&stats, "cache", "misses");
    let reg_hits = stat(&stats, "registry", "hits");
    let reg_misses = stat(&stats, "registry", "misses");
    out.line(format!(
        "serve: open loop at {RATE} req/s for {} s over {conns} connections, {} requests ({} fresh keys, {} of them new traces), p99 has {} samples beyond it; generator late p50 {:.3} ms, p99 {:.3} ms",
        cfg.seconds,
        answers.len(),
        miss_idx.len(),
        plan.new_traces.len(),
        beyond(lat.len(), 0.99),
        median(&late),
        percentile(&late, 0.99)
    ));
    out.line(format!(
        "serve: latency p50 {:.3} ms, p99 {:.3} ms, miss p50 {:.3} ms; cache {cache_hits} hits / {cache_misses} misses, registry {reg_hits} hits / {reg_misses} misses",
        median(&lat),
        percentile(&lat, 0.99),
        median(&miss_lat)
    ));

    if !traced {
        let miss_rate: Vec<f64> = miss_idx
            .iter()
            .map(|&i| plan.schedule[i].1.uops as f64 / answers[i].latency_s)
            .collect();
        out.set("sim_uops_per_s", median(&miss_rate));
        out.set("p50_ms", median(&lat));
        out.set("p99_ms", percentile(&lat, 0.99));
        out.set("miss_p50_ms", median(&miss_lat));
        out.set("peak_rss_mb", peak_rss);
        out.set("setup_s", setup_s);
        return Ok(out);
    }

    out.set(
        "serve.cache_hit_ratio",
        cache_hits / (cache_hits + cache_misses),
    );
    out.set(
        "workloads.registry_hit_ratio",
        reg_hits / (reg_hits + reg_misses),
    );
    out.set("serve.gen_late_p99_ms", percentile(&late, 0.99));
    out.set("serve.requests", answers.len() as f64);
    let fresh: Vec<(&Key, &Local)> = plan
        .schedule
        .iter()
        .filter(|(_, _, f)| *f)
        .filter_map(|(_, k, _)| reference.get(k).map(|l| (k, l)))
        .collect();
    let captured = |k: &Key, l: &Local| {
        if plan.new_traces.contains(k) {
            l.capture_s
        } else {
            0.0
        }
    };
    out.set(
        "serve.miss_sim_ms",
        median(
            &fresh
                .iter()
                .map(|(k, l)| (captured(k, l) + l.session_s + l.json_s) * 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    let per_uop = |f: &dyn Fn(&Local) -> f64| {
        median(
            &fresh
                .iter()
                .map(|(k, l)| f(l) / k.uops as f64 * 1e9)
                .collect::<Vec<_>>(),
        )
    };
    out.set("workloads.capture_ns_per_uop", per_uop(&|l| l.capture_s));
    out.set(
        "workloads.buffer_bytes_per_uop",
        median(
            &fresh
                .iter()
                .map(|(k, l)| l.bytes as f64 / k.uops as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("pipeline.engine_ns_per_uop", per_uop(&|l| l.engine_s));
    out.set(
        "pipeline.engine_ns_per_cycle",
        median(
            &fresh
                .iter()
                .map(|(_, l)| l.engine_s / l.report.result.cycles as f64 * 1e9)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "core.accounting_ns_per_uop",
        per_uop(&|l| l.session_s - l.engine_s),
    );
    out.set(
        "core.jsonfmt_us",
        median(
            &fresh
                .iter()
                .map(|(_, l)| l.json_s * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("core.detail_fraction", 1.0);
    let mut counters = Counters::default();
    for (_, l) in &fresh {
        counters.add(&l.report.result);
    }
    counters.report(&mut out);

    // Request decode and cache-key build, in process, for every request
    // body of the traced half.
    let phase_b: Vec<usize> = (0..answers.len())
        .filter(|&i| plan.schedule[i].0 >= traced_from)
        .collect();
    let mut keying = Vec::new();
    for &i in &phase_b {
        let body = plan.schedule[i].1.body();
        let (key, secs) = tracer.span("core.cachekey", i as u64, || {
            jsonin::parse(&body)
                .map_err(|e| e.to_string())
                .and_then(|v| Request::simulate(&v).map_err(|e| e.0))
                .map(|r| r.cache_key())
        });
        if let Err(e) = key {
            out.fail(format!("decoding {body}: {e}"));
        }
        keying.push(secs);
    }
    out.set("core.cachekey_us", median(&keying) * 1e6);

    // Closure on mean request latency: per request, the traced half pays
    // key decode, and each miss pays its capture (new traces only), its
    // engine and its accountants plus the JSON emit; the client adds the
    // time a request waited for a free connection. HTTP transport, the
    // pool queue and the cache lookup are left unattributed.
    let n = phase_b.len().max(1) as f64;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let (mut workloads, mut pipeline, mut core, mut bench) =
        (0.0, 0.0, keying.iter().sum::<f64>(), 0.0);
    for &i in &phase_b {
        let (_, k, f) = &plan.schedule[i];
        bench += answers[i].late_s;
        if let (true, Some(l)) = (*f, reference.get(k)) {
            workloads += captured(k, l);
            pipeline += l.engine_s;
            core += l.session_s - l.engine_s + l.json_s;
        }
    }
    let phase_a: Vec<f64> = (0..answers.len())
        .filter(|&i| plan.schedule[i].0 < traced_from)
        .map(|i| answers[i].latency_s)
        .collect();
    let traced_lat: Vec<f64> = phase_b.iter().map(|&i| answers[i].latency_s).collect();
    out.closure(
        [workloads / n, pipeline / n, core / n, bench / n],
        mean(&phase_a),
        mean(&traced_lat),
    );
    Ok(out)
}
