//! Pieces every workload shares: run settings, seeded inputs, core
//! tables, correctness checks, model counters and the host fingerprint.

use crate::report::Outcome;
use crate::stats::median;
use mstacks_core::cachekey::fnv1a;
use mstacks_core::{FlopsStack, MultiStackReport};
use mstacks_model::{CoreConfig, SmallRng};
use mstacks_pipeline::PipelineResult;
use mstacks_workloads::{spec, Workload};
use std::time::Instant;

/// Settings of one benchmark run.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Seconds-scale inputs for the benchmark's own tests.
    pub smoke: bool,
}

impl RunConfig {
    /// `full` normally, `smoke` in smoke mode.
    pub fn size(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// A SPEC-like profile re-seeded from the run seed, as a trace of
/// `len` µops in `phases` equal phases. Each phase mixes the run seed
/// into the profile's own seed differently, so it is another program
/// with the same bottleneck structure. One program's CPI can vary
/// threefold with its seed (`mcf`: 1.1 to 3.5 on `bdw`); a trace of
/// many such programs varies far less from seed to seed.
pub fn seeded(name: &str, seed: u64, len: u64, phases: u64) -> Result<Workload, String> {
    let base = spec::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut rng = SmallRng::seed_from_u64(seed ^ fnv1a(name.as_bytes()));
    let programs = (0..phases)
        .map(|_| {
            let mut w = base.clone();
            if let Workload::Synth(p) = &mut w {
                p.seed ^= rng.next_u64();
            }
            (w, len / phases)
        })
        .collect();
    Ok(Workload::Sequence(programs))
}

/// A machine loaded from its shipped table under `cores/`.
pub fn load_core(name: &str) -> Result<CoreConfig, String> {
    let path = format!("cores/{name}.core");
    CoreConfig::from_core_file(&path).map_err(|e| format!("{path}: {e}"))
}

/// Every stage stack's components sum to its cycle count (so to the
/// CPI), and so do the FLOPS stack's.
pub fn check_conservation(
    what: &str,
    multi: &MultiStackReport,
    flops: &FlopsStack,
) -> Result<(), String> {
    let close = |sum: f64, total: u64| (sum - total as f64).abs() <= 1e-6 * (total as f64).max(1.0);
    for s in multi.all_stacks() {
        if !close(s.total_cycles(), s.cycles) {
            return Err(format!(
                "{what}: {} stack components sum to {} cycles, not {}",
                s.stage,
                s.total_cycles(),
                s.cycles
            ));
        }
    }
    if !close(flops.total_cycles(), flops.cycles) {
        return Err(format!(
            "{what}: FLOPS stack components sum to {} cycles, not {}",
            flops.total_cycles(),
            flops.cycles
        ));
    }
    Ok(())
}

/// Digest of every simulated statistic in `value` (its `Debug` form is a
/// total serialization, floats included bit-exactly).
pub fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// Model counters summed over several simulated runs.
#[derive(Default)]
pub struct Counters {
    uops: u64,
    squashed: u64,
    l1d_misses: u64,
    l2_misses: u64,
    l3_misses: u64,
    mshr_wait: u64,
    dram_queue: u64,
    mispredicts: u64,
    fetched: u64,
    wrong_path_fetched: u64,
}

impl Counters {
    pub fn add(&mut self, r: &PipelineResult) {
        self.uops += r.committed_uops;
        self.squashed += r.stats.squashed_uops;
        self.l1d_misses += r.mem.l1d.misses;
        self.l2_misses += r.mem.l2.misses;
        self.l3_misses += r.mem.l3.misses;
        self.mshr_wait += r.mem.l2_mshr_wait_cycles;
        self.dram_queue += r.mem.dram_queue_cycles;
        self.mispredicts += r.frontend.mispredicts;
        self.fetched += r.frontend.fetched;
        self.wrong_path_fetched += r.frontend.wrong_path_fetched;
    }

    /// Sets the `mem.*`, `frontend.*` and useful-work metrics.
    pub fn report(&self, out: &mut Outcome) {
        let kuops = self.uops as f64 / 1e3;
        out.set("mem.l1d_mpki", self.l1d_misses as f64 / kuops);
        out.set("mem.l2_mpki", self.l2_misses as f64 / kuops);
        out.set("mem.l3_mpki", self.l3_misses as f64 / kuops);
        out.set("mem.l2_mshr_wait_cycles", self.mshr_wait as f64);
        out.set("mem.dram_queue_cycles", self.dram_queue as f64);
        out.set("frontend.branch_mpki", self.mispredicts as f64 / kuops);
        out.set(
            "frontend.wrong_path_fetch_ratio",
            self.wrong_path_fetched as f64 / (self.fetched + self.wrong_path_fetched) as f64,
        );
        out.set(
            "pipeline.useful_uop_ratio",
            self.uops as f64 / (self.uops + self.squashed) as f64,
        );
    }
}

/// What a run keeps of one operation: the digest of its simulated
/// statistics (or why its checks failed) and, on traced operations, the
/// layer probe.
pub struct OpSummary<P> {
    pub check: Result<u64, String>,
    pub probe: Option<Result<P, String>>,
}

impl<P> OpSummary<P> {
    pub fn untraced(check: Result<u64, String>) -> Self {
        OpSummary { check, probe: None }
    }

    pub fn traced(check: Result<u64, String>, probe: Result<P, String>) -> Self {
        OpSummary {
            check,
            probe: Some(probe),
        }
    }

    /// The probes of the operations whose probe succeeded.
    pub fn probes<'a>(ops: &'a [(Self, f64)]) -> Vec<&'a P> {
        ops.iter()
            .filter_map(|(op, _)| op.probe.as_ref().and_then(|p| p.as_ref().ok()))
            .collect()
    }
}

/// Counts every operation as attempted and fails it when its checks or
/// its probe failed, or when its digest differs from the first
/// operation's. Returns that first digest.
pub fn tally<P>(out: &mut Outcome, ops: &[(OpSummary<P>, f64)]) -> u64 {
    let mut first = None;
    for (op, _) in ops {
        out.attempted += 1;
        let probe = op
            .probe
            .as_ref()
            .map_or(Ok(()), |p| p.as_ref().map(|_| ()).map_err(Clone::clone));
        match (op.check.clone().and_then(|d| probe.map(|()| d)), first) {
            (Err(e), _) => out.fail(e),
            (Ok(d), None) => first = Some(d),
            (Ok(d), Some(f)) if d != f => {
                out.fail(format!("repeat digest {d:016x} differs from {f:016x}"))
            }
            (Ok(_), Some(_)) => {}
        }
    }
    first.unwrap_or(0)
}

/// Runs `op` until `seconds` have passed and at least `min_ops` ran.
/// After each call, untimed, `summarize` reduces its result to what the
/// run keeps; the result itself is dropped before the next call starts,
/// except the last one, which is returned.
///
/// Each call runs behind a fresh, seeded heap offset: a small and a
/// large padding block are allocated first and freed after the call, so
/// the simulator's structures land at different addresses from one
/// operation to the next. The simulator's speed depends on that layout
/// by ±10%; without the offsets every operation of a process reuses the
/// layout of the first, and the median measures one layout instead of
/// averaging over them.
pub fn timed_loop<R, T>(
    cfg: &RunConfig,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(u64) -> R,
    mut summarize: impl FnMut(u64, &R, f64) -> T,
) -> (Vec<(T, f64)>, R) {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x1A_70_u64.rotate_left(48));
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = None;
    while out.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        drop(last.take());
        let small = vec![0u8; rng.gen_range(1..4096usize)];
        let large = vec![0u8; rng.gen_range(1..512usize) << 12];
        let i = out.len() as u64;
        let t = Instant::now();
        let r = op(i);
        let secs = t.elapsed().as_secs_f64();
        drop(std::hint::black_box((small, large)));
        out.push((summarize(i, &r, secs), secs));
        last = Some(r);
    }
    (out, last.expect("at least one operation"))
}

/// Repeats `setup` and returns the last result with the median time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up before building the next one, so a
        // server's port and threads are released first.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// CPU model, core count, compiler and commit of this run.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: cpu \"{cpu}\", nproc {nproc}, {}, commit {}",
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unknown".to_string())
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}
