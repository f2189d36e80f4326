//! `perfbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench run --workload <lock-64p|chase-400|serve-e6> --seed N \
//!     --seconds S --trace <0|1> --mcsim <path> --work <dir>
//! perfbench ready --workload <lock-64p|chase-400> --seed N
//! ```
//!
//! `run` prints, as its last stdout line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `ready` builds a workload's machine, prints `ready` and exits; `run`
//! spawns it to time a cold start. `perfbench/run.py` builds this binary
//! and `mcsim`, then calls `run`.

mod serve;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mcsim_core::{Machine, RunReport, RunTelemetry};
use perfbench::driver::{self, Layers};
use perfbench::{
    calibrate, chase_400, lock_64p, median, peak_rss_mb, reset_peak_rss, tail, SimInput,
    CALIB_REF_S,
};

/// Fewest simulations a `lock-64p` / `chase-400` run measures, however
/// short `--seconds` is.
const MIN_SIMS: usize = 3;
/// Cold starts timed per run for `restart_s`.
const COLD_STARTS: usize = 31;
/// Extra workload set-ups timed before the measured simulations.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    Lock64p,
    Chase400,
    ServeE6,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "lock-64p" => Ok(Workload::Lock64p),
            "chase-400" => Ok(Workload::Chase400),
            "serve-e6" => Ok(Workload::ServeE6),
            other => Err(format!(
                "unknown workload `{other}` (lock-64p, chase-400, serve-e6)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Lock64p => "lock-64p",
            Workload::Chase400 => "chase-400",
            Workload::ServeE6 => "serve-e6",
        }
    }

    fn input(self, seed: u64) -> SimInput {
        match self {
            Workload::Lock64p => lock_64p(),
            Workload::Chase400 => chase_400(seed),
            Workload::ServeE6 => unreachable!("serve-e6 is a served sweep grid"),
        }
    }
}

pub(crate) struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mcsim: PathBuf,
    pub work: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut mcsim = PathBuf::from("target/release/mcsim");
    let mut work = PathBuf::from("perfbench-work");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => trace = value()? == "1",
            "--mcsim" => mcsim = value()?.into(),
            "--work" => work = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        mcsim,
        work,
    })
}

/// A run's result: the JSON object the benchmark prints last.
#[derive(Default)]
pub(crate) struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// `ok_frac`: operations that succeeded over operations attempted.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    fn to_json(&self) -> String {
        let correct = self.failed == 0 && self.attempted > 0 && self.errors.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One untraced simulation: generate, build, run, check.
struct Sim {
    setup: Duration,
    run: Duration,
    job: Duration,
    report: RunReport,
    verdict: Result<(), String>,
}

fn simulate(workload: Workload, seed: u64) -> Sim {
    let t0 = Instant::now();
    let input = workload.input(seed);
    let mut m = Machine::new(input.cfg, input.programs);
    for &(a, v) in &input.init {
        m.write_memory(a, v);
    }
    let t1 = Instant::now();
    let report = m.run();
    let t2 = Instant::now();
    let verdict = input.expect.check(&report);
    Sim {
        setup: t1 - t0,
        run: t2 - t1,
        job: t0.elapsed(),
        report,
        verdict,
    }
}

/// Times `COLD_STARTS` fresh `perfbench ready` processes, from spawn to
/// the `ready` line (process start, workload generation, machine build),
/// each scaled by the calibrations on either side of it. `calib` is the
/// latest calibration and is left at the last one taken.
fn cold_starts(workload: Workload, seed: u64, calib: &mut f64, out: &mut Outcome) -> Vec<f64> {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            out.errors
                .push(format!("cannot locate own executable: {e}"));
            return Vec::new();
        }
    };
    let mut times = Vec::new();
    for _ in 0..COLD_STARTS {
        let t = Instant::now();
        let child = Command::new(&exe)
            .args(["ready", "--workload", workload.name(), "--seed"])
            .arg(seed.to_string())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                out.errors.push(format!("cannot spawn cold start: {e}"));
                return times;
            }
        };
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let elapsed = secs(t.elapsed());
        let status = child.wait();
        let next = calibrate();
        match (read, status) {
            (Ok(_), Ok(s)) if s.success() && line.trim() == "ready" => {
                times.push(elapsed * scale(*calib, next));
            }
            other => out
                .errors
                .push(format!("cold start did not report ready: {other:?}")),
        }
        *calib = next;
    }
    times
}

/// Host-speed scale for a time measured between two calibrations.
pub(crate) fn scale(before: f64, after: f64) -> f64 {
    CALIB_REF_S / ((before + after) / 2.0)
}

fn run_sim(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let (mut setups, mut runs, mut jobs) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw_runs = Vec::new();
    let mut calib = calibrate();
    let mut calibs = vec![calib];
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let input = args.workload.input(args.seed);
        let mut m = Machine::new(input.cfg, input.programs);
        for &(a, v) in &input.init {
            m.write_memory(a, v);
        }
        setups.push(secs(t.elapsed()) * CALIB_REF_S / calib);
        std::hint::black_box(m);
    }
    let mut first: Option<(u64, u64)> = None;
    // Peak memory of the simulations alone: the calibration kernel's
    // buffers would otherwise dominate the process's high-water mark.
    let mut peak_mb: f64 = 0.0;
    while out.attempted < MIN_SIMS as u64 || Instant::now() < deadline {
        out.attempted += 1;
        if let Err(e) = reset_peak_rss() {
            out.errors.push(format!("cannot reset the peak RSS: {e}"));
        }
        let sim = simulate(args.workload, args.seed);
        peak_mb = peak_mb.max(peak_rss_mb("self").unwrap_or(0.0));
        let next = calibrate();
        let f = scale(calib, next);
        calib = next;
        calibs.push(calib);
        let key = (sim.report.cycles, sim.report.total.committed);
        let repeat = *first.get_or_insert(key);
        match sim.verdict {
            Err(e) => out.fail(e),
            Ok(()) if key != repeat => out.fail(format!(
                "run is not deterministic: {key:?} after {repeat:?} (cycles, instructions)"
            )),
            Ok(()) => {}
        }
        setups.push(secs(sim.setup) * f);
        runs.push(secs(sim.run) * f);
        jobs.push(secs(sim.job) * f);
        raw_runs.push(secs(sim.run));
    }
    let measured: f64 = jobs.iter().sum();
    let (cycles, instrs) = first.unwrap_or_default();
    let run_s = median(&runs);
    let (job_tail, pct) = tail(&jobs);
    let restarts = cold_starts(args.workload, args.seed, &mut calib, &mut out);
    eprintln!(
        "perfbench: {} simulations; job_tail_s is p{pct:.0} of {} samples; \
         raw run_s {:.4}, calibration median {:.4} s (reference {CALIB_REF_S} s)",
        jobs.len(),
        jobs.len(),
        median(&raw_runs),
        median(&calibs),
    );
    out.metric("setup_s", median(&setups), "s");
    out.metric("run_s", run_s, "s");
    out.metric("sim_instrs_per_s", instrs as f64 / run_s, "1/s");
    out.metric("sim_cycles", cycles as f64, "cycles");
    out.metric("job_p50_s", median(&jobs), "s");
    out.metric("job_tail_s", job_tail, "s");
    out.metric("jobs_per_s", jobs.len() as f64 / measured, "1/s");
    out.metric("restart_s", median(&restarts), "s");
    out.metric("peak_rss_mb", peak_mb, "MB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out
}

/// Per-layer figures of one traced operation (one simulation, or one
/// pass over a sweep grid), reduced to medians across operations.
#[derive(Default)]
pub(crate) struct LayerSample {
    pub layers: Layers,
    pub telemetry: RunTelemetry,
    pub gen_ns: u64,
    pub machine_new_ns: u64,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub cycles: u64,
    pub committed: u64,
    pub demand_misses: u64,
    pub invalidations_sent: u64,
    pub dir_queue_cycles: u64,
    pub rollbacks: u64,
    pub reissues: u64,
    pub prefetches_issued: u64,
    pub prefetches_useful: u64,
}

impl LayerSample {
    fn add(&mut self, o: &LayerSample) {
        self.layers.add(&o.layers);
        self.telemetry.stepped_cycles += o.telemetry.stepped_cycles;
        self.telemetry.skipped_cycles += o.telemetry.skipped_cycles;
        self.telemetry.spans += o.telemetry.spans;
        self.gen_ns += o.gen_ns;
        self.machine_new_ns += o.machine_new_ns;
        self.untraced_s += o.untraced_s;
        self.traced_s += o.traced_s;
        self.cycles += o.cycles;
        self.committed += o.committed;
        self.demand_misses += o.demand_misses;
        self.invalidations_sent += o.invalidations_sent;
        self.dir_queue_cycles += o.dir_queue_cycles;
        self.rollbacks += o.rollbacks;
        self.reissues += o.reissues;
        self.prefetches_issued += o.prefetches_issued;
        self.prefetches_useful += o.prefetches_useful;
    }
}

/// Runs one simulation both ways — `Machine::run_telemetry` and the
/// traced driver, in the order `traced_first` says — and checks that
/// they agree and that the output is correct.
pub(crate) fn traced_pair(
    gen: impl Fn() -> SimInput,
    traced_first: bool,
) -> Result<(LayerSample, Vec<driver::JumpSpan>), String> {
    let t = Instant::now();
    let input = gen();
    let gen_ns = t.elapsed().as_nanos() as u64;
    let untraced = || {
        let programs = input.programs.clone();
        let t = Instant::now();
        let mut m = Machine::new(input.cfg, programs);
        for &(a, v) in &input.init {
            m.write_memory(a, v);
        }
        let new_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let (report, telemetry) = m.run_telemetry();
        (report, telemetry, new_ns, secs(t.elapsed()))
    };
    let traced = || {
        let programs = input.programs.clone();
        let t = Instant::now();
        let traced = driver::run(input.cfg, programs, &input.init);
        let wall = secs(t.elapsed()) - traced.layers.build_ns as f64 * 1e-9;
        (traced, wall)
    };
    let ((report, telemetry, new_ns, untraced_s), (tr, traced_s)) = if traced_first {
        let b = traced();
        (untraced(), b)
    } else {
        let a = untraced();
        (a, traced())
    };
    driver::verify(&tr, &report, &telemetry)?;
    input.expect.check(&report)?;
    let sample = LayerSample {
        layers: tr.layers,
        telemetry,
        gen_ns,
        machine_new_ns: new_ns,
        untraced_s,
        traced_s,
        cycles: report.cycles,
        committed: report.total.committed,
        demand_misses: report.mem.demand_misses,
        invalidations_sent: report.mem.invalidations_sent,
        dir_queue_cycles: report.mem.dir_queue_cycles,
        rollbacks: report.total.rollbacks,
        reissues: report.total.reissues,
        prefetches_issued: report.mem.prefetches_issued,
        prefetches_useful: report.mem.prefetches_useful,
    };
    Ok((sample, tr.spans))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Emits the simulator-layer metrics: medians over `samples` of host
/// times, counts from the first sample (they repeat exactly).
pub(crate) fn layer_metrics(out: &mut Outcome, samples: &[LayerSample]) {
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let Some(s) = samples.first() else {
        return;
    };
    let l = &s.layers;
    out.metric("proc.tick_ns", med(&|s| s.layers.proc_tick_ns as f64), "ns");
    out.metric("proc.core_ticks", l.core_ticks as f64, "count");
    out.metric(
        "proc.ns_per_core_tick",
        med(&|s| ratio(s.layers.proc_tick_ns as f64, s.layers.core_ticks as f64)),
        "ns",
    );
    out.metric(
        "proc.progress_ratio",
        ratio(l.progress_ticks as f64, l.core_ticks as f64),
        "ratio",
    );
    out.metric("mem.tick_ns", med(&|s| s.layers.mem_tick_ns as f64), "ns");
    out.metric("mem.tick_calls", l.mem_tick_calls as f64, "count");
    out.metric(
        "mem.ns_per_tick",
        med(&|s| ratio(s.layers.mem_tick_ns as f64, s.layers.mem_tick_calls as f64)),
        "ns",
    );
    out.metric(
        "core.stepped_cycles",
        s.telemetry.stepped_cycles as f64,
        "cycles",
    );
    out.metric(
        "core.skipped_cycles",
        s.telemetry.skipped_cycles as f64,
        "cycles",
    );
    out.metric("core.jump_spans", s.telemetry.spans as f64, "count");
    out.metric("core.jump_ns", med(&|s| s.layers.jump_ns as f64), "ns");
    out.metric(
        "core.bookkeeping_ns",
        med(&|s| s.layers.bookkeeping_ns as f64),
        "ns",
    );
    out.metric(
        "core.machine_new_ns",
        med(&|s| s.machine_new_ns as f64),
        "ns",
    );
    out.metric("guard.checks", l.checks as f64, "count");
    out.metric("guard.check_ns", med(&|s| s.layers.check_ns as f64), "ns");
    out.metric(
        "guard.ns_per_check",
        med(&|s| ratio(s.layers.check_ns as f64, s.layers.checks as f64)),
        "ns",
    );
    out.metric("workloads.gen_ns", med(&|s| s.gen_ns as f64), "ns");
    out.metric("mem.demand_misses", s.demand_misses as f64, "count");
    out.metric(
        "mem.invalidations_sent",
        s.invalidations_sent as f64,
        "count",
    );
    out.metric("mem.dir_queue_cycles", s.dir_queue_cycles as f64, "cycles");
    out.metric("proc.rollbacks", s.rollbacks as f64, "count");
    out.metric("proc.reissues", s.reissues as f64, "count");
    out.metric(
        "proc.prefetch_useful_ratio",
        ratio(s.prefetches_useful as f64, s.prefetches_issued as f64),
        "ratio",
    );
    out.metric(
        "trace.unattributed_ns",
        med(&|s| s.layers.unattributed_ns() as f64),
        "ns",
    );
    out.metric(
        "trace.overhead_s",
        med(&|s| s.traced_s) - med(&|s| s.untraced_s),
        "s",
    );
}

/// The sweep and serve layers, which `lock-64p` and `chase-400` never
/// enter: their host time there is zero.
fn idle_service_layers(out: &mut Outcome) {
    for (name, unit) in [
        ("sweep.point_p50_s", "s"),
        ("sweep.point_tail_s", "s"),
        ("sweep.journal_append_ns", "ns"),
        ("sweep.result_write_ns", "ns"),
        ("sweep.result_parse_ns", "ns"),
        ("serve.post_ms", "ms"),
        ("serve.results_ms", "ms"),
        ("serve.queue_wait_s", "s"),
        ("serve.overhead_ratio", "ratio"),
    ] {
        out.metric(name, 0.0, unit);
    }
}

/// Writes jump spans as JSON lines: `{"from":…,"to":…,"ns":…}`.
fn write_spans(path: &std::path::Path, spans: &[driver::JumpSpan]) {
    let text: String = spans
        .iter()
        .map(|s| format!("{{\"from\":{},\"to\":{},\"ns\":{}}}\n", s.from, s.to, s.ns))
        .collect();
    match std::fs::write(path, text) {
        Ok(()) => eprintln!(
            "perfbench: {} jump spans in {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn run_sim_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    while out.attempted == 0 || Instant::now() < deadline {
        let op = out.attempted as usize;
        out.attempted += 1;
        match traced_pair(|| args.workload.input(args.seed), op % 2 == 1) {
            Ok((sample, s)) => {
                samples.push(sample);
                if op == 0 {
                    spans = s;
                }
            }
            Err(e) => out.fail(e),
        }
    }
    eprintln!("perfbench: {} traced simulations", samples.len());
    write_spans(
        &args
            .work
            .join(format!("{}-spans.jsonl", args.workload.name())),
        &spans,
    );
    layer_metrics(&mut out, &samples);
    idle_service_layers(&mut out);
    out
}

fn ready(args: &Args) -> ExitCode {
    let input = args.workload.input(args.seed);
    let mut m = Machine::new(input.cfg, input.programs);
    for &(a, v) in &input.init {
        m.write_memory(a, v);
    }
    println!("ready");
    std::hint::black_box(m);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        "ready" if args.workload != Workload::ServeE6 => ready(&args),
        "run" => {
            if let Err(e) = std::fs::create_dir_all(&args.work) {
                eprintln!("perfbench: cannot create {}: {e}", args.work.display());
                return ExitCode::FAILURE;
            }
            let out = match (args.workload, args.trace) {
                (Workload::ServeE6, false) => serve::run(&args),
                (Workload::ServeE6, true) => serve::run_traced(&args),
                (_, false) => run_sim(&args),
                (_, true) => run_sim_traced(&args),
            };
            for e in &out.errors {
                eprintln!("perfbench: {e}");
            }
            if out.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: a metric is not a finite number");
                return ExitCode::FAILURE;
            }
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: perfbench run|ready --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--mcsim PATH] [--work DIR]");
            ExitCode::from(2)
        }
    }
}
