//! The `serve-e6` workload: a fresh `mcsim serve --workers 2` on a fresh
//! state dir, two closed-loop clients that each submit
//! `{"builtin":"e6-equalization"}`, follow its journal and fetch its
//! results, then a restart on the same state dir. Every served artifact
//! must be byte-identical to an in-process `run_sweep` of the same spec.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mcsim_sweep::{
    builtin, execute_point, run_sweep, run_sweep_with, ExecOptions, JournalEntry, JournalSink,
    JournalWriter, PreparedJournal, ProgressSnapshot, SweepObserver, SweepResult, SweepSpec,
    WorkloadSpec,
};
use perfbench::{
    calibrate, calibrate_pair, median, peak_rss_mb, tail, Expect, SimInput, CALIB_REF_S,
};

use crate::{layer_metrics, scale, secs, traced_pair, Args, LayerSample, Outcome};

/// The grid every client submits.
const BUILTIN: &str = "e6-equalization";
/// Closed-loop clients, one thread each.
const CLIENTS: usize = 2;
/// Jobs each client submits per round. Fixed, because restart cost grows
/// with the number of finished jobs in the state dir.
const JOBS_PER_CLIENT: usize = 8;
/// In-process passes over the grid per untraced run, for `run_s`.
const REFERENCE_RUNS: usize = 10;
/// Restarts over the used state dir per round.
const RESTARTS: usize = 3;
/// Fewest rounds an untraced run measures.
const MIN_ROUNDS: usize = 2;
/// How long a server may take to answer its first `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drained server may take to exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(60);
/// Socket read timeout for every request (a followed journal streams
/// for a whole job).
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// An HTTP reply: status, decoded body, and when the first body byte
/// arrived.
struct Reply {
    status: u16,
    body: Vec<u8>,
    first_byte: Option<Instant>,
}

/// One request on a fresh connection (the server answers one request per
/// connection and closes it). Chunked bodies are decoded.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    let mut head_end = None;
    let mut first_byte = None;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf).map_err(io)?;
        if n == 0 {
            break;
        }
        raw.extend_from_slice(&buf[..n]);
        if head_end.is_none() {
            head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        }
        if first_byte.is_none() && head_end.is_some_and(|h| raw.len() > h) {
            first_byte = Some(Instant::now());
        }
    }
    let head_end = head_end.ok_or_else(|| format!("{method} {path}: no response head"))?;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let body = if head.contains("transfer-encoding: chunked") {
        dechunk(&raw[head_end..]).ok_or_else(|| format!("{method} {path}: bad chunked body"))?
    } else {
        raw[head_end..].to_vec()
    };
    Ok(Reply {
        status,
        body,
        first_byte,
    })
}

fn dechunk(mut b: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let eol = b.windows(2).position(|w| w == b"\r\n")?;
        let size = usize::from_str_radix(std::str::from_utf8(&b[..eol]).ok()?.trim(), 16).ok()?;
        b = &b[eol + 2..];
        if size == 0 {
            return Some(out);
        }
        out.extend_from_slice(b.get(..size)?);
        b = b.get(size + 2..)?;
    }
}

/// The string value of `"key": "…"` in a JSON body.
fn json_str(body: &[u8], key: &str) -> Option<String> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at + key.len() + 2..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// A running `mcsim serve`; dropped servers are killed and reaped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns a server on `state` and waits for its first `/healthz`
    /// 200; returns it with the time that took.
    fn start(args: &Args, state: &Path, tag: &str) -> Result<(Server, f64), String> {
        let addr_file = args.work.join(format!("{tag}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let t = Instant::now();
        let child = Command::new(&args.mcsim)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--quiet"])
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--state-dir")
            .arg(state)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", args.mcsim.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        while t.elapsed() < START_TIMEOUT {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if server.addr.is_empty() {
                server.addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
            }
            if !server.addr.is_empty()
                && http(&server.addr, "GET", "/healthz", "").is_ok_and(|r| r.status == 200)
            {
                return Ok((server, secs(t.elapsed())));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server never answered /healthz".to_string())
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// `POST /shutdown`, then waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = http(&self.addr, "POST", "/shutdown", "")?;
        if reply.status != 200 {
            return Err(format!("POST /shutdown answered {}", reply.status));
        }
        let t = Instant::now();
        while t.elapsed() < EXIT_TIMEOUT {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after POST /shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Client-side spans of one served job, keyed by its job id.
#[derive(Debug, Clone)]
struct JobSpans {
    id: String,
    post_s: f64,
    /// 202 → first journal line.
    queue_wait_s: f64,
    follow_s: f64,
    results_s: f64,
    total_s: f64,
}

/// One closed-loop job: POST, follow the journal to the end, fetch and
/// check the results.
fn one_job(addr: &str, reference: &[u8]) -> Result<JobSpans, String> {
    let t0 = Instant::now();
    let posted = http(
        addr,
        "POST",
        "/sweeps",
        &format!("{{\"builtin\":\"{BUILTIN}\"}}"),
    )?;
    let t1 = Instant::now();
    if posted.status != 202 {
        return Err(format!("POST /sweeps answered {}", posted.status));
    }
    let id = json_str(&posted.body, "id").ok_or("POST /sweeps returned no id")?;
    let follow = http(addr, "GET", &format!("/sweeps/{id}/journal?follow=1"), "")?;
    let t2 = Instant::now();
    if follow.status != 200 {
        return Err(format!("{id}: journal follow answered {}", follow.status));
    }
    let results = http(addr, "GET", &format!("/sweeps/{id}/results"), "")?;
    let t3 = Instant::now();
    if results.status != 200 {
        return Err(format!("{id}: results answered {}", results.status));
    }
    if results.body != reference {
        return Err(format!(
            "{id}: served artifact differs from the in-process run_sweep artifact"
        ));
    }
    Ok(JobSpans {
        id,
        post_s: secs(t1 - t0),
        queue_wait_s: follow.first_byte.map_or(secs(t2 - t1), |f| secs(f - t1)),
        follow_s: secs(t2 - t1),
        results_s: secs(t3 - t2),
        total_s: secs(t3 - t0),
    })
}

/// One round's measurements.
#[derive(Default)]
struct Round {
    setup_s: f64,
    /// Restart times over the used state dir.
    restarts: Vec<f64>,
    /// Two-thread calibrations taken between the round's phases.
    calibs: Vec<f64>,
    jobs: Vec<JobSpans>,
    jobs_wall_s: f64,
    peak_rss_mb: f64,
}

/// Fresh state dir, fresh server, `CLIENTS × JOBS_PER_CLIENT` jobs, then
/// shut down and restart over the used state dir.
fn round(args: &Args, index: usize, reference: &[u8], out: &mut Outcome) -> Result<Round, String> {
    let state = args.work.join(format!("serve-state-{index}"));
    let _ = std::fs::remove_dir_all(&state);
    let (server, setup_s) = Server::start(args, &state, "serve")?;
    let results: Mutex<Vec<Result<JobSpans, String>>> = Mutex::new(Vec::new());
    let t = Instant::now();
    // The clients start each job together, so every job overlaps its
    // partner: without the barrier they drift in and out of step and the
    // latency splits into a solo and a shared mode.
    let in_step = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                for _ in 0..JOBS_PER_CLIENT {
                    in_step.wait();
                    let r = one_job(&server.addr, reference);
                    results.lock().expect("results lock").push(r);
                }
            });
        }
    });
    let jobs_wall_s = secs(t.elapsed());
    let mut rss = server.peak_rss_mb().unwrap_or(0.0);
    server.shutdown()?;
    let mut jobs = Vec::new();
    for r in results.into_inner().expect("results lock") {
        out.attempted += 1;
        match r {
            Ok(j) => jobs.push(j),
            Err(e) => out.fail(e),
        }
    }
    let mut restarts = Vec::new();
    let mut calibs = vec![calibrate_pair()];
    for _ in 0..RESTARTS {
        let (server, restart_s) = Server::start(args, &state, "restart")?;
        restarts.push(restart_s);
        let listed = http(&server.addr, "GET", "/sweeps", "")?;
        let done = String::from_utf8_lossy(&listed.body)
            .matches("\"done\"")
            .count();
        if listed.status != 200 || done != jobs.len() {
            out.errors.push(format!(
                "restart lists {done} done jobs, expected {}",
                jobs.len()
            ));
        }
        rss = rss.max(server.peak_rss_mb().unwrap_or(0.0));
        server.shutdown()?;
        calibs.push(calibrate_pair());
    }
    let _ = std::fs::remove_dir_all(&state);
    Ok(Round {
        setup_s,
        restarts,
        calibs,
        jobs,
        jobs_wall_s,
        peak_rss_mb: rss,
    })
}

/// The in-process reference: `run_sweep` of the same grid at `--jobs 1`.
struct Reference {
    spec: SweepSpec,
    bytes: Vec<u8>,
    cycles: u64,
    instrs: u64,
}

fn reference() -> Result<Reference, String> {
    let spec = builtin(BUILTIN).ok_or("builtin grid missing")?;
    let run = run_sweep(&spec, &ExecOptions::default())?;
    let mut cycles = 0;
    let mut instrs = 0;
    for row in &run.result.rows {
        let m = row
            .outcome
            .metrics()
            .ok_or_else(|| format!("reference point {} did not finish", row.index))?;
        cycles += m.cycles;
        instrs += m.committed;
    }
    Ok(Reference {
        bytes: run.result.to_json().into_bytes(),
        spec,
        cycles,
        instrs,
    })
}

pub(crate) fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let reference = match reference() {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        match round(args, rounds.len(), &reference.bytes, &mut out) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                out.errors.push(e);
                break;
            }
        }
    }
    // `run_s`: the grid's points run in this thread through
    // `execute_point`, the executor's own per-point path, REFERENCE_RUNS
    // times after the rounds. Each pass is scaled by the calibrations
    // around it on the same thread, as `lock-64p` and `chase-400` are,
    // and gives its mean time per point (the grid mixes 2- and 4-core
    // points, so a per-point median would jump between the classes).
    let points = reference.spec.points();
    let mut pass_s = Vec::new();
    let mut calib = calibrate();
    for _ in 0..REFERENCE_RUNS {
        let t = Instant::now();
        for p in &points {
            std::hint::black_box(execute_point(p, true, None, None));
        }
        let next = calibrate();
        pass_s.push(secs(t.elapsed()) / points.len() as f64 * scale(calib, next));
        calib = next;
    }
    let mut calibs = Vec::new();
    // Every host time here except start-up is scaled by one run-wide
    // factor: the median of the two-thread calibrations taken between
    // phases. Served jobs keep both CPUs busy and are not bracketed one
    // by one.
    calibs.extend(rounds.iter().flat_map(|r| r.calibs.iter().copied()));
    let f = CALIB_REF_S / median(&calibs);
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.jobs.iter().map(|j| j.total_s * f))
        .collect();
    let wall: f64 = rounds.iter().map(|r| r.jobs_wall_s * f).sum();
    let jobs_per_s = if wall > 0.0 {
        lat.len() as f64 / wall
    } else {
        0.0
    };
    let (job_tail, pct) = tail(&lat);
    let per_round = |g: fn(&Round) -> f64| median(&rounds.iter().map(g).collect::<Vec<_>>());
    let restarts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.restarts.iter().map(|t| t * f))
        .collect();
    eprintln!(
        "perfbench: {} rounds, {} jobs, {} restarts; job_tail_s is p{pct:.0} of {} samples; \
         two-thread calibration median {:.4} s (reference {CALIB_REF_S} s); unscaled job_p50_s {:.4}",
        rounds.len(),
        lat.len(),
        restarts.len(),
        lat.len(),
        CALIB_REF_S / f,
        median(&lat) / f,
    );
    // Start-up is mostly the accept loop's poll sleep, not CPU work, so
    // it is reported unscaled.
    out.metric("setup_s", per_round(|r| r.setup_s), "s");
    out.metric("run_s", median(&pass_s), "s");
    out.metric(
        "sim_instrs_per_s",
        reference.instrs as f64 * jobs_per_s,
        "1/s",
    );
    out.metric("sim_cycles", reference.cycles as f64, "cycles");
    out.metric("job_p50_s", median(&lat), "s");
    out.metric("job_tail_s", job_tail, "s");
    out.metric("jobs_per_s", jobs_per_s, "1/s");
    out.metric("restart_s", median(&restarts), "s");
    out.metric("peak_rss_mb", per_round(|r| r.peak_rss_mb), "MB");
    out.metric("ok_frac", out.ok_frac(), "ratio");
    out
}

/// A journal sink that times each append into a real journal file.
struct TimedSink {
    inner: JournalWriter,
    append_ns: std::sync::Arc<Mutex<Vec<f64>>>,
}

impl JournalSink for TimedSink {
    fn append_entry(&mut self, entry: &JournalEntry) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.append_entry(entry);
        let ns = t.elapsed().as_nanos() as f64;
        self.append_ns.lock().expect("append lock").push(ns);
        r
    }
}

/// Counts the points the executor reports as landed.
struct Landed(AtomicUsize);

impl SweepObserver for Landed {
    fn on_entry(&self, _entry: &JournalEntry, _resumed: bool, _snapshot: &ProgressSnapshot) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// One in-process pass of the grid through `run_sweep_with` with a
/// timed journal sink, plus a publish (write + rename) and a re-parse
/// of the artifact as the server does them.
struct SweepPass {
    wall_s: f64,
    point_seconds: Vec<f64>,
    append_ns: Vec<f64>,
    write_ns: f64,
    parse_ns: f64,
    landed: usize,
}

fn sweep_pass(args: &Args, spec: &SweepSpec, reference: &[u8]) -> Result<SweepPass, String> {
    let dir = args.work.join("sweep-trace");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let append_ns = std::sync::Arc::new(Mutex::new(Vec::new()));
    let writer =
        JournalWriter::create(&dir.join("journal.jsonl"), spec, None).map_err(|e| e.to_string())?;
    let sink = TimedSink {
        inner: writer,
        append_ns: append_ns.clone(),
    };
    let landed = Landed(AtomicUsize::new(0));
    let run = run_sweep_with(
        spec,
        &ExecOptions::default(),
        PreparedJournal::sink_only(Box::new(sink), spec.len()),
        Some(&landed),
    )?;
    let t = Instant::now();
    let json = run.result.to_json();
    let tmp = dir.join("result.json.tmp");
    let path = dir.join("result.json");
    std::fs::write(&tmp, &json).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, &path).map_err(|e| e.to_string())?;
    let write_ns = t.elapsed().as_nanos() as f64;
    if json.as_bytes() != reference {
        return Err("traced run_sweep_with artifact differs from run_sweep".to_string());
    }
    let t = Instant::now();
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let parsed = SweepResult::from_json(&text).map_err(|e| e.to_string())?;
    let parse_ns = t.elapsed().as_nanos() as f64;
    if parsed.rows.len() != spec.len() {
        return Err("re-parsed artifact lost rows".to_string());
    }
    let append_ns = append_ns.lock().expect("append lock").clone();
    let landed = landed.0.into_inner();
    Ok(SweepPass {
        wall_s: run.timing.wall_seconds,
        point_seconds: run.timing.point_seconds,
        append_ns,
        write_ns,
        parse_ns,
        landed,
    })
}

/// The simulator layers over every point of the grid: each point runs
/// through `Machine::run_telemetry` and the traced driver, which must
/// agree; the sample sums over points.
fn grid_layers(
    spec: &SweepSpec,
    reference: &SweepResult,
    op: usize,
) -> Result<LayerSample, String> {
    let mut sum = LayerSample::default();
    for (point, row) in spec.points().iter().zip(&reference.rows) {
        if !matches!(point.workload, WorkloadSpec::CriticalSections { .. }) {
            return Err(format!("point {} needs machine setup", point.index));
        }
        let want = row
            .outcome
            .metrics()
            .ok_or_else(|| format!("reference point {} did not finish", point.index))?;
        let gen = || {
            let programs = point.workload.programs(point.seed);
            SimInput {
                cfg: point.machine_config(),
                programs,
                init: Vec::new(),
                // Critical sections leave no single value to check; the
                // run is checked against the reference row below.
                expect: Expect::CleanFinish,
            }
        };
        let (sample, _) = traced_pair(gen, (op + point.index) % 2 == 1)
            .map_err(|e| format!("point {}: {e}", point.index))?;
        if (sample.cycles, sample.committed) != (want.cycles, want.committed) {
            return Err(format!(
                "point {}: {} cycles / {} instructions, the sweep reported {} / {}",
                point.index, sample.cycles, sample.committed, want.cycles, want.committed
            ));
        }
        sum.add(&sample);
    }
    Ok(sum)
}

pub(crate) fn run_traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let reference = match reference() {
        Ok(r) => r,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let parsed = match std::str::from_utf8(&reference.bytes)
        .map_err(|e| e.to_string())
        .and_then(|t| SweepResult::from_json(t).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut samples = Vec::new();
    let mut passes = Vec::new();
    let mut jobs: Vec<JobSpans> = Vec::new();
    let mut pass = 0;
    while pass == 0 || Instant::now() < deadline {
        out.attempted += 1;
        match grid_layers(&reference.spec, &parsed, pass) {
            Ok(s) => samples.push(s),
            Err(e) => out.fail(e),
        }
        out.attempted += 1;
        match sweep_pass(args, &reference.spec, &reference.bytes) {
            Ok(p) if p.landed == reference.spec.len() => passes.push(p),
            Ok(p) => out.fail(format!(
                "observer saw {} of {} points",
                p.landed,
                reference.spec.len()
            )),
            Err(e) => out.fail(e),
        }
        match round(args, pass, &reference.bytes, &mut out) {
            Ok(r) => jobs.extend(r.jobs),
            Err(e) => out.errors.push(e),
        }
        pass += 1;
    }
    let spans_path = args.work.join("serve-e6-requests.jsonl");
    let lines: String = jobs
        .iter()
        .map(|j| {
            format!(
                "{{\"job\":\"{}\",\"post_s\":{},\"queue_wait_s\":{},\"follow_s\":{},\"results_s\":{},\"total_s\":{}}}\n",
                j.id, j.post_s, j.queue_wait_s, j.follow_s, j.results_s, j.total_s
            )
        })
        .collect();
    if let Err(e) = std::fs::write(&spans_path, lines) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }
    layer_metrics(&mut out, &samples);
    let points: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.point_seconds.clone())
        .collect();
    let appends: Vec<f64> = passes.iter().flat_map(|p| p.append_ns.clone()).collect();
    let per_pass = |f: fn(&SweepPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let col = |f: fn(&JobSpans) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    out.metric("sweep.point_p50_s", median(&points), "s");
    out.metric("sweep.point_tail_s", tail(&points).0, "s");
    out.metric("sweep.journal_append_ns", median(&appends), "ns");
    out.metric("sweep.result_write_ns", per_pass(|p| p.write_ns), "ns");
    out.metric("sweep.result_parse_ns", per_pass(|p| p.parse_ns), "ns");
    out.metric("serve.post_ms", col(|j| j.post_s) * 1e3, "ms");
    out.metric("serve.results_ms", col(|j| j.results_s) * 1e3, "ms");
    out.metric("serve.queue_wait_s", col(|j| j.queue_wait_s), "s");
    let in_process = per_pass(|p| p.wall_s);
    out.metric(
        "serve.overhead_ratio",
        if in_process > 0.0 {
            col(|j| j.total_s) / in_process
        } else {
            0.0
        },
        "ratio",
    );
    out
}
