//! The traced driver: `Machine::run_telemetry`'s discrete-event loop
//! rebuilt from public calls into `mcsim-mem`, `mcsim-proc` and
//! `mcsim-core`, with a host-time accumulator around each call.
//!
//! The loop mirrors the engine step for step: `MemorySystem::tick`,
//! then `Processor::tick_event` for each live core; `take_progress` and
//! `drain_wakeups` into an [`EventQueue`]; fault polling; invariant
//! checks at the configured cadence; and, when nothing progressed, a
//! jump via `MemorySystem::next_event` + `pop_at_or_after` +
//! `account_skipped`, with the in-span invariant check. The forward
//! progress watchdog is private to the machine and is not rebuilt: it
//! only ever turns a stuck run into a failure, and a traced run must
//! match [`Machine::run_telemetry`] exactly ([`verify`]) or it fails.
//!
//! Timers sit at layer boundaries only — one pair per memory tick, per
//! processor sweep, per bookkeeping pass, per check and per jump — so a
//! 64-core stepped cycle costs a handful of clock reads, not one per
//! core tick. Spans are kept per jump only.
//!
//! [`Machine::run_telemetry`]: mcsim_core::Machine::run_telemetry

use std::collections::BTreeMap;
use std::time::Instant;

use mcsim_core::{EventQueue, MachineConfig, RunReport, RunTelemetry, SimError};
use mcsim_isa::reg::RegFile;
use mcsim_isa::Program;
use mcsim_mem::MemorySystem;
use mcsim_proc::{ProcStats, Processor};

/// Host time and work counts per layer for one traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    /// Nanoseconds inside `Processor::tick_event` (all live cores).
    pub proc_tick_ns: u64,
    /// `tick_event` calls on live cores.
    pub core_ticks: u64,
    /// Core ticks after which `take_progress` reported a state change.
    pub progress_ticks: u64,
    /// Nanoseconds inside `MemorySystem::tick`, including the in-span
    /// tick that precedes an in-span invariant check.
    pub mem_tick_ns: u64,
    /// `MemorySystem::tick` calls.
    pub mem_tick_calls: u64,
    /// Nanoseconds in jumps: horizon publish, queue pop and
    /// `account_skipped`, excluding the nested tick and check.
    pub jump_ns: u64,
    /// Nanoseconds in `take_progress`, `drain_wakeups` into the event
    /// queue, and fault polling.
    pub bookkeeping_ns: u64,
    /// Invariant checks run (machine-wide catalog).
    pub checks: u64,
    /// Nanoseconds inside those checks.
    pub check_ns: u64,
    /// Nanoseconds building the memory system and the cores.
    pub build_ns: u64,
    /// Nanoseconds of the whole run loop (the checks above are inside).
    pub loop_ns: u64,
}

impl Layers {
    /// Loop time not inside any timed call: loop control, clock reads.
    #[must_use]
    pub fn unattributed_ns(&self) -> i64 {
        let timed = self.proc_tick_ns
            + self.mem_tick_ns
            + self.jump_ns
            + self.bookkeeping_ns
            + self.check_ns;
        self.loop_ns as i64 - timed as i64
    }

    /// Adds another run's accumulators (sweep grids sum over points).
    pub fn add(&mut self, o: &Layers) {
        self.proc_tick_ns += o.proc_tick_ns;
        self.core_ticks += o.core_ticks;
        self.progress_ticks += o.progress_ticks;
        self.mem_tick_ns += o.mem_tick_ns;
        self.mem_tick_calls += o.mem_tick_calls;
        self.jump_ns += o.jump_ns;
        self.bookkeeping_ns += o.bookkeeping_ns;
        self.checks += o.checks;
        self.check_ns += o.check_ns;
        self.build_ns += o.build_ns;
        self.loop_ns += o.loop_ns;
    }
}

/// One jumped span: simulated cycles skipped and host time spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpSpan {
    /// Cycle the jump started from.
    pub from: u64,
    /// Cycle it landed on.
    pub to: u64,
    /// Host nanoseconds, including any in-span check.
    pub ns: u64,
}

/// What a traced run produced: the fields [`verify`] compares against a
/// [`RunReport`], plus the per-layer accumulators.
#[derive(Debug)]
pub struct Traced {
    /// Simulated cycles, computed as [`RunReport::cycles`] is.
    pub cycles: u64,
    /// Whether the cycle budget ran out.
    pub timed_out: bool,
    /// The structured failure, if any.
    pub failure: Option<SimError>,
    /// Per-core statistics.
    pub per_proc: Vec<ProcStats>,
    /// Final register files.
    pub regfiles: Vec<RegFile>,
    /// Final coherent memory image.
    pub memory: BTreeMap<u64, u64>,
    /// Final memory-system statistics.
    pub mem: mcsim_mem::MemStats,
    /// Stepped / skipped cycles and jump count.
    pub telemetry: RunTelemetry,
    /// Host time per layer.
    pub layers: Layers,
    /// Every jumped span, in order.
    pub spans: Vec<JumpSpan>,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

struct Loop {
    cfg: MachineConfig,
    period: Option<u64>,
    mem: MemorySystem,
    procs: Vec<Processor>,
    events: EventQueue,
    cycle: u64,
    telemetry: RunTelemetry,
    layers: Layers,
    spans: Vec<JumpSpan>,
}

impl Loop {
    fn poll_fault(&mut self) -> Option<SimError> {
        if let Some(e) = self.mem.take_fault() {
            return Some(e);
        }
        self.procs.iter_mut().find_map(Processor::take_fault)
    }

    fn check_invariants(&mut self) -> Result<(), SimError> {
        let t = Instant::now();
        let verdict = self.mem.check_invariants().and_then(|()| {
            self.procs
                .iter()
                .try_for_each(|p| p.check_invariants(self.cycle))
        });
        self.layers.check_ns += ns(t);
        self.layers.checks += 1;
        verdict
    }

    /// One stepped cycle; returns `(all halted, anything progressed)`.
    fn step(&mut self) -> (bool, bool) {
        let t = Instant::now();
        self.mem.tick(self.cycle);
        self.layers.mem_tick_ns += ns(t);
        self.layers.mem_tick_calls += 1;

        let t = Instant::now();
        let mut all_halted = true;
        for p in &mut self.procs {
            if !p.halted() {
                p.tick_event(self.cycle, &mut self.mem);
                self.layers.core_ticks += 1;
            }
            all_halted &= p.halted();
        }
        self.layers.proc_tick_ns += ns(t);
        self.cycle += 1;

        let t = Instant::now();
        let mut progress = self.mem.take_progress();
        let events = &mut self.events;
        for p in &mut self.procs {
            let moved = p.take_progress();
            self.layers.progress_ticks += u64::from(moved);
            progress |= moved;
            p.drain_wakeups(|at| events.schedule(at));
        }
        self.layers.bookkeeping_ns += ns(t);
        (all_halted, progress)
    }

    /// The jump of `Machine::jump`, without the watchdog replay.
    fn jump(&mut self) -> Result<(), SimError> {
        let t = Instant::now();
        let nested_before = self.layers.mem_tick_ns + self.layers.check_ns;
        let spans_before = self.spans.len();
        let result = self.jump_inner();
        let total = ns(t);
        let nested = self.layers.mem_tick_ns + self.layers.check_ns - nested_before;
        self.layers.jump_ns += total - nested;
        if self.spans.len() > spans_before {
            self.spans.last_mut().expect("a span was just pushed").ns = total;
        }
        result
    }

    fn jump_inner(&mut self) -> Result<(), SimError> {
        let max = self.cfg.max_cycles;
        let start = self.cycle;
        if let Some(h) = self.mem.next_event() {
            self.events.schedule(h);
        }
        let target = self.events.pop_at_or_after(start).unwrap_or(max).min(max);
        if target <= start {
            return Ok(());
        }
        self.telemetry.spans += 1;
        self.spans.push(JumpSpan {
            from: start,
            to: target,
            ns: 0,
        });
        let inv_at = self.period.and_then(|n| {
            let m = (start / n + 1).saturating_mul(n);
            (m <= target).then_some(m)
        });
        if let Some(m) = inv_at {
            self.advance(m);
            let t = Instant::now();
            self.mem.tick(m - 1);
            self.layers.mem_tick_ns += ns(t);
            self.layers.mem_tick_calls += 1;
            self.check_invariants()?;
        }
        self.advance(target);
        Ok(())
    }

    fn advance(&mut self, to: u64) {
        let n = to - self.cycle;
        for p in &mut self.procs {
            p.account_skipped(n);
        }
        self.telemetry.skipped_cycles += n;
        self.cycle = to;
    }

    fn run(&mut self) -> (bool, Option<SimError>) {
        while self.cycle < self.cfg.max_cycles {
            let (halted, progress) = self.step();
            self.telemetry.stepped_cycles += 1;
            let t = Instant::now();
            if halted {
                let fault = self.poll_fault();
                self.layers.bookkeeping_ns += ns(t);
                let failure =
                    fault.or_else(|| self.period.and_then(|_| self.check_invariants().err()));
                return (false, failure);
            }
            let fault = self.poll_fault();
            self.layers.bookkeeping_ns += ns(t);
            if let Some(e) = fault {
                return (false, Some(e));
            }
            if self.period.is_some_and(|n| self.cycle.is_multiple_of(n)) {
                if let Err(e) = self.check_invariants() {
                    return (false, Some(e));
                }
            }
            if !progress {
                if let Err(e) = self.jump() {
                    return (false, Some(e));
                }
            }
        }
        (true, None)
    }
}

/// Runs `programs` on a machine built from `cfg`, with `init` written to
/// memory first, through the traced loop.
///
/// # Panics
/// If `programs` is empty.
#[must_use]
pub fn run(cfg: MachineConfig, programs: Vec<Program>, init: &[(u64, u64)]) -> Traced {
    assert!(!programs.is_empty(), "need at least one program");
    let built = Instant::now();
    let mut mem = MemorySystem::new(cfg.mem, programs.len());
    let mut proc_cfg = cfg.proc;
    proc_cfg.techniques = cfg.techniques;
    let mut procs: Vec<Processor> = programs
        .into_iter()
        .enumerate()
        .map(|(i, prog)| Processor::new(i, proc_cfg, cfg.model, prog))
        .collect();
    for &(a, v) in init {
        mem.write_initial(a.into(), v);
    }
    for p in &mut procs {
        p.prepare_event_engine();
    }
    let build_ns = ns(built);
    // The cadence `Machine::run_telemetry` resolves: every cycle when the
    // simulator crates are built with debug assertions, else the release
    // period.
    let every_cycle = cfg!(debug_assertions);
    let mut lp = Loop {
        cfg,
        period: cfg.guard.effective_period(every_cycle),
        mem,
        procs,
        events: EventQueue::new(),
        cycle: 0,
        telemetry: RunTelemetry::default(),
        layers: Layers {
            build_ns,
            ..Layers::default()
        },
        spans: Vec::new(),
    };
    let started = Instant::now();
    let (timed_out, failure) = lp.run();
    lp.layers.loop_ns = ns(started);
    let cycles = if let Some(f) = &failure {
        f.cycle
    } else if timed_out {
        lp.cycle
    } else {
        lp.procs
            .iter()
            .map(|p| p.stats().halted_at)
            .max()
            .unwrap_or(0)
    };
    Traced {
        cycles,
        timed_out,
        failure,
        per_proc: lp.procs.iter().map(|p| *p.stats()).collect(),
        regfiles: lp.procs.iter().map(|p| p.regfile().clone()).collect(),
        memory: lp.mem.snapshot_coherent(),
        mem: *lp.mem.stats(),
        telemetry: lp.telemetry,
        layers: lp.layers,
        spans: lp.spans,
    }
}

/// Checks that a traced run reproduced the engine's run exactly: cycles,
/// outcome, per-core statistics (as JSON), registers, final memory,
/// memory statistics and the stepped/skipped/span telemetry.
///
/// # Errors
/// A description of the first field that differs.
pub fn verify(traced: &Traced, report: &RunReport, telemetry: &RunTelemetry) -> Result<(), String> {
    let json = |s: &ProcStats| serde_json::to_string(s).expect("ProcStats serializes");
    let checks: [(&str, bool); 8] = [
        ("cycles", traced.cycles == report.cycles),
        ("timed_out", traced.timed_out == report.timed_out),
        (
            "failure",
            format!("{:?}", traced.failure) == format!("{:?}", report.failure),
        ),
        (
            "per-core stats",
            traced.per_proc.len() == report.per_proc.len()
                && traced
                    .per_proc
                    .iter()
                    .zip(&report.per_proc)
                    .all(|(a, b)| json(a) == json(b)),
        ),
        ("registers", traced.regfiles == report.regfiles),
        ("final memory", traced.memory == report.memory),
        ("memory stats", traced.mem == report.mem),
        ("telemetry", traced.telemetry == *telemetry),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        None => Ok(()),
        Some((what, _)) => Err(format!(
            "traced driver diverged from Machine::run in {what} \
             (traced {} cycles, {:?}; engine {} cycles, {:?})",
            traced.cycles, traced.telemetry, report.cycles, telemetry
        )),
    }
}
