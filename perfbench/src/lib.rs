//! The mcsim repository benchmark: workloads, output checks, the traced
//! driver and the statistics the `perfbench` binary reports. See
//! `perfbench/README.md` for what each workload and metric is for.

pub mod driver;

use mcsim_consistency::Model;
use mcsim_core::{MachineConfig, RunReport};
use mcsim_isa::reg::R1;
use mcsim_isa::Program;
use mcsim_mem::MemTimings;
use mcsim_proc::Techniques;
use mcsim_workloads::{contended, generators};

/// Processors in `lock-64p`.
pub const LOCK_PROCS: usize = 64;
/// Increments per processor in `lock-64p`.
pub const LOCK_INCREMENTS: usize = 2;
/// Pointer-chase hops in `chase-400`.
pub const CHASE_HOPS: usize = 100_000;
/// Clean-miss latency of `chase-400`, in cycles.
pub const CHASE_MISS: u64 = 400;
/// Cycle budget of `chase-400` (each hop costs about one miss).
pub const CHASE_MAX_CYCLES: u64 = 1_000_000_000;

/// The inputs of one simulation: configuration, programs, the initial
/// memory image, and the check its report must pass.
pub struct SimInput {
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// One program per processor.
    pub programs: Vec<Program>,
    /// Initial memory words.
    pub init: Vec<(u64, u64)>,
    /// What a correct run must end with.
    pub expect: Expect,
}

/// The output check of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The word at `addr` holds `value` at the end.
    Word {
        /// Address checked.
        addr: u64,
        /// Expected value.
        value: u64,
    },
    /// Processor 0's `r1` holds `value` at the end.
    R1(u64),
    /// Only a clean finish is checked.
    CleanFinish,
}

impl Expect {
    /// Checks a report: a clean finish (no failure, no timeout) and the
    /// expected final value.
    ///
    /// # Errors
    /// What was wrong.
    pub fn check(self, report: &RunReport) -> Result<(), String> {
        if let Some(f) = &report.failure {
            return Err(format!("run failed: {f}"));
        }
        if report.timed_out {
            return Err(format!("timed out after {} cycles", report.cycles));
        }
        let (what, got, want) = match self {
            Expect::Word { addr, value } => ("counter", report.mem_word(addr), value),
            Expect::R1(value) => ("final r1", report.reg(0, R1), value),
            Expect::CleanFinish => return Ok(()),
        };
        if got == want {
            Ok(())
        } else {
            Err(format!("{what} is {got:#x}, expected {want:#x}"))
        }
    }
}

/// `ticket_lock(procs, increments)` under `model`/`techniques`: the
/// shared counter must end at `procs * increments`.
#[must_use]
pub fn lock_input(
    procs: usize,
    increments: usize,
    model: Model,
    techniques: Techniques,
) -> SimInput {
    SimInput {
        cfg: MachineConfig::paper_with(model, techniques),
        programs: contended::ticket_lock(procs, increments),
        init: Vec::new(),
        expect: Expect::Word {
            addr: generators::DATA_BASE,
            value: (procs * increments) as u64,
        },
    }
}

/// A single-core `pointer_chase(hops, seed)` at `miss`-cycle misses: the
/// final `r1` must be the chain's last node, found here by walking the
/// memory image.
#[must_use]
pub fn chase_input(
    hops: usize,
    seed: u64,
    miss: u64,
    model: Model,
    techniques: Techniques,
) -> SimInput {
    let (program, image) = generators::pointer_chase(hops, seed);
    let mut node = 0u64;
    for _ in 0..hops {
        node = image[&(generators::DATA_BASE + node * generators::LINE)];
    }
    let mut cfg = MachineConfig::paper_with(model, techniques);
    cfg.mem.timings = MemTimings::with_miss_latency(miss);
    cfg.max_cycles = CHASE_MAX_CYCLES;
    SimInput {
        cfg,
        programs: vec![program],
        init: image.into_iter().collect(),
        expect: Expect::R1(node),
    }
}

/// The `lock-64p` workload: 64-core ticket lock, SC with both
/// techniques. It has no random input, so the seed does not change it.
#[must_use]
pub fn lock_64p() -> SimInput {
    lock_input(LOCK_PROCS, LOCK_INCREMENTS, Model::Sc, Techniques::BOTH)
}

/// The `chase-400` workload: a 100k-hop chase at 400-cycle misses, SC
/// with no techniques; the seed picks the chain.
#[must_use]
pub fn chase_400(seed: u64) -> SimInput {
    chase_input(CHASE_HOPS, seed, CHASE_MISS, Model::Sc, Techniques::NONE)
}

/// The calibration kernel's time on a quiet reference host. Every host
/// time the benchmark reports is scaled by `CALIB_REF_S / calibrate()`
/// measured beside it, i.e. reported in reference-host seconds.
pub const CALIB_REF_S: f64 = 0.060;

/// Runs the calibration kernel and returns its wall time in seconds.
///
/// The kernel is fixed benchmark code, independent of the simulator, so
/// a change to mcsim never moves it. Its mix — hashing into a
/// `HashMap`, `BTreeMap` inserts and lookups, allocation and a sort over
/// a few megabytes — resembles the simulator's own host work, so it
/// slows down with the host as the simulator does. On a shared 2-vCPU
/// Intel Xeon virtual machine the same `lock-64p` run drifted between 1.2 s and 3.4 s
/// within five minutes; the ratio of simulator time to this kernel's
/// time, taken over 30-second windows, stayed within 4% (IQR/median).
#[must_use]
pub fn calibrate() -> f64 {
    use std::collections::{BTreeMap, HashMap};
    let t = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v = Vec::with_capacity(1 << 18);
    for _ in 0..(1 << 18) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
    }
    let mut h = HashMap::new();
    for (i, &k) in v.iter().enumerate() {
        h.insert(k & 0xF_FFFF, i as u64);
    }
    let mut b = BTreeMap::new();
    for &k in v.iter().take(1 << 16) {
        b.insert(k, k >> 3);
    }
    let mut s = 0u64;
    for &k in &v {
        s = s.wrapping_add(*h.get(&(k & 0xF_FFFF)).unwrap_or(&0));
    }
    for &k in v.iter().take(1 << 16) {
        s = s.wrapping_add(b[&k]);
    }
    v.sort_unstable();
    std::hint::black_box((s, v));
    t.elapsed().as_secs_f64()
}

/// Runs the calibration kernel on two threads at once and returns their
/// mean time: the host speed seen by work that keeps both CPUs busy, as
/// a served sweep does.
#[must_use]
pub fn calibrate_pair() -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(calibrate);
        let mine = calibrate();
        (mine + other.join().expect("calibration thread panicked")) / 2.0
    })
}

/// Median of `xs` (the mean of the two middle values for even counts);
/// 0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of `xs`: the highest percentile with at least ten samples
/// beyond it, i.e. the 11th-largest value. With ten samples or fewer no
/// percentile has ten beyond it, and the maximum is returned. Returns
/// `(value, percentile)`.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let rank = n.saturating_sub(11);
    let idx = if n > 10 { rank } else { n - 1 };
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Resets this process's peak resident set size to its current size
/// (`/proc/self/clear_refs`, Linux 4.0+), so that the next
/// [`peak_rss_mb`] reading covers only what ran since.
///
/// # Errors
/// If the kernel refuses the write.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of process `pid` (`"self"` for this one), in
/// MiB, from `VmHWM` in `/proc/<pid>/status`.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
