//! # mcsim-bench — the experiment harness
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig1_ordering_rules` | Figure 1 — delay-arc tables per model |
//! | `fig2_example1` | Figure 2 + §3.3 producer cycle counts |
//! | `fig2_example2` | Figure 2 + §3.3/§4.1 consumer cycle counts |
//! | `fig34_organization` | Figures 3–4 — machine organization dump |
//! | `fig5_trace` | Figure 5 — the event walk-through |
//! | `breakdown` | §5 — per-cause execution-time breakdowns (CPI stacks) |
//! | `equalization` | §5 — model equalization on synthetic workloads |
//! | `speculation_violations` | §5 — rollback rates under contention |
//! | `prefetch_limits` | §3.3 — where prefetch fails and speculation wins |
//! | `update_vs_invalidate` | §3.1 — write prefetch needs invalidations |
//! | `adve_hill` | §6 — comparison against Adve–Hill early grants |
//! | `rmw_appendix` | Appendix A — split RMWs under lock contention |
//! | `latency_sweep` | sensitivity: miss latency 20–400 |
//! | `window_sweep` | §3.2 — lookahead (ROB size) sensitivity |
//!
//! The binaries draw their tables with `mcsim_sweep::table` and start
//! from `MachineConfig::paper()`. Criterion benches (`benches/`) measure
//! the *simulator's* throughput so regressions in the implementation
//! itself are visible.

/// Worker-thread count from a `--jobs N` command-line argument
/// (defaults to 1; experiment output is identical at any value).
#[must_use]
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                return n;
            }
            eprintln!("--jobs expects a number; using 1");
        }
    }
    1
}
