//! E5 — Figure 5: the illustrative execution with a mid-flight
//! invalidation of D, printed as an event walk plus the buffer-occupancy
//! timeline (the golden-file assertions live in `tests/figure5_trace.rs`).

use mcsim_consistency::Model;
use mcsim_core::{Machine, MachineConfig};
use mcsim_proc::Techniques;
use mcsim_trace::{fig5, TraceFilter};
use mcsim_workloads::paper;

fn main() {
    let mut cfg = MachineConfig::paper_with(Model::Sc, Techniques::BOTH);
    cfg.trace = true;
    let mut m = Machine::new(
        cfg,
        vec![
            paper::figure5_main(),
            paper::figure5_antagonist(paper::FIG5_DELAY, paper::FIG5_NEW_D),
        ],
    );
    paper::setup_figure5(&mut m, paper::FIG5_NEW_D);
    let report = m.run();
    println!("Figure 5 — SC, speculative loads + prefetch for stores");
    println!("code: read A (dirty remote); write B; write C; read D (hit); read E[D]");
    println!("antagonist: processor 1 writes D ≈ cycle 150 (invalidation)\n");
    let filter = TraceFilter {
        proc: Some(0),
        ..TraceFilter::default()
    };
    for e in filter.apply(&report.trace) {
        let pc = e.pc.map_or_else(|| "  ".into(), |pc| format!("{pc:>2}"));
        println!("cycle {:>4}  [pc {pc}] {}", e.cycle, e.kind);
    }
    println!();
    print!("{}", fig5::render(&report.trace, &filter));
    println!();
    print!("{}", mcsim_core::render_timeline(&report.trace, 76));
    println!(
        "\ntotal: {} cycles, {} rollback(s)",
        report.cycles, report.total.rollbacks
    );
    println!(
        "final: D = {}, E[D] = {:#x}",
        report.reg(0, mcsim_isa::reg::R3),
        report.reg(0, mcsim_isa::reg::R4)
    );
}
