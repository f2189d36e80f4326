//! E — §5 per-cause execution-time breakdowns (CPI stacks) for the
//! Figure 2 examples: every model × technique cell's cycles split into
//! busy time and read / write / acquire / rollback / fetch stall
//! components, normalized to conventional SC = 100 the way the paper's
//! Section 5 bar charts are drawn. Also prints the stacked-bar view of
//! the walk-through cells (SC base 301, RC base 202, SC pf+spec).

use mcsim_consistency::Model;
use mcsim_core::{render_breakdown, run_matrix, MachineConfig, MatrixRow};
use mcsim_proc::Techniques;
use mcsim_workloads::paper;
use std::fmt::Write as _;

/// Markdown table of per-cause components, each expressed in normalized
/// execution-time units (SC base = 100), so component columns of a row
/// sum to its `norm` column exactly as the paper's stacked bars do.
fn breakdown_table(title: &str, rows: &[MatrixRow]) -> String {
    let sc_base = rows
        .iter()
        .find(|r| r.model == Model::Sc && r.techniques == Techniques::NONE)
        .map(|r| r.cycles)
        .expect("matrix includes the SC/base normalization cell");
    let mut out = String::new();
    let _ = writeln!(out, "{title} (normalized to SC base = 100)");
    let _ = writeln!(
        out,
        "| model | techniques | cycles | norm | busy | read | write | acquire | rollback | fetch |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let b = &r.report.total.breakdown;
        let norm = |c: u64| c as f64 * 100.0 / sc_base as f64;
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.model.name(),
            r.techniques.label(),
            r.cycles,
            norm(b.total()),
            norm(b.busy),
            norm(b.read_stall),
            norm(b.write_stall),
            norm(b.acquire_stall),
            norm(b.rollback_stall),
            norm(b.fetch_stall),
        );
    }
    out
}

fn matrix_for(workload: &'static str) -> Vec<MatrixRow> {
    run_matrix(
        &MachineConfig::paper(),
        &Model::ALL,
        &Techniques::ALL,
        move || match workload {
            "example1" => vec![paper::example1()],
            _ => vec![paper::example2()],
        },
        |m| {
            if workload == "example2" {
                paper::setup_example2(m);
            }
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn main() {
    let ex1 = matrix_for("example1");
    println!(
        "{}",
        breakdown_table("Figure 2 / Example 1 — producer", &ex1)
    );
    let ex2 = matrix_for("example2");
    println!(
        "{}",
        breakdown_table("Figure 2 / Example 2 — consumer", &ex2)
    );
    for (m, t) in [
        (Model::Sc, Techniques::NONE),
        (Model::Rc, Techniques::NONE),
        (Model::Sc, Techniques::BOTH),
    ] {
        let row = ex1
            .iter()
            .find(|r| r.model == m && r.techniques == t)
            .expect("cell present");
        println!("Example 1, {} / {}:", m.name(), t.label());
        print!("{}", render_breakdown(&row.report, 60));
        println!();
    }
    println!("paper: SC base spends 2 of its 3 miss latencies stalled on writes");
    println!("(A and B) and the third on the lock RMW; the techniques convert");
    println!("those serial stalls into a single overlapped miss.");
}
