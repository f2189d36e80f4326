//! E3 — Figure 2, Example 2 (consumer): cycle counts across the full
//! model × technique matrix. Paper values: SC base 302, RC base 203,
//! SC+prefetch 203, RC+prefetch 202, SC/RC with speculation 104.

use mcsim_consistency::Model;
use mcsim_core::{run_matrix, MachineConfig};
use mcsim_proc::Techniques;
use mcsim_sweep::{format_table, markdown_table};
use mcsim_workloads::paper;

fn main() {
    let rows = run_matrix(
        &MachineConfig::paper(),
        &Model::ALL,
        &Techniques::ALL,
        || vec![paper::example2()],
        paper::setup_example2,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    println!(
        "{}",
        format_table("Figure 2 / Example 2 — consumer (cycles)", &rows)
    );
    println!("{}", markdown_table(&rows));
    println!("paper: SC base 302, RC base 203, SC+pf 203, RC+pf 202, spec 104 (both)");
}
