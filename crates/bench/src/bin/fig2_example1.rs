//! E2 — Figure 2, Example 1 (producer): cycle counts across the full
//! model × technique matrix. Paper values: SC base 301, RC base 202,
//! SC/RC with prefetch 103.

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
        || vec![paper::example1()],
        |_| {},
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    println!(
        "{}",
        format_table("Figure 2 / Example 1 — producer (cycles)", &rows)
    );
    println!("{}", markdown_table(&rows));
    println!("paper: SC base = 301, RC base = 202, SC+prefetch = RC+prefetch = 103");
}
