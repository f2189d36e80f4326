//! E9 — §3.1: read-exclusive prefetch requires an invalidation-based
//! protocol; under an update protocol a write cannot be partially
//! serviced, so prefetching stops helping stores.

use mcsim_consistency::Model;
use mcsim_core::{run_matrix, MachineConfig};
use mcsim_mem::Protocol;
use mcsim_proc::Techniques;
use mcsim_sweep::{format_table, markdown_table};
use mcsim_workloads::paper;

fn main() {
    for protocol in [Protocol::Invalidate, Protocol::Update] {
        let mut base = MachineConfig::paper();
        base.mem.protocol = protocol;
        let rows = run_matrix(
            &base,
            &[Model::Sc, Model::Rc],
            &[Techniques::NONE, Techniques::PREFETCH],
            || vec![paper::example1()],
            |_| {},
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        println!(
            "{}",
            format_table(
                &format!("Example 1 producer under {protocol:?} protocol"),
                &rows
            )
        );
        println!("{}", markdown_table(&rows));
        let pf_unsupported = rows
            .iter()
            .map(|r| r.report.mem.prefetches_unsupported)
            .sum::<u64>();
        println!("read-exclusive prefetches rejected by the protocol: {pf_unsupported}\n");
    }
}
