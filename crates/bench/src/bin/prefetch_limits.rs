//! E8 — §3.3's prefetch limitation, generalized: chains where cache-hit
//! values gate the addresses of later misses. Prefetching pipelines the
//! misses but cannot consume hit values out of order; speculation can.

use mcsim_consistency::Model;
use mcsim_core::{run_matrix, MachineConfig};
use mcsim_proc::Techniques;
use mcsim_sweep::format_table;
use mcsim_workloads::generators::hit_dependence_chain;

fn main() {
    for (groups, misses) in [(4usize, 1usize), (4, 2), (4, 4), (8, 2)] {
        let rows = run_matrix(
            &MachineConfig::paper(),
            &[Model::Sc, Model::Rc],
            &Techniques::ALL,
            || {
                let (p, _, _) = hit_dependence_chain(groups, misses);
                vec![p]
            },
            |m| {
                let (_, mem, preload) = hit_dependence_chain(groups, misses);
                for (a, v) in &mem {
                    m.write_memory(*a, *v);
                }
                for a in preload {
                    m.preload_cache(0, a, false);
                }
            },
        )
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        println!(
            "{}",
            format_table(
                &format!("hit-dependence chain — {groups} groups x {misses} misses + 1 hit + 1 dependent"),
                &rows
            )
        );
    }
    println!("shape to expect: prefetch alone barely helps (hit values still consumed");
    println!("in order); speculation restores the pipelining — the Example 2 effect.");
}
