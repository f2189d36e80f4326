//! The paper's own code segments (Figure 2 and Figure 5).
//!
//! Addresses are chosen so every named location sits on its own cache
//! line (64-byte blocks), matching the paper's implicit assumption that
//! `lock L`, `A`, `B`, `C`, `D`, and `E[D]` are independent coherence
//! units.

use mcsim_core::Machine;
use mcsim_isa::reg::{R1, R2, R3, R4};
use mcsim_isa::{AddrExpr, AluOp, Program, ProgramBuilder};

/// The lock variable `L`.
pub const LOCK: u64 = 0x40;
/// Location `A` (Example 1 / Figure 5).
pub const A: u64 = 0x1000;
/// Location `B`.
pub const B: u64 = 0x1080;
/// Location `C`.
pub const C: u64 = 0x1100;
/// Location `D`.
pub const D: u64 = 0x1180;
/// Base of array `E` (indexed by the value loaded from `D`, scale 8).
pub const E_BASE: u64 = 0x2000;
/// The initial value stored at `D` in the consumer examples.
pub const D_VALUE: u64 = 3;
/// The element of `E` that `E[D]` resolves to.
pub const E_AT_D: u64 = E_BASE + D_VALUE * 8;
/// The canonical Figure 5 antagonist delay in cycles: its write of `D`
/// lands mid-flight of processor 0's speculative `read D`.
pub const FIG5_DELAY: u32 = 50;
/// The value the canonical Figure 5 antagonist writes to `D`.
pub const FIG5_NEW_D: u64 = 5;

/// Figure 2, left — the producer:
///
/// ```text
/// lock    L    (miss)
/// write   A    (miss)
/// write   B    (miss)
/// unlock  L    (hit)
/// ```
#[must_use]
pub fn example1() -> Program {
    ProgramBuilder::new("fig2-example1-producer")
        .lock(LOCK, R1)
        .store(A, 1u64)
        .store(B, 2u64)
        .unlock(LOCK)
        .halt()
        .build()
        .expect("static program is valid")
}

/// Figure 2, right — the consumer:
///
/// ```text
/// lock  L     (miss)
/// read  C     (miss)
/// read  D     (hit)
/// read  E[D]  (miss)
/// unlock L    (hit)
/// ```
#[must_use]
pub fn example2() -> Program {
    ProgramBuilder::new("fig2-example2-consumer")
        .lock(LOCK, R1)
        .load(R2, C)
        .load(R3, D)
        .load(R4, AddrExpr::indexed(E_BASE, R3, 8))
        .unlock(LOCK)
        .halt()
        .build()
        .expect("static program is valid")
}

/// Primes a machine for [`example2`]: `D` is resident in processor 0's
/// cache ("read D (hit)") and holds the index of the `E` element.
pub fn setup_example2(m: &mut Machine) {
    m.write_memory(D, D_VALUE);
    m.write_memory(E_AT_D, 0xE1);
    m.preload_cache(0, D, false);
}

/// Figure 5's code segment for processor 0 (run under SC with both
/// techniques):
///
/// ```text
/// read  A     (miss — dirty at processor 1, so it takes the long path
///              and the prefetched ownership of B arrives first, matching
///              the event order of the figure)
/// write B     (miss)
/// write C     (miss)
/// read  D     (hit — then invalidated mid-flight by processor 1)
/// read  E[D]  (miss)
/// ```
#[must_use]
pub fn figure5_main() -> Program {
    ProgramBuilder::new("fig5-main")
        .load(R1, A)
        .store(B, 1u64)
        .store(C, 2u64)
        .load(R3, D)
        .load(R4, AddrExpr::indexed(E_BASE, R3, 8))
        .halt()
        .build()
        .expect("static program is valid")
}

/// Figure 5's antagonist (processor 1): after a configurable delay it
/// writes `D`, invalidating processor 0's speculatively loaded copy —
/// the event the figure's steps 5–7 walk through. The delay is realized
/// with a long-latency ALU op so no extra memory traffic perturbs the
/// trace.
#[must_use]
pub fn figure5_antagonist(delay_cycles: u32, new_d: u64) -> Program {
    ProgramBuilder::new("fig5-antagonist")
        .alu_lat(R1, AluOp::Add, 0u64, 0u64, delay_cycles.max(1))
        .alu(R2, AluOp::Add, R1, new_d) // depends on the delay op
        .store(D, R2)
        .halt()
        .build()
        .expect("static program is valid")
}

/// Primes a machine for the Figure 5 pair: `A` dirty at processor 1
/// (so `read A` takes the flush path), `D` resident shared at processor
/// 0 with its index value, and both `E` elements populated.
pub fn setup_figure5(m: &mut Machine, new_d: u64) {
    m.write_memory(D, D_VALUE);
    m.write_memory(E_AT_D, 0xE1);
    m.write_memory(E_BASE + new_d * 8, 0xE2);
    m.write_memory(A, 0xA0);
    m.preload_cache(0, D, false);
    m.preload_cache(1, A, true); // dirty-remote read for processor 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::{Instr, MemFlavor};

    #[test]
    fn addresses_are_on_distinct_lines() {
        let lines: Vec<u64> = [LOCK, A, B, C, D, E_AT_D].iter().map(|a| a >> 6).collect();
        let mut dedup = lines.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(lines.len(), dedup.len(), "each location on its own line");
    }

    #[test]
    fn example1_shape() {
        let p = example1();
        assert_eq!(p.mem_instr_count(), 4, "lock, two writes, unlock");
        assert!(matches!(
            p.fetch(0),
            Some(Instr::Rmw {
                flavor: MemFlavor::Acquire,
                ..
            })
        ));
        assert!(matches!(
            p.fetch(4),
            Some(Instr::Store {
                flavor: MemFlavor::Release,
                ..
            })
        ));
    }

    #[test]
    fn example2_indexed_load_depends_on_d() {
        let p = example2();
        let Some(Instr::Load { addr, .. }) = p.fetch(4) else {
            panic!("E[D] load expected at index 4");
        };
        assert_eq!(addr.dep(), Some(R3), "E[D] must depend on the D load");
    }

    #[test]
    fn figure5_has_five_accesses() {
        assert_eq!(figure5_main().mem_instr_count(), 5);
        assert_eq!(figure5_antagonist(100, 5).mem_instr_count(), 1);
    }
}
