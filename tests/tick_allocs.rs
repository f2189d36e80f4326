//! Heap-allocation budget of the dense-event tick.
//!
//! A contended ticket lock steps nearly every cycle, and under the
//! paper's acquire-path branch hints every spin iteration mispredicts,
//! squashes and refetches. The processor tick and the memory-to-core
//! event hand-off reuse buffers the core owns, so a stepped cycle should
//! not touch the heap at all in steady state. This binary installs a
//! counting global allocator (hence its own test file) and pins the
//! per-stepped-cycle allocation rate well below what a per-squash or
//! per-stage `Vec` would cost.

use mcsim::guard::GuardConfig;
use mcsim::prelude::*;
use mcsim::workloads::contended;
use mcsim::workloads::generators::DATA_BASE;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread (other test-harness threads do
    /// not disturb the count).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn contended_lock_tick_is_allocation_free_in_steady_state() {
    let mut cfg = MachineConfig::paper_with(Model::Sc, Techniques::BOTH);
    // The invariant checker builds diagnostic state; keep it out of the
    // count (debug builds would otherwise check every cycle).
    cfg.guard = GuardConfig {
        invariant_period: u64::MAX,
        ..cfg.guard
    };
    let machine = Machine::new(cfg, contended::ticket_lock(16, 2));
    let before = allocs();
    let (report, telemetry) = machine.run_telemetry();
    let made = allocs() - before;
    assert!(report.failure.is_none() && !report.timed_out);
    assert_eq!(report.mem_word(DATA_BASE), 32, "the lock lost an increment");
    let per_cycle = made as f64 / telemetry.stepped_cycles as f64;
    assert!(
        per_cycle <= 2.0,
        "{made} heap allocations over {} stepped cycles ({per_cycle:.2} per cycle); \
         the dense-event tick must reuse its buffers",
        telemetry.stepped_cycles
    );
}
