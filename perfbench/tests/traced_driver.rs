//! The traced driver must reproduce `Machine::run_telemetry` exactly —
//! per-core statistics, cycles, registers, final memory and the
//! stepped/skipped/span telemetry — on every model and technique
//! setting, so the per-layer split cannot drift from the real engine
//! when the engine's loop is rewritten.

use mcsim_consistency::Model;
use mcsim_core::Machine;
use mcsim_proc::Techniques;
use perfbench::{chase_input, driver, lock_input, SimInput};

fn assert_matches(input: SimInput, what: &str) {
    let mut m = Machine::new(input.cfg, input.programs.clone());
    for &(a, v) in &input.init {
        m.write_memory(a, v);
    }
    let (report, telemetry) = m.run_telemetry();
    input
        .expect
        .check(&report)
        .unwrap_or_else(|e| panic!("{what}: engine output is wrong: {e}"));
    let traced = driver::run(input.cfg, input.programs.clone(), &input.init);
    driver::verify(&traced, &report, &telemetry).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(traced.per_proc, report.per_proc, "{what}: per-core stats");
    assert_eq!(traced.cycles, report.cycles, "{what}: cycles");
    assert_eq!(traced.memory, report.memory, "{what}: final memory");
    let l = &traced.layers;
    assert!(
        l.core_ticks > 0 && l.mem_tick_calls > 0,
        "{what}: no ticks counted"
    );
    assert_eq!(
        traced.spans.len() as u64,
        telemetry.spans,
        "{what}: one span per jump"
    );
}

#[test]
fn ticket_lock_matches_the_engine_on_every_model_and_technique() {
    for model in Model::ALL_EXTENDED {
        for t in Techniques::ALL {
            assert_matches(
                lock_input(4, 2, model, t),
                &format!("ticket_lock(4, 2) {model}/{t}"),
            );
        }
    }
}

#[test]
fn pointer_chase_matches_the_engine_on_every_model_and_technique() {
    for model in Model::ALL_EXTENDED {
        for t in Techniques::ALL {
            assert_matches(
                chase_input(64, 7, 400, model, t),
                &format!("pointer_chase(64) {model}/{t}"),
            );
        }
    }
}

#[test]
fn the_chase_jumps_and_the_lock_steps() {
    let chase = chase_input(64, 7, 400, Model::Sc, Techniques::NONE);
    let t = driver::run(chase.cfg, chase.programs, &chase.init);
    assert!(
        t.telemetry.skipped_cycles > 10 * t.telemetry.stepped_cycles,
        "a miss-bound chase is mostly jumped: {:?}",
        t.telemetry
    );
    let lock = lock_input(4, 2, Model::Sc, Techniques::BOTH);
    let t = driver::run(lock.cfg, lock.programs, &lock.init);
    assert!(
        t.layers.progress_ticks <= t.layers.core_ticks,
        "progress is counted per core tick"
    );
}
