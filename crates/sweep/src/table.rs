//! Table rendering generalized over result-row types.
//!
//! The one renderer of the fixed-width and markdown model × technique
//! tables. The [`TableCell`] trait lets it consume `mcsim_core::run_matrix`
//! rows ([`MatrixRow`]) as well as sweep [`PointRecord`]s (where a failed
//! cell renders as `-`).

use std::fmt::Write as _;

use mcsim_consistency::Model;
use mcsim_core::MatrixRow;
use mcsim_proc::Techniques;

use crate::result::{PointRecord, SweepResult};

/// A result row a model × technique table can be built from.
pub trait TableCell {
    /// Consistency model of the cell.
    fn model(&self) -> Model;
    /// Technique combination of the cell.
    fn techniques(&self) -> Techniques;
    /// Cycles, when the cell completed.
    fn cycles(&self) -> Option<u64>;
}

impl TableCell for MatrixRow {
    fn model(&self) -> Model {
        self.model
    }

    fn techniques(&self) -> Techniques {
        self.techniques
    }

    fn cycles(&self) -> Option<u64> {
        Some(self.cycles)
    }
}

impl TableCell for PointRecord {
    fn model(&self) -> Model {
        self.model
    }

    fn techniques(&self) -> Techniques {
        self.techniques
    }

    fn cycles(&self) -> Option<u64> {
        self.outcome.cycles()
    }
}

impl<T: TableCell> TableCell for &T {
    fn model(&self) -> Model {
        (*self).model()
    }

    fn techniques(&self) -> Techniques {
        (*self).techniques()
    }

    fn cycles(&self) -> Option<u64> {
        (*self).cycles()
    }
}

/// Distinct models (first-appearance order) and techniques (ablation
/// order) present in `rows`.
fn axes<T: TableCell>(rows: &[T]) -> (Vec<Model>, Vec<Techniques>) {
    let mut models: Vec<Model> = Vec::new();
    for r in rows {
        if !models.contains(&r.model()) {
            models.push(r.model());
        }
    }
    let mut techs: Vec<Techniques> = rows.iter().map(TableCell::techniques).collect();
    techs.sort_by_key(|t| (t.prefetch, t.speculative_loads));
    techs.dedup();
    (models, techs)
}

fn cell<T: TableCell>(rows: &[T], m: Model, t: Techniques) -> Option<u64> {
    rows.iter()
        .find(|r| r.model() == m && r.techniques() == t)
        .and_then(TableCell::cycles)
}

/// Fixed-width table: one row per model, one cycles column per technique
/// combination, plus the speedup of the full proposal (`pf+spec`) over
/// the conventional implementation (`base`). Failed cells render as `-`.
#[must_use]
pub fn format_table<T: TableCell>(title: &str, rows: &[T]) -> String {
    let (models, techs) = axes(rows);
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<6}", "model");
    for t in &techs {
        let _ = write!(out, " {:>10}", t.label());
    }
    let _ = writeln!(out, " {:>9}", "speedup");
    for m in models {
        let _ = write!(out, "{:<6}", m.name());
        for t in &techs {
            match cell(rows, m, *t) {
                Some(c) => {
                    let _ = write!(out, " {c:>10}");
                }
                None => {
                    let _ = write!(out, " {:>10}", "-");
                }
            }
        }
        let base = cell(rows, m, Techniques::NONE);
        let best = cell(rows, m, Techniques::BOTH);
        match (base, best) {
            (Some(b), Some(x)) if x > 0 => {
                let _ = writeln!(out, " {:>8.2}x", b as f64 / x as f64);
            }
            _ => {
                let _ = writeln!(out, " {:>9}", "-");
            }
        }
    }
    out
}

/// Markdown variant of [`format_table`], suitable for pasting into
/// EXPERIMENTS.md.
#[must_use]
pub fn markdown_table<T: TableCell>(rows: &[T]) -> String {
    let (models, techs) = axes(rows);
    let mut out = String::from("| model |");
    for t in &techs {
        let _ = write!(out, " {} |", t.label());
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &techs {
        out.push_str("---|");
    }
    out.push('\n');
    for m in models {
        let _ = write!(out, "| {} |", m.name());
        for t in &techs {
            match cell(rows, m, *t) {
                Some(c) => {
                    let _ = write!(out, " {c} |");
                }
                None => out.push_str(" - |"),
            }
        }
        out.push('\n');
    }
    out
}

/// Relative spread of cycle counts across models for one technique
/// setting — `(max - min) / min` (the equalization metric).
#[must_use]
pub fn model_spread<T: TableCell>(rows: &[T], t: Techniques) -> f64 {
    let cycles: Vec<u64> = rows
        .iter()
        .filter(|r| r.techniques() == t)
        .filter_map(TableCell::cycles)
        .collect();
    match (cycles.iter().min(), cycles.iter().max()) {
        (Some(&min), Some(&max)) if min > 0 => (max - min) as f64 / min as f64,
        _ => 0.0,
    }
}

/// Renders every machine-parameter group of a sweep as a titled
/// fixed-width table, in expansion order.
#[must_use]
pub fn render_groups(result: &SweepResult) -> String {
    let mut out = String::new();
    let mut seen: Vec<String> = Vec::new();
    for row in &result.rows {
        let key = row.group_key();
        let title = format!(
            "{} | {:?} protocol | dir {} | miss {} | window {}",
            key.0, key.1, key.2, key.3, key.4
        );
        if seen.contains(&title) {
            continue;
        }
        let group: Vec<&PointRecord> = result
            .rows
            .iter()
            .filter(|r| r.group_key() == key)
            .collect();
        seen.push(title.clone());
        let _ = writeln!(out, "{}", format_table(&title, &group));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{PointOutcome, PointRecord};
    use crate::spec::{SweepSpec, WorkloadSpec};

    fn rows_with_failure() -> Vec<PointRecord> {
        let mut spec = SweepSpec::new("t", "table unit tests");
        spec.models = vec![Model::Sc, Model::Rc];
        spec.techniques = vec![Techniques::NONE, Techniques::BOTH];
        spec.workloads = vec![WorkloadSpec::PaperExample1];
        let points = spec.points();
        points
            .iter()
            .map(|p| {
                let outcome = if p.model == Model::Rc && p.techniques == Techniques::BOTH {
                    PointOutcome::TimedOut { cycles: 99 }
                } else {
                    PointOutcome::Done(crate::result::PointMetrics {
                        cycles: 100 + p.index as u64,
                        committed: 1,
                        loads: 0,
                        stores: 0,
                        speculative_loads: 0,
                        rollbacks: 0,
                        reissues: 0,
                        squashed_by_spec: 0,
                        prefetches_issued: 0,
                        prefetches_useful: 0,
                        demand_merges: 0,
                        demand_misses: 0,
                        dir_queue_cycles: 0,
                        invalidations_sent: 0,
                        spurious_invalidations: 0,
                        broadcasts: 0,
                        pointer_overflows: 0,
                        busy_cycles: 1,
                        read_stall_cycles: 0,
                        write_stall_cycles: 99 + p.index as u64,
                        acquire_stall_cycles: 0,
                        rollback_stall_cycles: 0,
                        fetch_stall_cycles: 0,
                    })
                };
                PointRecord::new(p, outcome)
            })
            .collect()
    }

    #[test]
    fn failed_cells_render_as_dash() {
        let rows = rows_with_failure();
        let table = format_table("demo", &rows);
        assert!(table.contains("SC"), "{table}");
        let rc_line = table.lines().find(|l| l.starts_with("RC")).unwrap();
        assert!(rc_line.contains('-'), "{rc_line}");
        let md = markdown_table(&rows);
        assert!(md.contains("| RC |"), "{md}");
        assert!(md.contains(" - |"), "{md}");
    }

    #[test]
    fn spread_ignores_failed_cells() {
        let rows = rows_with_failure();
        // Under BOTH only SC completed, so the spread collapses to zero.
        assert!(model_spread(&rows, Techniques::BOTH).abs() < 1e-12);
        assert!(model_spread(&rows, Techniques::NONE) > 0.0);
    }

    fn two_store_matrix(models: &[Model], techniques: &[Techniques]) -> Vec<MatrixRow> {
        use mcsim_core::{run_matrix, MachineConfig};
        use mcsim_isa::ProgramBuilder;
        run_matrix(
            &MachineConfig::paper(),
            models,
            techniques,
            || {
                vec![ProgramBuilder::new("w")
                    .store(0x1000u64, 1u64)
                    .store(0x1100u64, 2u64)
                    .halt()
                    .build()
                    .unwrap()]
            },
            |_| {},
        )
        .expect("no cell fails")
    }

    #[test]
    fn equalization_spread_shrinks_with_both_techniques() {
        let rows = two_store_matrix(&Model::ALL_EXTENDED, &[Techniques::NONE, Techniques::BOTH]);
        let before = model_spread(&rows, Techniques::NONE);
        let after = model_spread(&rows, Techniques::BOTH);
        assert!(
            after < before,
            "techniques must narrow the model gap: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn table_renders() {
        let rows = two_store_matrix(
            &[Model::Sc, Model::Rc],
            &[Techniques::NONE, Techniques::BOTH],
        );
        let t = format_table("demo", &rows);
        assert!(t.starts_with("demo\nmodel "), "{t}");
        assert!(t.contains("SC"));
        assert!(t.contains("RC"));
        assert!(t.contains("speedup"));
        let md = markdown_table(&rows);
        assert!(
            md.starts_with("| model | base | pf+spec |\n|---|---|---|\n"),
            "{md}"
        );
        assert!(md.contains("| SC |"), "{md}");
        assert!(md.contains("| RC |"), "{md}");
    }

    #[test]
    fn render_groups_emits_one_table_per_group() {
        let mut spec = SweepSpec::new("g", "grouping");
        spec.models = vec![Model::Sc];
        spec.techniques = vec![Techniques::NONE];
        spec.machine.miss_latency = vec![20, 100];
        spec.workloads = vec![WorkloadSpec::PaperExample1];
        let rows: Vec<PointRecord> = spec
            .points()
            .iter()
            .map(|p| PointRecord::new(p, PointOutcome::TimedOut { cycles: 1 }))
            .collect();
        let text = render_groups(&SweepResult { spec, rows });
        assert_eq!(text.matches("miss 20").count(), 1, "{text}");
        assert_eq!(text.matches("miss 100").count(), 1, "{text}");
    }
}
