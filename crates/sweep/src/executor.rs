//! Parallel evaluation of a sweep grid.
//!
//! The executor walks the cell list with a shared atomic cursor and a fixed
//! worker pool (`std::thread::scope`), the same work-distribution shape a
//! rayon `par_iter` would compile to — workers pull the next unclaimed cell,
//! simulate it, and write the result into the cell's own slot.  Because every
//! cell is seeded deterministically by the spec and results are collected by
//! cell index, the aggregated report is identical for any worker count or
//! scheduling order; catalogs and per-seed carbon traces are shared across
//! workers through [`CdnShared`].

use crate::report::{CellResult, SweepReport};
use crate::spec::{SweepCell, SweepSpec};
use carbonedge_core::{IncrementalPlacer, PlacementPolicy};
use carbonedge_sim::cdn::CdnShared;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Parses a `--jobs N` / `--jobs=N` flag out of a CLI argument list,
/// removing the consumed tokens.  Returns the parsed count (`0` when the
/// flag is absent, meaning automatic parallelism) or an error message for a
/// missing or non-numeric value.  Shared by every binary that fronts a
/// [`SweepExecutor`] so the flag behaves identically everywhere.
pub fn take_jobs_flag(args: &mut Vec<String>) -> Result<usize, String> {
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--jobs" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| "--jobs requires a value".to_string())?
                .clone();
            args.drain(i..=i + 1);
            value
        } else if let Some(value) = args[i].strip_prefix("--jobs=") {
            let value = value.to_string();
            args.remove(i);
            value
        } else {
            i += 1;
            continue;
        };
        // A repeated flag is ambiguous (which count did the caller mean?)
        // — reject it instead of silently letting the last one win.
        if jobs.is_some() {
            return Err("--jobs given more than once".to_string());
        }
        jobs = Some(
            value
                .parse()
                .map_err(|_| format!("invalid --jobs value `{value}`"))?,
        );
    }
    Ok(jobs.unwrap_or(0))
}

/// Runs every cell of a [`SweepSpec`] and aggregates a [`SweepReport`].
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    /// Number of worker threads; `0` means one per available CPU.
    pub jobs: usize,
    /// The placer template stamped with each cell's policy
    /// ([`IncrementalPlacer::with_policy`]); heuristic-only by default, as in
    /// the CDN-scale experiments.
    pub placer_template: IncrementalPlacer,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self {
            jobs: 0,
            placer_template: IncrementalPlacer::new(PlacementPolicy::CarbonAware).heuristic_only(),
        }
    }
}

impl SweepExecutor {
    /// Creates an executor with automatic parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread count (`0` = one per available CPU).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Overrides the placer template shared across cells.
    pub fn with_placer_template(mut self, template: IncrementalPlacer) -> Self {
        self.placer_template = template;
        self
    }

    /// The effective worker count for a grid of `cells` cells.
    pub fn effective_jobs(&self, cells: usize) -> usize {
        let auto = rayon::current_num_threads();
        let requested = if self.jobs == 0 { auto } else { self.jobs };
        requested.clamp(1, cells.max(1))
    }

    /// Evaluates one cell against the shared environment with a per-worker
    /// placer.  The placer is cloned once per worker (not per cell) and
    /// re-stamped with each cell's policy, so its solver workspace — basis
    /// buffers, node arena — keeps its allocations across every cell the
    /// worker runs.  Any resident warm-start basis is discarded at the cell
    /// boundary: a neighbor cell's basis is a *cost-only* change away on
    /// the exact path, but degenerate optima make the simplex's final
    /// vertex depend on its starting basis (equal carbon, different
    /// latency), so carrying it would break the bit-identical contract
    /// `tests/sweep_delta.rs` pins against the cold per-cell oracle.
    /// Epoch-to-epoch warm starts *within* the cell's run are unaffected.
    fn run_cell(
        &self,
        shared: &CdnShared,
        cell: &SweepCell,
        placer: &mut IncrementalPlacer,
    ) -> CellResult {
        let simulator = shared.simulator(cell.config());
        placer.policy = cell.policy;
        placer.milp_solver.discard_warm_start();
        let result = simulator.run_with(placer);
        let mean_assigned = if result.assigned_intensity.is_empty() {
            0.0
        } else {
            result.assigned_intensity.iter().sum::<f64>() / result.assigned_intensity.len() as f64
        };
        CellResult {
            cell: cell.clone(),
            outcome: result.outcome,
            decision_carbon_g: result.decision_carbon_g,
            monthly_carbon_g: result.monthly.iter().map(|m| m.carbon_g).collect(),
            mean_assigned_intensity: mean_assigned,
            site_count: simulator.site_count(),
            moves: result.moves,
            migration_carbon_g: result.migration_carbon_g,
            serving: result.serving,
        }
    }

    /// Runs the full grid.  Returns an error for degenerate specs (empty
    /// axes, non-finite latency limits, zero site caps).
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepReport, String> {
        spec.validate()?;
        let cells = spec.cells();
        let jobs = self.effective_jobs(cells.len());
        let shared = CdnShared::new();

        // A slot's only update is one `Option` store, so its data is sound
        // even if some other holder panicked: the slot locks recover the
        // guard instead of cascading the poison.
        let slots: Vec<Mutex<Option<CellResult>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        // Contiguous runs of cells sharing a `ScenarioKey` — the policy axis
        // is innermost, so every policy variant of one scenario is adjacent.
        // Workers claim whole groups, not single cells: one worker builds
        // the scenario's [`ScenarioPrep`] and every neighbor cell reuses it
        // from that worker's cache-warm state instead of rendezvousing on
        // the `OnceLock` mid-build, and the schedule stays deterministic at
        // the group level.  Solver state still never crosses a cell
        // boundary (see [`Self::run_cell`]), so the report is bit-identical
        // for any job count — pinned by `tests/sweep_delta.rs` against the
        // cold per-cell oracle.
        let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
        let mut group_start = 0usize;
        for i in 1..=cells.len() {
            if i == cells.len() || cells[i].scenario_key() != cells[group_start].scenario_key() {
                groups.push(group_start..i);
                group_start = i;
            }
        }
        if jobs <= 1 {
            let mut placer = self.placer_template.clone();
            for group in &groups {
                for i in group.clone() {
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(self.run_cell(&shared, &cells[i], &mut placer));
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| {
                        let mut placer = self.placer_template.clone();
                        loop {
                            let g = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(group) = groups.get(g) else { break };
                            for i in group.clone() {
                                let result = self.run_cell(&shared, &cells[i], &mut placer);
                                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                                    Some(result);
                            }
                        }
                    });
                }
            });
        }

        let results: Vec<CellResult> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every cell produces a result")
            })
            .collect();
        // Deliberately no clock read here: the executor stays wall-clock
        // free (enforced by carbonedge-lint's `wall-clock` rule) and callers
        // that want timing stamp `report.wall_seconds` around this call.
        Ok(SweepReport::new(spec.clone(), results, jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use carbonedge_datasets::zones::ZoneArea;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new("tiny")
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![10.0, 20.0])
            .with_site_limit(Some(12))
    }

    #[test]
    fn executor_fills_every_cell_in_spec_order() {
        let spec = tiny_spec();
        let report = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        assert_eq!(report.cells.len(), spec.cell_count());
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.cell.index, i);
            assert!(cell.outcome.carbon_g > 0.0);
            assert_eq!(cell.monthly_carbon_g.len(), 12);
            assert_eq!(cell.site_count, 12);
        }
    }

    #[test]
    fn parallel_and_sequential_runs_agree_exactly() {
        let spec = tiny_spec();
        let sequential = SweepExecutor::new().with_jobs(1).run(&spec).unwrap();
        let parallel = SweepExecutor::new().with_jobs(4).run(&spec).unwrap();
        assert_eq!(parallel.jobs, 4);
        for (a, b) in sequential.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(a.outcome, b.outcome, "cell {}", a.cell.index);
            assert_eq!(a.monthly_carbon_g, b.monthly_carbon_g);
        }
        assert_eq!(sequential.render(), parallel.render());
    }

    #[test]
    fn jobs_flag_parsing_accepts_both_forms_and_rejects_garbage() {
        let mut args = vec!["--sweep".to_string(), "--jobs".to_string(), "4".to_string()];
        assert_eq!(take_jobs_flag(&mut args), Ok(4));
        assert_eq!(args, vec!["--sweep".to_string()]);

        let mut eq_form = vec!["--jobs=7".to_string(), "fig1".to_string()];
        assert_eq!(take_jobs_flag(&mut eq_form), Ok(7));
        assert_eq!(eq_form, vec!["fig1".to_string()]);

        let mut absent = vec!["fig1".to_string()];
        assert_eq!(take_jobs_flag(&mut absent), Ok(0));

        assert!(take_jobs_flag(&mut vec!["--jobs".to_string()]).is_err());
        assert!(take_jobs_flag(&mut vec!["--jobs".to_string(), "abc".to_string()]).is_err());
        assert!(take_jobs_flag(&mut vec!["--jobs=nope".to_string()]).is_err());
    }

    #[test]
    fn duplicate_jobs_flags_are_rejected() {
        let mut twice = vec![
            "--jobs".to_string(),
            "4".to_string(),
            "fig1".to_string(),
            "--jobs".to_string(),
            "2".to_string(),
        ];
        assert_eq!(
            take_jobs_flag(&mut twice),
            Err("--jobs given more than once".to_string())
        );

        let mut mixed = vec![
            "--jobs=1".to_string(),
            "--jobs".to_string(),
            "1".to_string(),
        ];
        assert!(take_jobs_flag(&mut mixed).is_err());

        // A single flag still parses even when other arguments follow.
        let mut single = vec!["--jobs=3".to_string(), "fig1".to_string()];
        assert_eq!(take_jobs_flag(&mut single), Ok(3));
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let empty = SweepSpec::new("empty").with_policies(vec![]);
        assert!(SweepExecutor::new().run(&empty).is_err());
    }

    #[test]
    fn effective_jobs_clamps_to_grid_and_cpus() {
        let ex = SweepExecutor::new().with_jobs(64);
        assert_eq!(ex.effective_jobs(3), 3);
        assert_eq!(ex.effective_jobs(0), 1);
        let auto = SweepExecutor::new();
        assert!(auto.effective_jobs(1000) >= 1);
    }
}
