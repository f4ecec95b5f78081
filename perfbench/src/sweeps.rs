//! The sweep workloads: `grid`, `replan` and `serving`.
//!
//! The measured pass is `SweepExecutor::with_jobs(1).run(spec)` plus the
//! workload's report rendering.  The traced pass replays the executor's
//! per-cell loop through the same public calls (`CdnShared::new`,
//! `CdnShared::traces`, `CdnShared::simulator`, the policy-stamped placer
//! with `discard_warm_start`, `CdnSimulator::run_with`, `SweepReport::new`)
//! with a span around each call.  Its render must equal the executor's byte
//! for byte, which is what makes the per-layer numbers describe the
//! measured pass.

use crate::stats::{median, peak_rss_mb, quantile};
use crate::tracer::Tracer;
use crate::{
    compare_counters, ns_to_ms, reference, Counters, Execution, Metric, RunConfig, Scale, Setup,
    Workload, DEFAULT_SEED,
};
use carbonedge_core::{MigrationCostLevel, PlacementPolicy};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_grid::{EpochSchedule, ForecasterKind};
use carbonedge_sim::cdn::{CdnScenario, CdnShared, CdnSimulator};
use carbonedge_sim::{CdnResult, ServingMode};
use carbonedge_sweep::{
    CellResult, SweepCell, SweepExecutor, SweepReport, SweepSpec, WorkloadSpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The grid a sweep workload runs.  Every axis is spelled out here rather
/// than inherited from `SweepSpec::new` or the `experiments` grids, so a
/// change to those defaults cannot silently change the benchmark.
pub fn spec(workload: Workload, seed: u64, scale: Scale) -> SweepSpec {
    let full = scale == Scale::Full;
    let base = SweepSpec::new(workload.name())
        .with_base_seed(DEFAULT_SEED)
        .with_policies(vec![
            PlacementPolicy::LatencyAware,
            PlacementPolicy::CarbonAware,
        ])
        .with_workloads(vec![WorkloadSpec::resnet50_on_a2()])
        .with_seeds(vec![seed])
        .with_forecasters(vec![ForecasterKind::Oracle])
        .with_scenarios(vec![CdnScenario::Homogeneous])
        .with_epochs(vec![EpochSchedule::Monthly])
        .with_migrations(vec![MigrationCostLevel::Free])
        .with_servings(vec![ServingMode::Aggregate])
        .with_demand(1, 4);
    match workload {
        Workload::Grid => base
            .with_areas(vec![ZoneArea::UnitedStates, ZoneArea::Europe])
            .with_scenarios(if full {
                vec![
                    CdnScenario::Homogeneous,
                    CdnScenario::PopulationDemand,
                    CdnScenario::PopulationCapacity,
                ]
            } else {
                vec![CdnScenario::Homogeneous, CdnScenario::PopulationDemand]
            })
            .with_latency_limits(if full {
                vec![10.0, 20.0, 30.0]
            } else {
                vec![10.0, 30.0]
            })
            .with_site_limit(Some(if full { 120 } else { 20 })),
        Workload::Replan => base
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![30.0])
            .with_site_limit(Some(if full { 100 } else { 15 }))
            .with_epochs(if full {
                vec![
                    EpochSchedule::Monthly,
                    EpochSchedule::Weekly,
                    EpochSchedule::Daily,
                ]
            } else {
                vec![EpochSchedule::Monthly, EpochSchedule::Weekly]
            })
            .with_migrations(if full {
                MigrationCostLevel::ALL.to_vec()
            } else {
                vec![MigrationCostLevel::Free, MigrationCostLevel::Paper]
            }),
        Workload::Serving => base
            .with_areas(vec![ZoneArea::Europe])
            .with_latency_limits(vec![30.0])
            .with_site_limit(Some(if full { 60 } else { 12 }))
            .with_demand(4, 1)
            .with_servings(ServingMode::ALL.to_vec()),
        Workload::Decide => unreachable!("decide is not a sweep"),
    }
}

/// The report text a user of the workload reads: the savings tables, plus
/// the churn table on `replan` and the serving table on `serving`.
pub fn render(workload: Workload, report: &SweepReport) -> String {
    let mut out = report.render();
    match workload {
        Workload::Replan => out.push_str(&report.render_migration()),
        Workload::Serving => out.push_str(&report.render_serving()),
        _ => {}
    }
    out
}

/// One measured executor pass.
struct ExecutorPass {
    report: SweepReport,
    rendered: String,
    wall_ns: f64,
}

/// Runs the executor once, single-threaded, and renders its report.
/// Returns `None` when the run panics or rejects the spec.
fn executor_pass(workload: Workload, spec: &SweepSpec) -> Option<ExecutorPass> {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let report = SweepExecutor::new().with_jobs(1).run(spec).ok()?;
        let rendered = render(workload, &report);
        Some((report, rendered))
    }));
    let wall_ns = start.elapsed().as_nanos() as f64;
    let (report, rendered) = outcome.ok().flatten()?;
    Some(ExecutorPass {
        report,
        rendered,
        wall_ns,
    })
}

/// Counters both the executor's report and the replay can produce.
fn report_counters(report: &SweepReport, rendered: &str) -> Counters {
    let serving = report.cells.iter().filter_map(|c| c.serving.as_ref());
    Counters::from([
        ("cells", report.cells.len() as u64),
        (
            "placed_apps",
            report
                .cells
                .iter()
                .map(|c| c.outcome.placed_apps as u64)
                .sum(),
        ),
        (
            "moves",
            report.cells.iter().map(|c| c.moves as u64).sum::<u64>(),
        ),
        (
            "requests",
            serving.clone().map(|s| s.requests_total).sum::<u64>(),
        ),
        (
            "online_replacements",
            serving.map(|s| s.online_replacements as u64).sum::<u64>(),
        ),
        ("report_rows", rendered.lines().count() as u64),
    ])
}

/// A traced replay of the executor's per-cell loop.
struct Replay {
    /// The catalogs and caches the replay ran on (reused by the cold-oracle
    /// check).
    shared: CdnShared,
    report: SweepReport,
    rendered: String,
    /// Full simulator results, in cell order.
    results: Vec<CdnResult>,
    counters: Counters,
}

/// The executor's `CellResult` for one simulated cell.
fn cell_result(cell: &SweepCell, simulator: &CdnSimulator, result: &CdnResult) -> CellResult {
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

/// Replays one executor pass with a span around each layer call.  Returns
/// `Err(index)` of the first cell whose simulation panicked.
fn replay(workload: Workload, spec: &SweepSpec, tracer: &mut Tracer) -> Result<Replay, usize> {
    let cells = spec.cells();
    let pass = tracer.enter("sweep.pass");
    let shared = tracer.leaf("datasets.catalogs", CdnShared::new);
    let mut trace_hours = 0u64;
    for seed in &spec.seeds {
        let traces = tracer.leaf("grid.trace_synth", || shared.traces(*seed));
        trace_hours += traces.iter().map(|t| t.values().len() as u64).sum::<u64>();
    }
    let mut placer = SweepExecutor::new().placer_template;
    let mut cell_results = Vec::with_capacity(cells.len());
    let mut results = Vec::with_capacity(cells.len());
    let (mut prep_builds, mut prep_hits) = (0u64, 0u64);
    for (index, cell) in cells.iter().enumerate() {
        let span = tracer.enter("sweep.cell");
        let preps_before = shared.cached_prep_count();
        let simulator = tracer.leaf("sim.prep", || shared.simulator(cell.config()));
        if shared.cached_prep_count() > preps_before {
            prep_builds += 1;
        } else {
            prep_hits += 1;
        }
        placer.policy = cell.policy;
        placer.milp_solver.discard_warm_start();
        let result = tracer.leaf("sim.run", || {
            catch_unwind(AssertUnwindSafe(|| simulator.run_with(&placer)))
        });
        let Ok(result) = result else {
            return Err(index);
        };
        cell_results.push(cell_result(cell, &simulator, &result));
        results.push(result);
        tracer.exit(span);
    }
    let (report, rendered) = tracer.leaf("sweep.report", || {
        let report = SweepReport::new(spec.clone(), cell_results, 1);
        let rendered = render(workload, &report);
        (report, rendered)
    });
    tracer.exit(pass);

    let mut counters = report_counters(&report, &rendered);
    let sum = |f: &dyn Fn(&CdnResult) -> usize| results.iter().map(|r| f(r) as u64).sum::<u64>();
    let decisions =
        sum(&|r| r.epochs.len() + r.serving.as_ref().map_or(0, |s| s.online_replacements));
    let exact = sum(&|r| r.exact_decisions);
    // Every event-level cell serves one request stream per application:
    // `apps_per_site` per site under the homogeneous scenario the serving
    // workload runs.
    let stream_hours = |mode: Option<ServingMode>| -> u64 {
        cells
            .iter()
            .zip(&report.cells)
            .filter(|(cell, _)| mode.is_none_or(|m| cell.serving == m))
            .filter_map(|(cell, result)| {
                let serving = result.serving.as_ref()?;
                Some((cell.apps_per_site * result.site_count * serving.hours) as u64)
            })
            .sum()
    };
    counters.extend([
        ("trace_hours", trace_hours),
        ("prep_builds", prep_builds),
        ("prep_hits", prep_hits),
        ("epochs", sum(&|r| r.epochs.len())),
        (
            "app_epochs",
            sum(&|r| r.epochs.iter().map(|e| e.placed_apps).sum()),
        ),
        ("exact_decisions", exact),
        ("heuristic_decisions", decisions - exact),
        ("stream_hours", stream_hours(None)),
        (
            "event_level_stream_hours",
            stream_hours(Some(ServingMode::EventLevel)),
        ),
    ]);
    Ok(Replay {
        shared,
        report,
        rendered,
        results,
        counters,
    })
}

/// Cells re-run through the cold (un-prepped) simulator as an oracle.
fn oracle_sample(cells: usize) -> Vec<usize> {
    let mut sample = vec![0, cells / 2, cells.saturating_sub(1)];
    sample.dedup();
    sample
}

/// Checks a replay against the executor pass and the cold oracle, and on
/// the default seed against the reference outputs.  Returns the number of
/// failed cells; every mismatch is appended to `problems`.
fn verify(
    workload: Workload,
    config: &RunConfig,
    replay: &Replay,
    passes: &[ExecutorPass],
    problems: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    let replay_counters = report_counters(&replay.report, &replay.rendered);
    for (p, pass) in passes.iter().enumerate() {
        if pass.rendered != replay.rendered {
            problems.push(format!(
                "executor pass {p} renders differently from the replay"
            ));
        }
        for (a, b) in pass.report.cells.iter().zip(&replay.report.cells) {
            if a.outcome != b.outcome || a.monthly_carbon_g != b.monthly_carbon_g {
                failed += 1;
                problems.push(format!(
                    "cell {} differs between executor pass {p} and the replay",
                    a.cell.index
                ));
            }
        }
        compare_counters(
            &format!("executor pass {p} vs replay"),
            &report_counters(&pass.report, &pass.rendered),
            &replay_counters,
            problems,
        );
    }
    let template = SweepExecutor::new().placer_template;
    for index in oracle_sample(replay.report.cells.len()) {
        let cell = &replay.report.cells[index].cell;
        let placer = template.clone().with_policy(cell.policy);
        let cold = catch_unwind(AssertUnwindSafe(|| {
            replay
                .shared
                .cold_simulator(cell.config())
                .run_with(&placer)
        }));
        let same = cold.is_ok_and(|cold| {
            cold.outcome == replay.results[index].outcome
                && cold.outcome == replay.report.cells[index].outcome
        });
        if !same {
            failed += 1;
            problems.push(format!("cell {index} differs from its cold-simulator run"));
        }
    }
    if config.seed == DEFAULT_SEED && config.scale == Scale::Full {
        let name = workload.name();
        reference::check(&format!("{name}.txt"), &replay.rendered, false, problems);
        reference::check(
            &format!("{name}.counters"),
            &reference::render_counters(&replay.counters),
            true,
            problems,
        );
    }
    failed
}

/// Per-layer metrics of the traced passes, as per-pass means.
fn layer_metrics(
    spec: &SweepSpec,
    tracer: &Tracer,
    counters: &Counters,
    untraced_wall_ns: &[f64],
) -> Vec<Metric> {
    let pass_walls: Vec<f64> = tracer
        .durations("sweep.pass")
        .into_iter()
        .map(|ns| ns as f64)
        .collect();
    let passes = pass_walls.len() as f64;
    let traced_total: f64 = pass_walls.iter().sum();
    let self_ns = tracer.self_ns_by_name();
    let per_pass = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / passes;

    // Serving self time: each event-level (or online) cell's run time minus
    // the run time of the aggregate cell that differs only in serving mode.
    let cells = spec.cells();
    let runs: Vec<f64> = tracer
        .durations("sim.run")
        .into_iter()
        .map(|ns| ns as f64)
        .collect();
    // Per serving mode: (run ns, cells, ns beyond the aggregate anchor).
    let mut by_mode = [(0.0, 0usize, 0.0); 3];
    let has_event_cells = cells.iter().any(|c| c.serving != ServingMode::Aggregate);
    for (i, run_ns) in runs.iter().enumerate() {
        let cell = &cells[i % cells.len()];
        let pass_start = i - i % cells.len();
        let anchor = cells.iter().position(|c| {
            c.serving == ServingMode::Aggregate
                && c.policy == cell.policy
                && c.area == cell.area
                && c.scenario == cell.scenario
                && c.latency_limit_ms == cell.latency_limit_ms
                && c.epoch == cell.epoch
                && c.migration == cell.migration
        });
        let slot = &mut by_mode[ServingMode::ALL
            .iter()
            .position(|m| *m == cell.serving)
            .expect("every serving mode is listed")];
        slot.0 += run_ns;
        slot.1 += 1;
        if let Some(anchor) = anchor {
            slot.2 += run_ns - runs[pass_start + anchor];
        }
    }
    let mean_ms = |(ns, n, _): (f64, usize, f64)| {
        if n == 0 || !has_event_cells {
            0.0
        } else {
            ns_to_ms(ns / n as f64)
        }
    };
    let [aggregate, event, online] = by_mode;
    let serving_self = (event.2 + online.2) / passes;
    let run_self = per_pass("sim.run") - serving_self;
    let stream_hours = counters["stream_hours"] as f64;
    let event_stream_hours = counters["event_level_stream_hours"] as f64;
    let untraced = median(untraced_wall_ns);
    let traced = median(&pass_walls);
    let share = |ns: f64| ns / (traced_total / passes);
    let count = |name: &str| counters[name] as f64;
    vec![
        Metric::new(
            "datasets.catalog_ms",
            ns_to_ms(per_pass("datasets.catalogs")),
            "ms",
        ),
        Metric::new(
            "grid.trace_synth_ms",
            ns_to_ms(per_pass("grid.trace_synth")),
            "ms",
        ),
        Metric::new("grid.trace_hours", count("trace_hours"), "count"),
        Metric::new(
            "grid.trace_share",
            share(per_pass("grid.trace_synth")),
            "ratio",
        ),
        Metric::new("sim.prep_ms", ns_to_ms(per_pass("sim.prep")), "ms"),
        Metric::new("sim.prep_builds", count("prep_builds"), "count"),
        Metric::new("sim.prep_hits", count("prep_hits"), "count"),
        Metric::new("sim.prep_share", share(per_pass("sim.prep")), "ratio"),
        Metric::new("sim.run_ms", ns_to_ms(run_self), "ms"),
        Metric::new("sim.run_share", share(run_self), "ratio"),
        Metric::new("sim.epochs", count("epochs"), "count"),
        Metric::new("sim.app_epochs", count("app_epochs"), "count"),
        Metric::new("sim.moves", count("moves"), "count"),
        Metric::new(
            "sim.heuristic_decisions",
            count("heuristic_decisions"),
            "count",
        ),
        Metric::new("serving.aggregate_cell_ms", mean_ms(aggregate), "ms"),
        Metric::new("serving.event_cell_ms", mean_ms(event), "ms"),
        Metric::new("serving.online_cell_ms", mean_ms(online), "ms"),
        Metric::new("serving.self_ms", ns_to_ms(serving_self), "ms"),
        Metric::new("serving.share", share(serving_self), "ratio"),
        Metric::new("serving.stream_hours", stream_hours, "count"),
        Metric::new("serving.requests", count("requests"), "count"),
        Metric::new(
            "serving.ns_per_stream_hour",
            if event_stream_hours > 0.0 {
                event.2 / passes / event_stream_hours
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new(
            "serving.online_replacements",
            count("online_replacements"),
            "count",
        ),
        Metric::new("sweep.cell_ms", ns_to_ms(per_pass("sweep.cell")), "ms"),
        Metric::new("sweep.report_ms", ns_to_ms(per_pass("sweep.report")), "ms"),
        Metric::new(
            "sweep.report_share",
            share(per_pass("sweep.report")),
            "ratio",
        ),
        Metric::new("sweep.rows", count("report_rows"), "count"),
        Metric::new("trace.traced_pass_ms", ns_to_ms(traced), "ms"),
        Metric::new("trace.overhead_ms", ns_to_ms(traced - untraced), "ms"),
        Metric::new(
            "trace.overhead_share",
            (traced - untraced) / untraced,
            "ratio",
        ),
    ]
}

/// Runs one execution of a sweep workload.
pub fn execute(workload: Workload, config: &RunConfig) -> Execution {
    let mut problems = Vec::new();
    // Set-up: the catalogs and the seed's traces, as the executor builds
    // them before its first cell.
    let (mut setup, spec) = Setup::new(|| {
        let spec = spec(workload, config.seed, config.scale);
        let shared = CdnShared::new();
        for seed in &spec.seeds {
            std::hint::black_box(shared.traces(*seed));
        }
        std::hint::black_box(spec.cells());
        spec
    });
    let cells = spec.cell_count() as u64;

    let mut passes = Vec::new();
    let mut tracer = Tracer::new();
    let mut replays = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut measured_ns = 0.0;
    // Closed loop: one pass after another until the budget is spent.  The
    // traced execution alternates untraced and traced passes so that both
    // see the same machine state; the untraced execution replays once,
    // after the measured passes, to verify them.
    loop {
        attempted += cells;
        match executor_pass(workload, &spec) {
            Some(pass) => {
                measured_ns += pass.wall_ns;
                passes.push(pass);
            }
            None => {
                failed += cells;
                problems.push("an executor pass panicked or failed".to_string());
                break;
            }
        }
        setup.repeat();
        if config.traced {
            attempted += cells;
            let start = Instant::now();
            match replay(workload, &spec, &mut tracer) {
                Ok(r) => replays.push(r),
                Err(cell) => {
                    failed += cells;
                    problems.push(format!("traced replay panicked in cell {cell}"));
                    break;
                }
            }
            measured_ns += start.elapsed().as_nanos() as f64;
        }
        if measured_ns >= config.seconds * 1e9 {
            break;
        }
    }
    if !config.traced && problems.is_empty() {
        attempted += cells;
        match replay(workload, &spec, &mut Tracer::new()) {
            Ok(r) => replays.push(r),
            Err(cell) => {
                failed += cells;
                problems.push(format!("verification replay panicked in cell {cell}"));
            }
        }
    }

    let counters = replays
        .first()
        .map(|r| r.counters.clone())
        .unwrap_or_default();
    for (i, r) in replays.iter().enumerate() {
        if i > 0 {
            compare_counters(
                &format!("replay {i} vs replay 0"),
                &r.counters,
                &counters,
                &mut problems,
            );
            if r.rendered != replays[0].rendered {
                problems.push(format!("replay {i} renders differently from replay 0"));
            }
        }
    }
    if let Some(first) = replays.first() {
        failed += verify(workload, config, first, &passes, &mut problems);
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns).collect();
    let metrics = if problems.is_empty() && !walls.is_empty() {
        if config.traced {
            layer_metrics(&spec, &tracer, &counters, &walls)
        } else {
            vec![
                Metric::new("setup_s", setup.median_s(), "s"),
                Metric::new(
                    "ops_per_s",
                    (cells * walls.len() as u64) as f64 / (walls.iter().sum::<f64>() / 1e9),
                    "1/s",
                ),
                Metric::new("latency_p50_ms", ns_to_ms(median(&walls)), "ms"),
                Metric::new("latency_p99_ms", ns_to_ms(quantile(&walls, 0.99)), "ms"),
                Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
            ]
        }
    } else {
        Vec::new()
    };
    Execution {
        attempted,
        failed,
        problems,
        metrics,
        counters,
        tracer: config.traced.then_some(tracer),
    }
}
