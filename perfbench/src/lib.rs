//! The CarbonEdge workspace benchmark.
//!
//! Four workloads drive the workspace's public API from one process, single
//! threaded and closed loop:
//!
//! * `grid`, `replan` and `serving` run scenario sweeps through
//!   `SweepExecutor::with_jobs(1)` (see [`sweeps`]);
//! * `decide` streams `IncrementalPlacer::place` calls on the exact path
//!   (see [`decide`]).
//!
//! An execution either measures the end-to-end metrics (untraced) or runs
//! the traced replay that breaks a pass down by layer.  Every execution
//! verifies its outputs before any number is reported; `README.md` in this
//! directory records why each workload exists and which layer metric should
//! move which end-to-end metric.

pub mod decide;
pub mod reference;
pub mod stats;
pub mod sweeps;
pub mod tracer;

use std::collections::BTreeMap;
use std::time::Instant;

/// The seed whose sweep renders and counters are kept under `reference/`.
pub const DEFAULT_SEED: u64 = 42;

/// Set-up repetitions per execution at the least; `setup_s` reports their
/// median.
pub const SETUP_REPS: usize = 5;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The default sweep grid (36 cells).
    Grid,
    /// Epoch schedule × migration cost re-planning sweep (18 cells).
    Replan,
    /// Saturated event-level serving sweep (6 cells).
    Serving,
    /// Closed-loop exact placement decisions.
    Decide,
}

impl Workload {
    /// Every workload the package runs.  `BENCHMARK.json` measures `serving`
    /// and `decide`; `grid` and `replan` run by hand.
    pub const ALL: [Workload; 4] = [
        Workload::Grid,
        Workload::Replan,
        Workload::Serving,
        Workload::Decide,
    ];

    /// The workload's command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Replan => "replan",
            Workload::Serving => "serving",
            Workload::Decide => "decide",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or the reduced pass its tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Small grids and streams for the benchmark's tests.
    Reduced,
}

/// One execution's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed (trace seed of the sweeps, generator seed of `decide`).
    pub seed: u64,
    /// Measurement budget; at least one pass always runs.
    pub seconds: f64,
    /// Run the traced replay (per-layer metrics) instead of the untraced
    /// measurement (end-to-end metrics).
    pub traced: bool,
    /// Input size.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Machine-independent work counters, compared exactly.
pub type Counters = BTreeMap<&'static str, u64>;

/// The outcome of one execution.
#[derive(Debug)]
pub struct Execution {
    /// Operations (cells or decisions) attempted.
    pub attempted: u64,
    /// Operations that panicked, returned `Err`, fell back from the exact
    /// path, or failed an output check.
    pub failed: u64,
    /// Every failed check, in words.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Work counters of one pass.
    pub counters: Counters,
    /// Spans of the traced passes (traced executions only).
    pub tracer: Option<tracer::Tracer>,
}

impl Execution {
    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// The end-to-end metrics every untraced execution reports (`BENCHMARK.json`
/// `end_to_end`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced execution reports (`BENCHMARK.json`
/// `per_layer`), with units.  A layer a workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("datasets.catalog_ms", "ms"),
    ("grid.trace_synth_ms", "ms"),
    ("grid.trace_hours", "count"),
    ("grid.trace_share", "ratio"),
    ("sim.prep_ms", "ms"),
    ("sim.prep_builds", "count"),
    ("sim.prep_hits", "count"),
    ("sim.prep_share", "ratio"),
    ("sim.run_ms", "ms"),
    ("sim.run_share", "ratio"),
    ("sim.epochs", "count"),
    ("sim.app_epochs", "count"),
    ("sim.moves", "count"),
    ("sim.heuristic_decisions", "count"),
    ("serving.aggregate_cell_ms", "ms"),
    ("serving.event_cell_ms", "ms"),
    ("serving.online_cell_ms", "ms"),
    ("serving.self_ms", "ms"),
    ("serving.share", "ratio"),
    ("serving.stream_hours", "count"),
    ("serving.requests", "count"),
    ("serving.ns_per_stream_hour", "ns"),
    ("serving.online_replacements", "count"),
    ("sweep.cell_ms", "ms"),
    ("sweep.report_ms", "ms"),
    ("sweep.report_share", "ratio"),
    ("sweep.rows", "count"),
    ("core.build_model_us", "us"),
    ("core.place_cold_ms", "ms"),
    ("core.place_warm_ms", "ms"),
    ("core.place_regional_us", "us"),
    ("core.place_share", "ratio"),
    ("core.exact_fallbacks", "count"),
    ("solver.pivots_cold", "count"),
    ("solver.pivots_warm", "count"),
    ("solver.bb_nodes", "count"),
    ("solver.decomp_decisions", "count"),
    ("solver.columns", "count"),
    ("solver.pricing_rounds", "count"),
    ("solver.refactorizations", "count"),
    ("solver.bland_activations", "count"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
];

/// Runs one execution of a workload.  A checked execution reports every
/// metric of its mode in list order, zero where a layer is not reached; an
/// execution that failed a check reports none.
pub fn execute(config: &RunConfig) -> Execution {
    let mut execution = match config.workload {
        Workload::Decide => decide::execute(config),
        sweep => sweeps::execute(sweep, config),
    };
    if execution.metrics.is_empty() {
        return execution;
    }
    let mut measured = std::mem::take(&mut execution.metrics);
    if let Some(tracer) = &execution.tracer {
        measured.extend([
            Metric::new("trace.spans", tracer.spans().len() as f64, "count"),
            Metric::new("ops.attempted", execution.attempted as f64, "count"),
            Metric::new("ops.failed", execution.failed as f64, "count"),
        ]);
    }
    let list: &[(&str, &str)] = if config.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    execution.metrics = list
        .iter()
        .map(|(name, unit)| {
            let value = measured.iter().find(|m| m.name == *name).map_or(0.0, |m| {
                assert_eq!(m.unit, *unit, "unit of {name}");
                m.value
            });
            Metric::new(name, value, unit)
        })
        .collect();
    for m in &measured {
        assert!(
            list.iter().any(|(name, _)| *name == m.name),
            "metric {} is not listed",
            m.name
        );
    }
    execution
}

/// Records `what` as a problem unless the two counter sets agree on every
/// counter they share.
pub fn compare_counters(what: &str, a: &Counters, b: &Counters, problems: &mut Vec<String>) {
    for (name, value) in a {
        if let Some(other) = b.get(name) {
            if other != value {
                problems.push(format!("{what}: counter {name} is {value} vs {other}"));
            }
        }
    }
}

/// A workload's set-up and its wall times over one execution.  It runs
/// once before the first timed operation and again after every pass, so
/// the median samples the host's speed over the whole run, not over its
/// first seconds.
pub struct Setup<F> {
    run: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Runs the set-up once and keeps its result.
    pub fn new(run: F) -> (Self, T) {
        let mut setup = Self {
            run,
            times: Vec::new(),
        };
        let value = setup.timed();
        (setup, value)
    }

    fn timed(&mut self) -> T {
        let start = Instant::now();
        let value = std::hint::black_box((self.run)());
        self.times.push(start.elapsed().as_secs_f64());
        value
    }

    /// Runs the set-up again and drops its result.
    pub fn repeat(&mut self) {
        self.timed();
    }

    /// Median wall time in seconds, after topping the repetitions up to
    /// [`SETUP_REPS`].
    pub fn median_s(mut self) -> f64 {
        while self.times.len() < SETUP_REPS {
            self.repeat();
        }
        stats::median(&self.times)
    }
}

/// Nanoseconds to milliseconds.
pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}
