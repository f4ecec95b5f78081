//! Reduced-size passes of every workload: the output checks pass, no
//! operation fails, every listed metric is reported, and the work counters
//! repeat exactly between executions and between the untraced and traced
//! runs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{execute, Execution, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};

fn run(workload: Workload, traced: bool) -> Execution {
    execute(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        scale: Scale::Reduced,
    })
}

fn assert_checked(what: &str, execution: &Execution) {
    assert!(
        execution.correct(),
        "{what}: failed {} of {}; problems: {:#?}",
        execution.failed,
        execution.attempted,
        execution.problems
    );
    assert_eq!(execution.failed, 0, "{what}");
    assert!(execution.attempted > 0, "{what}");
}

fn check(workload: Workload) {
    let first = run(workload, false);
    assert_checked("first untraced execution", &first);
    let names: Vec<&str> = first.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, END_TO_END.map(|(name, _)| name));
    for metric in &first.metrics {
        assert!(
            metric.value.is_finite() && metric.value > 0.0,
            "{} = {}",
            metric.name,
            metric.value
        );
    }

    let second = run(workload, false);
    assert_checked("second untraced execution", &second);
    assert_eq!(first.counters, second.counters, "counters repeat exactly");

    let traced = run(workload, true);
    assert_checked("traced execution", &traced);
    assert_eq!(
        first.counters, traced.counters,
        "tracing changes no counter"
    );
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    assert_eq!(names, PER_LAYER.map(|(name, _)| name));
    let tracer = traced
        .tracer
        .as_ref()
        .expect("traced executions keep spans");
    assert!(!tracer.spans().is_empty());
}

fn layer(execution: &Execution, name: &str) -> f64 {
    execution
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

#[test]
fn grid_reduced_pass_is_checked_and_deterministic() {
    check(Workload::Grid);
}

#[test]
fn replan_reduced_pass_is_checked_and_deterministic() {
    check(Workload::Replan);
}

#[test]
fn serving_reduced_pass_is_checked_and_deterministic() {
    check(Workload::Serving);
}

#[test]
fn decide_reduced_pass_is_checked_and_deterministic() {
    check(Workload::Decide);
}

#[test]
fn each_workload_reaches_only_its_own_layers() {
    let grid = run(Workload::Grid, true);
    assert!(layer(&grid, "sim.prep_builds") > 0.0);
    assert!(layer(&grid, "grid.trace_hours") > 0.0);
    assert_eq!(layer(&grid, "serving.stream_hours"), 0.0);
    assert_eq!(layer(&grid, "solver.pivots_cold"), 0.0);

    let serving = run(Workload::Serving, true);
    assert!(layer(&serving, "serving.stream_hours") > 0.0);
    assert!(layer(&serving, "serving.requests") > 0.0);
    assert!(layer(&serving, "serving.online_replacements") > 0.0);

    let decide = run(Workload::Decide, true);
    assert!(layer(&decide, "solver.decomp_decisions") > 0.0);
    assert!(layer(&decide, "solver.columns") > 0.0);
    assert_eq!(layer(&decide, "core.exact_fallbacks"), 0.0);
    assert_eq!(layer(&decide, "sim.epochs"), 0.0);
}

#[test]
fn full_size_workloads_have_the_documented_shape() {
    use perfbench::sweeps::spec;
    assert_eq!(spec(Workload::Grid, 1, Scale::Full).cell_count(), 36);
    assert_eq!(spec(Workload::Replan, 1, Scale::Full).cell_count(), 18);
    assert_eq!(spec(Workload::Serving, 1, Scale::Full).cell_count(), 6);
    let per_round = 1 + perfbench::decide::REPLANS + perfbench::decide::REGIONAL_PER_ROUND;
    assert!(
        perfbench::decide::MIN_UNTRACED_PASSES * perfbench::decide::ROUNDS * per_round >= 1000,
        "the p99 needs at least ten decisions beyond it"
    );
}
