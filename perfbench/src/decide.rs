//! The `decide` workload: a closed-loop stream of exact placement
//! decisions through `IncrementalPlacer::place`.
//!
//! The sweeps run heuristic-only, so without this workload the solver
//! stack (simplex, branch-and-bound, decomposition, basis factorization)
//! would go unmeasured.  Each round of the stream makes:
//!
//! * one **cold** decision on a fresh corridor deployment (a window of edge
//!   sites ordered by longitude), rotating 60×15 / 120×30 / 200×50
//!   applications × servers — all above the 256-variable decomposition
//!   threshold;
//! * 11 monthly **warm** re-plans of that deployment: shifted intensities
//!   and the previous assignment as a `PlacementState` with paper-calibrated
//!   migration costs, i.e. cost-only restarts of the same model;
//! * 10 **regional** decisions, alternating 1 application × 5 servers and
//!   5 × 8, which take the monolithic route.
//!
//! Applications originate at their zone's city and carry a 20 ms
//! round-trip SLO.
//!
//! The corridor rounds are the same for every seed: areas, windows and
//! months follow a fixed rotation and intensities come from the traces of
//! [`DEFAULT_SEED`].  The p99 falls on the few slowest cold solves, and
//! letting the seed pick those instances made it move by a fifth between
//! seeds.  The seed generates the traces of the regional decisions and
//! picks their centers and hours.

use crate::stats::{median, peak_rss_mb, quantile};
use crate::tracer::Tracer;
use crate::{
    compare_counters, ns_to_ms, reference, Counters, Execution, Metric, RunConfig, Scale, Setup,
    DEFAULT_SEED,
};
use carbonedge_core::{
    IncrementalPlacer, MigrationCostLevel, PlacementPolicy, PlacementProblem, PlacementState,
    ServerSnapshot,
};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, EdgeSiteRecord, ZoneCatalog};
use carbonedge_geo::Coordinates;
use carbonedge_grid::{CarbonTrace, HourOfYear};
use carbonedge_net::LatencyModel;
use carbonedge_workload::generator::splitmix64;
use carbonedge_workload::{AppId, Application, DeviceKind, ModelKind, ResourceDemand};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Corridor deployments (applications, servers), rotated round by round.
pub const CORRIDOR_SIZES: [(usize, usize); 3] = [(60, 15), (120, 30), (200, 50)];
/// Regional deployments (applications, servers), alternated.
pub const REGIONAL_SIZES: [(usize, usize); 2] = [(1, 5), (5, 8)];
/// Monthly warm re-plans after each cold decision.
pub const REPLANS: usize = 11;
/// Regional decisions per round.
pub const REGIONAL_PER_ROUND: usize = 10;
/// Rounds per pass: 24 × 22 = 528 decisions, four turns of the corridor
/// rotation (3 sizes × 2 areas).
pub const ROUNDS: usize = 24;
/// Untraced passes a full-size execution always makes: their decisions are
/// pooled, so at least ten samples lie beyond the p99.
pub const MIN_UNTRACED_PASSES: usize = 2;
/// Rounds per pass of the reduced stream.
pub const REDUCED_ROUNDS: usize = 3;
/// The exact-path size limit, covering the largest corridor (the setting
/// `BENCH_solver.json`'s corridor cases use).
pub const EXACT_SIZE_LIMIT: usize = 100_000;
/// Round-trip latency SLO of every application, ms.
pub const SLO_MS: f64 = 20.0;
/// Relative tolerance when comparing a decision's objective with a cold
/// re-solve's.
const OBJECTIVE_TOL: f64 = 1e-9;

const HOURS_PER_MONTH: usize = 730;

/// What kind of decision a request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// First decision on a fresh corridor deployment.
    Cold,
    /// Re-plan of the previous decision's deployment.
    Warm,
    /// Small regional decision.
    Regional,
}

/// One placement request of the stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// Decision kind.
    pub kind: Kind,
    /// The problem; a warm request's `state` is attached when it is sent.
    pub problem: PlacementProblem,
}

/// The generated request stream of one pass.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Requests in sending order.
    pub requests: Vec<Request>,
}

/// A deterministic generator over `splitmix64`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        // `n` is a small positive count, so the remainder fits in `usize`.
        (self.next() % n as u64) as usize
    }
}

/// A server with room for six ResNet50 images, so four local applications
/// leave capacity binding when neighbours chase a greener site.
fn server(id: usize, site: &EdgeSiteRecord, intensity: f64) -> ServerSnapshot {
    const SLOTS: f64 = 6.0;
    ServerSnapshot::new(id, id, site.zone, DeviceKind::A2, site.location)
        .with_carbon_intensity(intensity)
        .with_available(ResourceDemand::new(
            SLOTS * 1280.0 / 6.0,
            SLOTS * 350.0,
            SLOTS * 1000.0 / 6.0,
        ))
}

fn application(id: usize, origin: Coordinates, origin_site: usize) -> Application {
    Application::new(
        AppId(id),
        ModelKind::ResNet50,
        10.0,
        SLO_MS,
        origin,
        origin_site,
    )
}

/// Generates the request stream for a seed: corridor intensities come from
/// `corridor_traces` (those of [`DEFAULT_SEED`]), regional ones from
/// `regional_traces` (the seed's).
pub fn generate(
    catalog: &ZoneCatalog,
    sites: &EdgeSiteCatalog,
    corridor_traces: &[CarbonTrace],
    regional_traces: &[CarbonTrace],
    seed: u64,
    scale: Scale,
) -> Stream {
    let mut rng = Rng(seed);
    let areas = [ZoneArea::UnitedStates, ZoneArea::Europe];
    let by_longitude: Vec<Vec<&EdgeSiteRecord>> = areas
        .iter()
        .map(|area| {
            let mut list = sites.in_area(*area);
            list.sort_by(|a, b| a.location.lon.total_cmp(&b.location.lon));
            list
        })
        .collect();
    let rounds = match scale {
        Scale::Full => ROUNDS,
        Scale::Reduced => REDUCED_ROUNDS,
    };
    let zone_location = |site: &EdgeSiteRecord| catalog.records()[site.zone.index()].location;
    let mut requests = Vec::with_capacity(rounds * (1 + REPLANS + REGIONAL_PER_ROUND));
    for round in 0..rounds {
        // Sizes and areas rotate, each (size, area) pair's windows step
        // through its corridor by the golden ratio, and starting months
        // advance by five.
        let (apps, servers) = CORRIDOR_SIZES[round % CORRIDOR_SIZES.len()];
        let area = round % areas.len();
        let visit = round / (CORRIDOR_SIZES.len() * areas.len());
        let corridor = &by_longitude[area];
        let positions = corridor.len() - servers + 1;
        let step = (visit as f64 * 0.618_033_988_749_895).fract();
        // `step` is in [0, 1), so the product is a valid window start.
        let offset = (step * positions as f64) as usize;
        let window = &corridor[offset..offset + servers];
        let first_month = (round * 5) % 12;
        for k in 0..=REPLANS {
            let month = (first_month + k) % 12;
            let snapshots: Vec<ServerSnapshot> = window
                .iter()
                .enumerate()
                .map(|(s, site)| {
                    server(
                        s,
                        site,
                        corridor_traces[site.zone.index()].monthly_mean(month),
                    )
                })
                .collect();
            let per_server = apps / servers;
            let demands: Vec<Application> = (0..apps)
                .map(|i| application(i, zone_location(window[i / per_server]), i / per_server))
                .collect();
            requests.push(Request {
                kind: if k == 0 { Kind::Cold } else { Kind::Warm },
                problem: PlacementProblem::new(snapshots, demands, HOURS_PER_MONTH as f64)
                    .with_latency_model(LatencyModel::deterministic()),
            });
        }
        let zones = catalog.in_area(areas[area]);
        for j in 0..REGIONAL_PER_ROUND {
            let (apps, servers) = REGIONAL_SIZES[j % REGIONAL_SIZES.len()];
            let center = zones[rng.below(zones.len())].location;
            let hour = HourOfYear::new(rng.below(8760));
            let mut nearest = zones.clone();
            nearest.sort_by(|a, b| {
                center
                    .distance_km(&a.location)
                    .total_cmp(&center.distance_km(&b.location))
            });
            let snapshots: Vec<ServerSnapshot> = nearest[..servers]
                .iter()
                .enumerate()
                .map(|(s, zone)| {
                    ServerSnapshot::new(s, s, zone.id, DeviceKind::A2, zone.location)
                        .with_carbon_intensity(regional_traces[zone.id.index()].at(hour))
                })
                .collect();
            let demands = (0..apps).map(|i| application(i, center, 0)).collect();
            requests.push(Request {
                kind: Kind::Regional,
                problem: PlacementProblem::new(snapshots, demands, 1.0)
                    .with_latency_model(LatencyModel::deterministic()),
            });
        }
    }
    Stream { requests }
}

/// The placer every pass starts from (a clone has a fresh solver
/// workspace).
pub fn placer_template() -> IncrementalPlacer {
    IncrementalPlacer::new(PlacementPolicy::CarbonAware).with_exact_size_limit(EXACT_SIZE_LIMIT)
}

/// The solver's accumulated work counters at one instant.
#[derive(Debug, Clone, Copy)]
struct SolverSnapshot {
    pivots: u64,
    refactorizations: u64,
    bland_activations: u64,
    columns: u64,
    pricing_rounds: u64,
}

impl SolverSnapshot {
    fn of(placer: &IncrementalPlacer) -> Self {
        let solver = &placer.milp_solver;
        let decomp = solver.accumulated_decomp_stats();
        Self {
            pivots: solver.accumulated_pivots() as u64,
            refactorizations: solver.accumulated_factor_stats().refactorizations as u64,
            bland_activations: solver.accumulated_pricing_stats().bland_activations as u64,
            columns: decomp.columns_generated as u64,
            pricing_rounds: decomp.pricing_rounds as u64,
        }
    }
}

/// One pass over the stream.
struct Pass {
    /// Per-decision latency, ns, in stream order.
    latencies_ns: Vec<f64>,
    wall_ns: f64,
    /// Each decision's assignment and exactness (`None` when `place`
    /// panicked or returned `Err`).
    decisions: Vec<Option<(Vec<Option<usize>>, bool)>>,
    counters: Counters,
}

/// Sends every request in order, each after the previous one completed.
/// With a tracer, each `place` call runs inside a span named after its
/// kind under one `decide.pass` span.
fn run_pass(stream: &mut Stream, mut tracer: Option<&mut Tracer>) -> Pass {
    let placer = placer_template();
    let migration = MigrationCostLevel::Paper.cost_for(ModelKind::ResNet50, DeviceKind::A2);
    let mut previous: Option<Vec<Option<usize>>> = None;
    let mut latencies_ns = Vec::with_capacity(stream.requests.len());
    let mut decisions = Vec::with_capacity(stream.requests.len());
    let mut counters = Counters::new();
    let mut add = |name: &'static str, n: u64| *counters.entry(name).or_insert(0) += n;
    let start = Instant::now();
    let root = tracer.as_deref_mut().map(|t| t.enter("decide.pass"));
    for request in &mut stream.requests {
        if request.kind == Kind::Warm {
            let apps = request.problem.apps.len();
            request.problem.state = previous
                .clone()
                .map(|prev| PlacementState::new(prev, vec![migration; apps]));
        }
        let before = SolverSnapshot::of(&placer);
        let name = match request.kind {
            Kind::Cold => "core.place_cold",
            Kind::Warm => "core.place_warm",
            Kind::Regional => "core.place_regional",
        };
        let span = tracer.as_deref_mut().map(|t| t.enter(name));
        let sent = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| placer.place(&request.problem)));
        latencies_ns.push(sent.elapsed().as_nanos() as f64);
        if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
            t.exit(span);
        }
        let after = SolverSnapshot::of(&placer);
        let pivots = after.pivots - before.pivots;
        add(
            match request.kind {
                Kind::Cold => "pivots_cold",
                Kind::Warm => "pivots_warm",
                Kind::Regional => "pivots_regional",
            },
            pivots,
        );
        add(
            "refactorizations",
            after.refactorizations - before.refactorizations,
        );
        add(
            "bland_activations",
            after.bland_activations - before.bland_activations,
        );
        add("columns", after.columns - before.columns);
        add(
            "pricing_rounds",
            after.pricing_rounds - before.pricing_rounds,
        );
        add(
            "decomp_decisions",
            u64::from(after.pricing_rounds > before.pricing_rounds),
        );
        add("decisions", 1);
        match result {
            Ok(Ok(decision)) => {
                add("moves", decision.moves as u64);
                add("unplaced", decision.unplaced.len() as u64);
                add("exact_fallbacks", u64::from(!decision.exact));
                if request.kind != Kind::Regional {
                    previous = Some(decision.assignment.clone());
                }
                decisions.push(Some((decision.assignment, decision.exact)));
            }
            _ => decisions.push(None),
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.exit(root);
    }
    Pass {
        latencies_ns,
        wall_ns: start.elapsed().as_nanos() as f64,
        decisions,
        counters,
    }
}

/// Checks every decision of `pass` against a cold re-solve of the same
/// problem on a fresh placer.  Returns the failed-decision count and the
/// branch-and-bound nodes the cold re-solves explored.
fn verify_against_cold(stream: &Stream, pass: &Pass, problems: &mut Vec<String>) -> (u64, u64) {
    let placer = placer_template();
    let (mut failed, mut nodes) = (0u64, 0u64);
    for (i, (request, decision)) in stream.requests.iter().zip(&pass.decisions).enumerate() {
        let Some((assignment, exact)) = decision else {
            failed += 1;
            problems.push(format!("decision {i} panicked or returned an error"));
            continue;
        };
        if !exact {
            failed += 1;
            problems.push(format!("decision {i} fell back to the heuristic"));
            continue;
        }
        let Some(objective) = placer.objective_of(&request.problem, assignment) else {
            failed += 1;
            problems.push(format!("decision {i} uses an infeasible pair"));
            continue;
        };
        let fresh = placer_template();
        let model = fresh.build_model(&request.problem);
        let solution = fresh.milp_solver.solve(&model.model);
        nodes += solution.nodes as u64;
        let cold = solution
            .has_solution()
            .then(|| fresh.objective_of(&request.problem, &model.decode(&solution.values)))
            .flatten();
        let agrees = cold
            .is_some_and(|cold| (objective - cold).abs() <= OBJECTIVE_TOL * cold.abs().max(1.0));
        if !agrees {
            failed += 1;
            problems.push(format!(
                "decision {i} ({:?}) objective {objective} differs from the cold re-solve {cold:?}",
                request.kind
            ));
        }
    }
    (failed, nodes)
}

/// Median `IncrementalPlacer::build_model` time, µs, over the stream's
/// problems (with the states the last pass attached).  `build_model` has no
/// side effects, so it is timed on its own, outside the traced passes.
fn build_model_us(stream: &Stream) -> f64 {
    let placer = placer_template();
    let times: Vec<f64> = stream
        .requests
        .iter()
        .map(|r| {
            let start = Instant::now();
            std::hint::black_box(placer.build_model(&r.problem));
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&times)
}

/// Runs one execution of the `decide` workload.
pub fn execute(config: &RunConfig) -> Execution {
    let mut problems = Vec::new();
    // Set-up: catalogs, the corridor and seed traces, and the request
    // stream.
    let (mut setup, mut stream) = Setup::new(|| {
        let catalog = ZoneCatalog::worldwide();
        let sites = EdgeSiteCatalog::akamai_like(&catalog);
        let corridor = catalog.generate_traces(DEFAULT_SEED);
        let regional = catalog.generate_traces(config.seed);
        generate(
            &catalog,
            &sites,
            &corridor,
            &regional,
            config.seed,
            config.scale,
        )
    });
    let per_pass = stream.requests.len() as u64;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new();
    let mut measured_ns = 0.0;
    let min_untraced = match config.scale {
        Scale::Full => MIN_UNTRACED_PASSES,
        Scale::Reduced => 1,
    };
    loop {
        let pass = run_pass(&mut stream, None);
        measured_ns += pass.wall_ns;
        untraced.push(pass);
        setup.repeat();
        if config.traced {
            let pass = run_pass(&mut stream, Some(&mut tracer));
            measured_ns += pass.wall_ns;
            traced.push(pass);
        }
        if measured_ns >= config.seconds * 1e9 && untraced.len() >= min_untraced {
            break;
        }
    }
    let attempted = per_pass * (untraced.len() + traced.len()) as u64;

    // Every pass must repeat the first one exactly; the first is checked
    // decision by decision against cold re-solves.
    let first = &untraced[0];
    let mut failed = 0u64;
    for (p, pass) in untraced.iter().chain(&traced).enumerate().skip(1) {
        for (i, (a, b)) in pass.decisions.iter().zip(&first.decisions).enumerate() {
            if a != b {
                failed += 1;
                problems.push(format!("pass {p} decision {i} differs from pass 0"));
            }
        }
        compare_counters(
            &format!("pass {p} vs pass 0"),
            &pass.counters,
            &first.counters,
            &mut problems,
        );
    }
    let (cold_failed, bb_nodes) = verify_against_cold(&stream, first, &mut problems);
    failed += cold_failed * (untraced.len() + traced.len()) as u64;
    let mut counters = first.counters.clone();
    counters.insert("bb_nodes", bb_nodes);
    if config.seed == DEFAULT_SEED && config.scale == Scale::Full {
        reference::check(
            "decide.counters",
            &reference::render_counters(&counters),
            true,
            &mut problems,
        );
    }

    let metrics = if !problems.is_empty() {
        Vec::new()
    } else if config.traced {
        layer_metrics(&stream, &tracer, &counters, &untraced, &traced)
    } else {
        // The quantiles pool every decision of every untraced pass, and the
        // throughput divides by the whole measured time, so both average the
        // host's speed over the run rather than sampling it.
        let latencies: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.latencies_ns.iter().copied())
            .collect();
        let untraced_ns: f64 = untraced.iter().map(|p| p.wall_ns).sum();
        vec![
            Metric::new("setup_s", setup.median_s(), "s"),
            Metric::new(
                "ops_per_s",
                latencies.len() as f64 / (untraced_ns / 1e9),
                "1/s",
            ),
            Metric::new("latency_p50_ms", ns_to_ms(median(&latencies)), "ms"),
            Metric::new("latency_p99_ms", ns_to_ms(quantile(&latencies, 0.99)), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
        ]
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

/// Per-layer metrics of the traced passes.
fn layer_metrics(
    stream: &Stream,
    tracer: &Tracer,
    counters: &Counters,
    untraced: &[Pass],
    traced: &[Pass],
) -> Vec<Metric> {
    let as_f64 = |v: Vec<u64>| v.into_iter().map(|ns| ns as f64).collect::<Vec<f64>>();
    let median_of = |name: &str| {
        let d = as_f64(tracer.durations(name));
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let traced_wall = median(&traced.iter().map(|p| p.wall_ns).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|p| p.wall_ns).collect::<Vec<_>>());
    let pass_total: f64 = as_f64(tracer.durations("decide.pass")).iter().sum();
    let place_total: f64 = ["core.place_cold", "core.place_warm", "core.place_regional"]
        .iter()
        .map(|name| as_f64(tracer.durations(name)).iter().sum::<f64>())
        .sum();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    vec![
        Metric::new("core.build_model_us", build_model_us(stream), "us"),
        Metric::new(
            "core.place_cold_ms",
            ns_to_ms(median_of("core.place_cold")),
            "ms",
        ),
        Metric::new(
            "core.place_warm_ms",
            ns_to_ms(median_of("core.place_warm")),
            "ms",
        ),
        Metric::new(
            "core.place_regional_us",
            median_of("core.place_regional") / 1e3,
            "us",
        ),
        Metric::new("core.place_share", place_total / pass_total, "ratio"),
        Metric::new("core.exact_fallbacks", count("exact_fallbacks"), "count"),
        Metric::new("solver.pivots_cold", count("pivots_cold"), "count"),
        Metric::new("solver.pivots_warm", count("pivots_warm"), "count"),
        Metric::new("solver.bb_nodes", count("bb_nodes"), "count"),
        Metric::new(
            "solver.decomp_decisions",
            count("decomp_decisions"),
            "count",
        ),
        Metric::new("solver.columns", count("columns"), "count"),
        Metric::new("solver.pricing_rounds", count("pricing_rounds"), "count"),
        Metric::new(
            "solver.refactorizations",
            count("refactorizations"),
            "count",
        ),
        Metric::new(
            "solver.bland_activations",
            count("bland_activations"),
            "count",
        ),
        Metric::new("trace.traced_pass_ms", ns_to_ms(traced_wall), "ms"),
        Metric::new(
            "trace.overhead_ms",
            ns_to_ms(traced_wall - untraced_wall),
            "ms",
        ),
        Metric::new(
            "trace.overhead_share",
            (traced_wall - untraced_wall) / untraced_wall,
            "ratio",
        ),
    ]
}
