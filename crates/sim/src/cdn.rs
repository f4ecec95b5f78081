//! Continental-scale CDN simulation — Figures 11, 12, 13 and 14.
//!
//! The paper simulates a CDN's edge data centers across the US and Europe
//! for a full year: applications arrive at edge sites, and each policy
//! places them on servers within the application's latency limit.  Carbon is
//! accounted from the hourly intensity of the hosting zone.
//!
//! # The epoch re-placement engine
//!
//! The year is partitioned by an [`EpochSchedule`] (monthly, weekly or
//! daily).  At each epoch boundary the simulator re-solves placement against
//! the **forecast** mean intensity Ī over the epoch, served by a
//! [`CarbonIntensityService`] configured with the scenario's
//! [`ForecasterKind`] — this is the *decision* intensity of Section 4.2.
//! Realized carbon is then *accounted* from the actual hourly trace over the
//! same epoch (the assignment's energy re-priced at the epoch's true mean
//! intensity), so forecast error shows up as the gap between
//! [`EpochOutcome::decision_carbon_g`] and [`EpochOutcome::carbon_g`].  The
//! legacy monthly simulation is exactly the `Monthly` + `Oracle`
//! configuration (the default), which reproduces its results bit for bit.
//!
//! # Stateful re-placement
//!
//! The committed assignment is threaded from each epoch into the next as a
//! [`carbonedge_core::PlacementState`], so re-solves are *delta* placements:
//! the placer weighs the forecast carbon savings of every move against the
//! per-application migration cost of the configured
//! [`MigrationCostLevel`] (model-image transfer + downtime, in grams).
//! Moves are counted per epoch with [`carbonedge_core::AssignmentDiff`],
//! their migration carbon is charged into both the decision and the realized
//! totals, and [`MigrationCostLevel::Free`] reproduces the stateless
//! engine's decisions bit for bit while still reporting churn.

use crate::metrics::{PolicyOutcome, Savings};
use crate::serving::{ServingEngine, ServingMetrics, ServingMode};
use carbonedge_core::{
    IncrementalPlacer, MigrationCostLevel, PairLatencyCache, PlacementPolicy, PlacementProblem,
    PlacementState, ServerSnapshot,
};
use carbonedge_datasets::zones::ZoneArea;
use carbonedge_datasets::{EdgeSiteCatalog, ZoneCatalog};
use carbonedge_grid::{CarbonIntensityService, CarbonTrace, EpochSchedule, ForecasterKind};
use carbonedge_net::LatencyModel;
use carbonedge_workload::{
    AppId, Application, ArrivalProcess, DeviceKind, ModelKind, RequestStream, WorkloadProfile,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Demand/capacity scenarios of Figure 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CdnScenario {
    /// Uniform demand and uniform capacity across sites ("Homo").
    Homogeneous,
    /// Demand proportional to metro population, capacity uniform ("Demand").
    PopulationDemand,
    /// Capacity proportional to metro population, demand uniform ("Capacity").
    PopulationCapacity,
}

impl CdnScenario {
    /// Display name used in Figure 14.
    pub fn name(&self) -> &'static str {
        match self {
            CdnScenario::Homogeneous => "Homo",
            CdnScenario::PopulationDemand => "Demand",
            CdnScenario::PopulationCapacity => "Capacity",
        }
    }
}

/// Configuration of a CDN-scale simulation.
#[derive(Debug, Clone)]
pub struct CdnConfig {
    /// Which continent to simulate (US or Europe).
    pub area: ZoneArea,
    /// Round-trip latency limit for every application (ms); 20 ms ≈ 500 km.
    pub latency_limit_ms: f64,
    /// Applications arriving per site per month.
    pub apps_per_site: usize,
    /// Number of servers per edge site in the homogeneous scenario.
    pub servers_per_site: usize,
    /// Device installed in the CDN servers.
    pub device: DeviceKind,
    /// Model served by the arriving applications.
    pub model: ModelKind,
    /// Per-application request rate (requests/second).
    pub request_rate_rps: f64,
    /// Demand/capacity scenario.
    pub scenario: CdnScenario,
    /// Optional cap on the number of edge sites (used to keep unit tests
    /// fast); `None` simulates the full catalog.
    pub site_limit: Option<usize>,
    /// Trace seed.
    pub seed: u64,
    /// How often the placement is re-solved over the year.
    pub epoch: EpochSchedule,
    /// Forecaster serving the decision intensity Ī at each epoch boundary.
    pub forecaster: ForecasterKind,
    /// Per-application migration cost charged when a re-solve moves an
    /// application off its incumbent server.
    pub migration: MigrationCostLevel,
    /// How demand is served: hour-aggregated (the legacy model) or through
    /// the batched event-level loop (with or without the online
    /// re-placement trigger).
    pub serving: ServingMode,
    /// Hour-of-day modulation of the event-level request streams (its
    /// `mean` field is ignored; each stream scales by the app's rate).
    pub arrivals: ArrivalProcess,
    /// Relative per-site demand drift that triggers a mid-epoch re-solve
    /// under [`ServingMode::OnlineReplace`].
    pub drift_threshold: f64,
    /// Hours a fresh decision is exempt from the drift trigger.
    pub drift_cooldown_hours: usize,
}

impl CdnConfig {
    /// The paper's default CDN setup for an area: 20 ms RTT limit, ResNet50
    /// on NVIDIA A2 servers, homogeneous demand and capacity.
    pub fn new(area: ZoneArea) -> Self {
        Self {
            area,
            latency_limit_ms: 20.0,
            apps_per_site: 1,
            servers_per_site: 4,
            device: DeviceKind::A2,
            model: ModelKind::ResNet50,
            request_rate_rps: 15.0,
            scenario: CdnScenario::Homogeneous,
            site_limit: None,
            seed: 42,
            epoch: EpochSchedule::Monthly,
            forecaster: ForecasterKind::Oracle,
            migration: MigrationCostLevel::Free,
            serving: ServingMode::Aggregate,
            arrivals: ArrivalProcess::diurnal_bursty(),
            drift_threshold: 0.5,
            drift_cooldown_hours: 24,
        }
    }

    /// Sets the latency limit (Figure 12 sweeps 5–30 ms).
    pub fn with_latency_limit(mut self, ms: f64) -> Self {
        self.latency_limit_ms = ms;
        self
    }

    /// Sets the scenario (Figure 14).
    pub fn with_scenario(mut self, scenario: CdnScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Restricts the simulation to the first `n` sites of the area.
    pub fn with_site_limit(mut self, n: usize) -> Self {
        self.site_limit = Some(n);
        self
    }

    /// Sets the re-placement schedule.
    pub fn with_epoch(mut self, epoch: EpochSchedule) -> Self {
        self.epoch = epoch;
        self
    }

    /// Sets the forecaster serving the decision intensity.
    pub fn with_forecaster(mut self, forecaster: ForecasterKind) -> Self {
        self.forecaster = forecaster;
        self
    }

    /// Sets the migration-cost calibration charged per move.
    pub fn with_migration(mut self, migration: MigrationCostLevel) -> Self {
        self.migration = migration;
        self
    }

    /// Sets the serving mode (aggregate, event-level, or event-level with
    /// the online re-placement trigger).
    pub fn with_serving(mut self, serving: ServingMode) -> Self {
        self.serving = serving;
        self
    }

    /// Sets the arrival modulation of the event-level request streams.
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sets the online re-placement trigger: relative demand drift and the
    /// per-decision cooldown before the trigger re-arms.
    pub fn with_drift(mut self, threshold: f64, cooldown_hours: usize) -> Self {
        self.drift_threshold = threshold;
        self.drift_cooldown_hours = cooldown_hours;
        self
    }
}

/// Per-month outcome of one policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonthlyOutcome {
    /// Total carbon for the month, grams.
    pub carbon_g: f64,
    /// Total energy for the month, joules.
    pub energy_j: f64,
    /// Mean round-trip latency of placed applications, ms.
    pub mean_latency_ms: f64,
}

/// Outcome of one placement epoch, separating the carbon the placer
/// *decided* against (forecast intensities) from the carbon it *realized*
/// (the actual trace over the epoch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochOutcome {
    /// Position in the schedule.
    pub index: usize,
    /// First hour of the epoch.
    pub start: carbonedge_grid::HourOfYear,
    /// Hours the epoch spans.
    pub hours: usize,
    /// Realized carbon: the decision's energy re-priced at the epoch's
    /// actual mean intensity per zone, grams.
    pub carbon_g: f64,
    /// Carbon the placer expected under the forecast intensities, grams.
    pub decision_carbon_g: f64,
    /// Total energy over the epoch, joules (independent of intensity).
    pub energy_j: f64,
    /// Mean round-trip latency of placed applications, ms.
    pub mean_latency_ms: f64,
    /// Applications placed in this epoch.
    pub placed_apps: usize,
    /// Applications moved off their previous epoch's server (0 in the
    /// first epoch — there is no incumbent yet).
    pub moves: usize,
    /// Migration carbon charged for those moves, grams; included in both
    /// `carbon_g` and `decision_carbon_g`.
    pub migration_carbon_g: f64,
}

/// Result of running one policy over the full year.
#[derive(Debug, Clone)]
pub struct CdnResult {
    /// Policy name.
    pub policy: String,
    /// Aggregated *realized* outcome over the year.
    pub outcome: PolicyOutcome,
    /// Total carbon the placer expected under its forecasts, grams; the gap
    /// to `outcome.carbon_g` is the aggregate forecast pricing error.
    pub decision_carbon_g: f64,
    /// Per-month outcomes (12 entries).  Under non-monthly schedules each
    /// epoch is attributed to the calendar month containing its first hour.
    pub monthly: Vec<MonthlyOutcome>,
    /// Per-epoch outcomes in schedule order.
    pub epochs: Vec<EpochOutcome>,
    /// Per-site application counts per month (`[month][site]`, Figure 13d);
    /// epochs are attributed to the month of their first hour.
    pub placements_per_site: Vec<Vec<usize>>,
    /// The realized mean carbon intensity of the zone each placed
    /// application landed in (one sample per app-epoch, Figure 11c).
    pub assigned_intensity: Vec<f64>,
    /// Site names in `placements_per_site` column order.
    pub site_names: Vec<String>,
    /// Simplex pivots the placer's exact path spent over the run (0 for
    /// heuristic-only runs) — the epoch-to-epoch warm-restart work.
    pub solver_pivots: usize,
    /// Number of epochs decided by the exact MILP path.
    pub exact_decisions: usize,
    /// Applications moved between servers across all epoch boundaries (the
    /// run's churn).
    pub moves: usize,
    /// Total migration carbon charged for those moves, grams; included in
    /// `outcome.carbon_g` and `decision_carbon_g`.
    pub migration_carbon_g: f64,
    /// Event-level serving metrics (`None` under
    /// [`ServingMode::Aggregate`], which leaves the legacy result
    /// untouched).
    pub serving: Option<ServingMetrics>,
}

impl CdnResult {
    /// Applications assigned to a named site per month.
    pub fn monthly_placements_for(&self, site_name: &str) -> Option<Vec<usize>> {
        let idx = self.site_names.iter().position(|n| n == site_name)?;
        Some(self.placements_per_site.iter().map(|m| m[idx]).collect())
    }
}

/// Immutable inputs shared by every CDN simulation: the worldwide zone
/// catalog, the Akamai-like edge-site catalog derived from it, and a cache of
/// generated carbon traces keyed by seed.
///
/// Building traces is the expensive part of `CdnSimulator::new` (a year of
/// hourly values for every zone), and a scenario sweep instantiates dozens to
/// thousands of simulators that differ only in policy, latency limit or
/// demand scenario.  Sharing one `CdnShared` across those cells makes
/// simulator construction an `Arc` clone plus a site-list copy, and is safe
/// to use concurrently from the sweep executor's worker threads.
pub struct CdnShared {
    catalog: Arc<ZoneCatalog>,
    site_catalog: EdgeSiteCatalog,
    /// Per-seed trace slots.  The map mutex is only held for slot lookup;
    /// generation happens inside the seed's own `OnceLock`, so concurrent
    /// requests for *different* seeds generate in parallel while concurrent
    /// requests for the *same* seed generate exactly once.
    traces_by_seed: Mutex<HashMap<u64, TraceSlot>>,
    /// Per-scenario preparation slots, same lookup/init discipline as
    /// `traces_by_seed`: the mutex is held only to find the slot, the
    /// (expensive) prep build happens inside the scenario's own `OnceLock`.
    preps: Mutex<HashMap<PrepKey, PrepSlot>>,
}

/// A year of traces for every zone, shared across simulators.
type SharedTraces = Arc<Vec<CarbonTrace>>;
/// A lazily initialized per-seed cache slot.
type TraceSlot = Arc<OnceLock<SharedTraces>>;
/// A lazily initialized per-scenario prep slot.
type PrepSlot = Arc<OnceLock<Arc<ScenarioPrep>>>;

/// The configuration fields a [`ScenarioPrep`] depends on: everything that
/// shapes the deployment, the traces, the epoch schedule, or the forecast —
/// but **not** the policy, migration costs, serving mode, arrival
/// modulation or drift trigger, which only steer how the shared inputs are
/// consumed.  Sweep cells differing in those consumer axes therefore share
/// one prep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PrepKey {
    area: ZoneArea,
    scenario: CdnScenario,
    latency_bits: u64,
    rate_bits: u64,
    apps_per_site: usize,
    servers_per_site: usize,
    device: DeviceKind,
    model: ModelKind,
    site_limit: Option<usize>,
    seed: u64,
    epoch: EpochSchedule,
    forecaster: ForecasterKind,
}

impl PrepKey {
    fn of(config: &CdnConfig) -> Self {
        Self {
            area: config.area,
            scenario: config.scenario,
            latency_bits: config.latency_limit_ms.to_bits(),
            rate_bits: config.request_rate_rps.to_bits(),
            apps_per_site: config.apps_per_site,
            servers_per_site: config.servers_per_site,
            device: config.device,
            model: config.model,
            site_limit: config.site_limit,
            seed: config.seed,
            epoch: config.epoch,
            forecaster: config.forecaster,
        }
    }
}

/// Scenario-level preparation computed once per `PrepKey` and consumed by
/// every policy/migration/serving variant of the scenario: the per-epoch
/// per-site decision (forecast) and accounting (actual) mean intensities,
/// the mean metro population the demand/capacity scenarios normalize by,
/// and the site-to-site round-trip latency matrix over the epoch-invariant
/// deployment shape.
///
/// Every cached value is produced by exactly the statement sequence the
/// cold path executes (epochs in schedule order, sites in catalog order,
/// one intensity scan per distinct zone per window), so a prepped run is
/// bit-identical to a cold run — the invariant pinned by the sim crate's
/// shared-vs-standalone test and the sweep crate's `sweep_delta`
/// differential.
pub struct ScenarioPrep {
    mean_population: f64,
    /// `[epoch.index][site]` → (decision mean, actual mean) intensity.
    epoch_site_means: Vec<Vec<(f64, f64)>>,
    /// Pair round-trip latencies with app/server classes = site indices.
    latency: Arc<PairLatencyCache>,
}

impl CdnShared {
    /// Builds the shared catalogs (traces are generated lazily per seed).
    pub fn new() -> Self {
        let catalog = Arc::new(ZoneCatalog::worldwide());
        let site_catalog = EdgeSiteCatalog::akamai_like(&catalog);
        Self {
            catalog,
            site_catalog,
            traces_by_seed: Mutex::new(HashMap::new()),
            preps: Mutex::new(HashMap::new()),
        }
    }

    /// The shared worldwide zone catalog.
    pub fn catalog(&self) -> &Arc<ZoneCatalog> {
        &self.catalog
    }

    /// The traces for a seed, generating and caching them on first use.
    ///
    /// Both caches are monotone insert-only maps of lazily initialized
    /// slots, so a lock poisoned by a panicking sweep worker is still
    /// structurally sound — recover the guard instead of cascading the
    /// panic into every other worker.
    pub fn traces(&self, seed: u64) -> Arc<Vec<CarbonTrace>> {
        let slot = {
            let mut cache = self
                .traces_by_seed
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            Arc::clone(cache.entry(seed).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(self.catalog.generate_traces(seed))))
    }

    /// Number of distinct seeds whose traces are cached (generated).
    pub fn cached_seed_count(&self) -> usize {
        self.traces_by_seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Number of distinct scenarios whose preparation is cached (built).
    pub fn cached_prep_count(&self) -> usize {
        self.preps
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Builds a simulator for a configuration on the shared catalogs, with
    /// the scenario preparation attached: epoch intensity means, demand
    /// aggregates and the pair-latency matrix are computed once per
    /// `PrepKey` and reused by every policy/migration/serving variant.
    pub fn simulator(&self, config: CdnConfig) -> CdnSimulator {
        let mut sim = self.cold_simulator(config);
        let slot = {
            let mut cache = self.preps.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(cache.entry(PrepKey::of(&sim.config)).or_default())
        };
        sim.prep = Some(Arc::clone(slot.get_or_init(|| Arc::new(sim.build_prep()))));
        sim
    }

    /// Builds a simulator **without** the scenario preparation: every run
    /// re-derives its epoch inputs from scratch.  This is the differential
    /// oracle the prepped path is tested against (`tests/sweep_delta.rs`
    /// and the shared-vs-standalone sim test); it is also what
    /// [`CdnSimulator::new`] returns.
    pub fn cold_simulator(&self, config: CdnConfig) -> CdnSimulator {
        let traces = self.traces(config.seed);
        let mut sites: Vec<_> = self
            .site_catalog
            .in_area(config.area)
            .iter()
            .map(|s| (s.name.clone(), s.location, s.zone, s.population_m))
            .collect();
        if let Some(limit) = config.site_limit {
            sites.truncate(limit);
        }
        CdnSimulator {
            config,
            catalog: Arc::clone(&self.catalog),
            traces,
            sites,
            latency_model: LatencyModel::deterministic(),
            prep: None,
        }
    }
}

impl Default for CdnShared {
    fn default() -> Self {
        Self::new()
    }
}

/// The CDN simulator: the catalog, traces and site list for one area.
pub struct CdnSimulator {
    config: CdnConfig,
    catalog: Arc<ZoneCatalog>,
    traces: Arc<Vec<CarbonTrace>>,
    /// (site name, location, zone, population) restricted to the area.
    sites: Vec<(
        String,
        carbonedge_geo::Coordinates,
        carbonedge_grid::ZoneId,
        f64,
    )>,
    latency_model: LatencyModel,
    /// Scenario preparation attached by [`CdnShared::simulator`]; `None`
    /// for standalone/cold simulators, which re-derive every epoch's
    /// inputs from scratch.
    prep: Option<Arc<ScenarioPrep>>,
}

impl CdnSimulator {
    /// Builds a standalone simulator for a configuration, running on the
    /// cold (from-scratch) path.  Sweeps running many configurations should
    /// build one [`CdnShared`] and call [`CdnShared::simulator`] instead,
    /// which reuses catalogs, traces and the scenario preparation.
    pub fn new(config: CdnConfig) -> Self {
        CdnShared::new().cold_simulator(config)
    }

    /// Number of simulated edge sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The zone catalog backing the simulation.
    pub fn catalog(&self) -> &ZoneCatalog {
        &self.catalog
    }

    /// Monthly mean carbon intensity of a named zone (Figure 13c).
    pub fn monthly_intensity_of(&self, zone_name: &str) -> Option<Vec<f64>> {
        let id = self.catalog.id_of(zone_name)?;
        Some(
            (0..12)
                .map(|m| self.traces[id.index()].monthly_mean(m))
                .collect(),
        )
    }

    fn capacity_multiplier(&self, population: f64, mean_population: f64) -> usize {
        match self.config.scenario {
            CdnScenario::PopulationCapacity => ((population / mean_population)
                * self.config.servers_per_site as f64)
                .round()
                // lint:allow(lossy-cast): rounded and clamped to >= 1.0 above, so the cast is exact
                .max(1.0) as usize,
            _ => self.config.servers_per_site,
        }
    }

    fn demand_for_site(&self, population: f64, mean_population: f64) -> usize {
        match self.config.scenario {
            CdnScenario::PopulationDemand => ((population / mean_population)
                * self.config.apps_per_site as f64)
                .round()
                // lint:allow(lossy-cast): rounded and clamped to >= 0.0 above, so the cast is exact
                .max(0.0) as usize,
            _ => self.config.apps_per_site,
        }
    }

    /// Runs the year-long simulation for one policy with the default
    /// heuristic placer.
    pub fn run(&self, policy: PlacementPolicy) -> CdnResult {
        self.run_with(&IncrementalPlacer::new(policy).heuristic_only())
    }

    /// Runs the year-long simulation with a caller-provided placer, letting
    /// sweeps share one solver configuration across cells (see
    /// [`IncrementalPlacer::with_policy`]).
    ///
    /// At each epoch boundary of the configured [`EpochSchedule`] the
    /// placement is re-solved against the **forecast** mean intensity over
    /// the epoch ([`CarbonIntensityService::forecast_mean_over`] with the
    /// configured [`ForecasterKind`]); realized carbon is then accounted by
    /// re-pricing the committed assignment at the epoch's **actual** mean
    /// intensity from the hourly trace, plus the migration carbon of any
    /// moves off the previous epoch's committed assignment (which is
    /// threaded into each re-solve as a
    /// [`PlacementState`]).  Successive
    /// epochs build structurally identical placement problems — migration
    /// terms are folded into the costs, never into the constraint matrix —
    /// so a placer on the exact path warm-restarts each re-solve from the
    /// previous optimal basis (cost-only changes restart primal phase-2);
    /// the per-run pivot count is surfaced as [`CdnResult::solver_pivots`].
    pub fn run_with(&self, placer: &IncrementalPlacer) -> CdnResult {
        match self.config.serving {
            ServingMode::OnlineReplace => self.run_online(placer),
            _ => self.run_epochal(placer),
        }
    }

    /// Builds the placement inputs for one decision window: server
    /// snapshots priced at the forecast mean intensity over the window, the
    /// server→site map, the per-server *actual* window-mean intensity kept
    /// aside for accounting, and the applications demanding placement.
    /// Shared by the epoch-boundary path and the online re-placement path;
    /// the statement sequence is identical to the legacy inline loop, so
    /// the aggregate path stays bit-exact.
    #[allow(clippy::type_complexity)]
    fn build_epoch_inputs(
        &self,
        window_start: carbonedge_grid::HourOfYear,
        window_hours: usize,
        service: &CarbonIntensityService,
        mean_population: f64,
    ) -> (Vec<ServerSnapshot>, Vec<usize>, Vec<f64>, Vec<Application>) {
        let site_means = self.site_means_for_window(window_start, window_hours, service);
        self.assemble_epoch_inputs(mean_population, &site_means)
    }

    /// The per-site (decision, actual) mean intensities for one window:
    /// decision = the *forecast* mean for the site's zone over the window
    /// (the decision intensity Ī of Section 4.2), actual = the trace's true
    /// window mean, kept aside for accounting.  Both depend only on
    /// (zone, window); sites sharing a zone reuse them instead of
    /// re-scanning the trace window per site.  The prep cache stores these
    /// vectors per epoch, produced by this exact routine, so prepped and
    /// cold runs see identical bits.
    fn site_means_for_window(
        &self,
        window_start: carbonedge_grid::HourOfYear,
        window_hours: usize,
        service: &CarbonIntensityService,
    ) -> Vec<(f64, f64)> {
        let mut zone_means: HashMap<carbonedge_grid::ZoneId, (f64, f64)> = HashMap::new();
        self.sites
            .iter()
            .map(|(_, _, zone, _)| {
                *zone_means.entry(*zone).or_insert_with(|| {
                    (
                        service.forecast_mean_over(*zone, window_start, window_hours),
                        self.traces[zone.index()]
                            .window_mean(window_start, window_hours)
                            .max(0.0),
                    )
                })
            })
            .collect()
    }

    /// Materializes the placement inputs from per-site window means:
    /// server snapshots (capacity per site according to the scenario,
    /// priced at the decision mean), the server→site map, the per-server
    /// actual mean for accounting, and the arriving applications (demand
    /// per site according to the scenario).
    #[allow(clippy::type_complexity)]
    fn assemble_epoch_inputs(
        &self,
        mean_population: f64,
        site_means: &[(f64, f64)],
    ) -> (Vec<ServerSnapshot>, Vec<usize>, Vec<f64>, Vec<Application>) {
        let mut servers = Vec::new();
        let mut server_site = Vec::new();
        let mut actual_by_server = Vec::new();
        for (site_idx, (_, loc, zone, pop)) in self.sites.iter().enumerate() {
            let count = self.capacity_multiplier(*pop, mean_population);
            let (decided, actual) = site_means[site_idx];
            for _ in 0..count {
                servers.push(
                    ServerSnapshot::new(servers.len(), site_idx, *zone, self.config.device, *loc)
                        .with_carbon_intensity(decided),
                );
                server_site.push(site_idx);
                actual_by_server.push(actual);
            }
        }
        let mut apps = Vec::new();
        for (_, loc, _, pop) in &self.sites {
            let count = self.demand_for_site(*pop, mean_population);
            for _ in 0..count {
                apps.push(Application::new(
                    AppId(apps.len()),
                    self.config.model,
                    self.config.request_rate_rps,
                    self.config.latency_limit_ms,
                    *loc,
                    0,
                ));
            }
        }
        (servers, server_site, actual_by_server, apps)
    }

    /// Mean metro population across the simulated sites — the normalizer of
    /// the population-proportional demand/capacity scenarios.
    fn mean_population(&self) -> f64 {
        self.sites.iter().map(|(_, _, _, p)| *p).sum::<f64>() / self.sites.len().max(1) as f64
    }

    /// Builds the scenario preparation for this simulator's configuration:
    /// replays the cold path's exact intensity-scan sequence over every
    /// epoch of the schedule, and precomputes the site-to-site round-trip
    /// latency matrix over the epoch-invariant deployment shape (app and
    /// server location classes are site indices).
    fn build_prep(&self) -> ScenarioPrep {
        let mean_population = self.mean_population();
        let service = CarbonIntensityService::shared(Arc::clone(&self.traces))
            .with_forecaster(self.config.forecaster.build(), 1);
        let epoch_site_means = self
            .config
            .epoch
            .epochs()
            .into_iter()
            .map(|epoch| self.site_means_for_window(epoch.start, epoch.hours, &service))
            .collect();

        let sites = self.sites.len();
        let mut rtt_ms = vec![0.0f64; sites * sites];
        for (i, (_, a, _, _)) in self.sites.iter().enumerate() {
            for (j, (_, b, _, _)) in self.sites.iter().enumerate() {
                // The same pure call `PlacementProblem::latency_ms` would
                // make: identical coordinates, identical bits.
                rtt_ms[i * sites + j] = self.latency_model.round_trip_ms(*a, *b);
            }
        }
        let mut server_class = Vec::new();
        let mut app_class = Vec::new();
        for (site_idx, (_, _, _, pop)) in self.sites.iter().enumerate() {
            for _ in 0..self.capacity_multiplier(*pop, mean_population) {
                server_class.push(site_idx as u32);
            }
        }
        for (site_idx, (_, _, _, pop)) in self.sites.iter().enumerate() {
            for _ in 0..self.demand_for_site(*pop, mean_population) {
                app_class.push(site_idx as u32);
            }
        }
        ScenarioPrep {
            mean_population,
            epoch_site_means,
            latency: Arc::new(PairLatencyCache::new(
                app_class,
                server_class,
                rtt_ms,
                sites,
            )),
        }
    }

    /// Builds the event-level serving engine for this deployment: one
    /// request stream per application (seeded from its (app, origin-site)
    /// pair and the trace seed), per-site capacities matching the scenario's
    /// server counts, and the profiled service time of the configured
    /// (model, device) pair.
    fn build_serving_engine(&self) -> ServingEngine {
        let mean_population = self.mean_population();
        let mut streams = Vec::new();
        for (site_idx, (_, _, _, pop)) in self.sites.iter().enumerate() {
            let count = self.demand_for_site(*pop, mean_population);
            for _ in 0..count {
                streams.push(RequestStream::new(
                    streams.len(),
                    site_idx,
                    self.config.request_rate_rps,
                    self.config.arrivals,
                    self.config.seed,
                ));
            }
        }
        let locations: Vec<_> = self.sites.iter().map(|(_, loc, _, _)| *loc).collect();
        let servers_per_site: Vec<usize> = self
            .sites
            .iter()
            .map(|(_, _, _, pop)| self.capacity_multiplier(*pop, mean_population))
            .collect();
        let profile = WorkloadProfile::lookup(self.config.model, self.config.device)
            .expect("CDN simulations use profiled (model, device) pairs");
        ServingEngine::new(
            streams,
            &locations,
            &servers_per_site,
            profile.max_throughput_rps(),
            profile.processing_time_ms,
            &self.latency_model,
        )
    }

    /// The epoch-boundary engine: one placement decision per epoch of the
    /// configured schedule.  [`ServingMode::Aggregate`] runs exactly the
    /// legacy loop; [`ServingMode::EventLevel`] additionally streams every
    /// epoch through the batched serving loop (the placement and carbon
    /// numbers are identical — serving metrics ride on top).
    fn run_epochal(&self, placer: &IncrementalPlacer) -> CdnResult {
        let mean_population = match &self.prep {
            Some(prep) => prep.mean_population,
            None => self.mean_population(),
        };
        let service = CarbonIntensityService::shared(Arc::clone(&self.traces))
            .with_forecaster(self.config.forecaster.build(), 1);
        let per_app_migration = self
            .config
            .migration
            .cost_for(self.config.model, self.config.device);
        let mut serving_engine = self
            .config
            .serving
            .is_event_level()
            .then(|| self.build_serving_engine());

        let mut outcome = PolicyOutcome::default();
        let mut decision_carbon_total = 0.0f64;
        let mut placements_per_site = vec![vec![0usize; self.sites.len()]; 12];
        let mut assigned_intensity = Vec::new();
        let mut epochs = Vec::with_capacity(self.config.epoch.epoch_count());
        let pivots_before = placer.milp_solver.accumulated_pivots();
        let mut exact_decisions = 0usize;
        let mut moves_total = 0usize;
        let mut migration_total = 0.0f64;
        // The committed assignment of the previous epoch — the incumbent the
        // next delta re-solve is charged against.
        let mut committed: Option<Vec<Option<usize>>> = None;

        for epoch in self.config.epoch.epochs() {
            let month = epoch.start.month();
            // A prepped simulator reads the epoch's per-site means straight
            // from the scenario cache; the cold path re-derives them from
            // the forecaster and trace (the differential oracle).
            let (servers, server_site, actual_by_server, apps) = match self
                .prep
                .as_ref()
                .and_then(|p| p.epoch_site_means.get(epoch.index))
            {
                Some(site_means) => self.assemble_epoch_inputs(mean_population, site_means),
                None => {
                    self.build_epoch_inputs(epoch.start, epoch.hours, &service, mean_population)
                }
            };
            if apps.is_empty() || servers.is_empty() {
                epochs.push(EpochOutcome {
                    index: epoch.index,
                    start: epoch.start,
                    hours: epoch.hours,
                    carbon_g: 0.0,
                    decision_carbon_g: 0.0,
                    energy_j: 0.0,
                    mean_latency_ms: 0.0,
                    placed_apps: 0,
                    moves: 0,
                    migration_carbon_g: 0.0,
                });
                continue;
            }
            let app_count = apps.len();
            let mut problem = PlacementProblem::new(servers, apps, epoch.hours as f64)
                .with_latency_model(self.latency_model.clone());
            if let Some(prep) = &self.prep {
                problem = problem.with_latency_cache(Arc::clone(&prep.latency));
            }
            // Delta re-placement: every epoch after the first is solved
            // against the previous epoch's committed assignment, so the
            // placer weighs each move's forecast savings against its
            // migration cost (the deployment shape is epoch-invariant, so
            // incumbent server indices stay valid).
            if let Some(previous) = committed.take() {
                problem = problem.with_state(PlacementState::new(
                    previous,
                    vec![per_app_migration; app_count],
                ));
            }
            let decision = placer
                .place(&problem)
                .expect("CDN placement has feasible options");
            if decision.exact {
                exact_decisions += 1;
            }

            // Accounting: re-price the identical problem at the realized
            // epoch-mean intensities — the only field that differs from the
            // decision problem, so a zero-error forecast reproduces the
            // decision carbon bit for bit.  Migration carbon is a fixed
            // per-move charge, identical under decision and realized
            // pricing.
            for (server, actual) in problem.servers.iter_mut().zip(&actual_by_server) {
                server.carbon_intensity = *actual;
            }
            let realized_carbon_g = problem
                .total_carbon_g(&decision.assignment)
                .expect("committed assignment stays feasible")
                + decision.migration_carbon_g;

            let placed = decision.assignment.iter().flatten().count();
            outcome.accumulate(&PolicyOutcome {
                carbon_g: realized_carbon_g,
                energy_j: decision.total_energy_j,
                mean_latency_ms: decision.mean_latency_ms,
                placed_apps: placed,
            });
            decision_carbon_total += decision.total_carbon_g + decision.migration_carbon_g;
            moves_total += decision.moves;
            migration_total += decision.migration_carbon_g;
            epochs.push(EpochOutcome {
                index: epoch.index,
                start: epoch.start,
                hours: epoch.hours,
                carbon_g: realized_carbon_g,
                decision_carbon_g: decision.total_carbon_g + decision.migration_carbon_g,
                energy_j: decision.total_energy_j,
                mean_latency_ms: decision.mean_latency_ms,
                placed_apps: placed,
                moves: decision.moves,
                migration_carbon_g: decision.migration_carbon_g,
            });

            for assignment in decision.assignment.iter().flatten() {
                let site = server_site[*assignment];
                placements_per_site[month][site] += 1;
                assigned_intensity.push(problem.servers[*assignment].carbon_intensity);
            }
            // Event-level serving rides on top of the identical placement:
            // stream the epoch's request batches through the site queues.
            if let Some(engine) = serving_engine.as_mut() {
                engine.load_epoch(epoch.start.index(), epoch.hours);
                engine.set_assignment(&decision.assignment, &server_site, |app, server| {
                    problem.latency_ms(app, server)
                });
                engine.serve_hours(0, epoch.hours, f64::INFINITY, 0);
            }
            committed = Some(decision.assignment);
        }

        CdnResult {
            policy: placer.policy.name(),
            outcome,
            decision_carbon_g: decision_carbon_total,
            monthly: Self::monthly_from_epochs(&epochs),
            epochs,
            placements_per_site,
            assigned_intensity,
            site_names: self.sites.iter().map(|(n, _, _, _)| n.clone()).collect(),
            solver_pivots: placer.milp_solver.accumulated_pivots() - pivots_before,
            exact_decisions,
            moves: moves_total,
            migration_carbon_g: migration_total,
            serving: serving_engine.map(ServingEngine::finish),
        }
    }

    /// The online re-placement engine ([`ServingMode::OnlineReplace`]): the
    /// epoch schedule still paces the *baseline* decisions, but within an
    /// epoch the event-level loop watches observed per-site demand against
    /// the decision's assumption and re-solves the remaining window as soon
    /// as the relative drift exceeds [`CdnConfig::drift_threshold`] (after a
    /// [`CdnConfig::drift_cooldown_hours`] grace period).  Each re-solve is
    /// a delta placement against the committed incumbent with the
    /// configured migration costs, exactly like an epoch boundary; carbon
    /// is decided and accounted per *segment* (the hours a decision
    /// actually served), so an oracle forecast still realizes exactly what
    /// it promised.
    fn run_online(&self, placer: &IncrementalPlacer) -> CdnResult {
        // Online windows are cut by the drift trigger, so their intensity
        // means cannot be precomputed — only the epoch-invariant parts of
        // the prep (mean population, the pair-latency matrix) apply here.
        let mean_population = match &self.prep {
            Some(prep) => prep.mean_population,
            None => self.mean_population(),
        };
        let service = CarbonIntensityService::shared(Arc::clone(&self.traces))
            .with_forecaster(self.config.forecaster.build(), 1);
        let per_app_migration = self
            .config
            .migration
            .cost_for(self.config.model, self.config.device);
        let mut engine = self.build_serving_engine();

        let mut outcome = PolicyOutcome::default();
        let mut decision_carbon_total = 0.0f64;
        let mut placements_per_site = vec![vec![0usize; self.sites.len()]; 12];
        let mut assigned_intensity = Vec::new();
        let mut epochs = Vec::with_capacity(self.config.epoch.epoch_count());
        let pivots_before = placer.milp_solver.accumulated_pivots();
        let mut exact_decisions = 0usize;
        let mut moves_total = 0usize;
        let mut migration_total = 0.0f64;
        let mut committed: Option<Vec<Option<usize>>> = None;

        for epoch in self.config.epoch.epochs() {
            engine.load_epoch(epoch.start.index(), epoch.hours);
            let mut ep = EpochOutcome {
                index: epoch.index,
                start: epoch.start,
                hours: epoch.hours,
                carbon_g: 0.0,
                decision_carbon_g: 0.0,
                energy_j: 0.0,
                mean_latency_ms: 0.0,
                placed_apps: 0,
                moves: 0,
                migration_carbon_g: 0.0,
            };
            let mut latency_weighted = 0.0f64;
            let mut latency_weight = 0usize;
            let mut offset = 0usize;
            let mut first_segment = true;
            while offset < epoch.hours {
                let window_start = epoch.start.plus(offset);
                let window_hours = epoch.hours - offset;
                // Decide against the forecast over the *remaining* window —
                // the freshest view the placer can have mid-epoch.
                let (servers, server_site, _, apps) =
                    self.build_epoch_inputs(window_start, window_hours, &service, mean_population);
                if apps.is_empty() || servers.is_empty() {
                    break;
                }
                let app_count = apps.len();
                let problem = {
                    let mut p = PlacementProblem::new(servers, apps, window_hours as f64)
                        .with_latency_model(self.latency_model.clone());
                    if let Some(prep) = &self.prep {
                        p = p.with_latency_cache(Arc::clone(&prep.latency));
                    }
                    match committed.take() {
                        Some(previous) => p.with_state(PlacementState::new(
                            previous,
                            vec![per_app_migration; app_count],
                        )),
                        None => p,
                    }
                };
                let decision = placer
                    .place(&problem)
                    .expect("CDN placement has feasible options");
                if decision.exact {
                    exact_decisions += 1;
                }

                // Serve under this decision until the drift trigger fires
                // or the epoch ends.
                engine.set_assignment(&decision.assignment, &server_site, |app, server| {
                    problem.latency_ms(app, server)
                });
                let (segment_hours, _fired) = engine.serve_hours(
                    offset,
                    epoch.hours,
                    self.config.drift_threshold,
                    self.config.drift_cooldown_hours,
                );

                // Price the segment the decision actually served: decision
                // carbon at the forecast mean over the segment, realized
                // carbon at the actual mean — an oracle forecast makes the
                // two identical, exactly like the epoch-boundary engine.
                let (seg_servers, seg_server_site, seg_actual, seg_apps) =
                    self.build_epoch_inputs(window_start, segment_hours, &service, mean_population);
                let mut pricing =
                    PlacementProblem::new(seg_servers, seg_apps, segment_hours as f64)
                        .with_latency_model(self.latency_model.clone());
                if let Some(prep) = &self.prep {
                    pricing = pricing.with_latency_cache(Arc::clone(&prep.latency));
                }
                let seg_decision_g = pricing
                    .total_carbon_g(&decision.assignment)
                    .expect("committed assignment stays feasible")
                    + decision.migration_carbon_g;
                for (server, actual) in pricing.servers.iter_mut().zip(&seg_actual) {
                    server.carbon_intensity = *actual;
                }
                let seg_realized_g = pricing
                    .total_carbon_g(&decision.assignment)
                    .expect("committed assignment stays feasible")
                    + decision.migration_carbon_g;
                let seg_energy_j = pricing
                    .total_energy_j(&decision.assignment)
                    .expect("committed assignment stays feasible");

                let placed = decision.assignment.iter().flatten().count();
                ep.carbon_g += seg_realized_g;
                ep.decision_carbon_g += seg_decision_g;
                ep.energy_j += seg_energy_j;
                ep.moves += decision.moves;
                ep.migration_carbon_g += decision.migration_carbon_g;
                latency_weighted += decision.mean_latency_ms * placed as f64;
                latency_weight += placed;
                if first_segment {
                    ep.placed_apps = placed;
                    first_segment = false;
                }
                moves_total += decision.moves;
                migration_total += decision.migration_carbon_g;

                let month = window_start.month();
                for assignment in decision.assignment.iter().flatten() {
                    let site = seg_server_site[*assignment];
                    placements_per_site[month][site] += 1;
                    assigned_intensity.push(pricing.servers[*assignment].carbon_intensity);
                }
                committed = Some(decision.assignment);
                offset += segment_hours;
            }
            if latency_weight > 0 {
                ep.mean_latency_ms = latency_weighted / latency_weight as f64;
            }
            outcome.accumulate(&PolicyOutcome {
                carbon_g: ep.carbon_g,
                energy_j: ep.energy_j,
                mean_latency_ms: ep.mean_latency_ms,
                placed_apps: ep.placed_apps,
            });
            decision_carbon_total += ep.decision_carbon_g;
            epochs.push(ep);
        }

        CdnResult {
            policy: placer.policy.name(),
            outcome,
            decision_carbon_g: decision_carbon_total,
            monthly: Self::monthly_from_epochs(&epochs),
            epochs,
            placements_per_site,
            assigned_intensity,
            site_names: self.sites.iter().map(|(n, _, _, _)| n.clone()).collect(),
            solver_pivots: placer.milp_solver.accumulated_pivots() - pivots_before,
            exact_decisions,
            moves: moves_total,
            migration_carbon_g: migration_total,
            serving: Some(engine.finish()),
        }
    }

    /// Post-processes the per-epoch outcomes into the 12 calendar-month
    /// aggregates (each epoch attributed to the month containing its first
    /// hour).  Months are independent, so they are aggregated in parallel on
    /// the rayon worker pool; within a month, epochs fold in schedule order
    /// with the exact f64 operation sequence of the old inline loop — the
    /// first epoch assigns the fields directly instead of flowing through
    /// the weighted update (`(lat * p) / p` is not bit-exact `lat`), so the
    /// monthly view reproduces the legacy per-month numbers bit for bit for
    /// any worker count.
    fn monthly_from_epochs(epochs: &[EpochOutcome]) -> Vec<MonthlyOutcome> {
        let mut slots: Vec<(usize, MonthlyOutcome)> =
            (0..12).map(|m| (m, MonthlyOutcome::default())).collect();
        slots.par_iter_mut().for_each(|(month, out)| {
            let mut placed_so_far = 0usize;
            let mut seen = false;
            for epoch in epochs.iter().filter(|e| e.start.month() == *month) {
                if !seen {
                    seen = true;
                    *out = MonthlyOutcome {
                        carbon_g: epoch.carbon_g,
                        energy_j: epoch.energy_j,
                        mean_latency_ms: epoch.mean_latency_ms,
                    };
                    placed_so_far = epoch.placed_apps;
                } else {
                    let total_placed = placed_so_far + epoch.placed_apps;
                    if total_placed > 0 {
                        out.mean_latency_ms = (out.mean_latency_ms * placed_so_far as f64
                            + epoch.mean_latency_ms * epoch.placed_apps as f64)
                            / total_placed as f64;
                    }
                    out.carbon_g += epoch.carbon_g;
                    out.energy_j += epoch.energy_j;
                    placed_so_far = total_placed;
                }
            }
        });
        slots.into_iter().map(|(_, monthly)| monthly).collect()
    }

    /// Runs CarbonEdge and the Latency-aware baseline and returns
    /// `(carbonedge, latency_aware, savings)` — the comparison reported in
    /// Figures 11–14.
    pub fn compare(&self) -> (CdnResult, CdnResult, Savings) {
        let baseline = self.run(PlacementPolicy::LatencyAware);
        let carbonedge = self.run(PlacementPolicy::CarbonAware);
        let savings = Savings::versus(&carbonedge.outcome, &baseline.outcome);
        (carbonedge, baseline, savings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(area: ZoneArea) -> CdnConfig {
        CdnConfig::new(area).with_site_limit(60)
    }

    #[test]
    fn carbonedge_saves_substantial_carbon_in_both_continents() {
        // Figure 11a: 49.5% (US) and 67.8% (Europe) with a 20 ms limit.
        let us = CdnSimulator::new(small_config(ZoneArea::UnitedStates))
            .compare()
            .2;
        let eu = CdnSimulator::new(small_config(ZoneArea::Europe))
            .compare()
            .2;
        assert!(us.carbon_percent > 20.0, "US savings {}", us.carbon_percent);
        assert!(eu.carbon_percent > 40.0, "EU savings {}", eu.carbon_percent);
        assert!(
            eu.carbon_percent > us.carbon_percent,
            "Europe should save more: US {} EU {}",
            us.carbon_percent,
            eu.carbon_percent
        );
    }

    #[test]
    fn latency_increase_stays_within_the_limit() {
        // Figure 11b: mean round-trip latency increases by ~11 ms under a
        // 20 ms limit — bounded by the limit itself.
        let (_, _, savings) = CdnSimulator::new(small_config(ZoneArea::Europe)).compare();
        assert!(savings.latency_increase_ms > 0.0);
        assert!(savings.latency_increase_ms <= 20.0 + 1e-6);
    }

    #[test]
    fn carbonedge_shifts_load_to_greener_zones() {
        // Figure 11c: the distribution of assigned-location carbon intensity
        // shifts left under CarbonEdge.
        let sim = CdnSimulator::new(small_config(ZoneArea::Europe));
        let (ce, la, _) = sim.compare();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(mean(&ce.assigned_intensity) < mean(&la.assigned_intensity));
    }

    #[test]
    fn tighter_latency_limits_reduce_savings() {
        // Figure 12a: savings grow with the latency limit.
        let tight = CdnSimulator::new(small_config(ZoneArea::Europe).with_latency_limit(5.0))
            .compare()
            .2;
        let loose = CdnSimulator::new(small_config(ZoneArea::Europe).with_latency_limit(30.0))
            .compare()
            .2;
        assert!(
            loose.carbon_percent > tight.carbon_percent + 5.0,
            "tight {} loose {}",
            tight.carbon_percent,
            loose.carbon_percent
        );
    }

    #[test]
    fn monthly_results_cover_the_year() {
        let sim = CdnSimulator::new(small_config(ZoneArea::UnitedStates));
        let result = sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(result.monthly.len(), 12);
        assert_eq!(result.placements_per_site.len(), 12);
        assert!(result.monthly.iter().all(|m| m.carbon_g > 0.0));
        // Savings vary by month but not wildly (Figure 13a shows <10% swings).
        let baseline = sim.run(PlacementPolicy::LatencyAware);
        let monthly_savings: Vec<f64> = result
            .monthly
            .iter()
            .zip(baseline.monthly.iter())
            .map(|(c, l)| (1.0 - c.carbon_g / l.carbon_g) * 100.0)
            .collect();
        let max = monthly_savings
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let min = monthly_savings
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max - min < 40.0, "monthly savings swing {max} - {min}");
    }

    #[test]
    fn population_skew_changes_savings_moderately() {
        // Figure 14: demand/capacity skew shifts savings by a few percent.
        let homo = CdnSimulator::new(small_config(ZoneArea::UnitedStates))
            .compare()
            .2;
        let demand = CdnSimulator::new(
            small_config(ZoneArea::UnitedStates).with_scenario(CdnScenario::PopulationDemand),
        )
        .compare()
        .2;
        let capacity = CdnSimulator::new(
            small_config(ZoneArea::UnitedStates).with_scenario(CdnScenario::PopulationCapacity),
        )
        .compare()
        .2;
        for s in [&demand, &capacity] {
            assert!(
                s.carbon_percent > 10.0,
                "skewed savings {}",
                s.carbon_percent
            );
            assert!((s.carbon_percent - homo.carbon_percent).abs() < 30.0);
        }
    }

    #[test]
    fn monthly_intensity_lookup_works() {
        let sim = CdnSimulator::new(small_config(ZoneArea::Europe));
        let paris = sim.monthly_intensity_of("Paris, FR").unwrap();
        assert_eq!(paris.len(), 12);
        assert!(sim.monthly_intensity_of("Atlantis").is_none());
    }

    #[test]
    fn site_limit_truncates() {
        let sim = CdnSimulator::new(CdnConfig::new(ZoneArea::Europe).with_site_limit(10));
        assert_eq!(sim.site_count(), 10);
    }

    #[test]
    fn shared_environment_matches_standalone_simulator() {
        let shared = CdnShared::new();
        let config = CdnConfig::new(ZoneArea::Europe).with_site_limit(25);
        let from_shared = shared
            .simulator(config.clone())
            .run(PlacementPolicy::CarbonAware);
        let standalone = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        assert_eq!(from_shared.outcome, standalone.outcome);
        assert_eq!(from_shared.monthly, standalone.monthly);
        assert_eq!(
            from_shared.placements_per_site,
            standalone.placements_per_site
        );
    }

    #[test]
    fn shared_environment_caches_traces_per_seed() {
        let shared = CdnShared::new();
        assert_eq!(shared.cached_seed_count(), 0);
        let a = shared.traces(1);
        let b = shared.traces(1);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same seed must reuse the cached traces"
        );
        shared.traces(2);
        assert_eq!(shared.cached_seed_count(), 2);
    }

    #[test]
    fn shared_caches_survive_a_poisoned_lock() {
        // A sweep worker panicking while holding a cache lock poisons it.
        // Both caches are monotone insert-only maps of lazily initialized
        // slots, so the data is still structurally sound — the accessors
        // must recover instead of cascading the panic into every other
        // worker and aborting the whole sweep.
        let shared = CdnShared::new();
        let _ = shared.traces(1);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(lock-poison): this test poisons the lock on purpose to exercise recovery
            let _guard = shared.traces_by_seed.lock().unwrap();
            panic!("worker dies while holding the trace-cache lock");
        }));
        assert!(poisoned.is_err());
        assert!(
            shared.traces_by_seed.lock().is_err(),
            "lock must be poisoned"
        );

        assert_eq!(shared.cached_seed_count(), 1);
        let again = shared.traces(1);
        assert!(!again.is_empty());
        let _ = shared.traces(2);
        assert_eq!(shared.cached_seed_count(), 2);

        // Same recovery discipline for the scenario-prep cache.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // lint:allow(lock-poison): this test poisons the lock on purpose to exercise recovery
            let _guard = shared.preps.lock().unwrap();
            panic!("worker dies while holding the prep-cache lock");
        }));
        assert!(poisoned.is_err());
        let config = CdnConfig::new(ZoneArea::Europe).with_site_limit(3);
        let sim = shared.simulator(config);
        assert!(sim.prep.is_some());
        assert_eq!(shared.cached_prep_count(), 1);
    }

    #[test]
    fn run_with_reuses_a_shared_placer_template() {
        let sim = CdnSimulator::new(CdnConfig::new(ZoneArea::Europe).with_site_limit(20));
        let template = IncrementalPlacer::new(PlacementPolicy::LatencyAware).heuristic_only();
        let stamped = template.with_policy(PlacementPolicy::CarbonAware);
        let via_template = sim.run_with(&stamped);
        let direct = sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(via_template.policy, "CarbonEdge");
        assert_eq!(via_template.outcome, direct.outcome);
    }

    #[test]
    fn placements_per_site_sum_matches_demand() {
        let sim = CdnSimulator::new(small_config(ZoneArea::Europe));
        let result = sim.run(PlacementPolicy::CarbonAware);
        for month_counts in &result.placements_per_site {
            let placed: usize = month_counts.iter().sum();
            // Homogeneous demand: one app per site per month, all placeable.
            assert_eq!(placed, sim.site_count());
        }
    }

    #[test]
    fn oracle_decisions_realize_exactly_what_they_promised() {
        // Under the zero-error forecast the decision and accounting
        // intensities are identical, so the realized and decision carbon
        // agree bit for bit — per epoch and in aggregate.
        let result = CdnSimulator::new(small_config(ZoneArea::Europe).with_site_limit(15))
            .run(PlacementPolicy::CarbonAware);
        assert_eq!(result.epochs.len(), 12);
        for epoch in &result.epochs {
            assert_eq!(
                epoch.carbon_g, epoch.decision_carbon_g,
                "epoch {}",
                epoch.index
            );
        }
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn persistence_forecasts_misprice_but_account_realized_carbon() {
        let config = small_config(ZoneArea::Europe)
            .with_site_limit(15)
            .with_forecaster(ForecasterKind::Persistence);
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        // A single-hour reading never equals a month's mean on the synthetic
        // traces, so decision and realized carbon must diverge.
        assert!(
            (result.outcome.carbon_g - result.decision_carbon_g).abs()
                > 1e-6 * result.outcome.carbon_g,
            "realized {} vs decision {}",
            result.outcome.carbon_g,
            result.decision_carbon_g
        );
        // Energy is intensity-independent: identical placements aside, the
        // yearly totals stay positive and finite.
        assert!(result.outcome.carbon_g > 0.0 && result.outcome.carbon_g.is_finite());
    }

    #[test]
    fn weekly_and_daily_schedules_partition_the_year() {
        for (schedule, expected) in [(EpochSchedule::Weekly, 52), (EpochSchedule::Daily, 365)] {
            let config = small_config(ZoneArea::Europe)
                .with_site_limit(8)
                .with_epoch(schedule);
            let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
            assert_eq!(result.epochs.len(), expected, "{}", schedule.name());
            let hours: usize = result.epochs.iter().map(|e| e.hours).sum();
            assert_eq!(hours, carbonedge_grid::HOURS_PER_YEAR);
            // The year aggregate is the sum of the per-epoch outcomes.
            let total: f64 = result.epochs.iter().map(|e| e.carbon_g).sum();
            assert_eq!(total, result.outcome.carbon_g);
            // Every epoch is attributed to the month containing its start.
            let monthly_total: f64 = result.monthly.iter().map(|m| m.carbon_g).sum();
            assert!((monthly_total - total).abs() < 1e-6 * total.max(1.0));
            // Placements land in every epoch: one app per site per epoch.
            let placed: usize = result.epochs.iter().map(|e| e.placed_apps).sum();
            assert_eq!(placed, expected * 8);
        }
    }

    #[test]
    fn finer_epochs_with_oracle_forecasts_do_not_hurt_realized_carbon_much() {
        // Re-deciding more often against exact forecasts tracks the carbon
        // landscape at least as closely as monthly decisions at these sizes;
        // allow a small tolerance because the heuristic is not exact.
        let base = small_config(ZoneArea::Europe).with_site_limit(12);
        let monthly = CdnSimulator::new(base.clone()).run(PlacementPolicy::CarbonAware);
        let weekly = CdnSimulator::new(base.with_epoch(EpochSchedule::Weekly))
            .run(PlacementPolicy::CarbonAware);
        // Energy scales with hours, which both schedules cover identically.
        assert!(
            (weekly.outcome.energy_j - monthly.outcome.energy_j).abs()
                < 1e-6 * monthly.outcome.energy_j
        );
        assert!(
            weekly.outcome.carbon_g < monthly.outcome.carbon_g * 1.05,
            "weekly {} vs monthly {}",
            weekly.outcome.carbon_g,
            monthly.outcome.carbon_g
        );
    }

    /// A deployment whose weekly re-placement genuinely churns: the wider
    /// 30 ms reach puts near-tied zones in every feasible set, so weekly
    /// intensity rankings flip and free re-placement chases them.
    fn churning_config(epoch: EpochSchedule) -> CdnConfig {
        CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(60)
            .with_latency_limit(30.0)
            .with_epoch(epoch)
    }

    #[test]
    fn free_migration_reports_churn_without_charging_carbon() {
        let result = CdnSimulator::new(churning_config(EpochSchedule::Weekly))
            .run(PlacementPolicy::CarbonAware);
        assert_eq!(result.migration_carbon_g, 0.0);
        assert!(
            result.moves > 0,
            "free weekly re-placement should chase the carbon landscape"
        );
        assert_eq!(result.epochs[0].moves, 0, "no incumbent in epoch 1");
        let epoch_moves: usize = result.epochs.iter().map(|e| e.moves).sum();
        assert_eq!(epoch_moves, result.moves);
    }

    #[test]
    fn migration_cost_reduces_churn() {
        let base = churning_config(EpochSchedule::Weekly);
        let free = CdnSimulator::new(base.clone()).run(PlacementPolicy::CarbonAware);
        let paper = CdnSimulator::new(base.with_migration(MigrationCostLevel::Paper))
            .run(PlacementPolicy::CarbonAware);
        assert!(
            paper.moves < free.moves,
            "paper migration cost must suppress churn: {} vs free {}",
            paper.moves,
            free.moves
        );
        // At the paper's lightly-loaded request rate, per-move savings sit
        // in the milligram range while a paper-calibrated move costs ~10 g,
        // so hysteresis holds everything in place: realized carbon cannot
        // beat the free re-placement run.
        assert!(paper.outcome.carbon_g >= free.outcome.carbon_g);
        // Charged migration carbon is consistent per epoch and in aggregate.
        let epoch_migration: f64 = paper.epochs.iter().map(|e| e.migration_carbon_g).sum();
        assert!((epoch_migration - paper.migration_carbon_g).abs() < 1e-9);
        let epoch_carbon: f64 = paper.epochs.iter().map(|e| e.carbon_g).sum();
        assert_eq!(epoch_carbon, paper.outcome.carbon_g);
    }

    #[test]
    fn surviving_moves_are_charged_into_realized_carbon() {
        // A heavier per-application workload (60 rps) makes some weekly
        // moves worth more than the paper-calibrated migration cost, so a
        // few survive hysteresis and their carbon is actually charged.
        let mut config = CdnConfig::new(ZoneArea::Europe)
            .with_site_limit(80)
            .with_latency_limit(30.0)
            .with_epoch(EpochSchedule::Weekly)
            .with_migration(MigrationCostLevel::Paper);
        config.request_rate_rps = 60.0;
        config.servers_per_site = 2;
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        assert!(
            result.moves > 0,
            "60 rps weekly moves should out-earn the paper migration cost"
        );
        let per_move = MigrationCostLevel::Paper.cost_for(ModelKind::ResNet50, DeviceKind::A2);
        assert!(
            (result.migration_carbon_g - result.moves as f64 * per_move.total_g()).abs() < 1e-6,
            "every surviving move is charged exactly once"
        );
        // Oracle pricing: decision and realized totals agree, migration
        // included on both sides.
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn free_migration_level_reproduces_stateless_decisions_bit_for_bit() {
        // `Free` threads the committed assignment (for churn accounting) but
        // must not alter a single decision or realized number.
        for epoch in [EpochSchedule::Monthly, EpochSchedule::Weekly] {
            let config = small_config(ZoneArea::Europe)
                .with_site_limit(12)
                .with_epoch(epoch);
            assert_eq!(config.migration, MigrationCostLevel::Free);
            let result = CdnSimulator::new(config.clone()).run(PlacementPolicy::CarbonAware);
            let again = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
            assert_eq!(result.outcome, again.outcome);
            assert_eq!(result.monthly, again.monthly);
            assert_eq!(result.migration_carbon_g, 0.0);
            // Realized totals contain no migration term at all.
            let epoch_total: f64 = result.epochs.iter().map(|e| e.carbon_g).sum();
            assert_eq!(epoch_total, result.outcome.carbon_g);
        }
    }

    #[test]
    fn oracle_decisions_stay_exact_under_paid_migration() {
        // Migration carbon enters decision and realized totals identically,
        // so the oracle's decision carbon still equals realized carbon —
        // per epoch, on a deployment where moves actually survive the
        // hysteresis and get charged.
        let mut config = churning_config(EpochSchedule::Weekly)
            .with_site_limit(80)
            .with_migration(MigrationCostLevel::Paper);
        config.request_rate_rps = 60.0;
        config.servers_per_site = 2;
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        assert!(result.moves > 0);
        for epoch in &result.epochs {
            assert_eq!(
                epoch.carbon_g, epoch.decision_carbon_g,
                "epoch {}",
                epoch.index
            );
        }
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn event_level_serving_leaves_the_aggregate_numbers_untouched() {
        // EventLevel layers serving metrics on top of the identical
        // placement sequence: every carbon/energy/latency figure must match
        // the Aggregate run bit for bit, and only the serving field differs.
        let base = small_config(ZoneArea::Europe).with_site_limit(15);
        let aggregate = CdnSimulator::new(base.clone()).run(PlacementPolicy::CarbonAware);
        let events = CdnSimulator::new(base.with_serving(ServingMode::EventLevel))
            .run(PlacementPolicy::CarbonAware);
        assert!(aggregate.serving.is_none());
        assert_eq!(aggregate.outcome, events.outcome);
        assert_eq!(aggregate.monthly, events.monthly);
        assert_eq!(aggregate.epochs, events.epochs);
        assert_eq!(aggregate.assigned_intensity, events.assigned_intensity);
        let serving = events.serving.expect("EventLevel reports metrics");
        assert_eq!(serving.hours, carbonedge_grid::HOURS_PER_YEAR);
        assert!(serving.requests_total > 0);
        // 15 rps × 3600 is an exact integer per hour, so the stream total
        // equals the aggregate demand model's yearly request count exactly.
        let expected = 15u64 * 3600 * carbonedge_grid::HOURS_PER_YEAR as u64 * 15;
        assert_eq!(serving.requests_total, expected);
    }

    #[test]
    fn online_replace_fires_and_keeps_accounting_consistent() {
        // A hair trigger fires on the diurnal swing alone; the online engine
        // must re-place mid-epoch while keeping per-epoch sums equal to the
        // yearly aggregate and (under the oracle) decision == realized.
        let config = small_config(ZoneArea::Europe)
            .with_site_limit(10)
            .with_serving(ServingMode::OnlineReplace)
            .with_drift(0.05, 24);
        let result = CdnSimulator::new(config).run(PlacementPolicy::CarbonAware);
        let serving = result.serving.expect("OnlineReplace reports metrics");
        assert!(
            serving.online_replacements > 0,
            "a 5% threshold must fire against a 35% diurnal swing"
        );
        assert_eq!(serving.hours, carbonedge_grid::HOURS_PER_YEAR);
        let epoch_total: f64 = result.epochs.iter().map(|e| e.carbon_g).sum();
        assert_eq!(epoch_total, result.outcome.carbon_g);
        for epoch in &result.epochs {
            assert_eq!(
                epoch.carbon_g, epoch.decision_carbon_g,
                "oracle segment pricing, epoch {}",
                epoch.index
            );
        }
        assert_eq!(result.outcome.carbon_g, result.decision_carbon_g);
    }

    #[test]
    fn online_replace_with_infinite_threshold_matches_epoch_boundaries() {
        // A trigger that never fires degenerates to one segment per epoch —
        // the same decisions as the epoch-boundary engine.
        let base = small_config(ZoneArea::Europe).with_site_limit(12);
        let epochal = CdnSimulator::new(base.clone().with_serving(ServingMode::EventLevel))
            .run(PlacementPolicy::CarbonAware);
        let online = CdnSimulator::new(
            base.with_serving(ServingMode::OnlineReplace)
                .with_drift(f64::INFINITY, 24),
        )
        .run(PlacementPolicy::CarbonAware);
        assert_eq!(online.serving.expect("metrics").online_replacements, 0);
        assert_eq!(epochal.outcome.carbon_g, online.outcome.carbon_g);
        assert_eq!(epochal.outcome.energy_j, online.outcome.energy_j);
        assert_eq!(epochal.moves, online.moves);
    }

    #[test]
    fn exact_path_runs_surface_warm_start_pivots() {
        // A tiny deployment keeps apps x servers under the exact-size limit,
        // so every epoch goes through the warm-started MILP path.
        let mut config = CdnConfig::new(ZoneArea::Europe).with_site_limit(3);
        config.servers_per_site = 2;
        let sim = CdnSimulator::new(config);
        let placer = IncrementalPlacer::new(PlacementPolicy::CarbonAware);
        let first = sim.run_with(&placer);
        assert_eq!(first.exact_decisions, 12);
        assert!(first.solver_pivots > 0, "exact runs must report pivots");
        // A second run on the warm placer re-solves cost-only changes and
        // must not spend more pivots than the cold run.
        let second = sim.run_with(&placer);
        assert_eq!(second.exact_decisions, 12);
        assert!(
            second.solver_pivots <= first.solver_pivots,
            "warm {} vs cold {}",
            second.solver_pivots,
            first.solver_pivots
        );
        assert_eq!(first.outcome, second.outcome, "warm restarts stay exact");
        // Heuristic runs spend no exact-path pivots.
        let heuristic = sim.run(PlacementPolicy::CarbonAware);
        assert_eq!(heuristic.solver_pivots, 0);
        assert_eq!(heuristic.exact_decisions, 0);
    }
}
