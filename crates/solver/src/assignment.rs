//! Specialized solver for the incremental placement problem.
//!
//! The paper's placement problem (Eq. 7) is a generalized assignment problem
//! with fixed server-activation charges: each application must be assigned
//! to exactly one feasible server, multi-dimensional server capacities must
//! be respected, and opening a previously-off server adds its activation
//! carbon.  For testbed-sized instances the generic branch-and-bound solver
//! is exact; at CDN scale (hundreds of servers, dozens of applications per
//! batch) this module provides a regret-based greedy construction followed
//! by local search, which the tests validate against exhaustive enumeration
//! on small instances.

/// One instance of the placement problem in solver-neutral form.
///
/// Demands and capacities are flat row-major buffers over `dims` resource
/// dimensions, so building an instance costs one allocation per buffer and
/// a capacity check reads contiguous memory.
#[derive(Debug, Clone)]
pub struct AssignmentProblem {
    /// `cost[i][j]`: cost of running application `i` on server `j`, or
    /// `None` when the pair is infeasible (latency violation or
    /// incompatible hardware).
    pub cost: Vec<Vec<Option<f64>>>,
    /// Number of resource dimensions.
    pub dims: usize,
    /// `demand[(i * servers + j) * dims + k]`: demand of application `i` on
    /// server `j` in resource dimension `k` (only read when the pair is
    /// feasible).
    pub demand: Vec<f64>,
    /// `capacity[j * dims + k]`: available capacity of server `j` in
    /// dimension `k`.
    pub capacity: Vec<f64>,
    /// `activation_cost[j]`: extra cost incurred the first time an
    /// application is placed on server `j` while it is closed.
    pub activation_cost: Vec<f64>,
    /// `open[j]`: whether server `j` is already powered on.
    pub open: Vec<bool>,
}

impl AssignmentProblem {
    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.cost.len()
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.open.len()
    }

    /// Validates internal dimensions; returns an error string when shapes
    /// are inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        let servers = self.num_servers();
        if self.activation_cost.len() != servers {
            return Err("activation/open length mismatch".into());
        }
        if let Some(i) = self.cost.iter().position(|row| row.len() != servers) {
            return Err(format!("cost row {i} has wrong length"));
        }
        if self.capacity.len() != servers * self.dims {
            return Err("capacity length mismatch".into());
        }
        if self.demand.len() != self.num_apps() * servers * self.dims {
            return Err("demand length mismatch".into());
        }
        Ok(())
    }

    /// The demand vector of application `app` on server `server`.
    fn demand_of(&self, app: usize, server: usize) -> &[f64] {
        let at = (app * self.num_servers() + server) * self.dims;
        &self.demand[at..at + self.dims]
    }

    fn fits(&self, app: usize, server: usize, used: &[f64]) -> bool {
        let at = server * self.dims;
        self.demand_of(app, server)
            .iter()
            .zip(used[at..at + self.dims].iter())
            .zip(self.capacity[at..at + self.dims].iter())
            .all(|((d, u), c)| u + d <= c + 1e-9)
    }

    /// Total cost of an assignment vector (operational + activation),
    /// or `None` if the assignment is infeasible.
    pub fn evaluate(&self, assignment: &[Option<usize>]) -> Option<f64> {
        if assignment.len() != self.num_apps() {
            return None;
        }
        let mut used = vec![0.0; self.num_servers() * self.dims];
        let mut opened = vec![false; self.num_servers()];
        let mut total = 0.0;
        for (i, a) in assignment.iter().enumerate() {
            let Some(j) = a else { return None };
            let cost = self.cost[i][*j]?;
            if !self.fits(i, *j, &used) {
                return None;
            }
            for (u, d) in used[*j * self.dims..].iter_mut().zip(self.demand_of(i, *j)) {
                *u += d;
            }
            total += cost;
            if !self.open[*j] && !opened[*j] {
                opened[*j] = true;
                total += self.activation_cost[*j];
            }
        }
        Some(total)
    }
}

/// The result of an assignment solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentSolution {
    /// Chosen server per application (`None` when the heuristic could not
    /// place the application feasibly).
    pub assignment: Vec<Option<usize>>,
    /// Total cost of the placed applications (operational + activation).
    pub cost: f64,
    /// Applications left unassigned.
    pub unassigned: Vec<usize>,
    /// Servers newly opened by this solution.
    pub newly_opened: Vec<usize>,
}

impl AssignmentSolution {
    /// Whether every application was placed.
    pub fn is_complete(&self) -> bool {
        self.unassigned.is_empty()
    }
}

/// Regret-greedy + local-search heuristic, with exhaustive enumeration for
/// tiny instances.
#[derive(Debug, Clone)]
pub struct AssignmentSolver {
    /// Maximum number of local-search improvement passes.
    pub local_search_passes: usize,
    /// Instances with at most this many `servers^apps` combinations are
    /// solved exactly by enumeration.
    pub exhaustive_limit: u64,
    /// Batches larger than this many applications skip the O(n²·m) regret
    /// ordering and fall back to a simple cheapest-feasible greedy pass,
    /// keeping CDN-scale batches (hundreds of applications over hundreds of
    /// servers) fast.
    pub regret_limit: usize,
}

impl Default for AssignmentSolver {
    fn default() -> Self {
        Self {
            local_search_passes: 8,
            exhaustive_limit: 20_000,
            regret_limit: 200,
        }
    }
}

/// Cached best/second-best marginal costs of one application, kept
/// consistent with [`State::marginal`] (see there for the exactness
/// argument).  `second_c` is `f64::INFINITY` when only one server is
/// feasible, matching the cold scan's "no second candidate" regret.
#[derive(Debug, Clone, Copy)]
enum Top2 {
    /// The cached entry may be stale; the next lookup rescans the row.
    Dirty,
    /// No feasible server remains for this application.
    Infeasible,
    /// `(best_j, best_c, second_c)` exactly as a fresh full scan would
    /// compute them.
    Cached(usize, f64, f64),
}

struct State<'p> {
    problem: &'p AssignmentProblem,
    assignment: Vec<Option<usize>>,
    /// `used[j * dims + k]`: capacity of server `j` taken in dimension `k`.
    used: Vec<f64>,
    app_count_per_server: Vec<usize>,
    /// `marginal[i * servers + j]`: cached marginal cost of placing app `i`
    /// on server `j` in the *current* state (`NAN` = infeasible).  Placing
    /// or unplacing an application changes `used`/`app_count` for exactly
    /// one server, so every mutation refreshes exactly one column instead
    /// of the cold path's full `apps × servers` rescan per round.  The
    /// cached values are produced by the same `marginal_cost` arithmetic
    /// the cold scan runs, so every comparison made against them is
    /// bit-identical to an uncached solve.
    marginal: Vec<f64>,
    /// Per-app best/second cache over `marginal`, invalidated only when a
    /// column update could disturb it.
    top2: Vec<Top2>,
    /// Scratch for [`Self::total_cost`], reused across calls.
    opened_scratch: Vec<bool>,
}

impl<'p> State<'p> {
    fn new(problem: &'p AssignmentProblem) -> Self {
        let apps = problem.num_apps();
        let servers = problem.num_servers();
        let mut state = Self {
            problem,
            assignment: vec![None; apps],
            used: vec![0.0; servers * problem.dims],
            app_count_per_server: vec![0; servers],
            marginal: vec![f64::NAN; apps * servers],
            top2: vec![Top2::Dirty; apps],
            opened_scratch: vec![false; servers],
        };
        for i in 0..apps {
            for j in 0..servers {
                let c = state.marginal_cost(i, j).unwrap_or(f64::NAN);
                state.marginal[i * servers + j] = c;
            }
        }
        state
    }

    fn server_is_open(&self, j: usize) -> bool {
        self.problem.open[j] || self.app_count_per_server[j] > 0
    }

    /// Marginal cost of placing app i on server j given the current state.
    fn marginal_cost(&self, i: usize, j: usize) -> Option<f64> {
        let base = self.problem.cost[i][j]?;
        if !self.problem.fits(i, j, &self.used) {
            return None;
        }
        let activation = if self.server_is_open(j) {
            0.0
        } else {
            self.problem.activation_cost[j]
        };
        Some(base + activation)
    }

    /// Refreshes the cached marginal column of server `j` after its
    /// capacity or open state changed, invalidating any top-2 entry the
    /// change could disturb: the column was its best server, or the old or
    /// new value reaches into the cached top-2 range.
    fn refresh_column(&mut self, j: usize) {
        let servers = self.problem.num_servers();
        for i in 0..self.problem.num_apps() {
            let old = self.marginal[i * servers + j];
            let new = self.marginal_cost(i, j).unwrap_or(f64::NAN);
            if old.to_bits() == new.to_bits() {
                continue;
            }
            self.marginal[i * servers + j] = new;
            match self.top2[i] {
                Top2::Dirty => {}
                Top2::Infeasible => {
                    if !new.is_nan() {
                        self.top2[i] = Top2::Dirty;
                    }
                }
                Top2::Cached(best_j, _, second_c) => {
                    // NaN comparisons are false, so an infeasible old/new
                    // value never dirties through the value checks alone.
                    if j == best_j || old <= second_c || new <= second_c {
                        self.top2[i] = Top2::Dirty;
                    }
                }
            }
        }
    }

    /// The best and second-best marginal costs of app `i`, exactly as the
    /// cold per-round scan computes them: `best` keeps the first server
    /// attaining the strict running minimum, `second` is the minimum over
    /// the remaining values.  Returns `None` when no server is feasible.
    fn top2(&mut self, i: usize) -> Option<(usize, f64, f64)> {
        if let Top2::Dirty = self.top2[i] {
            self.top2[i] = self.rescan_top2(i);
        }
        match self.top2[i] {
            Top2::Cached(best_j, best_c, second_c) => Some((best_j, best_c, second_c)),
            Top2::Infeasible => None,
            Top2::Dirty => unreachable!("entry was just rescanned"),
        }
    }

    fn rescan_top2(&self, i: usize) -> Top2 {
        let servers = self.problem.num_servers();
        let row = &self.marginal[i * servers..(i + 1) * servers];
        let mut best: Option<(usize, f64)> = None;
        let mut second: Option<f64> = None;
        for (j, &c) in row.iter().enumerate() {
            if c.is_nan() {
                continue;
            }
            match best {
                Some((_, bc)) if c >= bc => {
                    if second.is_none_or(|s| c < s) {
                        second = Some(c);
                    }
                }
                _ => {
                    if let Some((_, bc)) = best {
                        second = Some(bc);
                    }
                    best = Some((j, c));
                }
            }
        }
        match best {
            Some((bj, bc)) => Top2::Cached(bj, bc, second.unwrap_or(f64::INFINITY)),
            None => Top2::Infeasible,
        }
    }

    /// The cheapest feasible server for app `i` (first index on ties), read
    /// from the cached marginal column — the same result a fresh
    /// `marginal_cost` scan in ascending server order produces.
    fn best_server(&self, i: usize) -> Option<(usize, f64)> {
        let servers = self.problem.num_servers();
        let row = &self.marginal[i * servers..(i + 1) * servers];
        let mut best: Option<(usize, f64)> = None;
        for (j, &c) in row.iter().enumerate() {
            if !c.is_nan() && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((j, c));
            }
        }
        best
    }

    /// The cheapest feasible server for the placed app `i` in the state
    /// [`Self::unplace`] would leave, computed without mutating anything:
    /// the cached marginal row with only the `current` column replaced by
    /// the value unplacing would refresh it to.  Unplacing changes no other
    /// column, and the replacement runs the same arithmetic as
    /// `marginal_cost` on the reduced usage `u - d` (and the open test on
    /// the reduced count), so the result is bit-identical to `unplace`
    /// followed by [`Self::best_server`].
    fn reduced_best(&self, i: usize, current: usize) -> Option<(usize, f64)> {
        let problem = self.problem;
        let dims = problem.dims;
        let at = current * dims;
        let fits = problem
            .demand_of(i, current)
            .iter()
            .zip(self.used[at..at + dims].iter())
            .zip(problem.capacity[at..at + dims].iter())
            .all(|((d, u), c)| (u - d) + d <= c + 1e-9);
        let reduced = match problem.cost[i][current] {
            Some(base) if fits => {
                let open = problem.open[current] || self.app_count_per_server[current] > 1;
                base + if open {
                    0.0
                } else {
                    problem.activation_cost[current]
                }
            }
            _ => f64::NAN,
        };
        let servers = problem.num_servers();
        let row = &self.marginal[i * servers..(i + 1) * servers];
        let mut best: Option<(usize, f64)> = None;
        for (j, &c) in row.iter().enumerate() {
            let c = if j == current { reduced } else { c };
            if !c.is_nan() && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((j, c));
            }
        }
        best
    }

    /// Whether unplacing and re-placing app `i` on server `j` leaves the
    /// server's usage bit-identical: `(u - d) + d == u` in every dimension.
    fn round_trips(&self, i: usize, j: usize) -> bool {
        let at = j * self.problem.dims;
        self.problem
            .demand_of(i, j)
            .iter()
            .zip(self.used[at..].iter())
            .all(|(d, u)| ((u - d) + d).to_bits() == u.to_bits())
    }

    fn place(&mut self, i: usize, j: usize) {
        debug_assert!(self.assignment[i].is_none());
        let problem = self.problem;
        let at = j * problem.dims;
        for (u, d) in self.used[at..].iter_mut().zip(problem.demand_of(i, j)) {
            *u += d;
        }
        self.app_count_per_server[j] += 1;
        self.assignment[i] = Some(j);
        self.refresh_column(j);
    }

    fn unplace(&mut self, i: usize) {
        if let Some(j) = self.assignment[i].take() {
            let problem = self.problem;
            let at = j * problem.dims;
            for (u, d) in self.used[at..].iter_mut().zip(problem.demand_of(i, j)) {
                *u -= d;
            }
            self.app_count_per_server[j] -= 1;
            self.refresh_column(j);
        }
    }

    fn total_cost(&mut self) -> f64 {
        let mut total = 0.0;
        self.opened_scratch.fill(false);
        for (i, a) in self.assignment.iter().enumerate() {
            if let Some(j) = a {
                total += self.problem.cost[i][*j].unwrap_or(0.0);
                if !self.problem.open[*j] && !self.opened_scratch[*j] {
                    self.opened_scratch[*j] = true;
                    total += self.problem.activation_cost[*j];
                }
            }
        }
        total
    }
}

impl AssignmentSolver {
    /// Creates a solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves the assignment problem.
    pub fn solve(&self, problem: &AssignmentProblem) -> AssignmentSolution {
        problem.validate().expect("malformed assignment problem");
        let apps = problem.num_apps();
        let servers = problem.num_servers();
        if apps == 0 || servers == 0 {
            return AssignmentSolution {
                assignment: vec![None; apps],
                cost: 0.0,
                unassigned: (0..apps).collect(),
                newly_opened: vec![],
            };
        }

        // Exact enumeration for tiny instances.
        let combos = (servers as u64).checked_pow(apps as u32);
        if let Some(combos) = combos {
            if combos <= self.exhaustive_limit {
                if let Some(sol) = self.solve_exhaustive(problem) {
                    return sol;
                }
            }
        }

        let mut state = State::new(problem);
        if apps > self.regret_limit {
            self.greedy_construct_simple(&mut state);
        } else {
            self.greedy_construct(&mut state);
        }
        self.local_search(&mut state);
        self.finish(state)
    }

    /// Cheapest-feasible greedy in application order; O(apps · servers).
    fn greedy_construct_simple(&self, state: &mut State<'_>) {
        for i in 0..state.problem.num_apps() {
            if let Some((j, _)) = state.best_server(i) {
                state.place(i, j);
            }
        }
    }

    fn greedy_construct(&self, state: &mut State<'_>) {
        let apps = state.problem.num_apps();
        let mut remaining: Vec<usize> = (0..apps).collect();
        while !remaining.is_empty() {
            // For each remaining app read the cached best and second-best
            // marginal cost; pick the app with the largest regret
            // (difference).  The cache holds exactly the values a fresh
            // scan would compute, so the chosen (app, server) matches the
            // uncached construction bit for bit.
            let mut chosen: Option<(usize, usize, f64)> = None; // (pos, server, regret)
            for (pos, &i) in remaining.iter().enumerate() {
                let Some((bj, bc, second)) = state.top2(i) else {
                    continue;
                };
                let regret = if second.is_finite() {
                    second - bc
                } else {
                    f64::INFINITY
                };
                let better = match &chosen {
                    None => true,
                    Some((_, _, r)) => regret > *r,
                };
                if better {
                    chosen = Some((pos, bj, regret));
                }
            }
            match chosen {
                Some((pos, server, _)) => {
                    let app = remaining.remove(pos);
                    state.place(app, server);
                }
                None => break, // nothing placeable anymore
            }
        }
    }

    /// Visits every placed app in index order and moves it to its cheapest
    /// feasible server in the state without it, keeping the move only on a
    /// strict improvement of the total cost.
    ///
    /// A visit whose reduced-state best is the app's own server, and whose
    /// unplace/place round trip restores the server's usage bit for bit,
    /// cannot change the assignment, the usage or the marginal cache, so it
    /// is skipped after a non-mutating probe.  (It would only dirty `top2`
    /// entries, which nothing reads after construction.)  The total cost
    /// depends only on the assignment, so it is carried across visits: it
    /// becomes `after` on an improving move and is unchanged otherwise.
    fn local_search(&self, state: &mut State<'_>) {
        let key = |best: Option<(usize, f64)>| best.map(|(j, c)| (j, c.to_bits()));
        let mut before = state.total_cost();
        for _ in 0..self.local_search_passes {
            let mut improved = false;
            for i in 0..state.problem.num_apps() {
                let Some(current) = state.assignment[i] else {
                    continue;
                };
                let probe = state.reduced_best(i, current);
                if probe.is_some_and(|(j, _)| j == current) && state.round_trips(i, current) {
                    if cfg!(debug_assertions) {
                        state.unplace(i);
                        debug_assert_eq!(key(state.best_server(i)), key(probe));
                        state.place(i, current);
                    }
                    continue;
                }
                state.unplace(i);
                // The cheapest feasible server for i in the reduced state.
                let best = state.best_server(i);
                debug_assert_eq!(key(best), key(probe));
                match best {
                    Some((j, _)) => {
                        state.place(i, j);
                        let after = state.total_cost();
                        if after < before - 1e-9 {
                            improved = true;
                            before = after;
                        } else if j != current {
                            // Revert if no strict improvement.
                            state.unplace(i);
                            state.place(i, current);
                        }
                    }
                    None => {
                        // Should not happen since `current` was feasible; restore.
                        state.place(i, current);
                    }
                }
            }
            if !improved {
                break;
            }
        }
    }

    fn finish(&self, mut state: State<'_>) -> AssignmentSolution {
        let problem = state.problem;
        let assignment = state.assignment.clone();
        let cost = state.total_cost();
        let unassigned = assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| i)
            .collect();
        let mut newly_opened: Vec<usize> = assignment
            .iter()
            .flatten()
            .copied()
            .filter(|j| !problem.open[*j])
            .collect();
        newly_opened.sort_unstable();
        newly_opened.dedup();
        AssignmentSolution {
            assignment,
            cost,
            unassigned,
            newly_opened,
        }
    }

    fn solve_exhaustive(&self, problem: &AssignmentProblem) -> Option<AssignmentSolution> {
        let apps = problem.num_apps();
        let servers = problem.num_servers();
        let mut best: Option<(f64, Vec<Option<usize>>)> = None;
        let total = (servers as u64).pow(apps as u32);
        for code in 0..total {
            let mut c = code;
            let mut assignment = Vec::with_capacity(apps);
            for _ in 0..apps {
                assignment.push(Some((c % servers as u64) as usize));
                c /= servers as u64;
            }
            if let Some(cost) = problem.evaluate(&assignment) {
                if best.as_ref().is_none_or(|(bc, _)| cost < *bc) {
                    best = Some((cost, assignment));
                }
            }
        }
        let (cost, assignment) = best?;
        let mut newly_opened: Vec<usize> = assignment
            .iter()
            .flatten()
            .copied()
            .filter(|j| !problem.open[*j])
            .collect();
        newly_opened.sort_unstable();
        newly_opened.dedup();
        Some(AssignmentSolution {
            assignment,
            cost,
            unassigned: vec![],
            newly_opened,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn simple_problem() -> AssignmentProblem {
        // 2 apps, 2 servers, one resource dimension.
        AssignmentProblem {
            cost: vec![vec![Some(10.0), Some(1.0)], vec![Some(2.0), Some(8.0)]],
            dims: 1,
            demand: vec![1.0; 4],
            capacity: vec![2.0, 2.0],
            activation_cost: vec![0.0, 0.0],
            open: vec![true, true],
        }
    }

    #[test]
    fn picks_cheapest_assignment() {
        let sol = AssignmentSolver::new().solve(&simple_problem());
        assert!(sol.is_complete());
        assert_eq!(sol.assignment, vec![Some(1), Some(0)]);
        assert!((sol.cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn respects_capacity() {
        let mut p = simple_problem();
        // Both apps prefer server 1 but it only fits one.
        p.cost = vec![vec![Some(10.0), Some(1.0)], vec![Some(10.0), Some(2.0)]];
        p.capacity = vec![2.0, 1.0];
        let sol = AssignmentSolver::new().solve(&p);
        assert!(sol.is_complete());
        let cost = p.evaluate(&sol.assignment).unwrap();
        // Optimum: app1 -> server1 (2), app0 -> server0 (10) = 12, or
        // app0 -> server1 (1) + app1 -> server0 (10) = 11.
        assert!((cost - 11.0).abs() < 1e-9, "cost {cost}");
    }

    #[test]
    fn activation_cost_consolidates_servers() {
        // Two apps; server 0 slightly more expensive per app but open,
        // server 1 cheaper per app but has a huge activation cost.
        let p = AssignmentProblem {
            cost: vec![vec![Some(5.0), Some(4.0)], vec![Some(5.0), Some(4.0)]],
            dims: 1,
            demand: vec![1.0; 4],
            capacity: vec![2.0, 2.0],
            activation_cost: vec![0.0, 100.0],
            open: vec![true, false],
        };
        let sol = AssignmentSolver::new().solve(&p);
        assert_eq!(sol.assignment, vec![Some(0), Some(0)]);
        assert!(sol.newly_opened.is_empty());
        assert!((sol.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn activation_cost_paid_once() {
        // Cheap closed server worth opening for both apps.
        let p = AssignmentProblem {
            cost: vec![vec![Some(50.0), Some(1.0)], vec![Some(50.0), Some(1.0)]],
            dims: 1,
            demand: vec![1.0; 4],
            capacity: vec![2.0, 2.0],
            activation_cost: vec![0.0, 10.0],
            open: vec![true, false],
        };
        let sol = AssignmentSolver::new().solve(&p);
        assert_eq!(sol.assignment, vec![Some(1), Some(1)]);
        assert_eq!(sol.newly_opened, vec![1]);
        assert!((sol.cost - 12.0).abs() < 1e-9, "cost {}", sol.cost);
    }

    #[test]
    fn infeasible_pairs_are_avoided() {
        let p = AssignmentProblem {
            cost: vec![vec![None, Some(3.0)], vec![Some(2.0), None]],
            dims: 1,
            demand: vec![1.0; 4],
            capacity: vec![1.0, 1.0],
            activation_cost: vec![0.0, 0.0],
            open: vec![true, true],
        };
        let sol = AssignmentSolver::new().solve(&p);
        assert_eq!(sol.assignment, vec![Some(1), Some(0)]);
        assert!(sol.is_complete());
    }

    #[test]
    fn overloaded_instance_reports_unassigned() {
        // Two apps, one server with capacity for one; force the heuristic
        // path by raising the exhaustive limit threshold artificially low.
        let p = AssignmentProblem {
            cost: vec![vec![Some(1.0)], vec![Some(1.0)]],
            dims: 1,
            demand: vec![1.0, 1.0],
            capacity: vec![1.0],
            activation_cost: vec![0.0],
            open: vec![true],
        };
        let solver = AssignmentSolver {
            exhaustive_limit: 0,
            ..AssignmentSolver::new()
        };
        let sol = solver.solve(&p);
        assert_eq!(sol.unassigned.len(), 1);
        assert!(!sol.is_complete());
    }

    #[test]
    fn evaluate_rejects_capacity_violation_and_infeasible_pairs() {
        let p = simple_problem();
        assert!(p.evaluate(&[Some(0), Some(0)]).is_some());
        let mut tight = p.clone();
        tight.capacity = vec![1.0, 2.0];
        assert!(tight.evaluate(&[Some(0), Some(0)]).is_none());
        let mut infeasible = p.clone();
        infeasible.cost[0][0] = None;
        assert!(infeasible.evaluate(&[Some(0), Some(1)]).is_none());
        assert!(p.evaluate(&[Some(0)]).is_none());
        assert!(p.evaluate(&[None, Some(1)]).is_none());
    }

    #[test]
    fn empty_problem_is_handled() {
        let p = AssignmentProblem {
            cost: vec![],
            dims: 1,
            demand: vec![],
            capacity: vec![],
            activation_cost: vec![],
            open: vec![],
        };
        let sol = AssignmentSolver::new().solve(&p);
        assert_eq!(sol.cost, 0.0);
        assert!(sol.assignment.is_empty());
    }

    #[test]
    fn validate_catches_shape_errors() {
        let mut p = simple_problem();
        p.activation_cost = vec![0.0];
        assert!(p.validate().is_err());
        let mut p2 = simple_problem();
        p2.cost[0] = vec![Some(1.0)];
        assert!(p2.validate().is_err());
        let mut p3 = simple_problem();
        p3.demand.pop();
        assert!(p3.validate().is_err());
        let mut p4 = simple_problem();
        p4.dims = 2;
        assert!(p4.validate().is_err());
        assert!(simple_problem().validate().is_ok());
    }

    #[test]
    fn heuristic_matches_exhaustive_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(3);
        for _case in 0..20 {
            let apps = rng.gen_range(2..5);
            let servers = rng.gen_range(2..4);
            let p = AssignmentProblem {
                cost: (0..apps)
                    .map(|_| {
                        (0..servers)
                            .map(|_| {
                                if rng.gen_bool(0.9) {
                                    Some(rng.gen_range(1.0..50.0))
                                } else {
                                    None
                                }
                            })
                            .collect()
                    })
                    .collect(),
                dims: 1,
                demand: (0..apps * servers)
                    .map(|_| rng.gen_range(0.5..2.0))
                    .collect(),
                capacity: (0..servers).map(|_| rng.gen_range(2.0..5.0)).collect(),
                activation_cost: (0..servers).map(|_| rng.gen_range(0.0..20.0)).collect(),
                open: (0..servers).map(|_| rng.gen_bool(0.5)).collect(),
            };
            // Exact (exhaustive) solution through the normal entry point.
            let exact = AssignmentSolver::new().solve(&p);
            // Heuristic-only solution.
            let heuristic = AssignmentSolver {
                exhaustive_limit: 0,
                ..AssignmentSolver::new()
            }
            .solve(&p);
            if exact.is_complete() && heuristic.is_complete() {
                // The heuristic may be suboptimal but never better than exact,
                // and should be within 30% on these tiny instances.
                assert!(heuristic.cost >= exact.cost - 1e-6);
                assert!(
                    heuristic.cost <= exact.cost * 1.3 + 1e-6,
                    "heuristic {} vs exact {}",
                    heuristic.cost,
                    exact.cost
                );
            }
        }
    }

    #[test]
    fn larger_instance_is_solved_quickly_and_feasibly() {
        let mut rng = StdRng::seed_from_u64(99);
        let apps = 50;
        let servers = 40;
        let p = AssignmentProblem {
            cost: (0..apps)
                .map(|_| {
                    (0..servers)
                        .map(|_| Some(rng.gen_range(1.0..100.0)))
                        .collect()
                })
                .collect(),
            dims: 2,
            demand: (0..apps * servers)
                .flat_map(|_| [rng.gen_range(0.1..0.4), rng.gen_range(100.0..500.0)])
                .collect(),
            capacity: (0..servers).flat_map(|_| [1.0, 16_000.0]).collect(),
            activation_cost: (0..servers).map(|_| rng.gen_range(0.0..50.0)).collect(),
            open: (0..servers).map(|i| i % 2 == 0).collect(),
        };
        let sol = AssignmentSolver::new().solve(&p);
        assert!(sol.is_complete());
        assert!(p.evaluate(&sol.assignment).is_some());
    }
}
