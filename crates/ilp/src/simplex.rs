//! Bounded-variable two-phase primal simplex for LP relaxations.
//!
//! The implementation is a revised simplex with a dense basis inverse:
//!
//! * all variables carry lower/upper bounds (structurals `[lb, ub] ⊆ [0,1]`,
//!   slacks one-sided by constraint sense),
//! * phase 1 drives artificial variables to zero (rows whose initial slack
//!   value fits its bounds get the slack as the starting basic variable and
//!   need no artificial),
//! * pricing is Dantzig's rule with an automatic switch to Bland's rule
//!   under sustained degeneracy (anti-cycling),
//! * the ratio test performs bound flips without basis changes when the
//!   entering variable hits its opposite bound first, and prefers larger
//!   pivot elements among ties for numerical stability,
//! * basic values are recomputed from the basis inverse periodically to
//!   bound drift.
//!
//! Duals ride on the outcome: [`solve_lp`] is the one entry point, and an
//! optimal outcome carries the phase-2 multipliers while a phase-1
//! infeasibility carries its Farkas multipliers — the raw material of a
//! solver certificate (see [`crate::cert`]). Extraction is one `btran`
//! after the last iteration, so the pivot sequence never depends on it.
//!
//! The dense basis inverse costs `O(m²)` memory and per-iteration time; the
//! branch-and-bound driver guards against oversized models (as CPLEX's
//! memory limits effectively did in the paper's experiments, where a few
//! functions went unsolved).

use crate::health::{Deadline, SolverHealth};
use crate::model::{Model, Sense};

/// Feasibility/optimality tolerance.
const TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;
/// Degenerate-step streak length that triggers Bland's rule.
const BLAND_TRIGGER: u32 = 64;
/// Basic-value refresh period (iterations).
const REFRESH_PERIOD: u64 = 128;
/// Degenerate-step streak length at which the solve is declared to be
/// cycling and abandoned (floating-point noise can defeat even Bland's
/// rule; surfacing the failure beats livelocking inside the allocator).
const CYCLE_ABORT: u32 = 50_000;

/// Result of an LP relaxation solve.
///
/// Every variant carries the simplex iterations spent (both phases), so
/// callers can attribute work even when the relaxation is abandoned —
/// previously iterations on infeasible or aborted nodes simply vanished
/// from the accounting.
///
/// The multiplier vectors (`duals`, `farkas`) have one entry per model
/// row, clamped into the row's dual cone (`≤ 0` for `Le` rows, `≥ 0` for
/// `Ge`, free for `Eq`) — clamping a float-noise sign violation to zero
/// weakens the bound slightly but keeps it *valid*, which is what the
/// exact checker verifies. They are empty when no multipliers exist: the
/// crossed-bounds early exit never builds a tableau, and non-finite
/// multipliers are discarded.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal {
        /// Structural variable values.
        x: Vec<f64>,
        /// Objective value.
        obj: f64,
        /// Simplex iterations used (both phases).
        iters: u64,
        /// Phase-2 duals `y = c_Bᵀ B⁻¹`: a Lagrangian bound on the
        /// relaxation over its `[lb, ub]` box.
        duals: Vec<f64>,
    },
    /// The LP is infeasible (phase 1 could not reach zero infeasibility).
    Infeasible {
        /// Simplex iterations used (phase 1).
        iters: u64,
        /// Phase-1 duals: a Farkas combination of the rows that no point
        /// of the `[lb, ub]` box satisfies.
        farkas: Vec<f64>,
    },
    /// The iteration limit was exceeded or the deadline passed.
    Limit { iters: u64 },
    /// Numerical trouble: NaN/Inf contamination, an unusable pivot, or
    /// suspected cycling. The relaxation's result is unusable, but the
    /// caller can prune the node and continue.
    Numerical { iters: u64 },
}

impl LpOutcome {
    /// Simplex iterations spent producing this outcome.
    pub fn iters(&self) -> u64 {
        match self {
            LpOutcome::Optimal { iters, .. }
            | LpOutcome::Infeasible { iters, .. }
            | LpOutcome::Limit { iters }
            | LpOutcome::Numerical { iters } => *iters,
        }
    }
}

/// Why [`Tableau::optimize`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopReason {
    Optimal,
    Limit,
    Numerical,
}

/// Multipliers below this magnitude are numerical dust from the basis
/// inverse, not genuine dual activity: model coefficients are unit-scale,
/// so a 1e-12 multiplier moves any Lagrangian or Farkas combination by
/// far less than the integrality slack the bound checks tolerate. Zeroing
/// them keeps every emitted multiplier exactly representable as a small
/// dyadic rational, which the certificate auditor requires (values near
/// 1e-23 need denominators beyond i128 and would sink an honest proof).
const DUAL_DUST: f64 = 1e-12;

/// Clamp `y` into the dual cone, drop numerical dust, and reject
/// non-finite contamination. Any sign-respecting multiplier vector is a
/// valid dual witness, so both adjustments preserve certificate
/// soundness — they can only weaken the bound by a negligible amount.
fn clamp_duals(model: &Model, mut y: Vec<f64>) -> Vec<f64> {
    if y.iter().any(|v| !v.is_finite()) {
        return Vec::new();
    }
    for (yi, row) in y.iter_mut().zip(model.rows()) {
        if yi.abs() < DUAL_DUST {
            *yi = 0.0;
            continue;
        }
        match row.sense {
            Sense::Le => *yi = yi.min(0.0),
            Sense::Ge => *yi = yi.max(0.0),
            Sense::Eq => {}
        }
    }
    y
}

struct Tableau<'a> {
    model: &'a Model,
    /// Sparse columns, indexed by variable: (row, coefficient).
    cols: Vec<Vec<(usize, f64)>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    x: Vec<f64>,
    at_upper: Vec<bool>,
    in_basis: Vec<bool>,
    /// basis[row] = variable index basic in that row.
    basis: Vec<usize>,
    /// Dense row-major basis inverse (m × m).
    binv: Vec<f64>,
    b: Vec<f64>,
    m: usize,
    n_struct: usize,
    n_art_start: usize,
    iters: u64,
    last_refactor: u64,
}

impl<'a> Tableau<'a> {
    fn new(model: &'a Model, lb: &[f64], ub: &[f64]) -> Tableau<'a> {
        let n = model.num_vars();
        let m = model.num_rows();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n + m];
        let mut b = Vec::with_capacity(m);
        let mut lo: Vec<f64> = lb.to_vec();
        let mut hi: Vec<f64> = ub.to_vec();
        for (ri, row) in model.rows().iter().enumerate() {
            for (v, c) in &row.coeffs {
                cols[v.index()].push((ri, *c));
            }
            b.push(row.rhs);
            // Slack column: a·x + s = rhs.
            cols[n + ri].push((ri, 1.0));
            let (slo, shi) = match row.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            lo.push(slo);
            hi.push(shi);
        }

        let mut x = vec![0.0; n + m];
        x[..n].copy_from_slice(&lo[..n]);
        let mut at_upper = vec![false; n + m];
        let mut in_basis = vec![false; n + m];
        let mut basis = vec![usize::MAX; m];
        let mut binv = vec![0.0; m * m];

        // Choose the starting basis row by row: the slack if its bounds
        // admit the residual, otherwise an artificial (appended after the
        // n + m structural and slack columns, in row order).
        for ri in 0..m {
            let mut resid = b[ri];
            for (v, c) in &model.rows()[ri].coeffs {
                resid -= c * x[v.index()];
            }
            let s = n + ri;
            if resid >= lo[s] - TOL && resid <= hi[s] + TOL {
                x[s] = resid.clamp(lo[s], hi[s]);
                basis[ri] = s;
                in_basis[s] = true;
                binv[ri * m + ri] = 1.0;
            } else {
                // Slack nonbasic at the bound nearest the residual.
                let sb = resid.clamp(lo[s], hi[s]);
                let sb = if sb.is_finite() { sb } else { 0.0 };
                x[s] = sb;
                at_upper[s] = sb == hi[s] && lo[s] != hi[s];
                // The artificial absorbs what the slack cannot:
                // z = rho / sign = |rho|.
                let rho = resid - sb;
                let sign = rho.signum();
                basis[ri] = cols.len();
                cols.push(vec![(ri, sign)]);
                lo.push(0.0);
                hi.push(f64::INFINITY);
                x.push(rho / sign);
                at_upper.push(false);
                in_basis.push(true);
                binv[ri * m + ri] = 1.0 / sign;
            }
        }
        Tableau {
            model,
            cols,
            lo,
            hi,
            x,
            at_upper,
            in_basis,
            basis,
            binv,
            b,
            m,
            n_struct: n,
            n_art_start: n + m,
            iters: 0,
            last_refactor: 0,
        }
    }

    fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// w = B⁻¹ · column(j)
    fn ftran(&self, j: usize, w: &mut [f64]) {
        w.fill(0.0);
        for &(ri, c) in &self.cols[j] {
            let row = &self.binv[..]; // borrow aid
            for i in 0..self.m {
                w[i] += row[i * self.m + ri] * c;
            }
        }
    }

    /// y = cᵦᵀ · B⁻¹
    fn btran(&self, costs: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for (i, &bi) in self.basis.iter().enumerate() {
            let cb = costs[bi];
            if cb != 0.0 {
                let row = &self.binv[i * self.m..(i + 1) * self.m];
                for (yk, bv) in y.iter_mut().zip(row) {
                    *yk += cb * bv;
                }
            }
        }
    }

    fn reduced_cost(&self, costs: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = costs[j];
        for &(ri, c) in &self.cols[j] {
            d -= y[ri] * c;
        }
        d
    }

    /// Basic values from the current inverse: x_B = B⁻¹ (b − N x_N).
    fn recompute_basics(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.num_vars() {
            if !self.in_basis[j] && self.x[j] != 0.0 {
                for &(ri, c) in &self.cols[j] {
                    rhs[ri] -= c * self.x[j];
                }
            }
        }
        for i in 0..self.m {
            let row = &self.binv[i * self.m..(i + 1) * self.m];
            let v: f64 = row.iter().zip(&rhs).map(|(bv, rv)| bv * rv).sum();
            self.x[self.basis[i]] = v;
        }
    }

    /// Recompute basic values from scratch, rebuilding B⁻¹ first when
    /// drift has set in.
    fn refresh_basics(&mut self) {
        self.recompute_basics();
        // Drift probe: the product-form updates of B⁻¹ accumulate error;
        // when the recomputed point no longer satisfies A x = b to a
        // scaled tolerance, rebuild B⁻¹ from the basis.
        let mut act: Vec<f64> = self.x[self.n_struct..self.n_art_start].to_vec(); // slacks
        for (a, row) in act.iter_mut().zip(self.model.rows()) {
            for (var, c) in &row.coeffs {
                *a += c * self.x[var.index()];
            }
        }
        // Artificial columns are singletons, at most one per row.
        let arts = self.n_art_start..self.num_vars();
        for (col, xj) in self.cols[arts.clone()].iter().zip(&self.x[arts]) {
            let (ri, c) = col[0];
            act[ri] += c * xj;
        }
        let resid = act
            .iter()
            .zip(&self.b)
            .fold(0.0_f64, |r, (a, b)| r.max((a - b).abs()));
        if resid > 1e-5 && self.iters >= self.last_refactor + 512 {
            self.last_refactor = self.iters;
            self.refactorize();
            // Recompute once more with the fresh inverse.
            self.recompute_basics();
        }
    }

    /// Multipliers `y = cᵦᵀ B⁻¹` for `costs`, clamped into the rows' dual
    /// cones (see [`LpOutcome`]).
    fn duals(&self, costs: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.m];
        self.btran(costs, &mut y);
        clamp_duals(self.model, y)
    }

    /// Rebuild B⁻¹ from the current basis by Gauss–Jordan elimination
    /// with partial pivoting.
    fn refactorize(&mut self) {
        let m = self.m;
        let mut a = vec![0.0_f64; m * m]; // basis matrix, column i = basis[i]'s column
        for (i, &bi) in self.basis.iter().enumerate() {
            for &(ri, c) in &self.cols[bi] {
                a[ri * m + i] = c;
            }
        }
        let mut inv = vec![0.0_f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut piv = col;
            let mut best = a[col * m + col].abs();
            for r in col + 1..m {
                let v = a[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return; // singular: keep the old inverse
            }
            if piv != col {
                for k in 0..m {
                    a.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let d = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= d;
                inv[col * m + k] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = a[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            a[r * m + k] -= f * a[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        self.binv = inv;
    }

    /// True when the solution point is NaN/Inf contaminated. A variable's
    /// *bounds* may be infinite but its value never legitimately is, so
    /// any non-finite entry means the basis inverse has gone bad.
    /// Checked on the refresh cadence so the cost stays amortised.
    fn state_contaminated(&self) -> bool {
        self.x.iter().any(|v| !v.is_finite())
    }

    /// Run the simplex loop with the given costs until optimal, limit,
    /// or numerical trouble; counters accumulate into `health`.
    fn optimize(
        &mut self,
        costs: &[f64],
        iter_limit: u64,
        deadline: Deadline,
        health: &mut SolverHealth,
    ) -> StopReason {
        let mut y = vec![0.0; self.m];
        let mut w = vec![0.0; self.m];
        let mut degen_streak: u32 = 0;
        // Dual-feasibility tolerance, scaled to the cost magnitudes:
        // reduced costs are differences of quantities of order max|c|, so
        // an absolute tolerance far below max|c|·1e-13 would make the
        // pricing loop chase floating-point phantoms forever.
        let dtol = costs.iter().fold(TOL, |a, &c| a.max(c.abs() * 1e-11));
        // Sticky anti-cycling: once Bland's rule engages it stays engaged
        // until the objective makes real progress — otherwise floating-
        // point noise produces one tiny positive step inside a degenerate
        // cycle, resets a naive streak counter, and the Dantzig rule
        // re-enters the same cycle (a livelock).
        let mut bland_mode = false;
        let mut progress_since_bland = 0.0_f64;
        loop {
            if self.iters >= iter_limit {
                return StopReason::Limit;
            }
            if self.iters.is_multiple_of(256) && deadline.expired() {
                return StopReason::Limit;
            }
            self.iters += 1;
            if self.iters.is_multiple_of(REFRESH_PERIOD) {
                self.refresh_basics();
                if self.state_contaminated() {
                    health.nan_events += 1;
                    return StopReason::Numerical;
                }
            }

            // Pricing.
            if degen_streak >= BLAND_TRIGGER && !bland_mode {
                bland_mode = true;
                health.cycling_events += 1;
                progress_since_bland = 0.0;
            }
            if degen_streak >= CYCLE_ABORT {
                // Bland's rule has not escaped the degenerate plateau:
                // declare cycling rather than spin to the iteration limit.
                return StopReason::Numerical;
            }
            self.btran(costs, &mut y);
            let bland = bland_mode;
            let mut enter: Option<(usize, f64, f64)> = None; // (var, d, sigma)
            let mut best_score = 0.0_f64;
            let mut saw_nan = false;
            for j in 0..self.num_vars() {
                if self.in_basis[j] || self.lo[j] >= self.hi[j] - 1e-12 {
                    continue;
                }
                let dj = self.reduced_cost(costs, &y, j);
                if dj.is_nan() {
                    saw_nan = true;
                    break;
                }
                let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
                // Improving when moving off the bound reduces cost.
                if dj * sigma < -dtol {
                    if bland {
                        enter = Some((j, dj, sigma));
                        break;
                    }
                    let score = dj.abs();
                    if enter.is_none() || score > best_score {
                        best_score = score;
                        enter = Some((j, dj, sigma));
                    }
                }
            }
            if saw_nan {
                health.nan_events += 1;
                return StopReason::Numerical;
            }
            let (j, _dj, sigma) = match enter {
                Some(e) => e,
                None => return StopReason::Optimal,
            };

            self.ftran(j, &mut w);

            // Ratio test. x_B(t) = x_B − σ t w; entering moves σt from its
            // bound; it may also flip to its opposite bound. Ties are
            // broken toward larger pivot magnitudes for stability, except
            // under Bland's rule, where the smallest basic variable index
            // must win for the anti-cycling guarantee to hold.
            let mut t_best = self.hi[j] - self.lo[j]; // bound flip distance
            let mut leave: Option<(usize, bool)> = None; // (basis row, leaves_at_upper)
            for i in 0..self.m {
                let k = self.basis[i];
                let delta = -sigma * w[i]; // d x_k / d t
                let (t, at_upper) = if delta > PIVOT_TOL {
                    if !self.hi[k].is_finite() {
                        continue;
                    }
                    (((self.hi[k] - self.x[k]) / delta).max(0.0), true)
                } else if delta < -PIVOT_TOL {
                    if !self.lo[k].is_finite() {
                        continue;
                    }
                    (((self.x[k] - self.lo[k]) / (-delta)).max(0.0), false)
                } else {
                    continue;
                };
                let better = if t < t_best - TOL {
                    true
                } else if t < t_best + TOL {
                    match leave {
                        None => t < t_best, // strictly beat a bound flip
                        Some((li, _)) => {
                            // Two basic candidates within TOL of each other:
                            // a genuine ratio-test tie, whichever side wins.
                            health.ratio_test_ties += 1;
                            if bland {
                                self.basis[i] < self.basis[li]
                            } else {
                                w[i].abs() > w[li].abs()
                            }
                        }
                    }
                } else {
                    false
                };
                if better {
                    t_best = t.min(t_best);
                    leave = Some((i, at_upper));
                }
            }
            if !t_best.is_finite() {
                // Unbounded direction (or NaN from a contaminated ratio
                // test); cannot happen for well-formed 0-1 models but
                // guard against numerical surprises.
                health.nan_events += u64::from(t_best.is_nan());
                return StopReason::Numerical;
            }
            if t_best < 1e-9 {
                degen_streak += 1;
                health.degenerate_pivots += 1;
            } else {
                degen_streak = 0;
            }
            if bland_mode {
                // |d_j|·t is the objective improvement of this step; leave
                // Bland's rule only after progress that is tangible *at
                // the problem's cost scale* (an absolute epsilon would be
                // indistinguishable from round-off when costs are ~1e8).
                progress_since_bland += _dj.abs() * t_best;
                if progress_since_bland > dtol {
                    bland_mode = false;
                    degen_streak = 0;
                    // The guard episode ended with tangible progress:
                    // count the recovery so health consumers can tell a
                    // contained cycle from an unresolved one.
                    health.cycling_recoveries += 1;
                }
            }

            // Apply the step.
            if t_best > 0.0 {
                for (&k, &wi) in self.basis.iter().zip(w.iter()) {
                    self.x[k] -= sigma * t_best * wi;
                }
                self.x[j] += sigma * t_best;
            }
            match leave {
                None => {
                    // Bound flip: j moves to its opposite bound; no basis
                    // change.
                    self.at_upper[j] = !self.at_upper[j];
                    self.x[j] = if self.at_upper[j] {
                        self.hi[j]
                    } else {
                        self.lo[j]
                    };
                }
                Some((r, leaves_upper)) => {
                    let k = self.basis[r];
                    if w[r].abs() < PIVOT_TOL || !w[r].is_finite() {
                        health.unstable_pivots += 1;
                        return StopReason::Numerical;
                    }
                    health.pivots += 1;
                    self.x[k] = if leaves_upper { self.hi[k] } else { self.lo[k] };
                    self.at_upper[k] = leaves_upper;
                    self.in_basis[k] = false;
                    self.basis[r] = j;
                    self.in_basis[j] = true;
                    let wr = w[r];
                    // B⁻¹ update: row r scaled by 1/w_r, eliminated from
                    // the other rows.
                    let (mm, binv) = (self.m, &mut self.binv);
                    for kk in 0..mm {
                        binv[r * mm + kk] /= wr;
                    }
                    for i in 0..mm {
                        if i != r && w[i].abs() > 1e-12 {
                            let f = w[i];
                            for kk in 0..mm {
                                binv[i * mm + kk] -= f * binv[r * mm + kk];
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Solve the LP relaxation of `model` with per-variable bounds `lb`/`ub`
/// (both of length `model.num_vars()`, each within `[0, 1]`).
///
/// `iter_limit` bounds the total simplex iterations across both phases
/// and `deadline` cuts the solve off at a wall-clock instant (the same
/// token the branch-and-bound loop polls, so a caller budget bounds the
/// whole solve). Health counters accumulate into `health`; an abandoned
/// relaxation (limit, deadline or numerical trouble) also bumps
/// [`SolverHealth::lp_aborts`].
///
/// An [`LpOutcome::Optimal`] carries its phase-2 duals and an
/// [`LpOutcome::Infeasible`] its phase-1 Farkas multipliers.
pub fn solve_lp(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    iter_limit: u64,
    deadline: Deadline,
    health: &mut SolverHealth,
) -> LpOutcome {
    debug_assert_eq!(lb.len(), model.num_vars());
    debug_assert_eq!(ub.len(), model.num_vars());
    // Trivial infeasibility: crossed bounds.
    if lb.iter().zip(ub).any(|(l, u)| l > u) {
        return LpOutcome::Infeasible {
            iters: 0,
            farkas: Vec::new(),
        };
    }
    // NaN bounds poison every comparison downstream; report rather than
    // propagate.
    if lb.iter().chain(ub).any(|v| v.is_nan()) {
        health.nan_events += 1;
        health.lp_aborts += 1;
        return LpOutcome::Numerical { iters: 0 };
    }
    let mut t = Tableau::new(model, lb, ub);

    let abort = |reason: StopReason, iters: u64, health: &mut SolverHealth| {
        health.lp_aborts += 1;
        match reason {
            StopReason::Numerical => LpOutcome::Numerical { iters },
            _ => LpOutcome::Limit { iters },
        }
    };

    // Phase 1 (only if artificials exist).
    if t.num_vars() > t.n_art_start {
        let mut costs = vec![0.0; t.num_vars()];
        for c in costs.iter_mut().skip(t.n_art_start) {
            *c = 1.0;
        }
        match t.optimize(&costs, iter_limit, deadline, health) {
            StopReason::Optimal => {}
            r => return abort(r, t.iters, health),
        }
        let infeas: f64 = t.x[t.n_art_start..].iter().sum();
        if infeas.is_nan() {
            health.nan_events += 1;
            return abort(StopReason::Numerical, t.iters, health);
        }
        if infeas > 1e-6 {
            return LpOutcome::Infeasible {
                iters: t.iters,
                farkas: t.duals(&costs),
            };
        }
        // Pin artificials to zero for phase 2.
        for j in t.n_art_start..t.num_vars() {
            t.hi[j] = 0.0;
            if !t.in_basis[j] {
                t.x[j] = 0.0;
            }
        }
    }

    // Phase 2.
    let mut costs = vec![0.0; t.num_vars()];
    costs[..t.n_struct].copy_from_slice(model.costs());
    match t.optimize(&costs, iter_limit, deadline, health) {
        StopReason::Optimal => {}
        r => return abort(r, t.iters, health),
    }
    t.refresh_basics();

    let x: Vec<f64> = (0..t.n_struct)
        .map(|j| t.x[j].clamp(lb[j], ub[j]))
        .collect();
    let obj = x
        .iter()
        .zip(model.costs())
        .map(|(xj, cj)| xj * cj)
        .sum::<f64>();
    if !obj.is_finite() || x.iter().any(|v| !v.is_finite()) {
        health.nan_events += 1;
        return abort(StopReason::Numerical, t.iters, health);
    }
    LpOutcome::Optimal {
        x,
        obj,
        iters: t.iters,
        duals: t.duals(&costs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn lp_in(model: &Model, lb: &[f64], ub: &[f64], iter_limit: u64) -> LpOutcome {
        let mut health = SolverHealth::default();
        solve_lp(
            model,
            lb,
            ub,
            iter_limit,
            Deadline::unlimited(),
            &mut health,
        )
    }

    fn lp(model: &Model) -> LpOutcome {
        let n = model.num_vars();
        lp_in(model, &vec![0.0; n], &vec![1.0; n], 100_000)
    }

    #[test]
    fn unconstrained_minimum_at_bounds() {
        let mut m = Model::new();
        m.add_var(-3.0, "a"); // wants 1
        m.add_var(2.0, "b"); // wants 0
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((x[0] - 1.0).abs() < 1e-6);
                assert!(x[1].abs() < 1e-6);
                assert!((obj + 3.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn knapsack_relaxation_is_fractional() {
        // min -(2a + 3b) s.t. a + b <= 1.5: b = 1, a = 0.5, obj = -4.
        let mut m = Model::new();
        let a = m.add_var(-2.0, "a");
        let b = m.add_var(-3.0, "b");
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.5);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((obj + 4.0).abs() < 1e-6, "obj {obj}");
                assert!((x[0] - 0.5).abs() < 1e-6, "fractional a: {x:?}");
                assert!((x[1] - 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn ge_constraint_forces_value() {
        // min a + 5b s.t. a + b >= 1 -> a = 1
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        let b = m.add_var(5.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 1.0);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, duals, .. } => {
                assert!((x[0] - 1.0).abs() < 1e-6);
                assert!(x[1].abs() < 1e-6);
                assert!((obj - 1.0).abs() < 1e-6);
                // Any price in [1, 5] (a's cost up to b's) gives the row
                // a Lagrangian bound of exactly 1.
                assert!(duals.len() == 1 && (1.0..=5.0).contains(&duals[0]));
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn equality_constraint() {
        // min 2a + b s.t. a + b = 1
        let mut m = Model::new();
        let a = m.add_var(2.0, "a");
        let b = m.add_var(1.0, "b");
        m.add_eq(vec![(a, 1.0), (b, 1.0)], 1.0);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!(x[0].abs() < 1e-6);
                assert!((x[1] - 1.0).abs() < 1e-6);
                assert!((obj - 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // a >= 1 and a <= 0 simultaneously is infeasible for a in [0,1]:
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        m.add_le(vec![(a, 1.0)], 0.0);
        assert!(matches!(lp(&m), LpOutcome::Infeasible { .. }));
    }

    #[test]
    fn infeasible_sum_requirement() {
        // a + b >= 3 with a, b in [0,1] is infeasible.
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 3.0);
        let out = lp(&m);
        // Phase 1 had to run to prove infeasibility; the work is counted,
        // and the `≥` row's Farkas multiplier is positive.
        assert!(out.iters() > 0, "iterations attributed: {out:?}");
        assert!(matches!(&out, LpOutcome::Infeasible { farkas, .. } if farkas[0] > 0.0));
    }

    #[test]
    fn respects_externally_fixed_bounds() {
        // min -a - b s.t. a + b <= 2, with a fixed to 0 by its bounds.
        let mut m = Model::new();
        let a = m.add_var(-1.0, "a");
        let b = m.add_var(-1.0, "b");
        m.add_le(vec![(a, 1.0), (b, 1.0)], 2.0);
        match lp_in(&m, &[0.0, 0.0], &[0.0, 1.0], 10_000) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!(x[0].abs() < 1e-6);
                assert!((x[1] - 1.0).abs() < 1e-6);
                assert!((obj + 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn crossed_bounds_are_infeasible() {
        let mut m = Model::new();
        m.add_var(0.0, "a");
        assert_eq!(
            lp_in(&m, &[1.0], &[0.0], 100),
            LpOutcome::Infeasible {
                iters: 0,
                farkas: Vec::new()
            }
        );
    }

    #[test]
    fn chain_of_implications() {
        // min  5 l1 + 5 l2 - 11 u  s.t. u <= x2, x2 <= x1 + l2, x1 <= l1.
        // Cheapest support for u = 1 is l2 alone (x2 <= x1 + l2 is a
        // disjunction): obj = 5 - 11 = -6.
        let mut m = Model::new();
        let l1 = m.add_var(5.0, "l1");
        let l2 = m.add_var(5.0, "l2");
        let x1 = m.add_var(0.0, "x1");
        let x2 = m.add_var(0.0, "x2");
        let u = m.add_var(-11.0, "u");
        m.add_le(vec![(u, 1.0), (x2, -1.0)], 0.0);
        m.add_le(vec![(x2, 1.0), (x1, -1.0), (l2, -1.0)], 0.0);
        m.add_le(vec![(x1, 1.0), (l1, -1.0)], 0.0);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((x[4] - 1.0).abs() < 1e-6, "u should be taken: {x:?}");
                // l1 and l2 cost the same; exactly one leg pays.
                assert!((x[0] + x[1] - 1.0).abs() < 1e-6, "one support: {x:?}");
                assert!((obj + 6.0).abs() < 1e-6, "obj {obj}");
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn larger_assignment_lp() {
        // 3x3 assignment problem; LP relaxation of assignment is integral.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new();
        let mut v = Vec::new();
        for (i, row) in costs.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                v.push(m.add_var(*c, format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            m.add_eq((0..3).map(|j| (v[i * 3 + j], 1.0)).collect(), 1.0);
            m.add_eq((0..3).map(|j| (v[j * 3 + i], 1.0)).collect(), 1.0);
        }
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                // Optimal assignment: (0,1)=2, (1,2)=7... check best = 2+4+...
                // enumerate: perms costs: 012:4+3+6=13 021:4+7+1=12 102:2+4+6=12
                // 120:2+7+3=12 201:8+4+1=13 210:8+3+3=14 -> min 12.
                assert!((obj - 12.0).abs() < 1e-6, "obj {obj}");
                for xi in &x {
                    assert!(xi.abs() < 1e-6 || (xi - 1.0).abs() < 1e-6, "integral {x:?}");
                }
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn iteration_limit_reported() {
        let mut m = Model::new();
        let a = m.add_var(-1.0, "a");
        m.add_le(vec![(a, 1.0)], 1.0);
        assert_eq!(lp_in(&m, &[0.0], &[1.0], 0), LpOutcome::Limit { iters: 0 });
    }
}
