//! The fault-tolerant allocation pipeline: a staged degradation ladder
//! around the IP allocator.
//!
//! The paper's experimental setup quietly assumes every stage of the
//! allocator runs to completion: the model builds, CPLEX answers within
//! its 1024-second budget, the rewrite applies cleanly. A production
//! allocator cannot assume any of that — a solver can hit numerical
//! trouble, a budget can expire, and a bug anywhere in the pipeline must
//! degrade the *quality* of the allocation, never the *correctness* of
//! the compiler. [`RobustAllocator`] makes the paper's implicit fallback
//! story (unsolved functions go to GCC's allocator) explicit and total:
//!
//! 1. **IP-optimal** — the solver proves optimality ([`Rung::IpOptimal`]).
//! 2. **IP-incumbent** — the solver found its own feasible incumbent but
//!    no proof within the budget ([`Rung::IpIncumbent`]).
//! 3. **Warm start** — the seeded spill-everything *assignment* applied
//!    through the normal rewrite path ([`Rung::WarmStart`]).
//! 4. **Graph coloring** — the baseline allocator, injected through
//!    [`BaselineAllocator`] ([`Rung::Coloring`]).
//! 5. **Spill everything** — the [`crate::fallback`] allocation
//!    ([`Rung::SpillAll`]).
//!
//! No rung's output is trusted. Every candidate must pass structural
//! verification ([`regalloc_ir::verify_allocated`]) *and* an
//! interpreter-equivalence run ([`crate::check::equivalent`]) against the
//! original function before it is accepted; any failure — a panic
//! (isolated with [`std::panic::catch_unwind`]), an expired deadline,
//! solver numerical trouble, or a validation divergence — demotes the
//! ladder to the next rung and records a structured [`ReasonCode`] in the
//! per-function [`AllocReport`].
//!
//! A seeded [`FaultPlan`] can inject failures (forced solver timeouts,
//! panics in build/rewrite, bit-flipped solution vectors) to exercise
//! every demotion edge deterministically; the reason codes recorded are
//! always the *observed* failure, so a corrupted solution vector shows up
//! as the validation failure that caught it.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use regalloc_ilp::{solve_seeded_traced, Deadline, Incumbent, SolverConfig, SolverHealth, Status};
use regalloc_ir::{verify_allocated, Cfg, Function, LoopInfo, Profile};
use regalloc_machine::{refuses, Machine};
use regalloc_obs::{Event, Phase, Tracer};

use crate::stats::SpillStats;
use crate::symbolic::SymbolicSolution;
use crate::{build, check, fallback, rewrite, warm, AllocError, CostModel};

/// The ladder position an allocation came from, best to worst.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Rung {
    /// The IP solver proved the allocation optimal (Table 2 "optimal").
    IpOptimal,
    /// The IP solver found its own incumbent but no optimality proof
    /// (Table 2 "solved", not "optimal").
    IpIncumbent,
    /// The seeded spill-everything assignment applied through the normal
    /// rewrite path — the solver itself produced nothing usable.
    WarmStart,
    /// The injected graph-coloring baseline allocator.
    Coloring,
    /// The last-resort spill-everything fallback.
    SpillAll,
}

impl Rung {
    /// All rungs, best to worst.
    pub const ALL: [Rung; 5] = [
        Rung::IpOptimal,
        Rung::IpIncumbent,
        Rung::WarmStart,
        Rung::Coloring,
        Rung::SpillAll,
    ];

    /// Short stable name (used by the report tables).
    pub fn name(self) -> &'static str {
        match self {
            Rung::IpOptimal => "ip-optimal",
            Rung::IpIncumbent => "ip-incumbent",
            Rung::WarmStart => "warm-start",
            Rung::Coloring => "coloring",
            Rung::SpillAll => "spill-all",
        }
    }

    /// Inverse of [`Rung::name`] (metrics-label and cache parsing).
    pub fn from_name(name: &str) -> Option<Rung> {
        Rung::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a rung was demoted past.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ReasonCode {
    /// The solver's wall-clock budget (or the shared per-function
    /// deadline) expired before this rung could produce anything.
    SolverTimeout,
    /// The solver stopped on a resource limit other than time (nodes,
    /// model size) without producing anything for this rung.
    SolverLimit,
    /// The solver reported numerical trouble (NaN/Inf contamination,
    /// simplex cycling) and its answer cannot be trusted.
    NumericalTrouble,
    /// The model was proved infeasible — with the always-feasible warm
    /// start present this indicates a model-construction bug.
    Infeasible,
    /// A panic was caught while this rung was computing its candidate.
    Panic,
    /// The candidate failed structural verification
    /// ([`regalloc_ir::verify_allocated`]).
    ValidationFailed,
    /// The candidate failed the interpreter-equivalence check
    /// ([`crate::check::equivalent`]).
    EquivalenceFailed,
    /// The candidate failed the static dataflow translation validator
    /// ([`regalloc_lint::validate()`]).
    StaticValidationFailed,
    /// The shared per-function deadline expired before this rung ran.
    DeadlineExceeded,
    /// The rung has no implementation in this pipeline (no baseline
    /// allocator was injected).
    RungUnavailable,
    /// The rung reported a structured error of its own (e.g.
    /// [`fallback::FallbackError`]).
    RungFailed,
    /// The solver's optimality proof failed the exact-rational audit (or
    /// was missing while auditing was required); the solution itself may
    /// still be accepted, one rung lower, without the proof.
    CertificateRejected,
}

impl ReasonCode {
    /// All reason codes, in declaration order.
    pub const ALL: [ReasonCode; 12] = [
        ReasonCode::SolverTimeout,
        ReasonCode::SolverLimit,
        ReasonCode::NumericalTrouble,
        ReasonCode::Infeasible,
        ReasonCode::Panic,
        ReasonCode::ValidationFailed,
        ReasonCode::EquivalenceFailed,
        ReasonCode::StaticValidationFailed,
        ReasonCode::DeadlineExceeded,
        ReasonCode::RungUnavailable,
        ReasonCode::RungFailed,
        ReasonCode::CertificateRejected,
    ];

    /// Inverse of [`ReasonCode::name`] (metrics-label and cache parsing).
    pub fn from_name(name: &str) -> Option<ReasonCode> {
        ReasonCode::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Short stable name (used by the report tables).
    pub fn name(self) -> &'static str {
        match self {
            ReasonCode::SolverTimeout => "solver-timeout",
            ReasonCode::SolverLimit => "solver-limit",
            ReasonCode::NumericalTrouble => "numerical-trouble",
            ReasonCode::Infeasible => "infeasible",
            ReasonCode::Panic => "panic",
            ReasonCode::ValidationFailed => "validation-failed",
            ReasonCode::EquivalenceFailed => "equivalence-failed",
            ReasonCode::StaticValidationFailed => "static-validation-failed",
            ReasonCode::DeadlineExceeded => "deadline-exceeded",
            ReasonCode::RungUnavailable => "rung-unavailable",
            ReasonCode::RungFailed => "rung-failed",
            ReasonCode::CertificateRejected => "certificate-rejected",
        }
    }
}

impl std::fmt::Display for ReasonCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which cross-function seed incumbent actually seeded the IP solve.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum WarmStartKind {
    /// The solve was seeded only by its own spill-everything bound (or
    /// ran cold).
    #[default]
    None,
    /// A cached solution of the *identical* function body seeded the
    /// solve (same fingerprint, different name or a re-run).
    Exact,
    /// A cached solution of a *similar* function was projected onto this
    /// model, survived feasibility, and seeded the solve.
    Projected,
}

impl WarmStartKind {
    /// All kinds, in declaration order.
    pub const ALL: [WarmStartKind; 3] = [
        WarmStartKind::None,
        WarmStartKind::Exact,
        WarmStartKind::Projected,
    ];

    /// Short stable name (used by the report tables).
    pub fn name(self) -> &'static str {
        match self {
            WarmStartKind::None => "none",
            WarmStartKind::Exact => "exact",
            WarmStartKind::Projected => "projected",
        }
    }

    /// Inverse of [`WarmStartKind::name`] (cache and wire parsing).
    pub fn from_name(name: &str) -> Option<WarmStartKind> {
        WarmStartKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl std::fmt::Display for WarmStartKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A donor solution injected into the pipeline: the lifted symbolic
/// decisions of a previously solved (cached) function, to be projected
/// onto the current function's model and offered to the solver as an
/// extra incumbent.
#[derive(Clone, Debug)]
pub struct DonorSolution {
    /// True when the donor's function body is byte-identical to the
    /// current one (same fingerprint) — the projection then maps every
    /// event exactly.
    pub exact: bool,
    /// The donor's allocation in stable IR coordinates.
    pub solution: SymbolicSolution,
}

/// One demotion step: the rung given up on, why, and a human-readable
/// detail (panic message, validation divergence, solver status).
#[derive(Clone, Debug)]
pub struct Demotion {
    /// The rung that failed or was skipped.
    pub from: Rung,
    /// The structured reason.
    pub reason: ReasonCode,
    /// Free-form diagnostic detail.
    pub detail: String,
}

/// Deterministic fault injection for exercising the ladder.
///
/// Faults are injected at the pipeline layer (not inside the solver), so
/// a plan perturbs exactly the failure edges the ladder is supposed to
/// survive. The default plan is clean.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    /// Give the IP solver a zero wall-clock budget, forcing the timeout
    /// path regardless of the configured limit.
    pub force_timeout: bool,
    /// Panic at the start of analysis/model building (takes the IP and
    /// warm-start rungs down together, as a real builder bug would).
    pub panic_in_build: bool,
    /// Panic inside the rewrite of every solver-derived candidate.
    pub panic_in_rewrite: bool,
    /// Flip decision-variable bits of the IP solution before rewrite,
    /// seeded for determinism — the validators must catch the damage.
    pub corrupt_solution: Option<u64>,
}

impl FaultPlan {
    /// The clean plan: no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A pseudo-random plan derived from `seed` (used by the fuzzing
    /// tests to cover fault combinations).
    pub fn seeded(seed: u64) -> FaultPlan {
        let h = regalloc_ir::interp::mix64(seed);
        FaultPlan {
            force_timeout: h & 1 != 0,
            panic_in_build: h & 2 != 0,
            panic_in_rewrite: h & 4 != 0,
            corrupt_solution: (h & 8 != 0).then(|| regalloc_ir::interp::mix64(h | 1)),
        }
    }

    /// True when no fault is armed.
    pub fn is_clean(&self) -> bool {
        *self == FaultPlan::default()
    }
}

/// Outcome of auditing the solver's proof certificate for one function.
#[derive(Clone, Debug)]
pub struct AuditSummary {
    /// The auditor's conclusion.
    pub verdict: regalloc_audit::Verdict,
    /// Leaves of the proof tree whose claim was checked.
    pub leaves: u64,
    /// Slug of the first audit finding (`None` when verified).
    pub code: Option<&'static str>,
    /// Full audit findings, for SARIF/JSON reporting.
    pub diagnostics: Vec<regalloc_lint::Diagnostic>,
}

/// Per-function report: which rung produced the emitted code, every
/// demotion along the way, timings and solver health.
#[derive(Clone, Debug)]
pub struct AllocReport {
    /// Function name.
    pub name: String,
    /// The rung whose (validated) output was accepted.
    pub rung: Rung,
    /// Demotions taken before acceptance, in ladder order.
    pub demotions: Vec<Demotion>,
    /// Time spent in analysis + model building.
    pub build_time: Duration,
    /// Time spent in the IP solver.
    pub solve_time: Duration,
    /// Time spent validating candidates (structural verification plus
    /// interpreter-equivalence runs) across every rung attempted.
    pub validate_time: Duration,
    /// Numerical-health counters accumulated by the solver.
    pub health: SolverHealth,
    /// Branch-and-bound nodes used.
    pub solver_nodes: u64,
    /// Total simplex iterations across every LP relaxation of the solve
    /// (including pruned and abandoned nodes).
    pub lp_iters: u64,
    /// Constraints in the integer program (0 if the model never built).
    pub num_constraints: usize,
    /// Decision variables in the integer program (0 if never built).
    pub num_vars: usize,
    /// Intermediate instructions analysed.
    pub num_insts: usize,
    /// Which injected donor incumbent (if any) seeded the IP solve.
    pub warm_start: WarmStartKind,
    /// Certificate-audit outcome, when auditing was enabled and the
    /// solver claimed a proved status.
    pub audit: Option<AuditSummary>,
}

impl AllocReport {
    /// Table 2 "solved": the IP solver's own answer was accepted.
    pub fn solved(&self) -> bool {
        matches!(self.rung, Rung::IpOptimal | Rung::IpIncumbent)
    }

    /// Table 2 "optimal": the accepted answer carries an optimality proof.
    pub fn solved_optimally(&self) -> bool {
        self.rung == Rung::IpOptimal
    }

    /// True if any demotion was taken.
    pub fn degraded(&self) -> bool {
        !self.demotions.is_empty()
    }
}

/// The result of a robust allocation: runnable, validated code plus the
/// report describing how it was obtained.
#[derive(Clone, Debug)]
pub struct RobustOutcome {
    /// The rewritten function (validated: structural + equivalence).
    pub func: Function,
    /// Spill accounting for the accepted rung.
    pub stats: SpillStats,
    /// How the ladder got here.
    pub report: AllocReport,
    /// The accepted decision vector lifted into stable IR coordinates
    /// (model-derived rungs only: IP and warm-start). `None` for the
    /// coloring and spill-all rungs, which never touch the model.
    pub symbolic: Option<SymbolicSolution>,
    /// The audit-verified proof certificate, present only when auditing
    /// was on, the accepted rung is [`Rung::IpOptimal`] and the audit
    /// verified it (the driver cache persists it for hit-time re-audit).
    pub certificate: Option<regalloc_ilp::Certificate>,
}

/// The injected graph-coloring rung.
///
/// `regalloc-coloring` depends on this crate, so the pipeline cannot name
/// `ColoringAllocator` directly; the baseline is injected through this
/// object-safe trait instead (implemented by `ColoringAllocator`).
pub trait BaselineAllocator {
    /// Produce a complete allocation of `f`, or a description of why the
    /// baseline could not.
    fn allocate_baseline(
        &self,
        f: &Function,
        profile: &Profile,
    ) -> Result<(Function, SpillStats), String>;
}

/// The allocator: build → solve → rewrite, wrapped in the validated
/// degradation ladder described in the module docs.
///
/// Interpreter-equivalence validation runs on the register file the
/// machine model itself supplies ([`Machine::new_regfile`]), so the
/// allocator is target-generic — `M` may be a concrete model or
/// `dyn Machine`.
pub struct RobustAllocator<'m, M: ?Sized> {
    machine: &'m M,
    cost: CostModel,
    solver: SolverConfig,
    budget: Duration,
    equiv_runs: usize,
    equiv_seed: u64,
    static_validation: bool,
    audit: bool,
    faults: FaultPlan,
    baseline: Option<&'m dyn BaselineAllocator>,
    donor: Option<DonorSolution>,
}

/// Stringify a caught panic payload.
fn panic_msg(e: Box<dyn Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<'m, M: Machine + ?Sized> RobustAllocator<'m, M> {
    /// A robust allocator with the paper's cost weights, the default
    /// solver budget, a 30-second per-function wall-clock deadline across
    /// all rungs, and 4 equivalence runs per candidate.
    pub fn new(machine: &'m M) -> RobustAllocator<'m, M> {
        RobustAllocator {
            machine,
            cost: CostModel::paper(),
            solver: SolverConfig::default(),
            budget: Duration::from_secs(30),
            equiv_runs: 4,
            equiv_seed: 0x0b5e55ed,
            static_validation: true,
            audit: false,
            faults: FaultPlan::none(),
            baseline: None,
            donor: None,
        }
    }

    /// Replace the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the IP solver configuration.
    pub fn with_solver_config(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Replace the shared per-function wall-clock budget. The solver gets
    /// at most `min(budget, solver.time_limit)`; lower rungs run even
    /// after expiry (code must still be emitted) but intermediate rungs
    /// are skipped with [`ReasonCode::DeadlineExceeded`].
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Configure the equivalence validator (`runs` random argument
    /// vectors from `seed`). `runs = 0` disables interpreter validation
    /// (structural verification still runs).
    pub fn with_equivalence(mut self, runs: usize, seed: u64) -> Self {
        self.equiv_runs = runs;
        self.equiv_seed = seed;
        self
    }

    /// Enable or disable the static dataflow translation validator
    /// ([`regalloc_lint::validate()`]) in candidate acceptance. On by
    /// default; disabling leaves only structural verification and the
    /// (sampled) interpreter-equivalence check.
    pub fn with_static_validation(mut self, on: bool) -> Self {
        self.static_validation = on;
        self
    }

    /// Enable certificate auditing: the solver is asked to emit proof
    /// certificates and every optimality claim must survive the exact
    /// rational audit ([`regalloc_audit::audit_solution`]) before the
    /// [`Rung::IpOptimal`] rung is accepted. A rejected or missing
    /// certificate demotes the claim to [`Rung::IpIncumbent`] with
    /// [`ReasonCode::CertificateRejected`] — the allocation itself is
    /// still used (it passes the same validation as any candidate), only
    /// the optimality proof is withdrawn. Off by default.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Arm a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Inject the graph-coloring rung.
    pub fn with_baseline(mut self, baseline: &'m dyn BaselineAllocator) -> Self {
        self.baseline = Some(baseline);
        self
    }

    /// Inject a donor solution (the lifted allocation of an identical or
    /// similar cached function). Its projection onto this function's
    /// model, when feasible, is offered to the solver as an extra
    /// incumbent; an infeasible projection is dropped silently, so a bad
    /// donor can only fail to speed the solve up, never change its
    /// result's correctness.
    pub fn with_donor(mut self, donor: Option<DonorSolution>) -> Self {
        self.donor = donor;
        self
    }

    /// The machine model in use.
    pub fn machine(&self) -> &M {
        self.machine
    }

    /// Validate a candidate: structural verification, then interpreter
    /// equivalence against the original function.
    fn validate(
        &self,
        orig: &Function,
        cand: &Function,
        tracer: &Tracer,
    ) -> Result<(), (ReasonCode, String)> {
        {
            let _s = tracer.span(Phase::Verify);
            if let Err(errs) = verify_allocated(cand) {
                return Err((
                    ReasonCode::ValidationFailed,
                    format!(
                        "{} structural errors, first: {:?}",
                        errs.len(),
                        errs.first()
                    ),
                ));
            }
        }
        if self.static_validation {
            let _s = tracer.span(Phase::StaticValidate);
            let errs = regalloc_lint::validate(self.machine, orig, cand);
            if !errs.is_empty() {
                return Err((
                    ReasonCode::StaticValidationFailed,
                    format!("{} static errors, first: {}", errs.len(), errs[0]),
                ));
            }
        }
        if self.equiv_runs > 0 {
            let _s = tracer.span(Phase::InterpCheck);
            check::equivalent_with(orig, cand, self.equiv_runs, self.equiv_seed, || {
                self.machine.new_regfile()
            })
            .map_err(|e| (ReasonCode::EquivalenceFailed, e))?;
        }
        Ok(())
    }

    /// Allocate registers for `f` through the degradation ladder.
    ///
    /// Phase spans (build → solve → rewrite → verify → static-validate →
    /// interp-check), model/demotion/acceptance events and the solver's
    /// own search events land on `tracer`. A disabled tracer
    /// ([`Tracer::off`]) costs one branch per hook.
    ///
    /// # Errors
    ///
    /// * [`AllocError::WidthRefused`] — the function is not attempted on
    ///   this machine, as in Table 2 of the paper.
    /// * [`AllocError::LadderExhausted`] — every rung, including the
    ///   spill-everything fallback, failed to produce a validated
    ///   allocation. Unreachable on the provided machine models unless a
    ///   fault plan sabotages the fallback itself.
    pub fn allocate(&self, f: &Function, tracer: &Tracer) -> Result<RobustOutcome, AllocError> {
        if refuses(self.machine, f) {
            return Err(AllocError::WidthRefused);
        }
        let cfg = Cfg::new(f);
        let profile = &Profile::estimate(f, &cfg, &LoopInfo::new(f, &cfg));
        let deadline = Deadline::after(self.budget);
        let mut demotions: Vec<Demotion> = Vec::new();
        let mut health = SolverHealth::default();
        let mut solve_time = Duration::ZERO;
        let mut validate_time = Duration::ZERO;
        let mut solver_nodes = 0u64;
        let mut lp_iters = 0u64;
        let mut num_constraints = 0usize;
        let mut num_vars = 0usize;
        let mut warm_kind = WarmStartKind::None;
        let mut audit_summary: Option<AuditSummary> = None;
        let mut certificate: Option<regalloc_ilp::Certificate> = None;

        // ---- Stage 1: analysis + model build (guarded). -------------------
        // A panic here takes the IP and warm-start rungs down together:
        // all three need the built model.
        let faults = self.faults;
        let t0 = Instant::now();
        let built_parts = {
            let _s = tracer.span(Phase::Build);
            catch_unwind(AssertUnwindSafe(|| {
                assert!(!faults.panic_in_build, "fault injection: panic_in_build");
                let fm = build::build_profiled(f, &cfg, profile, self.machine, &self.cost);
                let warm =
                    warm::spill_everything_assignment(f, &fm.analysis, &fm.built, self.machine);
                (fm, warm)
            }))
        };
        let build_time = t0.elapsed();

        macro_rules! finish {
            ($rung:expr, $func:expr, $stats:expr, $symbolic:expr) => {{
                let rung: Rung = $rung;
                tracer.event(|| Event::Accepted {
                    rung: rung.name(),
                    warm_start: warm_kind.name(),
                });
                return Ok(RobustOutcome {
                    func: $func,
                    stats: $stats,
                    report: AllocReport {
                        name: f.name().to_string(),
                        rung,
                        demotions,
                        build_time,
                        solve_time,
                        validate_time,
                        health,
                        solver_nodes,
                        lp_iters,
                        num_constraints,
                        num_vars,
                        num_insts: f.num_insts(),
                        warm_start: warm_kind,
                        audit: audit_summary.take(),
                    },
                    symbolic: $symbolic,
                    certificate: if rung == Rung::IpOptimal {
                        certificate.take()
                    } else {
                        None
                    },
                });
            }};
        }

        // Record a demotion and mirror it as a trace event.
        macro_rules! demote {
            ($rung:expr, $reason:expr, $detail:expr) => {{
                let rung: Rung = $rung;
                let reason: ReasonCode = $reason;
                tracer.event(|| Event::Demoted {
                    rung: rung.name(),
                    reason: reason.name(),
                });
                demotions.push(Demotion {
                    from: rung,
                    reason,
                    detail: $detail,
                });
            }};
        }

        let model_rungs = match built_parts {
            Ok((fm, warm)) => Some((fm.analysis, fm.built, warm)),
            Err(e) => {
                let msg = panic_msg(e);
                for rung in [Rung::IpOptimal, Rung::IpIncumbent, Rung::WarmStart] {
                    demote!(
                        rung,
                        ReasonCode::Panic,
                        format!("model build panicked: {msg}")
                    );
                }
                None
            }
        };

        // ---- Stage 2: solve + rewrite the solver-derived rungs. -----------
        if let Some((analysis, built, warm_values)) = model_rungs {
            num_constraints = built.model.num_rows();
            num_vars = built.model.num_vars();
            tracer.event(|| Event::ModelBuilt {
                insts: f.num_insts() as u64,
                vars: num_vars as u64,
                constraints: num_constraints as u64,
            });

            let solve_deadline = if faults.force_timeout {
                Deadline::after(Duration::ZERO)
            } else {
                deadline
            };
            // Assemble the seed incumbents: the spill-everything bound
            // plus, when a donor was injected, its projection onto this
            // model. An infeasible projection is dropped silently — a
            // donor can only speed the solve up, never corrupt it.
            let mut seeds: Vec<Incumbent> = Vec::new();
            if let Some(w) = &warm_values {
                seeds.push(Incumbent {
                    source: "spill",
                    values: w.clone(),
                });
            }
            if let Some(donor) = &self.donor {
                let base: &[bool] = warm_values.as_deref().unwrap_or(&[]);
                // Same containment as the solver itself: a donor is
                // foreign data, and a panic while mapping it must cost
                // the seed, never the function.
                let proj = catch_unwind(AssertUnwindSafe(|| {
                    let proj = built.project(&donor.solution, base);
                    built.model.is_feasible(&proj).then_some(proj)
                }));
                let source = if donor.exact { "exact" } else { "projected" };
                if let Ok(Some(proj)) = proj {
                    seeds.push(Incumbent {
                        source,
                        values: proj,
                    });
                } else {
                    tracer.event(|| Event::SeedRejected {
                        source,
                        reason: "infeasible-projection",
                    });
                }
            }
            // Auditing needs the solver's proof; emission is pure
            // observation (same pivots, same events, same solution), so
            // flipping it on cannot change the allocation.
            let solver_cfg = SolverConfig {
                emit_certificates: self.audit,
                ..self.solver.clone()
            };
            let sol = catch_unwind(AssertUnwindSafe(|| {
                solve_seeded_traced(&built.model, &solver_cfg, &seeds, solve_deadline, tracer)
            }));

            // Each solver-derived rung is a (rung, values) candidate; the
            // first whose rewrite + validation succeeds wins.
            let mut candidates: Vec<(Rung, Vec<bool>)> = Vec::new();
            match sol {
                Ok(sol) => {
                    solve_time = sol.solve_time;
                    solver_nodes = sol.nodes;
                    lp_iters = sol.lp_iters;
                    health.merge(&sol.health);
                    warm_kind = match sol.incumbent_source {
                        Some("exact") => WarmStartKind::Exact,
                        Some("projected") => WarmStartKind::Projected,
                        _ => WarmStartKind::None,
                    };
                    let (ip_reason, ip_detail) = match sol.status {
                        Status::Optimal if self.audit => {
                            let outcome = {
                                let _s = tracer.span(Phase::Audit);
                                regalloc_audit::audit_solution(&built.model, &sol)
                            };
                            let leaves = outcome.leaves_checked;
                            match outcome.verdict {
                                regalloc_audit::Verdict::Verified => {
                                    tracer.event(|| Event::CertificateChecked { leaves });
                                    audit_summary = Some(AuditSummary {
                                        verdict: outcome.verdict,
                                        leaves,
                                        code: None,
                                        diagnostics: Vec::new(),
                                    });
                                    certificate = sol.certificate.clone();
                                    candidates.push((Rung::IpOptimal, sol.values.clone()));
                                    (None, String::new())
                                }
                                _ => {
                                    let code = outcome.primary_code().unwrap_or("unknown");
                                    tracer.event(|| Event::CertificateRejected { code });
                                    audit_summary = Some(AuditSummary {
                                        verdict: outcome.verdict,
                                        leaves,
                                        code: Some(code),
                                        diagnostics: outcome.diagnostics,
                                    });
                                    // The assignment is still a checked,
                                    // validated allocation — only the
                                    // optimality proof is withdrawn.
                                    candidates.push((Rung::IpIncumbent, sol.values.clone()));
                                    (
                                        Some(ReasonCode::CertificateRejected),
                                        format!("certificate audit failed: {code}"),
                                    )
                                }
                            }
                        }
                        Status::Optimal => {
                            candidates.push((Rung::IpOptimal, sol.values.clone()));
                            (None, String::new())
                        }
                        Status::Feasible if !sol.warm_start_only => {
                            candidates.push((Rung::IpIncumbent, sol.values.clone()));
                            (
                                Some(ReasonCode::SolverTimeout),
                                "no optimality proof within budget".to_string(),
                            )
                        }
                        // A donor incumbent the search could not beat is
                        // still an IP-derived allocation — it was solved
                        // to (or near) optimality for its donor and is
                        // feasible on this model. A better seed must
                        // never produce a worse rung, so only the
                        // spill-everything seed demotes.
                        Status::Feasible if sol.incumbent_source != Some("spill") => {
                            candidates.push((Rung::IpIncumbent, sol.values.clone()));
                            (
                                Some(ReasonCode::SolverTimeout),
                                "best known is the seeded donor incumbent".to_string(),
                            )
                        }
                        Status::Feasible => (
                            Some(ReasonCode::SolverTimeout),
                            "solver returned only the seeded warm start".to_string(),
                        ),
                        Status::NumericalTrouble => (
                            Some(ReasonCode::NumericalTrouble),
                            format!("solver health: {:?}", sol.health),
                        ),
                        Status::Infeasible => (
                            Some(ReasonCode::Infeasible),
                            "model proved infeasible".to_string(),
                        ),
                        Status::Unknown => (
                            Some(ReasonCode::SolverLimit),
                            "solver stopped with nothing usable".to_string(),
                        ),
                    };
                    if let Some(reason) = ip_reason {
                        let until = if candidates.is_empty() {
                            // Neither IP rung has a candidate.
                            vec![Rung::IpOptimal, Rung::IpIncumbent]
                        } else {
                            vec![Rung::IpOptimal]
                        };
                        for rung in until {
                            demote!(rung, reason, ip_detail.clone());
                        }
                    }
                }
                Err(e) => {
                    let msg = panic_msg(e);
                    for rung in [Rung::IpOptimal, Rung::IpIncumbent] {
                        demote!(rung, ReasonCode::Panic, format!("solver panicked: {msg}"));
                    }
                }
            }
            match warm_values {
                Some(w) => candidates.push((Rung::WarmStart, w)),
                // Satellite of the machine model: no admissible scratch
                // or definition register somewhere — skip the rung
                // instead of panicking.
                None => demote!(
                    Rung::WarmStart,
                    ReasonCode::RungFailed,
                    "no admissible spill-everything warm start".to_string()
                ),
            }

            for (rung, mut values) in candidates {
                if deadline.expired() && rung != Rung::WarmStart {
                    demote!(
                        rung,
                        ReasonCode::DeadlineExceeded,
                        "per-function budget expired".to_string()
                    );
                    continue;
                }
                // Bit-flip fault: damage solver-produced vectors only; the
                // validators below must catch it.
                if let (Some(seed), true) = (faults.corrupt_solution, rung != Rung::WarmStart) {
                    if !values.is_empty() {
                        for k in 0..8 {
                            let i = regalloc_ir::interp::mix64(seed ^ k) as usize % values.len();
                            values[i] = !values[i];
                        }
                    }
                }
                let cand = {
                    let _s = tracer.span(Phase::Rewrite);
                    catch_unwind(AssertUnwindSafe(|| {
                        assert!(
                            !faults.panic_in_rewrite,
                            "fault injection: panic_in_rewrite"
                        );
                        rewrite::apply(f, profile, &analysis, &built, &values, self.machine)
                    }))
                };
                let (func, stats) = match cand {
                    Ok(pair) => pair,
                    Err(e) => {
                        demote!(
                            rung,
                            ReasonCode::Panic,
                            format!("rewrite panicked: {}", panic_msg(e))
                        );
                        continue;
                    }
                };
                let tv = Instant::now();
                let valid = self.validate(f, &func, tracer);
                validate_time += tv.elapsed();
                match valid {
                    Ok(()) => finish!(rung, func, stats, Some(built.lift(&values))),
                    Err((reason, detail)) => {
                        demote!(rung, reason, detail);
                    }
                }
            }
        }

        // ---- Stage 3: the graph-coloring baseline (guarded). --------------
        match self.baseline {
            None => demote!(
                Rung::Coloring,
                ReasonCode::RungUnavailable,
                "no baseline allocator injected".to_string()
            ),
            Some(_) if deadline.expired() => demote!(
                Rung::Coloring,
                ReasonCode::DeadlineExceeded,
                "per-function budget expired".to_string()
            ),
            Some(baseline) => {
                let cand = {
                    let _s = tracer.span(Phase::Baseline);
                    catch_unwind(AssertUnwindSafe(|| baseline.allocate_baseline(f, profile)))
                };
                match cand {
                    Ok(Ok((func, stats))) => {
                        let tv = Instant::now();
                        let valid = self.validate(f, &func, tracer);
                        validate_time += tv.elapsed();
                        match valid {
                            Ok(()) => finish!(Rung::Coloring, func, stats, None),
                            Err((reason, detail)) => demote!(Rung::Coloring, reason, detail),
                        }
                    }
                    Ok(Err(msg)) => demote!(Rung::Coloring, ReasonCode::RungFailed, msg),
                    Err(e) => demote!(
                        Rung::Coloring,
                        ReasonCode::Panic,
                        format!("baseline panicked: {}", panic_msg(e))
                    ),
                }
            }
        }

        // ---- Stage 4: spill everything — the rung of last resort. ---------
        // Runs even past the deadline: code must still be emitted.
        let cand = {
            let _s = tracer.span(Phase::Fallback);
            catch_unwind(AssertUnwindSafe(|| {
                fallback::spill_everything(f, profile, self.machine)
            }))
        };
        match cand {
            Ok(Ok((func, stats))) => {
                let tv = Instant::now();
                let valid = self.validate(f, &func, tracer);
                validate_time += tv.elapsed();
                match valid {
                    Ok(()) => finish!(Rung::SpillAll, func, stats, None),
                    Err((reason, detail)) => {
                        demote!(Rung::SpillAll, reason, detail);
                        Err(AllocError::LadderExhausted)
                    }
                }
            }
            Ok(Err(e)) => {
                demote!(Rung::SpillAll, ReasonCode::RungFailed, e.to_string());
                Err(AllocError::LadderExhausted)
            }
            Err(e) => {
                demote!(
                    Rung::SpillAll,
                    ReasonCode::Panic,
                    format!("fallback panicked: {}", panic_msg(e))
                );
                Err(AllocError::LadderExhausted)
            }
        }
    }
}
