//! `regalloc-driver` — the batch allocation service.
//!
//! The paper allocates each SPECint92 function independently under a
//! per-function solver budget (1024 s, Table 2): an embarrassingly
//! parallel workload that the bench harness nevertheless ran one function
//! at a time on one core. This crate turns the per-function
//! [`RobustAllocator`](regalloc_core::RobustAllocator) pipeline into a suite-level service:
//!
//! * a hand-rolled **work-stealing thread pool** ([`pool`]) shards the
//!   suite across `jobs` workers;
//! * a **content-addressed solution cache** ([`cache`]) memoizes
//!   allocations under a canonical hash of function body, machine model
//!   and solver configuration, persisted on disk so repeat runs are
//!   warm — every hit is re-verified through
//!   [`regalloc_ir::verify_allocated`] before being trusted;
//! * **deadline-aware scheduling** ([`schedule`]) orders the queue
//!   cheapest-model-first and divides an optional global wall-clock
//!   budget into shrinking per-function grants, mirroring how the
//!   paper's 1024-second limit bounded tail functions — exhausted budget
//!   demotes tail functions down the degradation ladder instead of
//!   hanging the run;
//! * **cross-function warm starts** — on a cache miss the driver finds
//!   the nearest previously-solved function by shape vector, projects its
//!   stored symbolic solution ([`regalloc_core::SymbolicSolution`]) onto
//!   the new function's model and hands the feasibility-checked result to
//!   the solver as an extra incumbent. A donor can only prune the
//!   branch-and-bound search: accepted allocations are identical with
//!   warm starts on or off whenever the solver reaches optimality.
//!
//! # Determinism
//!
//! [`run_suite`] returns results in suite order regardless of worker
//! count or completion order. Allocations, statistics and reports are
//! byte-identical for any `jobs` value provided the wall-clock limits do
//! not bind (the solver's node and iteration limits, which normally
//! terminate a solve, are deterministic). Only timing fields
//! ([`FunctionResult::task_time`], [`DriverStats`] clocks) vary run to
//! run. On a *cold* run the cache-hit accounting may differ across
//! worker counts when a suite contains identically-bodied functions
//! (with `jobs = 1` the second body hits the first's fresh entry; with
//! racing workers both may solve) — the allocations themselves are still
//! identical, which is what the guarantee covers.
//!
//! # Example
//!
//! ```
//! use regalloc_driver::{run_suite, CacheMode, DriverConfig};
//! use regalloc_workloads::{Benchmark, Suite};
//!
//! let suite = Suite::generate_scaled(Benchmark::Compress, 1998, 0.1);
//! let cfg = DriverConfig {
//!     jobs: 2,
//!     cache: CacheMode::Memory,
//!     ..DriverConfig::default()
//! };
//! let out = run_suite(&suite.functions, &cfg);
//! assert_eq!(out.results.len(), suite.functions.len());
//! assert!(out.results.iter().all(|r| !r.attempted || r.func.is_some()));
//! ```

pub mod cache;
pub mod observatory;
pub mod pool;
pub mod schedule;
pub mod service;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use regalloc_core::{ReasonCode, Rung, SpillStats, WarmStartKind};
use regalloc_ilp::{SolverConfig, SolverHealth};
use regalloc_ir::Function;
use regalloc_machine::TargetId;
use regalloc_obs::{jsonl_events, jsonl_timings, FunctionTrace, Metrics, Phase};

use cache::CacheLimits;
use schedule::BudgetGovernor;
pub use service::{parse_functions, AllocationService, BudgetSource, FixedGrant, RequestOptions};

/// Where solved allocations are memoized.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache at all (every function is solved fresh).
    Off,
    /// In-memory only: deduplicates identical bodies within one run.
    Memory,
    /// Memory plus one file per entry under the given directory, so
    /// repeat runs are warm.
    Disk(PathBuf),
}

/// Configuration for a batch run.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// The target machine every function is allocated for. Resolved to a
    /// concrete model through `regalloc_core::targets::machine_for`; part
    /// of the solution-cache key, so one cache directory serves any mix
    /// of targets without cross-contamination.
    pub target: TargetId,
    /// Worker threads (0 is treated as 1).
    pub jobs: usize,
    /// IP solver configuration, applied to every function (part of the
    /// cache key).
    pub solver: SolverConfig,
    /// Per-function wall-clock ceiling across all ladder rungs (the
    /// paper's 1024-second analogue).
    pub function_budget: Duration,
    /// Optional wall-clock budget for the whole suite; per-function
    /// grants shrink as it drains. `None` = unlimited.
    pub global_budget: Option<Duration>,
    /// Solution-cache placement.
    pub cache: CacheMode,
    /// Solution-cache capacity bounds (LRU eviction; unlimited by
    /// default). A long-lived daemon sets these so the cache cannot grow
    /// without bound.
    pub cache_limits: CacheLimits,
    /// Interpreter-equivalence runs per accepted candidate (0 disables;
    /// structural verification always runs).
    pub equiv_runs: usize,
    /// Seed for the equivalence argument vectors.
    pub equiv_seed: u64,
    /// Also run the graph-coloring baseline on every function and attach
    /// the outcome (used by the paper-table harness).
    pub compare_baseline: bool,
    /// Run the `regalloc-lint` quality lints over every accepted
    /// allocation and attach the diagnostics to the result.
    pub lint: bool,
    /// Statically re-validate cache hits with the dataflow translation
    /// validator before trusting them; failing entries are evicted and
    /// the function is solved fresh.
    pub revalidate_cache: bool,
    /// Seed cache misses with the nearest cached symbolic solution
    /// (projected onto the new function's model) as a second solver
    /// incumbent. Pure acceleration: projections are feasibility-checked
    /// before seeding and only ever prune the search.
    pub warm_starts: bool,
    /// Maximum shape-vector distance (relative L1, in `[0, 1]`) at which
    /// a cached solution is considered a warm-start donor.
    pub warm_start_distance: f64,
    /// Audit every optimality claim with the exact-rational certificate
    /// checker (`regalloc-audit`): fresh solves run under
    /// [`regalloc_core::RobustAllocator::with_audit`], and cache hits at
    /// the ip-optimal rung are only trusted after their persisted
    /// certificate re-verifies against a freshly rebuilt model (a
    /// rejected or absent certificate evicts the entry and re-solves).
    /// Accepted audited entries persist their certificate so warm runs
    /// stay warm.
    pub audit: bool,
    /// Record a structured solve trace ([`regalloc_obs::FunctionTrace`])
    /// for every function and attach it to the result. Off by default:
    /// the deterministic pipeline pays only a branch per hook when
    /// disabled. Trace *events* are deterministic across `--jobs` values;
    /// only the timing records vary.
    pub trace: bool,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        let solver = SolverConfig::default();
        let function_budget = solver
            .time_limit
            .saturating_mul(4)
            .max(Duration::from_secs(8));
        DriverConfig {
            target: TargetId::default(),
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            solver,
            function_budget,
            global_budget: None,
            cache: CacheMode::Memory,
            cache_limits: CacheLimits::unlimited(),
            equiv_runs: 2,
            equiv_seed: 0x0b5e55ed,
            compare_baseline: false,
            lint: false,
            revalidate_cache: true,
            warm_starts: true,
            warm_start_distance: 0.25,
            audit: false,
            trace: false,
        }
    }
}

/// The graph-coloring baseline's outcome for one function (present when
/// [`DriverConfig::compare_baseline`] is set).
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// The baseline allocation.
    pub func: Function,
    /// Its spill accounting.
    pub stats: SpillStats,
    /// Its encoded size in bytes.
    pub bytes: u64,
}

/// Per-function outcome of a batch run.
#[derive(Clone, Debug)]
pub struct FunctionResult {
    /// Function name.
    pub name: String,
    /// False for functions with 64-bit values (not attempted, as in
    /// Table 2).
    pub attempted: bool,
    /// The accepted allocation (`None` when not attempted or errored).
    pub func: Option<Function>,
    /// Spill accounting of the accepted allocation.
    pub stats: SpillStats,
    /// Ladder rung that served the function.
    pub rung: Option<Rung>,
    /// Demotion reasons recorded on the way down.
    pub reasons: Vec<ReasonCode>,
    /// Constraints in the integer program.
    pub num_constraints: usize,
    /// Decision variables in the integer program.
    pub num_vars: usize,
    /// Intermediate instructions.
    pub num_insts: usize,
    /// Branch-and-bound nodes used (0 on a cache hit).
    pub solver_nodes: u64,
    /// Simplex iterations across every LP relaxation of the solve,
    /// including pruned and abandoned nodes (the original solve's, on a
    /// cache hit).
    pub lp_iters: u64,
    /// IP solve time (zero on a cache hit; a timing field, varies).
    pub solve_time: Duration,
    /// Model build time (zero on a cache hit; a timing field, varies).
    pub build_time: Duration,
    /// Validation time across accepted candidates (zero on a cache hit;
    /// a timing field, varies).
    pub validate_time: Duration,
    /// Flight-recorder counters accumulated across every solve the
    /// ladder ran for this function (zero on a cache hit or when no IP
    /// rung was reached). Deterministic across worker counts and runs.
    pub health: SolverHealth,
    /// Encoded size of the accepted allocation, in bytes.
    pub ip_bytes: u64,
    /// Whether the solution cache served this function.
    pub cache_hit: bool,
    /// Which warm start the accepted solve consumed (the original
    /// solve's, on a cache hit).
    pub warm_start: WarmStartKind,
    /// Wall-clock budget the governor granted (full configured budget on
    /// a cache hit, which consumes none of it).
    pub granted_budget: Duration,
    /// The scheduler's constraint-count estimate.
    pub estimate: usize,
    /// Wall-clock time this function's task took (a timing field).
    pub task_time: Duration,
    /// Quality lints over the accepted allocation (populated when
    /// [`DriverConfig::lint`] is set).
    pub lints: Vec<regalloc_lint::Diagnostic>,
    /// Certificate-audit outcome (populated when [`DriverConfig::audit`]
    /// is set and the function carried an optimality claim — fresh solve
    /// or re-audited cache hit alike).
    pub audit: Option<regalloc_core::AuditSummary>,
    /// Graph-coloring comparison, when requested.
    pub baseline: Option<BaselineResult>,
    /// The structured solve trace (populated when [`DriverConfig::trace`]
    /// is set).
    pub trace: Option<FunctionTrace>,
    /// This task's metrics shard; [`run_suite`] merges shards in suite
    /// order into [`SuiteOutcome::metrics`].
    pub metrics: Metrics,
    /// Set when the ladder itself failed (effectively unreachable
    /// without fault injection).
    pub error: Option<String>,
}

impl FunctionResult {
    /// Table 2 "solved": an IP rung served the function.
    pub fn solved(&self) -> bool {
        matches!(self.rung, Some(Rung::IpOptimal) | Some(Rung::IpIncumbent))
    }

    /// Table 2 "optimal".
    pub fn solved_optimally(&self) -> bool {
        self.rung == Some(Rung::IpOptimal)
    }
}

/// Aggregate accounting for a batch run.
#[derive(Clone, Debug)]
pub struct DriverStats {
    /// Functions in the suite.
    pub functions: usize,
    /// Functions attempted (no 64-bit values).
    pub attempted: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock time for the whole suite.
    pub wall_time: Duration,
    /// Sum of per-function task times — the sequential-equivalent cost,
    /// so `cpu_time / wall_time` estimates the parallel speedup.
    pub cpu_time: Duration,
    /// Functions served from the solution cache.
    pub cache_hits: usize,
    /// Functions solved fresh.
    pub cache_misses: usize,
    /// Cache entries rejected by checksum/parse/verification.
    pub cache_rejected: usize,
    /// Fresh solves whose accepted incumbent came from an exact-match
    /// donor solution.
    pub warm_exact: usize,
    /// Fresh solves whose accepted incumbent came from a projected
    /// (nearest-shape) donor solution.
    pub warm_projected: usize,
    /// Functions served per rung, ladder order.
    pub rungs: Vec<(Rung, usize)>,
    /// Busy time per worker.
    pub worker_busy: Vec<Duration>,
}

impl DriverStats {
    /// Cache hits over attempted functions (0.0 with nothing attempted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Functions per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall_time.is_zero() {
            0.0
        } else {
            self.functions as f64 / self.wall_time.as_secs_f64()
        }
    }

    /// Estimated wall-clock speedup over running the same tasks
    /// sequentially (sum of task times / wall time).
    pub fn speedup(&self) -> f64 {
        if self.wall_time.is_zero() {
            0.0
        } else {
            self.cpu_time.as_secs_f64() / self.wall_time.as_secs_f64()
        }
    }

    /// Mean busy fraction across workers.
    pub fn utilization(&self) -> f64 {
        if self.worker_busy.is_empty() || self.wall_time.is_zero() {
            return 0.0;
        }
        let total: Duration = self.worker_busy.iter().sum();
        total.as_secs_f64() / (self.wall_time.as_secs_f64() * self.worker_busy.len() as f64)
    }
}

/// A completed batch run.
#[derive(Clone, Debug)]
pub struct SuiteOutcome {
    /// Per-function results, in suite order.
    pub results: Vec<FunctionResult>,
    /// Aggregate accounting.
    pub stats: DriverStats,
    /// Per-task metric shards merged in suite order, plus suite-level
    /// gauges. Counter and histogram totals here are the authoritative
    /// aggregates (the report tables derive from this registry).
    pub metrics: Metrics,
}

pub(crate) fn not_attempted(f: &Function, estimate: usize) -> FunctionResult {
    FunctionResult {
        name: f.name().to_string(),
        attempted: false,
        func: None,
        stats: SpillStats::default(),
        rung: None,
        reasons: Vec::new(),
        num_constraints: 0,
        num_vars: 0,
        num_insts: f.num_insts(),
        solver_nodes: 0,
        lp_iters: 0,
        solve_time: Duration::ZERO,
        build_time: Duration::ZERO,
        validate_time: Duration::ZERO,
        health: SolverHealth::default(),
        ip_bytes: 0,
        cache_hit: false,
        warm_start: WarmStartKind::None,
        granted_budget: Duration::ZERO,
        estimate,
        task_time: Duration::ZERO,
        lints: Vec::new(),
        audit: None,
        baseline: None,
        trace: None,
        metrics: Metrics::default(),
        error: None,
    }
}

/// Render the suite's traces as JSONL: every function's deterministic
/// event records first (suite order), then every timing record. Consumers
/// strip the timing section with the single predicate
/// `"type" == "timing"` — that is what the `--jobs` determinism guarantee
/// covers.
pub fn trace_jsonl(out: &SuiteOutcome) -> String {
    let mut s = String::new();
    for r in &out.results {
        if let Some(t) = &r.trace {
            jsonl_events(&mut s, t);
        }
    }
    for r in &out.results {
        if let Some(t) = &r.trace {
            jsonl_timings(&mut s, t);
        }
    }
    s
}

/// The `--profile` self-profiling report: per-phase wall-time, cache and
/// warm-start traffic, and the degradation ladder by rung and reason.
/// Requires [`DriverConfig::trace`] for the phase table (phase times ride
/// on the traces); the rest comes from the merged metrics registry.
pub fn profile_report(out: &SuiteOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mut totals: Vec<(Phase, f64, usize)> = Phase::ALL.iter().map(|&p| (p, 0.0, 0)).collect();
    for r in &out.results {
        if let Some(t) = &r.trace {
            for (p, d) in &t.phase_times {
                let slot = totals.iter_mut().find(|(x, _, _)| x == p).unwrap();
                slot.1 += d.as_secs_f64();
                slot.2 += 1;
            }
        }
    }
    let cpu = out.stats.cpu_time.as_secs_f64();
    if totals.iter().any(|(_, secs, _)| *secs > 0.0) {
        let _ = writeln!(
            s,
            "{:<16} {:>10} {:>7} {:>6}",
            "phase", "seconds", "share", "fns"
        );
        for (p, secs, fns) in &totals {
            if *fns > 0 {
                let _ = writeln!(
                    s,
                    "{:<16} {:>10.3} {:>6.1}% {:>6}",
                    p.name(),
                    secs,
                    100.0 * secs / cpu.max(1e-9),
                    fns
                );
            }
        }
        let _ = writeln!(
            s,
            "(presolve and simplex are sub-phases of solve; shares overlap)"
        );
        s.push('\n');
    }
    let st = &out.stats;
    let _ = writeln!(
        s,
        "cache: {} hits / {} misses ({:.0}% hit rate), {} rejected",
        st.cache_hits,
        st.cache_misses,
        st.hit_rate() * 100.0,
        st.cache_rejected
    );
    let cold = st
        .cache_misses
        .saturating_sub(st.warm_exact + st.warm_projected);
    let _ = writeln!(
        s,
        "warm starts: {} exact / {} projected / {} cold",
        st.warm_exact, st.warm_projected, cold
    );
    let rungs: Vec<String> = st
        .rungs
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(r, n)| format!("{} {}", r.name(), n))
        .collect();
    let _ = writeln!(s, "rungs: {}", rungs.join("  "));
    // Certificate-audit traffic comes from the merged metrics registry
    // (per-task shards summed in suite order), so the line is identical
    // for any `--jobs` value.
    let certs_checked = out
        .metrics
        .counter("regalloc_certificates_checked_total", &[]);
    let certs_rejected = out
        .metrics
        .counter("regalloc_certificates_rejected_total", &[]);
    if certs_checked > 0 || certs_rejected > 0 {
        let audit_secs: f64 = out
            .results
            .iter()
            .filter_map(|r| r.trace.as_ref())
            .flat_map(|t| &t.phase_times)
            .filter(|(p, _)| *p == Phase::Audit)
            .map(|(_, d)| d.as_secs_f64())
            .sum();
        let _ = writeln!(
            s,
            "audit: {certs_checked} certificates checked / {certs_rejected} rejected, {audit_secs:.3}s"
        );
    }
    let demotions = out
        .metrics
        .counter_by_label("regalloc_demotions_total", "reason");
    if !demotions.is_empty() {
        let _ = writeln!(s, "demotions by reason:");
        for (reason, n) in demotions {
            let _ = writeln!(s, "  {reason:<26} {n}");
        }
    }
    // Flight-recorder totals: the solver-internal counters the simplex
    // and branch-and-bound layers record on every solve.
    let pivots = out.metrics.counter("regalloc_solver_pivots_total", &[]);
    if pivots > 0 {
        let _ = writeln!(
            s,
            "solver: {pivots} pivots ({} degenerate), {} ratio-test ties, {} presolve eliminations",
            out.metrics
                .counter("regalloc_solver_degenerate_pivots_total", &[]),
            out.metrics.counter("regalloc_solver_ratio_ties_total", &[]),
            out.metrics
                .counter("regalloc_presolve_eliminations_total", &[]),
        );
    }
    // Exact nearest-rank percentiles from the merged quantile sketches.
    // Solver families are deterministic across `--jobs`; task-seconds is
    // wall-clock and varies run to run.
    let dists: &[(&str, bool)] = &[
        ("regalloc_solver_nodes_dist", false),
        ("regalloc_solver_lp_iters_dist", false),
        ("regalloc_solver_pivots_dist", false),
        ("regalloc_model_constraints_dist", false),
        ("regalloc_task_seconds_dist", true),
    ];
    if dists
        .iter()
        .any(|(f, _)| out.metrics.sketch(f, &[]).is_some())
    {
        s.push('\n');
        let _ = writeln!(
            s,
            "{:<32} {:>9} {:>9} {:>9}",
            "distribution", "p50", "p95", "p99"
        );
        for (fam, is_seconds) in dists {
            if let Some(sk) = out.metrics.sketch(fam, &[]) {
                let q = |p: f64| sk.quantile(p).unwrap_or(0.0);
                if *is_seconds {
                    let _ = writeln!(
                        s,
                        "{:<32} {:>9.4} {:>9.4} {:>9.4}",
                        fam,
                        q(0.5),
                        q(0.95),
                        q(0.99)
                    );
                } else {
                    let _ = writeln!(
                        s,
                        "{:<32} {:>9.0} {:>9.0} {:>9.0}",
                        fam,
                        q(0.5),
                        q(0.95),
                        q(0.99)
                    );
                }
            }
        }
    }
    if let Some(workers) = out.metrics.gauge("regalloc_pool_workers", &[]) {
        let _ = writeln!(
            s,
            "pool: {workers} workers, {} steals, {:.3}s queued, {:.0}% utilized",
            out.metrics
                .gauge("regalloc_pool_steals", &[])
                .unwrap_or(0.0),
            out.metrics
                .gauge("regalloc_pool_queue_wait_seconds", &[])
                .unwrap_or(0.0),
            out.stats.utilization() * 100.0
        );
    }
    s
}

/// Allocate every function of a suite through the parallel service.
///
/// Results come back in suite order; see the module docs for the
/// determinism guarantee. The machine model is resolved from
/// [`DriverConfig::target`] (the paper's Pentium x86 model by default —
/// the same one the bench harness uses).
pub fn run_suite(funcs: &[Function], cfg: &DriverConfig) -> SuiteOutcome {
    // The service freezes the donor snapshot once, before any worker
    // runs: entries stored *during* this run never donate, so warm-start
    // selection is independent of worker count and completion order (the
    // determinism guarantee above).
    let svc = AllocationService::new(cfg.clone());
    let sched = schedule::plan(funcs);
    let governor = BudgetGovernor::new(
        cfg.global_budget,
        cfg.function_budget,
        cfg.jobs,
        funcs.len(),
    );

    let run_one = |i: usize, f: &Function| -> FunctionResult {
        svc.allocate_one(f, sched.estimates[i], &governor, &RequestOptions::default())
    };
    let start = Instant::now();
    let (results, pool_stats) = pool::run_indexed(cfg.jobs, funcs, &sched.order, run_one);
    let wall_time = start.elapsed();

    let attempted = results.iter().filter(|r| r.attempted).count();
    let cache_hits = results.iter().filter(|r| r.cache_hit).count();
    let cache_misses = attempted - cache_hits;
    let mut rungs: Vec<(Rung, usize)> = Rung::ALL.iter().map(|&r| (r, 0)).collect();
    for r in &results {
        if let Some(rung) = r.rung {
            rungs.iter_mut().find(|(x, _)| *x == rung).unwrap().1 += 1;
        }
    }
    let cpu_time = results.iter().map(|r| r.task_time).sum();
    let fresh_warm = |kind: WarmStartKind| {
        results
            .iter()
            .filter(|r| !r.cache_hit && r.warm_start == kind)
            .count()
    };
    let stats = DriverStats {
        functions: funcs.len(),
        attempted,
        jobs: cfg.jobs.max(1),
        wall_time,
        cpu_time,
        cache_hits,
        cache_misses,
        cache_rejected: svc.cache().map_or(0, |c| c.rejected()),
        warm_exact: fresh_warm(WarmStartKind::Exact),
        warm_projected: fresh_warm(WarmStartKind::Projected),
        rungs,
        worker_busy: pool_stats.busy.clone(),
    };
    let mut metrics = Metrics::new();
    for r in &results {
        metrics.merge(&r.metrics);
    }
    // Lookup-level rejections ("rejected" shard events) miss entries the
    // cache itself dropped during parse/realize; the cache's own counter
    // is authoritative, recorded as a suite-level gauge.
    metrics.set_gauge("regalloc_cache_rejected", &[], stats.cache_rejected as f64);
    metrics.set_gauge("regalloc_suite_functions", &[], funcs.len() as f64);
    metrics.set_gauge("regalloc_jobs", &[], stats.jobs as f64);
    // Thread-pool telemetry. Like every wall-clock family, these gauges
    // are timing-class: they vary with worker count and scheduling, and
    // determinism consumers strip the whole `regalloc_pool_` prefix.
    metrics.set_gauge("regalloc_pool_workers", &[], pool_stats.busy.len() as f64);
    let steals: usize = pool_stats.steals_per_worker.iter().sum();
    metrics.set_gauge("regalloc_pool_steals", &[], steals as f64);
    let queue_wait: Duration = pool_stats.queue_wait_per_worker.iter().sum();
    metrics.set_gauge(
        "regalloc_pool_queue_wait_seconds",
        &[],
        queue_wait.as_secs_f64(),
    );
    for w in 0..pool_stats.busy.len() {
        let id = w.to_string();
        let labels: &[(&str, &str)] = &[("worker", id.as_str())];
        metrics.set_gauge(
            "regalloc_pool_worker_busy_seconds",
            labels,
            pool_stats.busy[w].as_secs_f64(),
        );
        metrics.set_gauge(
            "regalloc_pool_worker_tasks",
            labels,
            pool_stats.tasks_per_worker[w] as f64,
        );
        metrics.set_gauge(
            "regalloc_pool_worker_steals",
            labels,
            pool_stats.steals_per_worker[w] as f64,
        );
        metrics.set_gauge(
            "regalloc_pool_worker_queue_wait_seconds",
            labels,
            pool_stats.queue_wait_per_worker[w].as_secs_f64(),
        );
    }
    SuiteOutcome {
        results,
        stats,
        metrics,
    }
}
