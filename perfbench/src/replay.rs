//! The traced run: replays a workload stage by stage from this file,
//! timing each call into a layer's public functions. Nothing inside the
//! program is instrumented; the untraced run's results are the reference
//! the replay must reproduce (the replay-fidelity check).

use std::time::Instant;

use regalloc_coloring::ColoringAllocator;
use regalloc_core::{analysis, build, rewrite, warm, CostModel, DonorSolution, Rung};
use regalloc_driver::cache::{cache_key, CacheEntry, SolutionCache};
use regalloc_driver::{DriverConfig, FunctionResult};
use regalloc_ilp::{
    presolve, simplex, solve_seeded, Deadline, Incumbent, SolverConfig, SolverHealth, Status,
};
use regalloc_ir::{fingerprint, shape_vector, Cfg, Function, Liveness, LoopInfo, Profile};
use regalloc_machine::{function_size, Machine, TargetId};

use crate::common::{metric, Metric};

/// Per-layer accumulators over one replay. Times are seconds.
#[derive(Default)]
pub struct Layers {
    pub ilp_solve_s: f64,
    pub ilp_root_lp_s: f64,
    pub ilp_root_lp_iters: u64,
    pub ilp_presolve_s: f64,
    pub ilp_presolve_elims: u64,
    pub ilp_nodes: u64,
    pub ilp_lp_iters: u64,
    pub ilp_health: SolverHealth,
    pub ilp_solves: u64,
    pub ilp_proved: u64,
    pub core_build_s: f64,
    pub core_model_rows: u64,
    pub core_model_vars: u64,
    pub core_model_nnz: u64,
    pub rows_by_target: [u64; 3],
    pub core_rewrite_s: f64,
    pub core_spill_insts: i64,
    pub core_check_s: f64,
    pub machine_verify_s: f64,
    pub lint_validate_s: f64,
    pub lint_findings: u64,
    pub audit_check_s: f64,
    pub audits: u64,
    pub audits_verified: u64,
    pub cache_lookup_s: f64,
    pub cache_store_s: f64,
    pub ir_parse_s: f64,
    pub ir_fingerprint_s: f64,
    pub coloring_alloc_s: f64,
    pub coloring_overhead_cycles: i64,
    /// Summed wall time of every replayed item.
    pub replay_wall_s: f64,
    /// Summed wall time the untraced run spent on the same items.
    pub untraced_wall_s: f64,
}

/// Time one call, adding its duration to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

impl Layers {
    /// Sum of the layer times, to compare against the replay wall.
    fn layer_sum(&self) -> f64 {
        self.ilp_solve_s
            + self.ilp_root_lp_s
            + self.ilp_presolve_s
            + self.core_build_s
            + self.core_rewrite_s
            + self.core_check_s
            + self.machine_verify_s
            + self.lint_validate_s
            + self.audit_check_s
            + self.cache_lookup_s
            + self.cache_store_s
            + self.ir_parse_s
            + self.ir_fingerprint_s
            + self.coloring_alloc_s
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. `driver` and
    /// `serve` hold the figures taken from the untraced run itself.
    pub fn metrics(&self, driver: &[Metric], serve: &[Metric], setup: &[Metric]) -> Vec<Metric> {
        let h = &self.ilp_health;
        let mut out = vec![
            metric("ilp.solve_s", self.ilp_solve_s, "s"),
            metric("ilp.root_lp_s", self.ilp_root_lp_s, "s"),
            metric("ilp.root_lp_iters", self.ilp_root_lp_iters as f64, "count"),
            metric("ilp.presolve_s", self.ilp_presolve_s, "s"),
            metric(
                "ilp.presolve_elims",
                self.ilp_presolve_elims as f64,
                "count",
            ),
            metric("ilp.nodes", self.ilp_nodes as f64, "count"),
            metric("ilp.lp_iters", self.ilp_lp_iters as f64, "count"),
            metric("ilp.pivots", h.pivots as f64, "count"),
            metric(
                "ilp.degenerate_frac",
                h.degenerate_pivots as f64 / (h.pivots as f64).max(1.0),
                "ratio",
            ),
            metric("ilp.ratio_ties", h.ratio_test_ties as f64, "count"),
            metric(
                "ilp.proved_frac",
                self.ilp_proved as f64 / (self.ilp_solves as f64).max(1.0),
                "ratio",
            ),
            metric("core.build_s", self.core_build_s, "s"),
            metric("core.model_rows", self.core_model_rows as f64, "count"),
            metric("core.model_vars", self.core_model_vars as f64, "count"),
            metric("core.model_nnz", self.core_model_nnz as f64, "count"),
        ];
        for (i, t) in TargetId::ALL.iter().enumerate() {
            out.push(metric(
                &format!("core.model_rows.{}", t.name()),
                self.rows_by_target[i] as f64,
                "count",
            ));
        }
        out.extend([
            metric("core.rewrite_s", self.core_rewrite_s, "s"),
            metric("core.spill_insts", self.core_spill_insts as f64, "count"),
            metric("core.check_s", self.core_check_s, "s"),
            metric("machine.verify_s", self.machine_verify_s, "s"),
            metric("lint.validate_s", self.lint_validate_s, "s"),
            metric("lint.findings", self.lint_findings as f64, "count"),
            metric("audit.check_s", self.audit_check_s, "s"),
            metric(
                "audit.verified_frac",
                self.audits_verified as f64 / (self.audits as f64).max(1.0),
                "ratio",
            ),
            metric("driver.cache_lookup_s", self.cache_lookup_s, "s"),
            metric("driver.cache_store_s", self.cache_store_s, "s"),
        ]);
        out.extend(driver.iter().cloned());
        out.extend([
            metric("ir.parse_s", self.ir_parse_s, "s"),
            metric("ir.fingerprint_s", self.ir_fingerprint_s, "s"),
        ]);
        out.extend(serve.iter().cloned());
        out.extend(setup.iter().cloned());
        out.extend([
            metric("coloring.alloc_s", self.coloring_alloc_s, "s"),
            metric(
                "coloring.overhead_cycles",
                self.coloring_overhead_cycles as f64,
                "count",
            ),
            metric(
                "trace.overhead_s",
                self.replay_wall_s - self.untraced_wall_s,
                "s",
            ),
            metric(
                "trace.residual_s",
                self.replay_wall_s - self.layer_sum(),
                "s",
            ),
        ]);
        out
    }
}

/// What the replay of one function decided, for the fidelity check.
pub struct Replayed {
    pub rows: usize,
    /// The solver's status; the rung compared below follows from it and
    /// from the validation gates.
    pub status: Status,
    pub nodes: u64,
    pub lp_iters: u64,
    pub rung: Option<Rung>,
}

impl Replayed {
    /// Compare against the untraced run's result for the same function.
    pub fn matches(&self, r: &FunctionResult) -> Result<(), String> {
        let same = self.rows == r.num_constraints
            && self.nodes == r.solver_nodes
            && self.lp_iters == r.lp_iters
            && self.rung == r.rung;
        if same {
            Ok(())
        } else {
            Err(format!(
                "{}: replay rows {} nodes {} lp_iters {} status {} rung {:?} vs run rows {} nodes {} lp_iters {} rung {:?}",
                r.name,
                self.rows,
                self.nodes,
                self.lp_iters,
                self.status.name(),
                self.rung.map(Rung::name),
                r.num_constraints,
                r.solver_nodes,
                r.lp_iters,
                r.rung.map(Rung::name)
            ))
        }
    }
}

/// Replay the batch pipeline for one function, stage by stage, in the
/// order `RobustAllocator` runs them: model build, solve (plus a separate
/// root presolve and root LP, timed on their own), audit, rewrite and
/// the validation gates per candidate, then lint, encode and the cache.
pub fn replay_function(
    l: &mut Layers,
    machine: &(dyn Machine + Send + Sync),
    target: TargetId,
    cfg: &DriverConfig,
    f: &Function,
    donor: Option<&DonorSolution>,
    cache: &SolutionCache,
) -> Replayed {
    let wall = Instant::now();
    let key = timed(&mut l.ir_fingerprint_s, || {
        let _ = (fingerprint(f), shape_vector(f));
        cache_key(f, target, &cfg.solver)
    });
    let hit = timed(&mut l.cache_lookup_s, || cache.lookup(key));
    debug_assert!(hit.is_none(), "replayed functions are cache misses");

    let gc = ColoringAllocator::new(machine);
    let coloring = timed(&mut l.coloring_alloc_s, || gc.allocate(f));
    if let Ok(c) = &coloring {
        l.coloring_overhead_cycles += c.stats.overhead_cycles();
    }

    let (profile, analysis, built, warm_values) = timed(&mut l.core_build_s, || {
        let cfg_ir = Cfg::new(f);
        let loops = LoopInfo::new(f, &cfg_ir);
        let profile = Profile::estimate(f, &cfg_ir, &loops);
        let live = Liveness::new(f, &cfg_ir);
        let analysis = analysis::analyze(f, &cfg_ir, &live, machine);
        let built = build::build_model(
            f,
            &cfg_ir,
            &profile,
            &analysis,
            machine,
            &CostModel::paper(),
        );
        let warm = warm::spill_everything_assignment(f, &analysis, &built, machine);
        (profile, analysis, built, warm)
    });
    let model = &built.model;
    let rows = model.num_rows();
    l.core_model_rows += rows as u64;
    l.core_model_vars += model.num_vars() as u64;
    l.core_model_nnz += model
        .rows()
        .iter()
        .map(|r| r.coeffs.len() as u64)
        .sum::<u64>();
    if let Some(i) = TargetId::ALL.iter().position(|t| *t == target) {
        l.rows_by_target[i] += rows as u64;
    }

    // Root presolve and root LP, the first steps of the search, timed
    // on their own (the full solve below repeats them).
    let n = model.num_vars();
    let mut lb: Vec<f64> = (0..n)
        .map(|i| {
            let v = regalloc_ilp::VarId(i as u32);
            if model.fixed(v) == Some(true) {
                1.0
            } else {
                0.0
            }
        })
        .collect();
    let mut ub: Vec<f64> = (0..n)
        .map(|i| {
            let v = regalloc_ilp::VarId(i as u32);
            if model.fixed(v) == Some(false) {
                0.0
            } else {
                1.0
            }
        })
        .collect();
    if rows <= cfg.solver.max_rows {
        let (_, elims) = timed(&mut l.ilp_presolve_s, || {
            presolve::propagate_counted(model, &mut lb, &mut ub)
        });
        l.ilp_presolve_elims += elims;
        let mut health = SolverHealth::default();
        let lp = timed(&mut l.ilp_root_lp_s, || {
            simplex::solve_lp(
                model,
                &lb,
                &ub,
                cfg.solver.lp_iter_limit,
                Deadline::after(cfg.function_budget),
                &mut health,
            )
        });
        l.ilp_root_lp_iters += lp.iters();
    }

    let mut seeds: Vec<Incumbent> = Vec::new();
    if let Some(w) = &warm_values {
        seeds.push(Incumbent {
            source: "spill",
            values: w.clone(),
        });
    }
    if let Some(d) = donor {
        let base: &[bool] = warm_values.as_deref().unwrap_or(&[]);
        let proj = built.project(&d.solution, base);
        if model.is_feasible(&proj) {
            seeds.push(Incumbent {
                source: if d.exact { "exact" } else { "projected" },
                values: proj,
            });
        }
    }
    let solver_cfg = SolverConfig {
        emit_certificates: cfg.audit,
        ..cfg.solver.clone()
    };
    let sol = timed(&mut l.ilp_solve_s, || {
        solve_seeded(
            model,
            &solver_cfg,
            &seeds,
            Deadline::after(cfg.function_budget),
        )
    });
    l.ilp_solves += 1;
    l.ilp_proved += (sol.status == Status::Optimal) as u64;
    l.ilp_nodes += sol.nodes;
    l.ilp_lp_iters += sol.lp_iters;
    l.ilp_health.merge(&sol.health);

    let mut candidates: Vec<(Rung, Vec<bool>)> = Vec::new();
    match sol.status {
        Status::Optimal => {
            let optimal = !cfg.audit || {
                let a = timed(&mut l.audit_check_s, || {
                    regalloc_audit::audit_solution(model, &sol)
                });
                l.audits += 1;
                let ok = a.verdict == regalloc_audit::Verdict::Verified;
                l.audits_verified += ok as u64;
                ok
            };
            let rung = if optimal {
                Rung::IpOptimal
            } else {
                Rung::IpIncumbent
            };
            candidates.push((rung, sol.values.clone()));
        }
        Status::Feasible if !sol.warm_start_only || sol.incumbent_source != Some("spill") => {
            candidates.push((Rung::IpIncumbent, sol.values.clone()));
        }
        _ => {}
    }
    if let Some(w) = warm_values {
        candidates.push((Rung::WarmStart, w));
    }

    let validate = |l: &mut Layers, cand: &Function| -> bool {
        timed(&mut l.machine_verify_s, || {
            regalloc_ir::verify_allocated(cand).is_ok()
        }) && timed(&mut l.lint_validate_s, || {
            regalloc_lint::validate(machine, f, cand).is_empty()
        }) && timed(&mut l.core_check_s, || {
            regalloc_core::check::equivalent_with(f, cand, cfg.equiv_runs, cfg.equiv_seed, || {
                machine.new_regfile()
            })
            .is_ok()
        })
    };
    let mut accepted: Option<(Rung, Function, regalloc_core::SpillStats, Vec<bool>)> = None;
    for (rung, values) in candidates {
        let (func, stats) = timed(&mut l.core_rewrite_s, || {
            rewrite::apply(f, &profile, &analysis, &built, &values, machine)
        });
        if validate(l, &func) {
            accepted = Some((rung, func, stats, values));
            break;
        }
    }
    if accepted.is_none() {
        if let Ok(c) = coloring {
            if validate(l, &c.func) {
                accepted = Some((Rung::Coloring, c.func, c.stats, Vec::new()));
            }
        }
    }

    let rung = match accepted {
        Some((rung, func, stats, values)) => {
            l.core_spill_insts += stats.loads + stats.stores + stats.remats;
            if cfg.lint {
                let lints = timed(&mut l.lint_validate_s, || {
                    regalloc_lint::lint_allocation(machine, f, &func)
                });
                l.lint_findings += lints.len() as u64;
            }
            let ip_bytes = function_size(machine, &func);
            let symbolic =
                matches!(rung, Rung::IpOptimal | Rung::IpIncumbent).then(|| built.lift(&values));
            timed(&mut l.cache_store_s, || {
                cache.store(
                    key,
                    CacheEntry {
                        target,
                        rung,
                        reasons: Vec::new(),
                        stats,
                        num_constraints: rows,
                        num_vars: model.num_vars(),
                        num_insts: f.num_insts(),
                        solver_nodes: sol.nodes,
                        lp_iters: sol.lp_iters,
                        ip_bytes,
                        effective_deadline: cfg.function_budget,
                        fingerprint: fingerprint(f),
                        shape: shape_vector(f),
                        warm_start: regalloc_core::WarmStartKind::None,
                        symbolic,
                        cert: None,
                        slots: func.slots().to_vec(),
                        func_text: format!("{func}\n"),
                    },
                )
            });
            Some(rung)
        }
        None => None,
    };
    l.replay_wall_s += wall.elapsed().as_secs_f64();
    Replayed {
        rows,
        status: sol.status,
        nodes: sol.nodes,
        lp_iters: sol.lp_iters,
        rung,
    }
}
