//! §6 text — the x86 IP model vs the uniform RISC model.
//!
//! The paper: "The x86 IP model has only about a quarter of the
//! constraints found in the RISC model. The simplification is due to the
//! fewer number of real registers available for register allocation; the
//! x86 has 6, whereas the RISC has 24." This binary builds both models
//! for the same functions and reports the constraint and variable ratios,
//! plus solve-time ratios over functions both machines solve optimally.

use std::time::Duration;

use regalloc_bench::Options;
use regalloc_core::build::build_function;
use regalloc_core::{CostModel, RobustAllocator};
use regalloc_obs::Tracer;
use regalloc_workloads::{Benchmark, Suite};
use regalloc_x86::{RiscMachine, X86Machine};

fn main() {
    let o = Options::from_args();
    let x86 = X86Machine::pentium();
    let risc = RiscMachine::new();
    // The plain IP path: only the solver's own limit bounds a function.
    let ip_x86 = RobustAllocator::new(&x86)
        .with_solver_config(o.solver())
        .with_budget(Duration::MAX)
        .with_equivalence(0, 0)
        .with_static_validation(false);
    let ip_risc = RobustAllocator::new(&risc)
        .with_solver_config(o.solver())
        .with_budget(Duration::MAX)
        .with_equivalence(0, 0)
        .with_static_validation(false);

    let (mut cx, mut cr, mut vx, mut vr) = (0usize, 0usize, 0usize, 0usize);
    let (mut tx, mut tr) = (0.0_f64, 0.0_f64);
    let mut both_optimal = 0usize;
    let mut n = 0usize;
    for b in Benchmark::all() {
        // A light sample per benchmark: model building dominates.
        let suite = Suite::generate_scaled(b, o.seed, (o.scale * 0.25).max(0.004));
        for f in suite.functions.iter().filter(|f| !f.uses_64bit()) {
            let bx = build_function(f, &x86, &CostModel::paper()).built;
            let br = build_function(f, &risc, &CostModel::paper()).built;
            cx += bx.model.num_rows();
            cr += br.model.num_rows();
            vx += bx.model.num_vars();
            vr += br.model.num_vars();
            n += 1;
            // Timing comparison only on small functions, where both
            // machines' models solve to optimality quickly (the RISC
            // model is ~4x larger, so it dominates the wall clock).
            if f.num_insts() <= 16 {
                let ax = ip_x86
                    .allocate(f, &Tracer::off())
                    .expect("attempted")
                    .report;
                let ar = ip_risc
                    .allocate(f, &Tracer::off())
                    .expect("attempted")
                    .report;
                if ax.solved_optimally() && ar.solved_optimally() {
                    both_optimal += 1;
                    tx += ax.solve_time.as_secs_f64();
                    tr += ar.solve_time.as_secs_f64();
                }
            }
        }
    }

    println!("x86-vs-RISC IP model comparison over {n} functions");
    println!(
        "constraints: x86 {cx}, RISC {cr}  ->  x86/RISC = {:.2}",
        cx as f64 / cr.max(1) as f64
    );
    println!(
        "variables:   x86 {vx}, RISC {vr}  ->  x86/RISC = {:.2}",
        vx as f64 / vr.max(1) as f64
    );
    if both_optimal > 0 {
        println!(
            "optimal solve time ({both_optimal} functions optimal on both): x86 {tx:.2}s, RISC {tr:.2}s -> x86/RISC = {:.2}",
            tx / tr.max(1e-9)
        );
    }
    println!();
    println!("paper: the x86 model has ~1/4 the RISC model's constraints (6 vs 24 registers),");
    println!("       which with O(n^2.5) scaling alone is a ~32x solver speedup.");
}
