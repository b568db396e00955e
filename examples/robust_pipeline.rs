//! The fault-tolerant allocation pipeline: `RobustAllocator` wraps the
//! IP allocator in a validated degradation ladder
//! (ip-optimal → ip-incumbent → warm-start → coloring → spill-all) and
//! reports which rung each function landed on, with a structured reason
//! code for every demotion.
//!
//! Run with `cargo run --example robust_pipeline`.

use std::time::Duration;

use precise_regalloc::core::{FaultPlan, RobustAllocator};
use precise_regalloc::prelude::*;

fn sample() -> Function {
    // return (a * 3) + a
    let mut b = FunctionBuilder::new("sample");
    let pa = b.new_param("a", Width::B32);
    let a = b.new_sym(Width::B32);
    let k = b.new_sym(Width::B32);
    let r = b.new_sym(Width::B32);
    b.load_global(a, pa);
    b.load_imm(k, 3);
    b.bin(BinOp::Mul, r, Operand::sym(a), Operand::sym(k));
    b.bin(BinOp::Add, r, Operand::sym(r), Operand::sym(a));
    b.ret(Some(r));
    b.finish()
}

fn main() {
    let machine = X86Machine::pentium();
    let gc = ColoringAllocator::new(&machine);
    let f = sample();

    // A clean run lands on the top rung.
    let robust = RobustAllocator::new(&machine)
        .with_budget(Duration::from_secs(5))
        .with_baseline(&gc);
    let out = robust
        .allocate(&f, &Tracer::off())
        .expect("ladder always returns code");
    println!(
        "clean run:        {} via rung {} ({} demotions)",
        out.report.name,
        out.report.rung,
        out.report.demotions.len()
    );

    // Inject faults: a forced solver timeout plus a bit-flipped solution.
    // The ladder demotes past the broken stages and still returns code
    // that passed structural verification and interpreter equivalence.
    let faulty = RobustAllocator::new(&machine)
        .with_budget(Duration::from_secs(5))
        .with_baseline(&gc)
        .with_faults(FaultPlan {
            force_timeout: true,
            corrupt_solution: Some(0xbad5eed),
            ..FaultPlan::none()
        });
    let out = faulty
        .allocate(&f, &Tracer::off())
        .expect("ladder always returns code");
    println!(
        "with faults:      {} via rung {}",
        out.report.name, out.report.rung
    );
    for d in &out.report.demotions {
        println!(
            "  demoted from {:<12} reason {:<16} {}",
            d.from, d.reason, d.detail
        );
    }
    println!("solver health:    {:?}", out.report.health);
    println!("\nallocated function:\n{}", out.func);
}
