//! Property tests for the fault-tolerant pipeline: every generated
//! workload function must allocate through [`RobustAllocator`] without a
//! process abort and pass structural + equivalence validation — with and
//! without injected faults.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use precise_regalloc::coloring::ColoringAllocator;
use precise_regalloc::core::{FaultPlan, RobustAllocator, Rung};
use precise_regalloc::ilp::SolverConfig;
use precise_regalloc::ir::verify_allocated;
use precise_regalloc::obs::Tracer;
use precise_regalloc::workloads::{generate_function, GenConfig};
use precise_regalloc::x86::X86Machine;

fn quick_solver() -> SolverConfig {
    SolverConfig {
        time_limit: Duration::from_millis(200),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clean pipeline: each workload function allocates, validates, and
    /// reports a rung.
    #[test]
    fn workload_functions_allocate_robustly(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let f = generate_function(
            "prop",
            &mut rng,
            &GenConfig { target_insts: 18, ..Default::default() },
        );
        if f.uses_64bit() {
            return Ok(());
        }
        let machine = X86Machine::pentium();
        let gc = ColoringAllocator::new(&machine);
        let robust = RobustAllocator::new(&machine)
            .with_solver_config(quick_solver())
            .with_budget(Duration::from_secs(10))
            .with_equivalence(3, seed)
            .with_baseline(&gc);
        let out = robust.allocate(&f, &Tracer::off());
        prop_assert!(out.is_ok(), "{:?}", out.err());
        let out = out.unwrap();
        prop_assert!(verify_allocated(&out.func).is_ok());
        prop_assert!(Rung::ALL.contains(&out.report.rung));
    }

    /// Faulty pipeline: seeded fault plans (timeouts, panics, corrupted
    /// solution vectors) still yield validated code, never an abort.
    #[test]
    fn injected_faults_never_escape(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17);
        let f = generate_function(
            "prop_fault",
            &mut rng,
            &GenConfig { target_insts: 14, ..Default::default() },
        );
        if f.uses_64bit() {
            return Ok(());
        }
        let plan = FaultPlan::seeded(seed);
        let machine = X86Machine::pentium();
        let gc = ColoringAllocator::new(&machine);
        let robust = RobustAllocator::new(&machine)
            .with_solver_config(quick_solver())
            .with_budget(Duration::from_secs(10))
            .with_equivalence(2, seed)
            .with_faults(plan)
            .with_baseline(&gc);
        let out = robust.allocate(&f, &Tracer::off());
        prop_assert!(out.is_ok(), "plan {:?}: {:?}", plan, out.err());
        let out = out.unwrap();
        prop_assert!(verify_allocated(&out.func).is_ok(), "plan {:?}", plan);
        // A build panic forecloses every solver-derived rung.
        if plan.panic_in_build {
            prop_assert!(out.report.rung >= Rung::Coloring, "plan {:?} rung {}", plan, out.report.rung);
        }
    }
}
