//! Fault-injection tests for the robust allocation pipeline: every
//! injected failure must yield a *validated* lower-rung allocation with
//! the structured reason code that caught it — never a process abort.

use std::time::Duration;

use regalloc_core::pipeline::BaselineAllocator;
use regalloc_core::{FaultPlan, ReasonCode, RobustAllocator, Rung, SpillStats};
use regalloc_ir::{verify_allocated, BinOp, Function, FunctionBuilder, Operand, Profile, Width};
use regalloc_obs::Tracer;
use regalloc_x86::X86Machine;

fn sample() -> Function {
    let mut b = FunctionBuilder::new("sample");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.load_imm(y, 3);
    b.bin(BinOp::Mul, z, Operand::sym(x), Operand::sym(y));
    b.bin(BinOp::Add, z, Operand::sym(z), Operand::sym(x));
    b.ret(Some(z));
    b.finish()
}

fn robust(m: &X86Machine) -> RobustAllocator<'_, X86Machine> {
    RobustAllocator::new(m)
}

#[test]
fn clean_run_lands_on_the_optimal_rung() {
    let m = X86Machine::pentium();
    let f = sample();
    let out = robust(&m).allocate(&f, &Tracer::off()).unwrap();
    assert_eq!(out.report.rung, Rung::IpOptimal);
    assert!(
        out.report.demotions.is_empty(),
        "{:?}",
        out.report.demotions
    );
    assert!(out.report.solved() && out.report.solved_optimally());
    assert!(!out.report.degraded());
    verify_allocated(&out.func).unwrap();
}

#[test]
fn forced_timeout_demotes_to_warm_start_with_reason() {
    let m = X86Machine::pentium();
    let f = sample();
    let out = robust(&m)
        .with_faults(FaultPlan {
            force_timeout: true,
            ..FaultPlan::none()
        })
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert_eq!(out.report.rung, Rung::WarmStart);
    assert!(
        out.report
            .demotions
            .iter()
            .any(|d| d.from == Rung::IpOptimal && d.reason == ReasonCode::SolverTimeout),
        "{:?}",
        out.report.demotions
    );
    assert!(!out.report.solved());
    verify_allocated(&out.func).unwrap();
}

#[test]
fn panic_in_build_is_isolated_and_reaches_spill_all() {
    let m = X86Machine::pentium();
    let f = sample();
    // No baseline injected: the ladder must fall through the unavailable
    // coloring rung to spill-everything.
    let out = robust(&m)
        .with_faults(FaultPlan {
            panic_in_build: true,
            ..FaultPlan::none()
        })
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert_eq!(out.report.rung, Rung::SpillAll);
    for rung in [Rung::IpOptimal, Rung::IpIncumbent, Rung::WarmStart] {
        assert!(
            out.report
                .demotions
                .iter()
                .any(|d| d.from == rung && d.reason == ReasonCode::Panic),
            "missing panic demotion for {rung}: {:?}",
            out.report.demotions
        );
    }
    assert!(out
        .report
        .demotions
        .iter()
        .any(|d| d.from == Rung::Coloring && d.reason == ReasonCode::RungUnavailable));
    assert_eq!(out.report.num_constraints, 0, "model never built");
    verify_allocated(&out.func).unwrap();
}

#[test]
fn panic_in_rewrite_is_isolated() {
    let m = X86Machine::pentium();
    let f = sample();
    let out = robust(&m)
        .with_faults(FaultPlan {
            panic_in_rewrite: true,
            ..FaultPlan::none()
        })
        .allocate(&f, &Tracer::off())
        .unwrap();
    // Every solver-derived rung rewrites through the faulty path, so the
    // ladder must land below them.
    assert!(
        out.report.rung >= Rung::Coloring,
        "rung {}",
        out.report.rung
    );
    assert!(
        out.report
            .demotions
            .iter()
            .any(|d| d.reason == ReasonCode::Panic && d.detail.contains("rewrite panicked")),
        "{:?}",
        out.report.demotions
    );
    verify_allocated(&out.func).unwrap();
}

#[test]
fn corrupted_solution_is_caught_by_validation() {
    let m = X86Machine::pentium();
    let f = sample();
    let out = robust(&m)
        .with_faults(FaultPlan {
            corrupt_solution: Some(0xbad5eed),
            ..FaultPlan::none()
        })
        .allocate(&f, &Tracer::off())
        .unwrap();
    // The warm-start vector is not corrupted, so the ladder stops there;
    // the IP rung's bit-flipped solution must have been rejected either
    // by the guarded rewrite or by one of the validators.
    assert_eq!(out.report.rung, Rung::WarmStart);
    let ip_demotion = out
        .report
        .demotions
        .iter()
        .find(|d| d.from == Rung::IpOptimal || d.from == Rung::IpIncumbent)
        .expect("the corrupted IP candidate must record a demotion");
    assert!(
        matches!(
            ip_demotion.reason,
            ReasonCode::Panic | ReasonCode::ValidationFailed | ReasonCode::EquivalenceFailed
        ),
        "{ip_demotion:?}"
    );
    verify_allocated(&out.func).unwrap();
}

#[test]
fn zero_budget_still_emits_validated_code() {
    let m = X86Machine::pentium();
    let f = sample();
    let out = robust(&m)
        .with_budget(Duration::ZERO)
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert!(out.report.rung >= Rung::WarmStart);
    assert!(out.report.degraded());
    verify_allocated(&out.func).unwrap();
}

#[test]
fn seeded_fault_plans_are_deterministic() {
    for seed in 0..64u64 {
        assert_eq!(FaultPlan::seeded(seed), FaultPlan::seeded(seed));
    }
    // The generator covers both clean and faulty plans across seeds.
    assert!((0..64).any(|s| !FaultPlan::seeded(s).is_clean()));
    assert!((0..64).any(|s| FaultPlan::seeded(s).is_clean()));
}

/// A baseline that reports a structured failure.
struct FailingBaseline;
impl BaselineAllocator for FailingBaseline {
    fn allocate_baseline(
        &self,
        _f: &Function,
        _p: &Profile,
    ) -> Result<(Function, SpillStats), String> {
        Err("baseline declined".to_string())
    }
}

/// A baseline that panics outright.
struct PanickingBaseline;
impl BaselineAllocator for PanickingBaseline {
    fn allocate_baseline(
        &self,
        _f: &Function,
        _p: &Profile,
    ) -> Result<(Function, SpillStats), String> {
        panic!("baseline exploded");
    }
}

#[test]
fn failing_baseline_demotes_to_spill_all() {
    let m = X86Machine::pentium();
    let f = sample();
    let base = FailingBaseline;
    let out = robust(&m)
        .with_baseline(&base)
        .with_faults(FaultPlan {
            panic_in_build: true,
            ..FaultPlan::none()
        })
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert_eq!(out.report.rung, Rung::SpillAll);
    assert!(out.report.demotions.iter().any(|d| d.from == Rung::Coloring
        && d.reason == ReasonCode::RungFailed
        && d.detail.contains("declined")));
    verify_allocated(&out.func).unwrap();
}

#[test]
fn panicking_baseline_is_isolated() {
    let m = X86Machine::pentium();
    let f = sample();
    let base = PanickingBaseline;
    let out = robust(&m)
        .with_baseline(&base)
        .with_faults(FaultPlan {
            panic_in_build: true,
            ..FaultPlan::none()
        })
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert_eq!(out.report.rung, Rung::SpillAll);
    assert!(out
        .report
        .demotions
        .iter()
        .any(|d| d.from == Rung::Coloring && d.reason == ReasonCode::Panic));
    verify_allocated(&out.func).unwrap();
}

#[test]
fn every_fault_combination_survives() {
    // The full cross product of injected faults: the ladder must always
    // return validated code, never abort, and always record its rung.
    let m = X86Machine::pentium();
    let f = sample();
    for mask in 0..16u32 {
        let plan = FaultPlan {
            force_timeout: mask & 1 != 0,
            panic_in_build: mask & 2 != 0,
            panic_in_rewrite: mask & 4 != 0,
            corrupt_solution: (mask & 8 != 0).then_some(0xdead),
        };
        let out = robust(&m)
            .with_faults(plan)
            .allocate(&f, &Tracer::off())
            .unwrap_or_else(|e| panic!("plan {plan:?} failed: {e}"));
        verify_allocated(&out.func)
            .unwrap_or_else(|e| panic!("plan {plan:?} produced invalid code: {e:?}"));
        if !plan.is_clean() {
            assert!(out.report.degraded() || out.report.rung == Rung::IpOptimal);
        }
    }
}

#[test]
fn audit_verifies_optimal_claims_end_to_end() {
    let m = X86Machine::pentium();
    let f = sample();
    let out = robust(&m)
        .with_audit(true)
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert_eq!(
        out.report.rung,
        Rung::IpOptimal,
        "{:?}",
        out.report.demotions
    );
    let audit = out.report.audit.as_ref().expect("audit ran");
    assert_eq!(audit.verdict, regalloc_audit::Verdict::Verified);
    assert!(audit.leaves > 0);
    assert!(audit.diagnostics.is_empty());
    // The verified certificate rides along for cache persistence, and its
    // incumbent is the accepted solution.
    let cert = out.certificate.as_ref().expect("certificate retained");
    assert!(cert.incumbent.is_some());
    verify_allocated(&out.func).unwrap();
}

#[test]
fn audit_does_not_change_the_allocation() {
    let m = X86Machine::pentium();
    let f = sample();
    let plain = robust(&m).allocate(&f, &Tracer::off()).unwrap();
    let audited = robust(&m)
        .with_audit(true)
        .allocate(&f, &Tracer::off())
        .unwrap();
    assert_eq!(plain.report.rung, audited.report.rung);
    assert_eq!(plain.func, audited.func);
    assert_eq!(plain.stats.loads, audited.stats.loads);
    assert_eq!(plain.stats.stores, audited.stats.stores);
    assert!(plain.report.audit.is_none());
    assert!(plain.certificate.is_none());
}
