//! The plain IP path shared by the allocation tests.

use regalloc_core::{AllocError, ReasonCode, RobustAllocator, RobustOutcome};
use regalloc_ir::Function;
use regalloc_machine::Machine;
use regalloc_obs::Tracer;

/// The plain IP path: the ladder without interpreter or static
/// validation (these tests run their own equivalence checks).
pub fn ip<M: Machine + ?Sized>(m: &M) -> RobustAllocator<'_, M> {
    RobustAllocator::new(m)
        .with_equivalence(0, 0)
        .with_static_validation(false)
}

/// Allocate `f` through `ip`. The ladder would quietly demote an IP
/// rung that panics or emits structurally invalid code to a lower rung;
/// here either is a test failure. A solver timeout still falls back to
/// the warm start.
pub fn allocate_ip<M: Machine + ?Sized>(
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
