//! `regalloc-lint` — static dataflow translation validation and quality
//! lints for allocated functions.
//!
//! The interpreter-equivalence check (`regalloc_core::check`) executes an
//! allocation on concrete inputs; it can only witness bugs the chosen
//! inputs reach. This crate complements it with a *static* proof
//! obligation: a forward abstract interpretation over the allocated
//! function shows, for every instruction on every control-flow path,
//! that each operand reads the value the original pre-allocation function
//! computed there (see [`mod@validate`]). On the same dataflow facts a second
//! layer reports allocation-quality lints — dead spill stores, redundant
//! reloads, self-moves, in-loop spill ping-pong, unallocatable-width
//! definitions (see [`lint_allocation`]).
//!
//! All findings are [`Diagnostic`]s with stable codes (`T0xx` validation,
//! `L0xx` lints, plus `V0xx`/`M0xx` adapters for the structural verifiers
//! in `regalloc-ir` and `regalloc-x86`), deterministic ordering, and
//! text / JSON / SARIF emitters via [`Report`].
//!
//! The paper (Kong & Wilken, MICRO 1998) proposes no validator; this is a
//! deviation motivated by the fault-injection harness: a static check
//! catches miscompilations that sampled interpreter runs miss.

pub mod diag;
pub mod validate;

pub use diag::{code_by_name, sort_diagnostics, Code, Diagnostic, Report, Severity, ALL_CODES};
pub use validate::{analyze, lint_allocation, validate, Analysis};
