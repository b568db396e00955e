//! White-box tests of the constructed integer program: the §5 extensions
//! must be visible in the model's structure, not just its solutions.

use regalloc_core::build::{build_function, BuiltModel};
use regalloc_core::CostModel;
use regalloc_ir::{BinOp, Dst, Function, FunctionBuilder, Inst, Operand, UnOp, Width};
use regalloc_x86::{RiscMachine, X86Machine};

fn x86_model(f: &Function) -> BuiltModel {
    build_function(f, &X86Machine::pentium(), &CostModel::paper()).built
}

#[test]
fn copy_insertion_variables_only_at_two_address_sources() {
    // §5.1: copy variables exist for the sources of two-address
    // instructions, not for, say, branch operands.
    let mut b = FunctionBuilder::new("m1");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.load_imm(y, 2);
    b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
    b.ret(Some(z));
    let f = b.finish();
    let built = x86_model(&f);
    let with_copy: usize = built
        .events
        .iter()
        .filter(|ev| ev.copy_to.iter().any(Option::is_some))
        .count();
    // Exactly the two sources of the add.
    assert_eq!(with_copy, 2, "copy-insertion events");
}

#[test]
fn combined_memory_variable_requires_rmw_shape_and_machine_support() {
    // §5.2: S = S + k (combinable) vs z = x * y (imul has no m,r form).
    let mk = |op, same: bool| {
        let mut b = FunctionBuilder::new("m2");
        let p = b.new_param("p", Width::B32);
        let x = b.new_sym(Width::B32);
        let y = b.new_sym(Width::B32);
        b.load_global(x, p);
        if same {
            b.push(Inst::Bin {
                op,
                dst: Dst::sym(x),
                lhs: Operand::sym(x),
                rhs: Operand::Imm(3),
                width: Width::B32,
            });
            b.ret(Some(x));
        } else {
            b.bin(op, y, Operand::sym(x), Operand::Imm(3));
            b.ret(Some(y));
        }
        b.finish()
    };
    let has_combined = |f: &Function| x86_model(f).events.iter().any(|ev| ev.combined.is_some());
    assert!(has_combined(&mk(BinOp::Add, true)), "add m, imm exists");
    assert!(!has_combined(&mk(BinOp::Add, false)), "needs dst == lhs");
    assert!(
        !has_combined(&mk(BinOp::Mul, true)),
        "imul m, r does not exist"
    );
}

#[test]
fn risc_model_has_no_two_address_machinery() {
    let mut b = FunctionBuilder::new("m3");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    let z = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.load_imm(y, 2);
    b.bin(BinOp::Add, z, Operand::sym(x), Operand::sym(y));
    b.ret(Some(z));
    let f = b.finish();
    let built = build_function(&f, &RiscMachine::new(), &CostModel::paper()).built;
    assert!(
        built
            .events
            .iter()
            .all(|ev| ev.copy_to.iter().all(Option::is_none)),
        "three-address machines need no §5.1 copies"
    );
    assert!(built.events.iter().all(|ev| ev.combined.is_none()));
}

#[test]
fn predefined_memory_fixes_registers_off() {
    // §5.5: after the deleted defining load, the value's register
    // residence variables are fixed to zero.
    let mut b = FunctionBuilder::new("m4");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(1));
    b.ret(Some(y));
    let f = b.finish();
    let built = x86_model(&f);
    let fixed_regs = (0..built.model.num_vars())
        .filter(|j| built.model.fixed(regalloc_ilp::VarId(*j as u32)) == Some(false))
        .count();
    assert!(fixed_regs >= 6, "post-definition residence is pinned off");
}

#[test]
fn remat_variables_only_for_constant_definitions() {
    let mut b = FunctionBuilder::new("m5");
    let k = b.new_sym(Width::B32); // constant: rematerialisable
    let v = b.new_sym(Width::B32); // computed: not
    let z = b.new_sym(Width::B32);
    b.load_imm(k, 7);
    b.un(UnOp::Neg, v, Operand::sym(k));
    b.bin(BinOp::Add, z, Operand::sym(v), Operand::sym(k));
    b.ret(Some(z));
    let f = b.finish();
    let built = x86_model(&f);
    let any_remat = built
        .events
        .iter()
        .any(|ev| ev.remat.iter().any(Option::is_some));
    assert!(any_remat, "the constant gets rematerialisation variables");
}

#[test]
fn must_exist_rows_strengthen_the_relaxation() {
    // Non-rematerialisable values get a Σ residence ≥ 1 row per segment;
    // an all-constant function gets none. Compare row counts per segment.
    let mut b1 = FunctionBuilder::new("m6a");
    let p = b1.new_param("p", Width::B32);
    let x = b1.new_sym(Width::B32);
    let y = b1.new_sym(Width::B32);
    b1.load_global(x, p); // predefined → non-remat
    b1.bin(BinOp::Add, y, Operand::sym(x), Operand::sym(x));
    b1.ret(Some(y));
    let f1 = b1.finish();
    let m1 = x86_model(&f1);

    let mut b2 = FunctionBuilder::new("m6b");
    let x = b2.new_sym(Width::B32);
    let y = b2.new_sym(Width::B32);
    b2.load_imm(x, 4); // rematerialisable
    b2.bin(BinOp::Add, y, Operand::sym(x), Operand::sym(x));
    b2.ret(Some(y));
    let f2 = b2.finish();
    let m2 = x86_model(&f2);

    // Same instruction count, but the first model carries must-exist rows.
    assert!(m1.model.num_rows() > 0 && m2.model.num_rows() > 0);
    assert!(
        m1.model.num_rows() != m2.model.num_rows(),
        "remat-ability changes the row structure"
    );
}

#[test]
fn constraint_count_scales_with_register_file() {
    // §6: more registers → more variables and rows for the same function.
    let mut b = FunctionBuilder::new("m7");
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_imm(x, 1);
    b.bin(BinOp::Add, y, Operand::sym(x), Operand::Imm(2));
    b.ret(Some(y));
    let f = b.finish();
    let bx = x86_model(&f);
    let br = build_function(&f, &RiscMachine::new(), &CostModel::paper()).built;
    assert!(br.model.num_vars() > 2 * bx.model.num_vars());
    assert!(br.model.num_rows() > bx.model.num_rows());
}

#[test]
fn integral_costs_throughout() {
    // The §4 cost model plus scaling must keep every cost integral (the
    // solver's bound rounding depends on it).
    let mut b = FunctionBuilder::new("m8");
    let p = b.new_param("p", Width::B32);
    let x = b.new_sym(Width::B32);
    let y = b.new_sym(Width::B32);
    b.load_global(x, p);
    b.bin(BinOp::Shl, y, Operand::sym(x), Operand::Imm(2));
    b.ret(Some(y));
    let f = b.finish();
    let built = x86_model(&f);
    assert!(built.model.has_integral_costs());
}
