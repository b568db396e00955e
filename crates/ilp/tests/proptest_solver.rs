//! Property-based testing of the 0-1 IP solver against brute-force
//! enumeration on small random models.

use proptest::prelude::*;
use regalloc_ilp::{
    solve_lp, solve_seeded, solve_seeded_traced, Deadline, Incumbent, LpOutcome, Model, Sense,
    SolverConfig, SolverHealth, VarId,
};
use regalloc_obs::Tracer;

/// A random constraint row: (coefficients, sense 0/1/2, rhs).
type RandomRow = (Vec<(usize, i32)>, u8, i32);

#[derive(Debug, Clone)]
struct SmallModel {
    costs: Vec<i32>,
    rows: Vec<RandomRow>,
}

fn small_model() -> impl Strategy<Value = SmallModel> {
    let nvars = 2..7usize;
    nvars.prop_flat_map(|n| {
        let costs = proptest::collection::vec(-9i32..10, n);
        let row = (
            proptest::collection::vec((0..n, -3i32..4), 1..=n),
            0u8..3,
            -3i32..5,
        );
        let rows = proptest::collection::vec(row, 1..5);
        (costs, rows).prop_map(|(costs, rows)| SmallModel { costs, rows })
    })
}

fn build(m: &SmallModel) -> Model {
    let mut model = Model::new();
    let vars: Vec<VarId> = m
        .costs
        .iter()
        .enumerate()
        .map(|(i, c)| model.add_var(*c as f64, format!("v{i}")))
        .collect();
    for (coeffs, sense, rhs) in &m.rows {
        let cs: Vec<(VarId, f64)> = coeffs.iter().map(|(i, c)| (vars[*i], *c as f64)).collect();
        match sense {
            0 => model.add_le(cs, *rhs as f64),
            1 => model.add_ge(cs, *rhs as f64),
            _ => model.add_eq(cs, *rhs as f64),
        }
    }
    model
}

fn brute_force(model: &Model) -> Option<f64> {
    let n = model.num_vars();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << n) {
        let assign: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if model.is_feasible(&assign) {
            let o = model.objective(&assign);
            if best.is_none_or(|b| o < b) {
                best = Some(o);
            }
        }
    }
    best
}

/// True when every multiplier respects its row's sign condition: `≤ 0`
/// for `≤` rows, `≥ 0` for `≥` rows, free for `=` rows.
fn in_dual_cone(model: &Model, y: &[f64]) -> bool {
    y.len() == model.num_rows()
        && y.iter().zip(model.rows()).all(|(yi, row)| match row.sense {
            Sense::Le => *yi <= 0.0,
            Sense::Ge => *yi >= 0.0,
            Sense::Eq => yi.is_finite(),
        })
}

/// The Lagrangian bound of `y` over the box `[lb, ub]`:
/// `Σᵢ yᵢ·bᵢ + Σⱼ min over the box of dⱼ·xⱼ` with `dⱼ = cⱼ − Σᵢ yᵢ·aᵢⱼ`
/// (costs dropped when `with_costs` is false — the Farkas form). For `y`
/// in the dual cone it bounds every box point satisfying the rows.
fn lagrangian(model: &Model, y: &[f64], lb: &[f64], ub: &[f64], with_costs: bool) -> f64 {
    let mut d: Vec<f64> = if with_costs {
        model.costs().to_vec()
    } else {
        vec![0.0; model.num_vars()]
    };
    let mut bound = 0.0;
    for (yi, row) in y.iter().zip(model.rows()) {
        bound += yi * row.rhs;
        for (v, c) in &row.coeffs {
            d[v.index()] -= yi * c;
        }
    }
    bound
        + d.iter()
            .zip(lb.iter().zip(ub))
            .map(|(dj, (l, u))| (dj * l).min(dj * u))
            .sum::<f64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The solver's verdict and objective agree with brute force.
    #[test]
    fn solver_matches_brute_force(m in small_model()) {
        let model = build(&m);
        let truth = brute_force(&model);
        let sol = solve_seeded(&model, &SolverConfig::default(), &[], Deadline::unlimited());
        match truth {
            Some(obj) => {
                prop_assert_eq!(sol.status, regalloc_ilp::Status::Optimal);
                prop_assert!((sol.objective - obj).abs() < 1e-6,
                    "solver {} vs brute {}", sol.objective, obj);
                prop_assert!(model.is_feasible(&sol.values));
            }
            None => {
                prop_assert_eq!(sol.status, regalloc_ilp::Status::Infeasible);
            }
        }
    }

    /// A feasible warm start is never lost, whatever the budget.
    #[test]
    fn warm_start_is_never_lost(m in small_model()) {
        let model = build(&m);
        if brute_force(&model).is_some() {
            // Find any feasible point to use as warm start.
            let n = model.num_vars();
            let warm = (0u32..(1 << n)).find_map(|mask| {
                let a: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                model.is_feasible(&a).then_some(a)
            }).unwrap();
            let cfg = SolverConfig {
                time_limit: std::time::Duration::from_millis(0),
                ..Default::default()
            };
            let seed = [Incumbent { source: "warm", values: warm.clone() }];
            let sol = solve_seeded(&model, &cfg, &seed, Deadline::unlimited());
            prop_assert!(sol.has_solution());
            prop_assert!(model.is_feasible(&sol.values));
            prop_assert!(sol.objective <= model.objective(&warm) + 1e-9);
        }
    }

    /// Certificate emission is pure observation: the same search, step
    /// for step, with the proof recorded on the side. Guards the node
    /// loop's single propagate call, whose recorder is armed only when
    /// certificates are on.
    #[test]
    fn certificates_do_not_change_the_search(m in small_model()) {
        let model = build(&m);
        let run = |emit_certificates: bool| {
            let cfg = SolverConfig { emit_certificates, ..Default::default() };
            let tracer = Tracer::on();
            let sol = solve_seeded_traced(&model, &cfg, &[], Deadline::unlimited(), &tracer);
            (sol, tracer.finish("m").events)
        };
        let (plain, plain_events) = run(false);
        let (certed, certed_events) = run(true);
        prop_assert_eq!(plain.status, certed.status);
        prop_assert_eq!(&plain.values, &certed.values);
        prop_assert_eq!(plain.objective.to_bits(), certed.objective.to_bits());
        prop_assert_eq!(plain.nodes, certed.nodes);
        prop_assert_eq!(plain.lp_iters, certed.lp_iters);
        prop_assert_eq!(&plain.health, &certed.health);
        prop_assert_eq!(plain_events, certed_events);
        prop_assert!(plain.certificate.is_none());
    }

    /// `solve_lp` returns its own duals: an optimal outcome's are in the
    /// dual cone with a Lagrangian bound equal to the LP optimum, and an
    /// infeasible outcome's Farkas multipliers refute the box.
    #[test]
    fn lp_outcomes_carry_valid_duals(m in small_model()) {
        let model = build(&m);
        let n = model.num_vars();
        let (lb, ub) = (vec![0.0; n], vec![1.0; n]);
        let mut health = SolverHealth::default();
        match solve_lp(&model, &lb, &ub, 100_000, Deadline::unlimited(), &mut health) {
            LpOutcome::Optimal { obj, duals, .. } => {
                prop_assert!(in_dual_cone(&model, &duals), "duals {:?}", duals);
                let bound = lagrangian(&model, &duals, &lb, &ub, true);
                prop_assert!(bound <= obj + 1e-6, "bound {} above the optimum {}", bound, obj);
                prop_assert!((bound - obj).abs() <= 1e-6, "bound {} vs optimum {}", bound, obj);
            }
            LpOutcome::Infeasible { farkas, .. } => {
                prop_assert!(brute_force(&model).is_none());
                if !farkas.is_empty() {
                    prop_assert!(in_dual_cone(&model, &farkas), "farkas {:?}", farkas);
                    let bound = lagrangian(&model, &farkas, &lb, &ub, false);
                    prop_assert!(bound > 0.0, "Farkas bound {} does not refute the box", bound);
                }
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}
