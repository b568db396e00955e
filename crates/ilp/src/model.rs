//! 0-1 integer-program model building.

use std::fmt;

/// A decision-variable handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// Index into dense per-variable arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Constraint sense.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sense {
    /// `Σ aᵢ xᵢ ≤ rhs`
    Le,
    /// `Σ aᵢ xᵢ ≥ rhs`
    Ge,
    /// `Σ aᵢ xᵢ = rhs`
    Eq,
}

/// One linear constraint.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// Sparse coefficients (variable, coefficient). Variables appear at
    /// most once per row.
    pub coeffs: Vec<(VarId, f64)>,
    /// The constraint sense.
    pub sense: Sense,
    /// The right-hand side.
    pub rhs: f64,
}

/// A 0-1 integer program: minimise `Σ costᵢ xᵢ` subject to linear
/// constraints, with every `xᵢ ∈ {0, 1}` (unless fixed by
/// [`Model::fix`]).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Model {
    costs: Vec<f64>,
    names: Vec<String>,
    fixed: Vec<Option<bool>>,
    rows: Vec<Row>,
}

impl Model {
    /// An empty model.
    pub fn new() -> Model {
        Model::default()
    }

    /// Add a binary variable with the given objective cost.
    pub fn add_var(&mut self, cost: f64, name: impl Into<String>) -> VarId {
        let id = VarId(self.costs.len() as u32);
        self.costs.push(cost);
        self.names.push(name.into());
        self.fixed.push(None);
        id
    }

    /// Fix a variable to a constant value (0 or 1); the solver honours the
    /// fixing. Used by the allocator to express structurally forbidden
    /// actions (e.g. a caller-saved register crossing a call).
    pub fn fix(&mut self, v: VarId, value: bool) {
        self.fixed[v.index()] = Some(value);
    }

    /// The fixing of a variable, if any.
    pub fn fixed(&self, v: VarId) -> Option<bool> {
        self.fixed[v.index()]
    }

    /// Add a `Σ aᵢ xᵢ ≤ rhs` constraint.
    pub fn add_le(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.add_row(coeffs, Sense::Le, rhs);
    }

    /// Add a `Σ aᵢ xᵢ ≥ rhs` constraint.
    pub fn add_ge(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.add_row(coeffs, Sense::Ge, rhs);
    }

    /// Add a `Σ aᵢ xᵢ = rhs` constraint.
    pub fn add_eq(&mut self, coeffs: Vec<(VarId, f64)>, rhs: f64) {
        self.add_row(coeffs, Sense::Eq, rhs);
    }

    /// Add a constraint with an explicit sense. Zero coefficients are
    /// dropped; duplicate variables are combined.
    pub fn add_row(&mut self, mut coeffs: Vec<(VarId, f64)>, sense: Sense, rhs: f64) {
        coeffs.sort_by_key(|(v, _)| *v);
        coeffs.dedup_by(|(v2, c2), (v1, c1)| {
            if v1 == v2 {
                *c1 += *c2;
                true
            } else {
                false
            }
        });
        coeffs.retain(|(_, c)| *c != 0.0);
        self.rows.push(Row { coeffs, sense, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints — the x-axis of Fig. 10 and y-axis of Fig. 9
    /// of the paper.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The objective cost of a variable.
    pub fn cost(&self, v: VarId) -> f64 {
        self.costs[v.index()]
    }

    /// All objective costs, densely indexed.
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// The constraint rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The debug name of a variable.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.index()]
    }

    /// Objective value of an assignment.
    pub fn objective(&self, values: &[bool]) -> f64 {
        self.costs
            .iter()
            .zip(values)
            .map(|(c, &v)| if v { *c } else { 0.0 })
            .sum()
    }

    /// True if `values` satisfies every constraint and every fixing.
    pub fn is_feasible(&self, values: &[bool]) -> bool {
        self.violated_row(values).is_none()
            && self
                .fixed
                .iter()
                .zip(values)
                .all(|(f, &v)| f.is_none_or(|fv| fv == v))
    }

    /// The index of the first violated constraint, if any (diagnostic
    /// companion to [`Model::is_feasible`]).
    pub fn violated_row(&self, values: &[bool]) -> Option<usize> {
        const TOL: f64 = 1e-6;
        self.rows.iter().position(|row| {
            let lhs: f64 = row
                .coeffs
                .iter()
                .map(|(v, c)| if values[v.index()] { *c } else { 0.0 })
                .sum();
            match row.sense {
                Sense::Le => lhs > row.rhs + TOL,
                Sense::Ge => lhs < row.rhs - TOL,
                Sense::Eq => (lhs - row.rhs).abs() > TOL,
            }
        })
    }

    /// True if every objective cost is an integer, enabling the solver's
    /// integral bound rounding. The paper's cost model (eq. 1) always
    /// produces integer costs.
    pub fn has_integral_costs(&self) -> bool {
        self.costs.iter().all(|c| c.fract() == 0.0)
    }

    /// Export in the CPLEX LP file format, readable by CPLEX, Gurobi, SCIP,
    /// HiGHS, lp_solve and most other solvers — so a model built here can
    /// be cross-checked against the solvers the paper's experiments used.
    ///
    /// ```
    /// # use regalloc_ilp::Model;
    /// let mut m = Model::new();
    /// let a = m.add_var(2.0, "a");
    /// let b = m.add_var(3.0, "b");
    /// m.add_ge(vec![(a, 1.0), (b, 1.0)], 1.0);
    /// let lp = m.to_lp_format();
    /// assert!(lp.starts_with("Minimize"));
    /// assert!(lp.contains("Binaries"));
    /// assert!(lp.trim_end().ends_with("End"));
    /// ```
    pub fn to_lp_format(&self) -> String {
        use std::fmt::Write;
        // LP-format identifiers must start with a letter; our debug names
        // may be empty or duplicated, so emit canonical x<i> names.
        let mut s = String::from("Minimize\n obj:");
        let mut first = true;
        for (i, c) in self.costs.iter().enumerate() {
            if *c != 0.0 {
                let _ = write!(
                    s,
                    " {}{} x{}",
                    if *c >= 0.0 { "+" } else { "-" },
                    c.abs(),
                    i
                );
                first = false;
            }
        }
        if first {
            s.push_str(" 0 x0");
        }
        s.push_str("\nSubject To\n");
        for (ri, row) in self.rows.iter().enumerate() {
            let _ = write!(s, " c{ri}:");
            for (v, c) in &row.coeffs {
                let _ = write!(
                    s,
                    " {}{} x{}",
                    if *c >= 0.0 { "+" } else { "-" },
                    c.abs(),
                    v.index()
                );
            }
            let op = match row.sense {
                Sense::Le => "<=",
                Sense::Ge => ">=",
                Sense::Eq => "=",
            };
            let _ = writeln!(s, " {op} {}", row.rhs);
        }
        let fixed: Vec<(usize, bool)> = self
            .fixed
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|v| (i, v)))
            .collect();
        if !fixed.is_empty() {
            s.push_str("Bounds\n");
            for (i, v) in fixed {
                let _ = writeln!(s, " x{i} = {}", v as u8);
            }
        }
        s.push_str("Binaries\n");
        for i in 0..self.num_vars() {
            let _ = write!(s, " x{i}");
            if i % 16 == 15 {
                s.push('\n');
            }
        }
        s.push_str("\nEnd\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut m = Model::new();
        let a = m.add_var(3.0, "a");
        let b = m.add_var(-1.0, "b");
        m.add_le(vec![(a, 1.0), (b, 2.0)], 2.0);
        m.add_ge(vec![(a, 1.0)], 0.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.cost(a), 3.0);
        assert_eq!(m.name(b), "b");
        assert!(m.has_integral_costs());
    }

    #[test]
    fn duplicate_coefficients_combine() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.add_le(vec![(a, 1.0), (a, 2.0)], 2.0);
        assert_eq!(m.rows()[0].coeffs, vec![(a, 3.0)]);
    }

    #[test]
    fn zero_coefficients_drop() {
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_le(vec![(a, 0.0), (b, 1.0)], 1.0);
        assert_eq!(m.rows()[0].coeffs, vec![(b, 1.0)]);
    }

    #[test]
    fn feasibility_and_objective() {
        let mut m = Model::new();
        let a = m.add_var(5.0, "a");
        let b = m.add_var(7.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 1.0);
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.0);
        assert!(m.is_feasible(&[true, false]));
        assert!(m.is_feasible(&[false, true]));
        assert!(!m.is_feasible(&[false, false]));
        assert!(!m.is_feasible(&[true, true]));
        assert_eq!(m.objective(&[false, true]), 7.0);
        assert_eq!(m.violated_row(&[false, false]), Some(0));
        assert_eq!(m.violated_row(&[true, true]), Some(1));
    }

    #[test]
    fn fixings_participate_in_feasibility() {
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        m.fix(a, true);
        assert!(m.is_feasible(&[true]));
        assert!(!m.is_feasible(&[false]));
        assert_eq!(m.fixed(a), Some(true));
    }

    #[test]
    fn fractional_costs_detected() {
        let mut m = Model::new();
        m.add_var(0.5, "h");
        assert!(!m.has_integral_costs());
    }

    #[test]
    fn lp_format_is_well_formed() {
        let mut m = Model::new();
        let a = m.add_var(2.0, "a");
        let b = m.add_var(-3.0, "b");
        m.add_le(vec![(a, 1.0), (b, -2.0)], 1.0);
        m.add_eq(vec![(b, 1.0)], 1.0);
        m.fix(a, false);
        let lp = m.to_lp_format();
        assert!(lp.contains("Minimize"));
        assert!(lp.contains("+2 x0"));
        assert!(lp.contains("-3 x1"));
        assert!(lp.contains("c0: +1 x0 -2 x1 <= 1"));
        assert!(lp.contains("c1: +1 x1 = 1"));
        assert!(lp.contains("Bounds"));
        assert!(lp.contains("x0 = 0"));
        assert!(lp.contains("Binaries"));
    }
}
