//! Problem builder: variables with bounds, sparse linear constraints, and a
//! linear minimisation objective.

use crate::sparse::SparseMatrix;
use crate::types::{Outcome, SimplexOptions, SolveError};

/// Handle to a decision variable, returned by [`Problem::add_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a constraint, returned by [`Problem::add_cons`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConsId(pub(crate) usize);

impl ConsId {
    /// Index of the constraint in the order of creation.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Comparison sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct ConsDef {
    /// Sparse row: (variable index, coefficient). Duplicate variables are
    /// summed during canonicalisation.
    pub coeffs: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear program `min c'x + k` over variables with box bounds and sparse
/// linear constraints.
///
/// The builder performs no work until [`Problem::solve`] is called; it can be
/// cloned cheaply relative to solve time, which the MILP branch-and-bound
/// exploits for node subproblems.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) cons: Vec<ConsDef>,
    /// Constant added to the objective (bookkeeping for shifted bounds and
    /// model-level constants such as Benders' fixed master terms).
    pub(crate) obj_constant: f64,
}

impl Problem {
    /// Creates an empty problem (minimisation, zero objective constant).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `lb ≤ x ≤ ub` and objective coefficient
    /// `obj`. Use `f64::NEG_INFINITY` / `f64::INFINITY` for free directions.
    ///
    /// # Panics
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN variable bound");
        assert!(
            lb <= ub,
            "variable lower bound {lb} exceeds upper bound {ub}"
        );
        assert!(obj.is_finite(), "objective coefficient must be finite");
        self.vars.push(VarDef { lb, ub, obj });
        VarId(self.vars.len() - 1)
    }

    /// Adds the constraint `Σ coeff_i · var_i  cmp  rhs`.
    ///
    /// Duplicate variable entries are allowed and are summed.
    ///
    /// # Panics
    /// Panics if any coefficient or the rhs is non-finite.
    pub fn add_cons(&mut self, coeffs: &[(VarId, f64)], cmp: Cmp, rhs: f64) -> ConsId {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        let mut row = Vec::with_capacity(coeffs.len());
        for &(v, c) in coeffs {
            assert!(c.is_finite(), "constraint coefficient must be finite");
            assert!(v.0 < self.vars.len(), "unknown variable in constraint");
            row.push((v.0, c));
        }
        self.cons.push(ConsDef {
            coeffs: row,
            cmp,
            rhs,
        });
        ConsId(self.cons.len() - 1)
    }

    /// Adds a variable together with its coefficients in *existing*
    /// constraints — the column-growth dual of [`Problem::add_cons`]. The
    /// cross-epoch solver uses this to append an arriving tenant's
    /// reservation columns to a persistent program without rebuilding any
    /// rows, keeping every previously stored [`Basis`](crate::Basis)
    /// adaptable (the new column enters nonbasic on a bound).
    ///
    /// Duplicate constraint entries are allowed and are summed.
    ///
    /// # Panics
    /// Panics on NaN/inverted bounds, a non-finite objective or coefficient,
    /// or an unknown constraint handle.
    pub fn add_column(&mut self, lb: f64, ub: f64, obj: f64, coeffs: &[(ConsId, f64)]) -> VarId {
        let v = self.add_var(lb, ub, obj);
        for &(c, a) in coeffs {
            assert!(a.is_finite(), "column coefficient must be finite");
            assert!(c.0 < self.cons.len(), "unknown constraint in column");
            self.cons[c.0].coeffs.push((v.0, a));
        }
        v
    }

    /// Adds `k` to the objective function (useful to keep reported objective
    /// values aligned with a paper formulation).
    pub fn add_objective_constant(&mut self, k: f64) {
        assert!(k.is_finite());
        self.obj_constant += k;
    }

    /// Returns the current number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Returns the current number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Iterates the handles of all variables in creation order (handles are
    /// stable — variables are never removed).
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len()).map(VarId)
    }

    /// Overrides the bounds of an existing variable (used by branch-and-bound
    /// to fix binaries at nodes).
    ///
    /// # Panics
    /// Panics if `lb > ub` or either bound is NaN.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        assert!(!lb.is_nan() && !ub.is_nan(), "NaN variable bound");
        assert!(
            lb <= ub,
            "variable lower bound {lb} exceeds upper bound {ub}"
        );
        let v = &mut self.vars[var.0];
        v.lb = lb;
        v.ub = ub;
    }

    /// Returns the bounds of a variable.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        let v = &self.vars[var.0];
        (v.lb, v.ub)
    }

    /// Overrides the objective coefficient of an existing variable.
    pub fn set_objective(&mut self, var: VarId, obj: f64) {
        assert!(obj.is_finite());
        self.vars[var.0].obj = obj;
    }

    /// Overrides the right-hand side of an existing constraint (used by the
    /// Benders slave to re-price a new admission vector without rebuilding
    /// the program — the row structure, and therefore any stored
    /// [`Basis`](crate::Basis), is preserved).
    ///
    /// # Panics
    /// Panics if `rhs` is non-finite.
    pub fn set_rhs(&mut self, cons: ConsId, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.cons[cons.0].rhs = rhs;
    }

    /// Builds the structural constraint matrix (`num_cons × num_vars`) in
    /// compressed-sparse-column form: duplicate row entries are summed and
    /// zero coefficients dropped. This is the matrix representation the
    /// revised engine (and its sparse LU) works on.
    pub fn structural_matrix(&self) -> SparseMatrix {
        let mut cols: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.vars.len()];
        for (i, c) in self.cons.iter().enumerate() {
            // Rows are visited in order, so per-column pushes stay sorted;
            // duplicate entries within a row land adjacent and the CSC
            // constructor sums them (dropping exact-zero results).
            for &(j, a) in &c.coeffs {
                cols[j].push((i as u32, a));
            }
        }
        SparseMatrix::from_columns(self.cons.len(), &cols)
    }

    /// Solves the program cold with default simplex options.
    pub fn solve(&self) -> Result<Outcome, SolveError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves the program cold with explicit simplex options: a
    /// [`Problem::solve_warm_with`] from no basis, keeping only the outcome.
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<Outcome, SolveError> {
        self.solve_warm_with(None, options).map(|w| w.outcome)
    }

    /// Solves resuming from `warm` when supplied;
    /// returns the outcome plus a basis reusable for the next perturbed
    /// solve (see the crate docs for the warm-start contract).
    pub fn solve_warm(&self, warm: Option<&crate::Basis>) -> Result<crate::WarmSolve, SolveError> {
        crate::revised::solve_warm(self, warm, &SimplexOptions::default())
    }

    /// [`Problem::solve_warm`] with explicit simplex options.
    pub fn solve_warm_with(
        &self,
        warm: Option<&crate::Basis>,
        options: &SimplexOptions,
    ) -> Result<crate::WarmSolve, SolveError> {
        crate::revised::solve_warm(self, warm, options)
    }

    /// [`Problem::solve_warm_with`] solving through a caller-owned
    /// [`Workspace`](crate::Workspace) — the per-worker entry point of the
    /// threading contract (see the `revised` module docs). The workspace
    /// never affects results; holding one per worker amortises scratch
    /// allocations across a warm chain.
    pub fn solve_warm_in(
        &self,
        warm: Option<&crate::Basis>,
        options: &SimplexOptions,
        ws: &mut crate::Workspace,
    ) -> Result<crate::WarmSolve, SolveError> {
        crate::revised::solve_warm_in(self, warm, options, ws)
    }
}
