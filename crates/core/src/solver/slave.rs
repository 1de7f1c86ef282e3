//! The Benders slave: the reservation LP for a fixed admission vector, and
//! the machinery to turn its duals (or Farkas certificates) into cuts.
//!
//! For a fixed admission `ū` (CU selection per tenant), the slave is
//!
//! ```text
//! min  −Σ_legs q·z  (+ M·(δ_r + δ_b + δ_c))
//! s.t. Σ_{legs→c} b_τ·z − δ_c ≤ C_c − Σ_τ a_τ·ū_{τ,c}      ∀ CU c     (2/14)
//!      Σ_{legs∋e} η_e·z − δ_b ≤ C_e                        ∀ link e   (3/15)
//!      Σ_{legs@b} z/η_b − δ_r ≤ C_b                        ∀ BS b     (4/16)
//!      λ̂·ū_{τ,c} ≤ z ≤ Λ·ū_{τ,c}                          ∀ leg    (17/18)
//! ```
//!
//! The paper's reservation-window rows (17)/(18) are **native variable
//! bounds** here, not constraint rows: the revised simplex handles box
//! bounds for free, so the basis is `(CUs + links + BSs)²` instead of
//! growing by two rows per leg — and the window edits a new admission
//! vector implies are exactly the bound-heavy dual-simplex re-solves the
//! engine's long-step (bound-flipping) ratio test is built for.
//!
//! Every right-hand side *and bound* is affine in `u`, so a dual solution
//! still yields an affine lower bound `g(u) ≤ slave_opt(u)`: the row part
//! `Σ_i y_i·rhs_i(u)` as before, plus the window part priced through
//! **reduced costs** — a leg nonbasic at a window edge contributes
//! `d·λ̂·u` (at the lower edge, `d ≥ 0`) or `d·Λ·u` (at the upper edge,
//! `d ≤ 0`), the Lagrangian `inf` over the box. Farkas certificates do the
//! same with the residuals `h_j = Σ_i y_i·a_ij`, using the `sup` over the
//! box. The paper's `y`/linearisation variables are unnecessary because the
//! slave sees `x` as a constant — see DESIGN.md.
//!
//! ## Incremental re-pricing
//!
//! Only right-hand sides and window bounds depend on `ū`. [`SlaveContext`]
//! therefore builds the LP **once** per instance, and each
//! [`SlaveContext::solve_for`] call rewrites the affected RHS entries and
//! leg bounds and re-solves **warm** from the previous admission's basis:
//! consecutive Benders iterations differ by a few flipped `u` entries, so
//! the dual simplex typically needs a handful of pivots (plus a few bound
//! flips) where a cold solve needs two full phases. Because RHS and bound
//! edits leave the basis matrix untouched, the stored basis also carries a
//! still-valid **factorization** — a re-priced solve starts with zero
//! refactorizations and replays the persisted sparse LU + eta file directly
//! (`stats.factorization_reuses` counts the hits).
//!
//! Across epochs, [`LpCarry`] re-keys one epoch's final basis onto the next
//! epoch's freshly built slave for the incremental Benders path. Nothing
//! certifies that a carried solve reproduces a cold one, so a carried
//! Benders run may settle on a different optimal vertex among ties.

use crate::problem::AcrrInstance;
use ovnes_lp::{Basis, Cmp, ConsId, LpStats, Outcome, Problem, SimplexOptions, VarId};
use std::collections::HashMap;

/// Stable cross-epoch identity of a slave LP column. Instance-local leg
/// indices reshuffle as tenants arrive and depart; the (global tenant id,
/// BS, CU) triple does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColKey {
    /// Reservation variable of the leg (tenant global id, BS, CU).
    Leg(u32, usize, usize),
    /// Domain deficit variable: 0 = radio, 1 = transport, 2 = compute.
    Deficit(u8),
}

/// Stable cross-epoch identity of a slave LP row. Links are keyed by their
/// graph-level id because the instance-local link list is rebuilt (and
/// renumbered) from whatever paths the epoch's legs actually use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowKey {
    /// CU capacity row (2/14).
    Cu(usize),
    /// Link capacity row (3/15), keyed by graph-level link id.
    Link(usize),
    /// BS radio row (4/16).
    Bs(usize),
}

/// Cross-epoch warm-start baggage: the final basis of one epoch's slave LP
/// together with the keyed layout it was built against, so the next epoch's
/// (freshly built) slave can re-key it onto its own column/row order via
/// [`Basis::remap`]. On a no-churn epoch the mapping is the identity and the
/// persisted factorization rides along — the first re-solve then performs
/// zero refactorizations. Only the incremental Benders path carries one;
/// KAC solves every epoch from scratch.
#[derive(Debug, Clone, Default)]
pub struct LpCarry {
    pub(crate) basis: Option<Basis>,
    pub(crate) cols: Vec<ColKey>,
    pub(crate) rows: Vec<RowKey>,
}

impl LpCarry {
    /// True once a previous epoch has deposited a basis to resume from.
    pub fn is_seeded(&self) -> bool {
        self.basis.is_some()
    }
}

/// A cut's raw dual certificate, keyed for cross-epoch recycling. Unlike a
/// baked [`CutExpr`] — whose coefficients embed one epoch's forecasts, leg
/// costs, and tenant indices — the raw multipliers can be re-priced against
/// *any* later epoch's data and still yield a valid cut (see
/// [`SlaveContext::price_recycled`]).
#[derive(Debug, Clone)]
pub struct RecycledCut {
    /// True for an optimality cut's dual solution, false for a Farkas ray.
    pub optimality: bool,
    /// Nonzero row multipliers, keyed by stable row identity.
    pub y: Vec<(RowKey, f64)>,
}

impl RecycledCut {
    /// True when the certificate puts nonzero weight on `key`'s row —
    /// the cut-invalidation predicate for infrastructure events.
    pub fn touches(&self, key: &RowKey) -> bool {
        self.y.iter().any(|(k, _)| k == key)
    }
}

/// An affine function of the admission binaries: `g(u) = constant +
/// Σ coeffs[(t,c)]·u_{t,c}`.
#[derive(Debug, Clone, Default)]
pub struct CutExpr {
    /// Constant term.
    pub constant: f64,
    /// Per-(tenant, CU) coefficients.
    pub coeffs: HashMap<(usize, usize), f64>,
}

impl CutExpr {
    /// Evaluates the expression at an admission vector.
    pub fn eval(&self, assigned: &[Option<usize>]) -> f64 {
        let mut v = self.constant;
        for (&(t, c), &w) in &self.coeffs {
            if assigned[t] == Some(c) {
                v += w;
            }
        }
        v
    }
}

/// Slave outcome for a fixed admission vector.
#[derive(Debug, Clone)]
pub enum SlaveResult {
    /// The reservation LP is feasible.
    Feasible {
        /// Optimal slave objective (risk recovered through reservations,
        /// plus any big-M deficit cost).
        value: f64,
        /// Reservation per leg (same order as `instance.legs`).
        z: Vec<f64>,
        /// Deficit used: (radio MHz, transport Mb/s, compute cores).
        deficit: (f64, f64, f64),
        /// Optimality cut `θ ≥ cut(u)`.
        cut: CutExpr,
    },
    /// No reservation satisfies the capacities (only without the deficit
    /// relaxation).
    Infeasible {
        /// Feasibility cut `cut(u) ≤ 0`.
        cut: CutExpr,
    },
}

/// Row bookkeeping: rhs constant plus affine dependence on `u`.
struct RowSpec {
    r0: f64,
    u_coeffs: Vec<((usize, usize), f64)>,
    id: ConsId,
}

/// A persistent, warm-started slave LP for one [`AcrrInstance`].
///
/// Build once, then call [`SlaveContext::solve_for`] with each admission
/// vector. The LP structure never changes — only RHS values and leg bounds
/// move — so the previous solve's [`Basis`] restarts every subsequent solve.
pub struct SlaveContext<'a> {
    instance: &'a AcrrInstance,
    problem: Problem,
    z_vars: Vec<VarId>,
    deficit_vars: Option<(VarId, VarId, VarId)>,
    rows: Vec<RowSpec>,
    /// Per-leg reservation window `[λ̂, Λ]`, applied as variable bounds
    /// scaled by the admission binary.
    leg_window: Vec<(f64, f64)>,
    /// Per-leg sparse constraint column: (constraint index, coefficient).
    /// Used to price reduced costs / Farkas residuals into cut
    /// coefficients without reaching into the LP's internals.
    leg_cols: Vec<Vec<(usize, f64)>>,
    /// Stable identity per row of `rows`, in row order.
    row_keys: Vec<RowKey>,
    /// Inverse of `row_keys` for recycled-cut re-pricing and seeding.
    row_lookup: HashMap<RowKey, usize>,
    basis: Option<Basis>,
    warm: bool,
    /// Simplex options applied to every `solve_for` (budget pivot caps and
    /// chaos fault injection thread through here; defaults are identical to
    /// the plain `solve_warm` path).
    simplex: SimplexOptions,
    /// Raw dual certificate of the most recent `solve_for`, keyed for the
    /// cross-epoch cut pool.
    last_cut_duals: Option<RecycledCut>,
    /// Pivot statistics accumulated over every `solve_for` call.
    pub stats: LpStats,
}

impl<'a> SlaveContext<'a> {
    /// Builds the reservation LP skeleton (RHS set for the all-rejected
    /// admission; [`SlaveContext::solve_for`] rewrites it per call).
    pub fn new(instance: &'a AcrrInstance) -> SlaveContext<'a> {
        let mut p = Problem::new();

        // Reservation variable per leg, carrying its window natively as
        // bounds. The all-rejected start pins every leg at [0, 0];
        // `solve_for` rescales the box by the admission binary.
        let z_vars: Vec<VarId> = instance
            .legs
            .iter()
            .map(|leg| p.add_var(0.0, 0.0, -instance.leg_q(leg)))
            .collect();
        let leg_window: Vec<(f64, f64)> = instance
            .legs
            .iter()
            .map(|leg| {
                (
                    instance.leg_forecast(leg),
                    instance.tenants[leg.tenant].sla_mbps,
                )
            })
            .collect();
        let mut leg_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); instance.legs.len()];

        // Domain-wide deficit variables (paper §3.4: one per domain).
        let deficit_vars = instance.deficit_cost.map(|m| {
            (
                p.add_var(0.0, f64::INFINITY, m), // radio δ_r
                p.add_var(0.0, f64::INFINITY, m), // transport δ_b
                p.add_var(0.0, f64::INFINITY, m), // compute δ_c
            )
        });

        let mut rows: Vec<RowSpec> = Vec::new();
        let mut row_keys: Vec<RowKey> = Vec::new();

        // (2/14) CU capacity.
        for c in 0..instance.n_cu {
            let mut coeffs: Vec<(VarId, f64)> = Vec::new();
            for (li, leg) in instance.legs.iter().enumerate() {
                if leg.cu == c {
                    let b = instance.tenants[leg.tenant].service.cores_per_mbps;
                    if b != 0.0 {
                        coeffs.push((z_vars[li], b));
                        leg_cols[li].push((rows.len(), b));
                    }
                }
            }
            if let Some((_, _, dc)) = deficit_vars {
                coeffs.push((dc, -1.0));
            }
            // rhs: C_c − Σ_t a_t·u_{t,c}.
            let mut u_coeffs = Vec::new();
            for (t, ten) in instance.tenants.iter().enumerate() {
                if instance.cu_allowed[t][c] && ten.service.base_cores != 0.0 {
                    u_coeffs.push(((t, c), -ten.service.base_cores));
                }
            }
            let id = p.add_cons(&coeffs, Cmp::Le, instance.cu_cores[c]);
            row_keys.push(RowKey::Cu(c));
            rows.push(RowSpec {
                r0: instance.cu_cores[c],
                u_coeffs,
                id,
            });
        }

        // (3/15) Link capacity.
        for (e, &cap) in instance.link_caps.iter().enumerate() {
            let mut coeffs: Vec<(VarId, f64)> = Vec::new();
            let mut members: Vec<usize> = Vec::new();
            for (li, leg) in instance.legs.iter().enumerate() {
                if leg.links.contains(&e) {
                    coeffs.push((z_vars[li], instance.eta_transport));
                    members.push(li);
                }
            }
            if coeffs.is_empty() {
                // Link referenced by no leg (possible after CU pruning): skip
                // to keep the LP lean, but keep row indices aligned by not
                // pushing.
                continue;
            }
            if let Some((_, db, _)) = deficit_vars {
                coeffs.push((db, -1.0));
            }
            for li in members {
                leg_cols[li].push((rows.len(), instance.eta_transport));
            }
            let id = p.add_cons(&coeffs, Cmp::Le, cap);
            row_keys.push(RowKey::Link(instance.link_graph_ids[e]));
            rows.push(RowSpec {
                r0: cap,
                u_coeffs: Vec::new(),
                id,
            });
        }

        // (4/16) Radio capacity per BS (z in Mb/s ÷ efficiency = MHz).
        for b in 0..instance.n_bs {
            let eff = instance.mbps_per_mhz[b];
            let mut coeffs: Vec<(VarId, f64)> = Vec::new();
            for (li, leg) in instance.legs.iter().enumerate() {
                if leg.bs == b {
                    coeffs.push((z_vars[li], 1.0 / eff));
                    leg_cols[li].push((rows.len(), 1.0 / eff));
                }
            }
            if let Some((dr, _, _)) = deficit_vars {
                coeffs.push((dr, -1.0));
            }
            let id = p.add_cons(&coeffs, Cmp::Le, instance.bs_radio_mhz[b]);
            row_keys.push(RowKey::Bs(b));
            rows.push(RowSpec {
                r0: instance.bs_radio_mhz[b],
                u_coeffs: Vec::new(),
                id,
            });
        }

        // (17)/(18) live as native bounds on `z_vars` — see the module docs.

        let row_lookup: HashMap<RowKey, usize> =
            row_keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        SlaveContext {
            instance,
            problem: p,
            z_vars,
            deficit_vars,
            rows,
            leg_window,
            leg_cols,
            row_keys,
            row_lookup,
            basis: None,
            warm: true,
            simplex: SimplexOptions::default(),
            last_cut_duals: None,
            stats: LpStats::default(),
        }
    }

    /// Disables basis reuse (comparison/benchmark runs solve cold instead).
    pub fn set_warm(&mut self, warm: bool) {
        self.warm = warm;
        if !warm {
            self.basis = None;
        }
    }

    /// Overrides the simplex options applied to every subsequent
    /// [`SlaveContext::solve_for`] — how `SolveControls.lp_fault` (and, for
    /// callers that want it, pivot caps) reach the slave LP instead of only
    /// the master's node relaxations.
    pub fn set_simplex_options(&mut self, options: SimplexOptions) {
        self.simplex = options;
    }

    /// Stable column identities, in LP column order (legs first, then the
    /// deficit triple when the instance is relaxed).
    pub fn col_keys(&self) -> Vec<ColKey> {
        let mut keys: Vec<ColKey> = self
            .instance
            .legs
            .iter()
            .map(|l| ColKey::Leg(self.instance.tenants[l.tenant].tenant, l.bs, l.cu))
            .collect();
        if self.deficit_vars.is_some() {
            keys.extend([ColKey::Deficit(0), ColKey::Deficit(1), ColKey::Deficit(2)]);
        }
        keys
    }

    /// Seeds this (freshly built) context from a previous epoch's carry:
    /// the old basis is re-keyed onto this LP's column/row layout with
    /// [`Basis::remap`]. Columns and rows that only one epoch has start
    /// exactly where a cold solve would place them. A no-churn epoch maps
    /// identically and inherits the persisted factorization. An empty
    /// carry, or a context with warm starts disabled, is left cold.
    pub fn seed_from_carry(&mut self, carry: &LpCarry) {
        let Some(basis) = &carry.basis else {
            return;
        };
        if !self.warm {
            return;
        }
        let new_cols = self.col_keys();
        let col_index: HashMap<ColKey, usize> =
            new_cols.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let col_map: Vec<Option<usize>> = carry
            .cols
            .iter()
            .map(|k| col_index.get(k).copied())
            .collect();
        let row_map: Vec<Option<usize>> = carry
            .rows
            .iter()
            .map(|k| self.row_lookup.get(k).copied())
            .collect();
        self.basis = Some(basis.remap(&col_map, new_cols.len(), &row_map, self.rows.len()));
    }

    /// Deposits this context's final basis and keyed layout into `carry`
    /// for the next epoch's context to resume from.
    pub fn save_carry(&self, carry: &mut LpCarry) {
        carry.basis = self.basis.clone();
        carry.cols = self.col_keys();
        carry.rows = self.row_keys.clone();
    }

    /// Raw dual certificate of the most recent [`SlaveContext::solve_for`],
    /// for the cross-epoch cut pool.
    pub fn last_cut_duals(&self) -> Option<&RecycledCut> {
        self.last_cut_duals.as_ref()
    }

    /// Re-prices a recycled dual certificate against **this** epoch's data,
    /// producing a cut valid for this epoch's master.
    ///
    /// Soundness: with the engine's dual sign convention, any sign-feasible
    /// multiplier vector `y` yields the Lagrangian lower bound
    /// `Σ_i y_i·rhs_i(u) + Σ_j inf_{box_j(u)} d_j·z_j ≤ slave_opt(u)`
    /// (weak duality) — tightness needed the generating epoch, validity does
    /// not. Rows the certificate priced that no longer exist simply drop
    /// (`y_i := 0` preserves sign feasibility); rows and legs new to this
    /// epoch are priced with this epoch's `q`, windows, and rhs. The deficit
    /// columns need no window term: their reduced cost `m + Σ_{i∈rows(δ)} y_i`
    /// was nonnegative at generation and only grows as (nonpositive) dropped
    /// multipliers leave the sum, so their box-infimum stays 0. Farkas rays
    /// recycle the same way with the `sup` over the box — the resulting
    /// `cut(u) ≤ 0` remains a necessary feasibility condition.
    pub fn price_recycled(&self, cut: &RecycledCut) -> CutExpr {
        let mut mult = vec![0.0; self.problem.num_cons()];
        for &(key, y) in &cut.y {
            if let Some(&ri) = self.row_lookup.get(&key) {
                mult[self.rows[ri].id.index()] = y;
            }
        }
        let mut out = self.row_cut(&mult);
        if cut.optimality {
            self.optimality_window(&mut out, &mult);
        } else {
            self.feasibility_window(&mut out, &mult);
        }
        out
    }

    /// Row part of a cut: `Σ_i y_i·rhs_i(u)`, identical for optimality and
    /// feasibility cuts.
    fn row_cut(&self, multipliers: &[f64]) -> CutExpr {
        let mut cut = CutExpr::default();
        for spec in &self.rows {
            let y = multipliers[spec.id.index()];
            if y == 0.0 {
                continue;
            }
            cut.constant += y * spec.r0;
            for &(pair, w) in &spec.u_coeffs {
                *cut.coeffs.entry(pair).or_insert(0.0) += y * w;
            }
        }
        cut
    }

    /// Residual `h_j = Σ_i y_i·a_ij` of a leg column against a row
    /// multiplier vector.
    fn residual(&self, multipliers: &[f64], li: usize) -> f64 {
        self.leg_cols[li]
            .iter()
            .map(|&(ri, a)| multipliers[self.rows[ri].id.index()] * a)
            .sum()
    }

    /// Window part of an optimality cut: the Lagrangian `inf` over the box.
    /// A leg with reduced cost `d = c_j − y'A_j` contributes `d·λ̂·u` when
    /// `d ≥ 0` (rests at the lower edge) and `d·Λ·u` when `d < 0` (upper
    /// edge); strong duality makes the cut tight at the generating
    /// admission.
    fn optimality_window(&self, cut: &mut CutExpr, multipliers: &[f64]) {
        for (li, leg) in self.instance.legs.iter().enumerate() {
            let d = -self.instance.leg_q(leg) - self.residual(multipliers, li);
            if d.abs() <= BOUND_DUAL_TOL {
                continue;
            }
            let (lam_hat, lam) = self.leg_window[li];
            let w = if d > 0.0 { d * lam_hat } else { d * lam };
            if w != 0.0 {
                *cut.coeffs.entry((leg.tenant, leg.cu)).or_insert(0.0) += w;
            }
        }
    }

    /// Window part of a feasibility cut: subtract the `sup` over the box of
    /// the certificate residuals, so `g(u) ≤ 0` stays necessary for
    /// feasibility while the generating admission is still cut off.
    fn feasibility_window(&self, cut: &mut CutExpr, multipliers: &[f64]) {
        for (li, leg) in self.instance.legs.iter().enumerate() {
            let h = self.residual(multipliers, li);
            if h.abs() <= BOUND_DUAL_TOL {
                continue;
            }
            let (lam_hat, lam) = self.leg_window[li];
            let w = if h > 0.0 { h * lam } else { h * lam_hat };
            if w != 0.0 {
                *cut.coeffs.entry((leg.tenant, leg.cu)).or_insert(0.0) -= w;
            }
        }
    }

    /// Extracts the nonzero row multipliers keyed by stable row identity.
    fn keyed_duals(&self, multipliers: &[f64]) -> Vec<(RowKey, f64)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(ri, spec)| {
                let y = multipliers[spec.id.index()];
                (y != 0.0).then(|| (self.row_keys[ri], y))
            })
            .collect()
    }

    /// Prices the admission vector `assigned` (CU per tenant, `None` =
    /// rejected), warm-starting from the previous call's basis.
    pub fn solve_for(
        &mut self,
        assigned: &[Option<usize>],
    ) -> Result<SlaveResult, ovnes_lp::SolveError> {
        let _span = ovnes_obs::span!("slave_lp");
        assert_eq!(assigned.len(), self.instance.tenants.len());

        // Re-price the rows: every RHS is affine in u.
        for spec in &self.rows {
            if spec.u_coeffs.is_empty() {
                continue;
            }
            let mut rhs = spec.r0;
            for &((t, c), w) in &spec.u_coeffs {
                if assigned[t] == Some(c) {
                    rhs += w;
                }
            }
            self.problem.set_rhs(spec.id, rhs);
        }
        // Re-price the windows: each leg's box is its window scaled by the
        // admission binary. Pure bound edits — the basis matrix (and the
        // persisted factorization) survive untouched.
        for (li, leg) in self.instance.legs.iter().enumerate() {
            let (lam_hat, lam) = self.leg_window[li];
            if assigned[leg.tenant] == Some(leg.cu) {
                self.problem.set_bounds(self.z_vars[li], lam_hat, lam);
            } else {
                self.problem.set_bounds(self.z_vars[li], 0.0, 0.0);
            }
        }

        let ws = self
            .problem
            .solve_warm_with(self.basis.as_ref(), &self.simplex)?;
        self.stats.absorb(&ws.stats);
        if self.warm {
            self.basis = Some(ws.basis);
        }

        match ws.outcome {
            Outcome::Optimal(sol) => {
                let z: Vec<f64> = self.z_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
                let deficit = self
                    .deficit_vars
                    .map(|(r, b, c)| (sol.value(r), sol.value(b), sol.value(c)))
                    .unwrap_or((0.0, 0.0, 0.0));
                let mut cut = self.row_cut(&sol.duals);
                self.optimality_window(&mut cut, &sol.duals);
                self.last_cut_duals = Some(RecycledCut {
                    optimality: true,
                    y: self.keyed_duals(&sol.duals),
                });
                Ok(SlaveResult::Feasible {
                    value: sol.objective,
                    z,
                    deficit,
                    cut,
                })
            }
            Outcome::Infeasible(farkas) => {
                let mut cut = self.row_cut(&farkas.row_multipliers);
                self.feasibility_window(&mut cut, &farkas.row_multipliers);
                self.last_cut_duals = Some(RecycledCut {
                    optimality: false,
                    y: self.keyed_duals(&farkas.row_multipliers),
                });
                Ok(SlaveResult::Infeasible { cut })
            }
            Outcome::Unbounded => unreachable!("slave objective is bounded (q ≥ 0, z ≤ Λ)"),
        }
    }
}

/// Reduced costs / residuals below this are treated as zero when pricing
/// window contributions into cut coefficients.
const BOUND_DUAL_TOL: f64 = 1e-9;

/// One-shot convenience: builds a fresh context and prices `assigned` cold.
/// Iterating callers (Benders, KAC) should hold a [`SlaveContext`] instead.
pub fn solve_slave(
    instance: &AcrrInstance,
    assigned: &[Option<usize>],
) -> Result<SlaveResult, ovnes_lp::SolveError> {
    SlaveContext::new(instance).solve_for(assigned)
}
