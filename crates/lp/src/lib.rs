//! # ovnes-lp — a self-contained linear-programming solver
//!
//! This crate implements the linear-programming substrate required by the
//! CoNEXT'18 slice-overbooking reproduction, with
//!
//! * optimal primal solutions,
//! * exact **dual values** per constraint (needed for Benders optimality
//!   cuts and the KAC heuristic weights), and
//! * **Farkas infeasibility certificates** (dual extreme rays, needed for
//!   Benders feasibility cuts and the KAC capacity aggregation).
//!
//! The paper solved these programs with IBM CPLEX; no LP solver exists in
//! the sanctioned offline crate set, so this crate substitutes for it (see
//! DESIGN.md §2).
//!
//! ## The two engines
//!
//! **Dense tableau** ([`simplex`], the original engine): a two-phase primal
//! simplex over the full tableau. Bounds are canonicalised away — lower
//! bounds shifted, upper-only bounds mirrored, free variables split, finite
//! upper bounds expanded into internal `≤` rows — so every solve is cold and
//! the working matrix grows with the number of finite bounds. It favours
//! simplicity and has served as the reference implementation; it remains the
//! cross-check oracle in the test suite.
//!
//! **Bounded-variable revised simplex** ([`revised`], the production
//! engine): box bounds are handled natively (no mirror/split/ub-row
//! blowup), and the linear algebra is **sparse end to end**. The structural
//! constraint matrix is stored in compressed-sparse-column form
//! ([`SparseMatrix`], built by [`Problem::structural_matrix`]); the basis is
//! kept factorized by a **sparse LU with bucketed Markowitz pivoting** —
//! fewest-nonzeros pivot selection under a threshold-partial-pivoting
//! stability test, with drop-tolerance handling so roundoff noise never
//! becomes structural fill — plus **Forrest–Tomlin updates** folding each
//! pivot into the factors and periodic refactorization (see *Factorization
//! internals* below). FTRAN exploits right-hand-side sparsity (the
//! entering column touches a handful of rows), pricing runs **devex**
//! reference weights instead of Dantzig's rule (which stalls on degenerate
//! slave LPs) over a **candidate list** on large problems (partial pricing:
//! a rotating bucket of attractive columns, refreshed by a cyclic scan only
//! when stale, so per-iteration pricing stops scaling with total column
//! count), and — the point of the exercise — the final **[`Basis`] is a
//! value you can keep**. [`Problem::solve_warm`] resumes from a stored
//! basis after problem edits, using the **dual simplex** when the edit
//! preserved dual feasibility (bound changes, RHS changes, appended rows —
//! exactly the branch-and-bound and Benders deltas) so a re-solve costs a
//! handful of pivots instead of two cold phases. The dual ratio test is the
//! **long-step (bound-flipping)** variant: breakpoint columns that can
//! simply move to their opposite finite bound are flipped through (one
//! aggregated FTRAN) and the step continues, collapsing chains of
//! degenerate dual pivots into a single basis change — exactly the shape of
//! the bound-heavy slave/node re-solves this engine exists for. The dual
//! simplex also picks its **leaving row by dual devex weights**
//! (`violation²/w_i`, Forrest–Goldfarb row weights updated from each pivot
//! column) rather than the raw worst violation, the dual-side mirror of the
//! primal pricing. Ratio-test
//! tie-breaking and flip thresholds are tunable via
//! [`SimplexOptions::ratio_tie_tol`] / [`SimplexOptions::flip_tol`], and
//! [`LpStats::bound_flips`], [`LpStats::pricing_scans`], and
//! [`LpStats::candidate_refreshes`] observe the new machinery.
//!
//! ## The `Basis` contract
//!
//! A [`Basis`] returned by [`Problem::solve_warm`] stays valid for a problem
//! derived from the solved one by any combination of:
//!
//! * [`Problem::set_bounds`] — branch-and-bound node bounds,
//! * [`Problem::set_rhs`] — Benders slave re-pricing,
//! * [`Problem::add_cons`] — Benders cuts (rows append; nothing renumbers),
//! * [`Problem::set_objective`] — falls back to primal warm iterations.
//!
//! Adding *variables* changes the column space: `solve_warm` detects the
//! mismatch and transparently performs a cold solve. Bases are plain values
//! (`Clone`) — branch-and-bound hands each child its parent's basis.
//!
//! A warm solve reaches *an* optimum, not necessarily the vertex (or the
//! dual vector) a cold solve of the same problem would return when the
//! optimum is not unique. The crate offers no uniqueness certificate:
//! callers that need cold-identical answers solve cold.
//!
//! ## Persistent factorizations
//!
//! A [`Basis`] also carries the **factorization** of its basis matrix
//! (shared via `Arc`, so clones are cheap). When the edit between solves
//! leaves the basis matrix untouched — `set_rhs`, `set_bounds`,
//! `set_objective`, i.e. every edit *except* appended rows — the next
//! `solve_warm` resumes from the stored sparse factors and performs **zero
//! refactorizations**: the re-solve goes straight to pivoting. Appended
//! rows grow the basis matrix and force one fresh factorization; a changed
//! column space falls back to cold as before.
//!
//! Pivot-level counters ([`LpStats`]) accumulate across warm chains so
//! callers can report phase-1/phase-2/dual pivots, warm-start hits,
//! refactorizations, factorization reuses, sparse-LU fill-in,
//! Forrest–Tomlin compressions ([`LpStats::eta_compressions`]),
//! hyper-sparse solves ([`LpStats::hypersparse_ftrans`] /
//! [`LpStats::hypersparse_btrans`]), and Markowitz candidate-scan work
//! ([`LpStats::pivot_scan_work`]).
//!
//! ## Factorization internals
//!
//! Three mechanisms keep the per-pivot linear algebra sublinear in the
//! basis dimension `m`; each has a slow twin retained as its oracle.
//!
//! **Bucketed Markowitz pivot selection.** The factorization maintains,
//! per elimination stage, a column → active-rows adjacency (the transpose
//! view of the active submatrix) and an array of buckets indexed by active
//! column count, so the fewest-nonzeros candidate column pops off the
//! lowest non-empty bucket instead of being found by rescanning every
//! remaining column (the old Θ(m²) inner loop). Counts are patched
//! incrementally as eliminations annihilate entries. The selection rule is
//! *identical* to the retained rescan path — same tie-breaks, same
//! threshold-partial-pivoting stability test — so both produce bitwise-equal
//! factors; the proptest suite asserts exactly that, and
//! [`LpStats::pivot_scan_work`] counts candidate inspections so benches can
//! show the asymptotic win (the `lu_factor` probe in `BENCH_solvers.json`).
//!
//! **Forrest–Tomlin updates.** A basis change replaces one column of the
//! basis matrix. Instead of appending a product-form eta (whose file grows
//! without compression until the next refactorization), the update is
//! folded into the factor replay: the FTRAN image of the entering column —
//! already computed for the ratio test — becomes the spike, and the update
//! is compressed into the stored representation
//! ([`LpStats::eta_compressions`] counts these). An update that fails the
//! stability test is *refused* and the caller refactorizes from the
//! already-updated basis instead — refusal is a performance event, never a
//! correctness event. Scheduled refactorization is governed by
//! [`SimplexOptions::refactor_interval`] (default 128, overridable via
//! `OVNES_LP_REFACTOR_INTERVAL`): with compressed updates the interval
//! bounds numerical drift, not eta-file cost, so it can sit far past the
//! old product-form sweet spot. Warm/cold answers are identical at any
//! interval; CI runs a leg at interval 8 to hammer the refusal seam.
//!
//! **Hyper-sparse FTRAN/BTRAN.** When the right-hand side has few nonzeros
//! relative to `m` (branch-bound column updates, unit vectors for row
//! pricing), the triangular solves walk an index worklist of reachable
//! rows instead of scanning all `m` positions. The dense path remains the
//! fallback (and the oracle: results are bitwise identical); the cutoff is
//! density-based, so dense RHS or small bases never pay the worklist
//! overhead. Callers pass the nonzero pattern as a per-call hint through
//! the solve scratch; the hint is consumed by each solve, never persisted.
//!
//! **Copy-on-compress sharing.** Because compression *mutates* the stored
//! representation, the persisted factorization splits into an immutable
//! `Arc`-shared sparse-LU core and a per-owner update state: cloning a
//! basis for a branch-and-bound child shares the factors but deep-copies
//! the update state, so a worker folding updates can never leak them into
//! a sibling's (or the parent's) view. The cross-check suite drives four
//! workers through divergent update chains off one shared parent to pin
//! this down.
//!
//! ## Threading contract
//!
//! The revised engine's hot-path state is split so that parallel callers
//! (the `ovnes-milp` branch-and-bound fans node re-solves across
//! `std::thread::scope` workers) share everything expensive and own only
//! scratch:
//!
//! * **Shared immutably** (`Send + Sync`, enforced by compile-time
//!   assertions): [`Problem`], the CSC [`SparseMatrix`], [`SimplexOptions`],
//!   and [`Basis`] — including the `Arc`-shared factorization persisted
//!   inside it. The sparse-LU factors are immutable after construction;
//!   FTRAN/BTRAN replay them through caller-supplied scratch, so a parent
//!   basis cloned to N children never copies the factors and never races.
//! * **Per-worker** [`Workspace`]: every scratch buffer a solve needs —
//!   triangular-solve scratch, FTRAN/BTRAN images, pricing vectors, primal
//!   devex weights, dual devex row weights, the pricing candidate list,
//!   dual ratio-test breakpoints, and the aggregated bound-flip column.
//!   A workspace is reset on entry and carries **no state between solves**:
//!   its reuse pattern can never change a result, only allocation traffic.
//!
//! [`Problem::solve_warm_in`] is the per-worker entry point;
//! [`Problem::solve_warm`] remains the single-threaded convenience that
//! allocates a throwaway workspace. See the [`revised`] module docs for the
//! full contract.
//!
//! ## Conventions
//!
//! All problems are **minimisations**. Duals `y` follow the convention of the
//! dual pair `min c'x s.t. Ax ≥ b, x ≥ 0` ⟷ `max b'y s.t. A'y ≤ c, y ≥ 0`:
//!
//! * `y_i ≥ 0` for `≥` constraints,
//! * `y_i ≤ 0` for `≤` constraints,
//! * `y_i` free for `=` constraints,
//! * strong duality: `objective = Σ y_i b_i + Σ_j d_j · bound_j` where the
//!   second sum collects reduced-cost contributions of finite bounds
//!   (handled internally; user-visible duals refer to user constraints).
//!
//! A Farkas certificate `y` proves infeasibility: it satisfies the same sign
//! convention, `A'y ≤ 0` componentwise, and `y'b > 0`; any feasible `x ≥ 0`
//! would give the contradiction `0 < y'b ≤ y'(Ax) ≤ 0`.
//!
//! ## Example
//!
//! ```
//! use ovnes_lp::{Problem, Cmp, Outcome};
//!
//! // min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, f64::INFINITY, -3.0);
//! let y = p.add_var(0.0, f64::INFINITY, -5.0);
//! p.add_cons(&[(x, 1.0)], Cmp::Le, 4.0);
//! p.add_cons(&[(y, 2.0)], Cmp::Le, 12.0);
//! p.add_cons(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
//! match p.solve().unwrap() {
//!     Outcome::Optimal(s) => {
//!         assert!((s.objective - (-36.0)).abs() < 1e-6);
//!         assert!((s.value(x) - 2.0).abs() < 1e-6);
//!         assert!((s.value(y) - 6.0).abs() < 1e-6);
//!     }
//!     _ => unreachable!(),
//! }
//! ```
//!
//! Warm-started re-solve after a bound change (the branch-and-bound step):
//!
//! ```
//! use ovnes_lp::{Problem, Cmp};
//!
//! let mut p = Problem::new();
//! let x = p.add_var(0.0, 1.0, -1.0);
//! let y = p.add_var(0.0, 1.0, -2.0);
//! p.add_cons(&[(x, 1.0), (y, 1.0)], Cmp::Le, 1.5);
//! let warm = p.solve_warm(None).unwrap();
//! p.set_bounds(y, 0.0, 0.0); // "branch down" on y
//! let re = p.solve_warm(Some(&warm.basis)).unwrap();
//! assert!((re.outcome.unwrap_optimal().value(x) - 1.0).abs() < 1e-9);
//! assert_eq!(re.stats.warm_starts, 1);
//! ```

mod model;
pub mod revised;
mod simplex;
pub mod sparse;

pub use model::{Cmp, ConsId, Problem, VarId};
pub use revised::{Basis, LpStats, WarmSolve, Workspace};
pub use simplex::{
    default_refactor_interval, fault_injection_active, Farkas, FaultConfig, Outcome,
    SimplexOptions, Solution, SolveError,
};
pub use sparse::SparseMatrix;

#[cfg(test)]
mod tests;
