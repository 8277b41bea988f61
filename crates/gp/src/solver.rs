//! Interior-point solver for geometric programs.
//!
//! Pipeline: log-transform every posynomial (convex `log-sum-exp` form),
//! find a strictly feasible point with a phase-I slack formulation, then run
//! a standard barrier method — damped Newton centering steps with
//! backtracking line search, geometric increase of the barrier parameter —
//! until the duality-gap estimate `m/t` is below tolerance. See Boyd &
//! Vandenberghe, ch. 11; this mirrors the "GP solver" box of the paper's
//! Fig. 4.
//!
//! The whole problem is evaluated through one [`smart_posy::LogSystem`]:
//! each distinct monomial exponent row's dot is computed once per point,
//! each term's exponential once per point. A line-search trial is
//! evaluated into a trial [`LogEval`] that is swapped in when the trial is
//! accepted, so the next Newton step assembles its gradient and Hessian
//! from the cached exponentials without re-evaluating anything. Each
//! posynomial scatters only over its support via
//! [`smart_posy::GradHessWorkspace`], and the system is factored in place
//! in packed lower-triangular form. All per-step buffers live in a
//! [`NewtonWorkspace`] reused across steps and line-search trials, so a
//! steady-state Newton step performs no heap allocation. The historical
//! dense path survives as [`GpProblem::solve_reference`] (see
//! `reference.rs`), the oracle the differential parity suite pins this
//! kernel against.

use std::sync::Arc;
use std::time::Instant;

use smart_posy::{GradHessWorkspace, LogEval, LogSystem};

use crate::linalg::{axpy, dot, norm, solve_spd_ridged_packed};
use crate::{CancelToken, GpError, GpProblem, KktReport};

/// Tuning knobs for the barrier solver. The defaults solve every sizing
/// problem in this repository; they are exposed for stress tests.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Target duality-gap estimate `m/t` at termination.
    pub tol: f64,
    /// Newton decrement threshold for each centering problem.
    pub newton_tol: f64,
    /// Barrier parameter multiplier per outer iteration.
    pub mu: f64,
    /// Maximum Newton iterations per centering problem.
    pub max_newton_iter: usize,
    /// Maximum outer (barrier) iterations.
    pub max_outer_iter: usize,
    /// Phase-I slack below which the point counts as strictly feasible.
    pub feasibility_margin: f64,
    /// Optional warm-start point in the original (positive) variables,
    /// indexed like the solution vector. A feasible start skips phase I
    /// entirely; an infeasible one still anchors phase I in the right
    /// region (important when a variable's natural scale is far from 1,
    /// e.g. an auxiliary delay variable in a min-delay program).
    pub initial_x: Option<Vec<f64>>,
    /// Cooperative wall-clock deadline: the Newton loops check it every
    /// step and bail with [`GpError::BudgetExceeded`] once passed, so a
    /// runaway candidate cannot hang an exploration sweep.
    pub deadline: Option<Instant>,
    /// Cap on total Newton steps across both phases; `None` is unlimited.
    /// Exceeding it yields [`GpError::BudgetExceeded`].
    pub max_total_newton: Option<usize>,
    /// Shared cooperative cancellation token, checked once per Newton step
    /// alongside the deadline. A parallel exploration sweep hands every
    /// in-flight solve the same token so one `cancel()` stops them all;
    /// tripping yields [`GpError::BudgetExceeded`] with budget
    /// `"cancelled"`.
    pub cancel: Option<Arc<CancelToken>>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tol: 1e-8,
            newton_tol: 1e-10,
            mu: 20.0,
            max_newton_iter: 200,
            max_outer_iter: 100,
            feasibility_margin: 1e-7,
            initial_x: None,
            deadline: None,
            max_total_newton: None,
            cancel: None,
        }
    }
}

/// Cooperative budget check, called once per Newton step (a step costs a
/// Hessian assembly + factorization, so the `Instant::now()` call is
/// negligible against it).
pub(crate) fn check_budget(
    opts: &SolverOptions,
    stage: &'static str,
    spent_newton: usize,
) -> Result<(), GpError> {
    let budget = if opts.max_total_newton.is_some_and(|cap| spent_newton > cap) {
        "newton-steps"
    } else if opts.deadline.is_some_and(|d| Instant::now() >= d) {
        "wall-clock"
    } else if opts.cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
        "cancelled"
    } else {
        return Ok(());
    };
    smart_trace::emit_with("gp/budget", || {
        vec![
            ("stage", stage.into()),
            ("budget", budget.into()),
            ("spent_newton", spent_newton.into()),
        ]
    });
    Err(GpError::BudgetExceeded {
        stage,
        budget,
        spent_newton,
    })
}

/// Largest-magnitude coordinate without relying on a total order over
/// possibly-NaN floats (diagnostic use only).
fn max_abs_coord(y: &[f64]) -> (usize, f64) {
    let mut best = (0usize, 0.0f64);
    for (i, &v) in y.iter().enumerate() {
        if v.abs() > best.1.abs() {
            best = (i, v);
        }
    }
    best
}

/// Result of a successful GP solve.
#[derive(Debug, Clone)]
pub struct GpSolution {
    /// Optimal point in the original (positive) variables, indexed by
    /// [`smart_posy::VarId::index`].
    pub x: Vec<f64>,
    /// Objective value `f₀(x)` at the optimum.
    pub objective: f64,
    /// Total Newton steps spent in phase I (feasibility).
    pub phase1_newton_steps: usize,
    /// Total Newton steps spent in phase II (optimization).
    pub phase2_newton_steps: usize,
    /// First-order optimality diagnostics.
    pub kkt: KktReport,
}

impl GpSolution {
    /// Constraint bodies `fᵢ(x)` at the optimum, paired with their labels;
    /// values near 1 are *tight* (binding) constraints.
    pub fn constraint_activity<'a>(&self, problem: &'a GpProblem) -> Vec<(&'a str, f64)> {
        problem
            .constraints()
            .iter()
            .map(|c| (c.label.as_str(), c.body.eval(&self.x)))
            .collect()
    }
}

/// Hard cap on `‖y‖∞` (log-space); beyond this the problem is declared
/// unbounded (x outside `[e⁻⁴⁰, e⁴⁰]` is physically meaningless for sizes).
pub(crate) const Y_BOUND: f64 = 40.0;

/// Trust-region-style cap on a single Newton step in log space.
pub(crate) const MAX_STEP: f64 = 8.0;

/// Per-solve scratch for the Newton loops: the sparse gradient/Hessian
/// accumulator, the factorization, right-hand-side, direction and
/// line-search trial buffers, and the evaluations at the iterate and at
/// the trial. Every buffer keeps its capacity across Newton steps and
/// backtracking trials, so the steady-state step allocates nothing.
#[derive(Debug, Default)]
struct NewtonWorkspace {
    /// Sparse scatter target: gradient + packed lower-triangular Hessian.
    ws: GradHessWorkspace,
    /// Packed matrix copy consumed by the in-place Cholesky (the ridge
    /// escalation re-copies into it instead of cloning the matrix).
    factor: Vec<f64>,
    /// Negated gradient handed to the linear solve.
    rhs: Vec<f64>,
    /// Newton direction.
    dir: Vec<f64>,
    /// Line-search trial point.
    trial: Vec<f64>,
    /// Evaluation of the system at the current iterate; assembly reads
    /// its cached exponentials.
    cur: LogEval,
    /// Evaluation at the line-search trial point, swapped with `cur`
    /// when the trial is accepted.
    next: LogEval,
}

/// Typed failure for a Newton system no ridge makes factorable (NaN
/// entries or a pathological Hessian).
fn unfactorable(stage: &'static str) -> GpError {
    GpError::Numerical {
        stage,
        detail: "Newton system does not factor under any ridge".into(),
    }
}

/// Shared setup for [`GpProblem::solve`] and
/// [`GpProblem::solve_reference`]: validates the problem data (so the
/// log-transforms the callers build next cannot fail) and maps the
/// optional warm start into log space.
pub(crate) fn prepare(problem: &GpProblem, opts: &SolverOptions) -> Result<Vec<f64>, GpError> {
    let dim = problem.dim();
    if dim == 0 {
        return Err(GpError::Numerical {
            stage: "setup",
            detail: "problem has no variables".into(),
        });
    }
    problem
        .objective()
        .validate()
        .map_err(|e| GpError::NonFinite {
            stage: "setup",
            detail: format!("objective: {e}"),
        })?;
    for c in problem.constraints() {
        c.body.validate().map_err(|e| GpError::NonFinite {
            stage: "setup",
            detail: format!("constraint '{}': {e}", c.label),
        })?;
    }
    let start: Vec<f64> = match &opts.initial_x {
        Some(x0) => {
            if x0.len() < dim {
                return Err(GpError::Numerical {
                    stage: "setup",
                    detail: format!(
                        "initial point has {} coordinates, problem has {dim}",
                        x0.len()
                    ),
                });
            }
            let mut y = Vec::with_capacity(dim);
            for (i, &v) in x0[..dim].iter().enumerate() {
                if !(v.is_finite() && v > 0.0) {
                    return Err(GpError::NonFinite {
                        stage: "setup",
                        detail: format!("initial point coordinate {i} is {v}"),
                    });
                }
                y.push(v.ln());
            }
            y
        }
        None => vec![0.0; dim],
    };
    Ok(start)
}

/// Shared epilogue: exponentiates the log-space optimum, validates it, and
/// assembles the [`GpSolution`] with the KKT report the caller computed
/// at that optimum.
pub(crate) fn finalize(
    problem: &GpProblem,
    y: Vec<f64>,
    kkt: KktReport,
    phase1_steps: usize,
    phase2_steps: usize,
) -> Result<GpSolution, GpError> {
    let x: Vec<f64> = y.iter().map(|&v| v.exp()).collect();
    if x.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NonFinite {
            stage: "solution",
            detail: "optimizer returned a non-finite width".into(),
        });
    }
    let objective = problem.objective().eval(&x);
    if !objective.is_finite() {
        return Err(GpError::NonFinite {
            stage: "solution",
            detail: format!("objective evaluated to {objective} at the optimum"),
        });
    }
    smart_trace::emit_with("gp/solve", || {
        vec![
            ("dim", problem.dim().into()),
            ("constraints", problem.constraints().len().into()),
            ("phase1_steps", phase1_steps.into()),
            ("phase2_steps", phase2_steps.into()),
            ("objective", objective.into()),
        ]
    });
    Ok(GpSolution {
        objective,
        x,
        phase1_newton_steps: phase1_steps,
        phase2_newton_steps: phase2_steps,
        kkt,
    })
}

impl GpProblem {
    /// Solves the geometric program.
    ///
    /// # Errors
    ///
    /// * [`GpError::Infeasible`] — phase I could not drive the worst
    ///   constraint violation below the feasibility margin.
    /// * [`GpError::Unbounded`] — iterates escaped the sanity box, meaning
    ///   the objective has no positive minimizer under the constraints.
    /// * [`GpError::Numerical`] — Newton failed to make progress (returned
    ///   with the stage name for diagnosis).
    /// * [`GpError::NonFinite`] — the problem data or warm start contains
    ///   NaN/Inf, or an iterate went non-finite despite the safeguards.
    /// * [`GpError::BudgetExceeded`] — a configured deadline or Newton-step
    ///   cap fired before convergence.
    pub fn solve(&self, opts: &SolverOptions) -> Result<GpSolution, GpError> {
        let start = prepare(self, opts)?;
        // Posynomial 0 is the objective, 1..=m the constraint bodies.
        let sys = LogSystem::from_posynomials(
            std::iter::once(self.objective()).chain(self.constraints().iter().map(|c| &c.body)),
            self.dim(),
        );
        let mut nw = NewtonWorkspace::default();
        let mut phase1_steps = 0;
        let y0 = if self.constraints().is_empty() {
            start
        } else {
            phase1(&sys, start, opts, &mut phase1_steps, &mut nw)?
        };

        let mut phase2_steps = 0;
        let (y, t_final) = phase2(&sys, y0, opts, phase1_steps, &mut phase2_steps, &mut nw)?;
        // `nw.cur` holds the evaluation at the final iterate.
        let kkt = KktReport::from_eval(&sys, &nw.cur, t_final);
        finalize(self, y, kkt, phase1_steps, phase2_steps)
    }
}

/// Phase I: minimize slack `s` subject to `Fᵢ(y) ≤ s`; succeeds as soon as a
/// point with `s < -margin` is found. Uses the constraints `1..` of `sys`.
fn phase1(
    sys: &LogSystem,
    start: Vec<f64>,
    opts: &SolverOptions,
    steps: &mut usize,
    nw: &mut NewtonWorkspace,
) -> Result<Vec<f64>, GpError> {
    let NewtonWorkspace {
        ws,
        factor,
        rhs,
        dir,
        trial,
        cur,
        next,
    } = nw;
    let cons = 1..sys.len();
    let dim = start.len();
    let mut y = start;
    let worst = |ev: &LogEval| -> f64 {
        cons.clone()
            .map(|p| ev.value(p))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    sys.eval(&y, cur);
    let mut s = worst(cur) + 1.0;
    if s - 1.0 < -opts.feasibility_margin {
        return Ok(y); // the start is already strictly feasible
    }

    // Start the barrier at t ≈ m: for small t the centering point has
    // slack s ≈ m/t, which un-tethers every constraint and lets the
    // iterate drift; at t = m the initial slack stays O(1).
    let mut t = 1.0f64.max(cons.len() as f64);
    for _ in 0..opts.max_outer_iter {
        // Centering on φ(y,s) = t·s − Σ log(s − Fᵢ(y)), assembled sparsely
        // over the slack-augmented space (the slack is coordinate `dim`).
        for _ in 0..opts.max_newton_iter {
            *steps += 1;
            check_budget(opts, "phase1", *steps)?;
            let n = dim + 1;
            ws.reset(n);
            ws.grad_mut()[dim] = t;
            // The barrier value at (y, s) falls out of the assembly for
            // free: the same constraint values, combined in the same order
            // as the line-search evaluator, so `f0` is bit-identical to a
            // separate evaluation and costs no extra posynomial sweeps.
            let mut f0 = t * s;
            let mut domain_ok = true;
            for p in cons.clone() {
                let fv = sys.stage(p, cur, ws);
                let g = s - fv;
                if g <= 0.0 {
                    domain_ok = false;
                    break;
                }
                f0 -= g.ln();
                let inv = 1.0 / g;
                let inv2 = inv * inv;
                // y-block of −∇²log(s−F): inv²·ffᵀ + inv·∇²F, …
                ws.scatter_staged(inv, inv, inv2);
                // … the s-row cross terms −inv²·f, …
                ws.scatter_staged_row(dim, -inv2);
                // … and the s-part: ∂φ/∂s gains −inv, ∂²φ/∂s² gains inv².
                ws.grad_mut()[dim] -= inv;
                ws.add_hess(dim, dim, inv2);
            }
            if !domain_ok {
                return Err(GpError::Numerical {
                    stage: "phase1",
                    detail: "iterate left the barrier domain".into(),
                });
            }
            rhs.clear();
            rhs.extend(ws.grad().iter().map(|&g| -g));
            solve_spd_ridged_packed(ws.hess_packed(), n, rhs, factor, dir)
                .ok_or_else(|| unfactorable("phase1"))?;
            let decrement2 = -dot(ws.grad(), dir);
            if decrement2 / 2.0 < opts.newton_tol {
                break;
            }
            // Backtracking line search keeping s − Fᵢ > 0, evaluating each
            // trial into `next`. Each trial also reports the worst raw
            // constraint value so the feasibility check below reuses the
            // accepted trial's sweep (the fold order matches `worst`,
            // keeping the result bit-identical).
            let value_worst = |y: &[f64], s: f64, ev: &mut LogEval| -> Option<(f64, f64)> {
                sys.eval_rows(y, ev);
                let mut v = t * s;
                let mut w = f64::NEG_INFINITY;
                for p in cons.clone() {
                    let fv = sys.eval_posy(p, ev);
                    let g = s - fv;
                    if g <= 0.0 {
                        return None;
                    }
                    w = w.max(fv);
                    v -= g.ln();
                }
                Some((v, w))
            };
            // Cap the step so the phase-I recession direction (s → −∞ with
            // g fixed) cannot fling the iterate outside the sanity box
            // before the early feasibility return fires.
            let mut alpha = (MAX_STEP / norm(dir)).min(1.0);
            let slope = dot(ws.grad(), dir);
            let mut accepted = false;
            let mut worst_y = f64::INFINITY;
            for _ in 0..60 {
                trial.clear();
                trial.extend_from_slice(&y);
                axpy(alpha, &dir[..dim], trial);
                let sn = s + alpha * dir[dim];
                if let Some((fv, w)) = value_worst(trial, sn, next) {
                    if fv <= f0 + 0.25 * alpha * slope {
                        std::mem::swap(&mut y, trial);
                        std::mem::swap(cur, next);
                        s = sn;
                        worst_y = w;
                        accepted = true;
                        break;
                    }
                }
                alpha *= 0.5;
            }
            smart_trace::emit_with("gp/newton", || {
                vec![
                    ("stage", "phase1".into()),
                    ("step", (*steps).into()),
                    ("residual", (decrement2 / 2.0).into()),
                    ("alpha", alpha.into()),
                    ("accepted", accepted.into()),
                ]
            });
            if !accepted {
                break; // stalled; outer loop will tighten or fail
            }
            // Return on *actual* strict feasibility of y, not only via the
            // slack s — the slack can lag while the barrier drifts along
            // directions where some gᵢ grows without bound. `worst_y` is
            // the accepted trial's sweep, so no extra evaluation is needed.
            if s < -opts.feasibility_margin || worst_y < -opts.feasibility_margin {
                return Ok(y);
            }
            // NaN never compares > Y_BOUND, so catch it explicitly before
            // the escape check — a NaN iterate must become a typed error,
            // not a NaN solution.
            if y.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite {
                    stage: "phase1",
                    detail: "iterate became non-finite".into(),
                });
            }
            if y.iter().any(|v| v.abs() > Y_BOUND) {
                // Formerly an eprintln! behind SMART_GP_DEBUG: the escape
                // diagnosis is now a structured trace event, visible in
                // any traced run instead of a raw stderr side channel.
                smart_trace::emit_with("gp/escape", || {
                    let (i, v) = max_abs_coord(&y);
                    vec![
                        ("stage", "phase1".into()),
                        ("coord", i.into()),
                        ("value", v.into()),
                        ("s", s.into()),
                        ("t", t.into()),
                    ]
                });
                return Err(GpError::Unbounded);
            }
        }
        if s < -opts.feasibility_margin {
            return Ok(y);
        }
        if cons.len() as f64 / t < opts.tol {
            break;
        }
        t *= opts.mu;
    }
    Err(GpError::Infeasible {
        worst_violation: worst(cur).exp(),
    })
}

/// Phase II: barrier method on `t·F₀(y) − Σ log(−Fᵢ(y))` from a strictly
/// feasible start. Posynomial 0 of `sys` is the objective `F₀`. On
/// success `nw.cur` holds the evaluation at the returned point.
fn phase2(
    sys: &LogSystem,
    mut y: Vec<f64>,
    opts: &SolverOptions,
    spent_before: usize,
    steps: &mut usize,
    nw: &mut NewtonWorkspace,
) -> Result<(Vec<f64>, f64), GpError> {
    let NewtonWorkspace {
        ws,
        factor,
        rhs,
        dir,
        trial,
        cur,
        next,
    } = nw;
    let dim = y.len();
    let cons = 1..sys.len();
    let m = cons.len();
    let mut t: f64 = 1.0f64.max(m as f64);

    let value = |y: &[f64], t: f64, ev: &mut LogEval| -> Option<f64> {
        sys.eval_rows(y, ev);
        let mut v = t * sys.eval_posy(0, ev);
        for p in cons.clone() {
            let fv = sys.eval_posy(p, ev);
            if fv >= 0.0 {
                return None;
            }
            v -= (-fv).ln();
        }
        Some(v)
    };

    sys.eval(&y, cur);
    loop {
        // Centering.
        for _ in 0..opts.max_newton_iter {
            *steps += 1;
            check_budget(opts, "phase2", spent_before + *steps)?;
            ws.reset(dim);
            // The objective contributes t·∇F₀ and t·∇²F₀ (no rank-one
            // barrier piece). As in phase I, the barrier value `f0` is
            // accumulated from the assembly's own values, in the same
            // order as the line-search evaluator — bit-identical, no extra
            // sweeps.
            let obj_val = sys.stage(0, cur, ws);
            ws.scatter_staged(t, t, 0.0);
            let mut f0 = t * obj_val;
            for p in cons.clone() {
                let fv = sys.stage(p, cur, ws);
                if fv >= 0.0 {
                    return Err(GpError::Numerical {
                        stage: "phase2",
                        detail: "iterate left the feasible interior".into(),
                    });
                }
                f0 -= (-fv).ln();
                let inv = -1.0 / fv; // 1/(−Fᵢ) > 0
                let inv2 = inv * inv;
                ws.scatter_staged(inv, inv, inv2);
            }
            rhs.clear();
            rhs.extend(ws.grad().iter().map(|&g| -g));
            solve_spd_ridged_packed(ws.hess_packed(), dim, rhs, factor, dir)
                .ok_or_else(|| unfactorable("phase2"))?;
            let decrement2 = -dot(ws.grad(), dir);
            if decrement2.abs() / 2.0 < opts.newton_tol {
                break;
            }
            let slope = dot(ws.grad(), dir);
            let mut alpha = (MAX_STEP / norm(dir)).min(1.0);
            let mut accepted = false;
            for _ in 0..60 {
                trial.clear();
                trial.extend_from_slice(&y);
                axpy(alpha, dir, trial);
                if let Some(fv) = value(trial, t, next) {
                    if fv <= f0 + 0.25 * alpha * slope {
                        std::mem::swap(&mut y, trial);
                        std::mem::swap(cur, next);
                        accepted = true;
                        break;
                    }
                }
                alpha *= 0.5;
            }
            smart_trace::emit_with("gp/newton", || {
                vec![
                    ("stage", "phase2".into()),
                    ("step", (*steps).into()),
                    ("residual", (decrement2.abs() / 2.0).into()),
                    ("alpha", alpha.into()),
                    ("accepted", accepted.into()),
                ]
            });
            if !accepted {
                break;
            }
            if y.iter().any(|v| !v.is_finite()) {
                return Err(GpError::NonFinite {
                    stage: "phase2",
                    detail: "iterate became non-finite".into(),
                });
            }
            if y.iter().any(|v| v.abs() > Y_BOUND) {
                // Formerly an eprintln! behind SMART_GP_DEBUG (see the
                // phase-1 twin above).
                smart_trace::emit_with("gp/escape", || {
                    let (i, v) = max_abs_coord(&y);
                    vec![
                        ("stage", "phase2".into()),
                        ("coord", i.into()),
                        ("value", v.into()),
                        ("t", t.into()),
                        ("alpha", alpha.into()),
                    ]
                });
                return Err(GpError::Unbounded);
            }
            if norm(dir) * alpha < 1e-14 {
                break;
            }
        }
        if m == 0 || (m as f64) / t < opts.tol {
            return Ok((y, t));
        }
        t *= opts.mu;
        if t > 1e18 {
            return Ok((y, t));
        }
    }
}
