//! First-order (KKT) optimality diagnostics for a solved GP.

use smart_posy::{LogEval, LogPosynomial, LogSystem};

use crate::linalg::norm;

/// Karush-Kuhn-Tucker residuals at a candidate optimum, computed in the
/// convex log-space formulation.
///
/// The barrier method's centering condition gives the multiplier estimates
/// `λᵢ = 1 / (t · (−Fᵢ(y)))`; at convergence, stationarity
/// `‖∇F₀ + Σ λᵢ∇Fᵢ‖` is small and the duality-gap estimate is `m/t`.
/// Tests assert these residuals rather than comparing against magic optimal
/// values.
#[derive(Debug, Clone)]
pub struct KktReport {
    /// `‖∇F₀(y) + Σ λᵢ ∇Fᵢ(y)‖₂` with the barrier multiplier estimates.
    pub stationarity: f64,
    /// Estimated duality gap `m/t` at the final barrier parameter.
    pub duality_gap: f64,
    /// Multiplier estimates, one per constraint (empty if unconstrained).
    pub multipliers: Vec<f64>,
    /// `max(0, Fᵢ(y))` over all constraints — primal infeasibility in
    /// log-space (0 when strictly feasible).
    pub primal_infeasibility: f64,
}

impl KktReport {
    /// Computes the report at log-point `y` with the solver's final barrier
    /// parameter `t` (multipliers are the barrier estimates `1/(t·(−Fᵢ))`).
    /// Dense per-posynomial formula, kept for the reference solver; the
    /// production solver uses [`from_eval`](Self::from_eval).
    pub(crate) fn at_point(
        obj: &LogPosynomial,
        cons: &[LogPosynomial],
        y: &[f64],
        t: f64,
    ) -> Self {
        let m = cons.len();
        if m == 0 {
            let (_, g) = obj.value_grad(y);
            return KktReport {
                stationarity: norm(&g),
                duality_gap: 0.0,
                multipliers: Vec::new(),
                primal_infeasibility: 0.0,
            };
        }
        let (_, mut r) = obj.value_grad(y);
        let mut multipliers = Vec::with_capacity(m);
        let mut infeas = 0.0f64;
        for c in cons {
            let (fv, fg) = c.value_grad(y);
            infeas = infeas.max(fv.max(0.0));
            let lambda = if fv < 0.0 { 1.0 / (t * (-fv)) } else { f64::INFINITY };
            multipliers.push(lambda);
            if lambda.is_finite() {
                for (ri, gi) in r.iter_mut().zip(&fg) {
                    *ri += lambda * gi;
                }
            }
        }
        KktReport {
            stationarity: norm(&r),
            duality_gap: m as f64 / t,
            multipliers,
            primal_infeasibility: infeas,
        }
    }

    /// The report at the point `ev` evaluates, for a system whose
    /// posynomial 0 is the objective and `1..` are the constraints. Reads
    /// the cached term exponentials instead of re-evaluating, and
    /// accumulates each constraint's gradient over its support only; every
    /// float is bit-identical to [`at_point`](Self::at_point) at that point.
    pub(crate) fn from_eval(sys: &LogSystem, ev: &LogEval, t: f64) -> Self {
        let m = sys.len() - 1;
        let mut g = Vec::new();
        let mut r = vec![0.0; sys.dim()];
        sys.grad_into(0, ev, &mut g);
        for (&i, &gi) in sys.support(0).iter().zip(&g) {
            r[i] = gi;
        }
        if m == 0 {
            return KktReport {
                stationarity: norm(&r),
                duality_gap: 0.0,
                multipliers: Vec::new(),
                primal_infeasibility: 0.0,
            };
        }
        let mut multipliers = Vec::with_capacity(m);
        let mut infeas = 0.0f64;
        for p in 1..=m {
            let fv = sys.grad_into(p, ev, &mut g);
            infeas = infeas.max(fv.max(0.0));
            let lambda = if fv < 0.0 { 1.0 / (t * (-fv)) } else { f64::INFINITY };
            multipliers.push(lambda);
            if lambda.is_finite() {
                for (&i, &gi) in sys.support(p).iter().zip(&g) {
                    r[i] += lambda * gi;
                }
            }
        }
        KktReport {
            stationarity: norm(&r),
            duality_gap: m as f64 / t,
            multipliers,
            primal_infeasibility: infeas,
        }
    }

    /// Whether the point satisfies first-order optimality within `tol`.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.stationarity <= tol && self.primal_infeasibility <= tol && self.duality_gap <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_posy::{Monomial, Posynomial, VarPool};

    fn assert_same_bits(a: &KktReport, b: &KktReport) {
        assert_eq!(a.stationarity.to_bits(), b.stationarity.to_bits(), "stationarity");
        assert_eq!(a.duality_gap.to_bits(), b.duality_gap.to_bits(), "duality gap");
        assert_eq!(a.primal_infeasibility.to_bits(), b.primal_infeasibility.to_bits());
        let bits = |r: &KktReport| r.multipliers.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "multipliers");
    }

    #[test]
    fn cached_report_matches_the_dense_formula_bitwise() {
        let mut pool = VarPool::new();
        let v: Vec<_> = (0..4).map(|i| pool.var(&format!("w{i}"))).collect();
        let dim = pool.len();
        let obj = v.iter().fold(Posynomial::zero(), |acc, &w| acc + Monomial::var(w));
        // Constraints touch two of four variables each; one is violated
        // at the second point (infinite multiplier, positive infeasibility).
        let cons: Vec<Posynomial> = vec![
            Posynomial::from(Monomial::new(0.3).pow(v[1], 1.0).pow(v[0], -1.0))
                + Monomial::new(0.2).pow(v[0], -1.0),
            Posynomial::from(Monomial::new(0.4).pow(v[2], -1.0))
                + Monomial::new(0.1).pow(v[3], 1.0).pow(v[2], -1.0),
            Posynomial::from(Monomial::new(0.5).pow(v[3], -0.5)),
        ];
        let log_obj = LogPosynomial::from_posynomial(&obj, dim);
        let log_cons: Vec<LogPosynomial> =
            cons.iter().map(|c| LogPosynomial::from_posynomial(c, dim)).collect();
        let sys = LogSystem::from_posynomials(std::iter::once(&obj).chain(&cons), dim);
        let mut ev = LogEval::default();
        for (y, t) in [([0.1, -0.2, 0.3, 0.05], 40.0), ([0.0, 0.0, 0.0, -3.0], 7.5)] {
            sys.eval(&y, &mut ev);
            let old = KktReport::at_point(&log_obj, &log_cons, &y, t);
            assert_same_bits(&KktReport::from_eval(&sys, &ev, t), &old);
        }
        // Unconstrained: the objective gradient alone.
        let sys = LogSystem::from_posynomials([&obj], dim);
        let y = [0.4, -0.1, 0.0, 1.0];
        sys.eval(&y, &mut ev);
        let old = KktReport::at_point(&log_obj, &[], &y, 1.0);
        assert_same_bits(&KktReport::from_eval(&sys, &ev, 1.0), &old);
    }
}
