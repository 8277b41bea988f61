//! Log-space form of a posynomial: the convex `log-sum-exp` view.
//!
//! Under `y = log x`, a posynomial `f(x) = Σₖ cₖ ∏ xᵢ^aᵢₖ` becomes
//! `F(y) = log Σₖ exp(aₖ·y + bₖ)` with `bₖ = log cₖ`, which is convex.
//! The GP solver works exclusively on this form; this module provides the
//! conversion plus value/gradient/Hessian evaluation.

use crate::workspace::GradHessWorkspace;
use crate::Posynomial;

/// One exponentiated affine term `exp(a·y + b)` of a log-form posynomial.
#[derive(Debug, Clone, PartialEq)]
pub struct LogTerm {
    /// Sparse exponent row `a` as `(dense variable index, exponent)` pairs.
    pub exps: Vec<(usize, f64)>,
    /// Offset `b = log c`.
    pub offset: f64,
}

/// A posynomial converted to log-space, ready for convex optimization.
///
/// Evaluation computes `F(y) = log Σ exp(aₖ·y + bₖ)` with the usual
/// max-shift for numerical stability, and optionally its gradient and
/// Hessian with respect to `y`.
///
/// ```
/// use smart_posy::{Monomial, Posynomial, VarPool, LogPosynomial};
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let p = Posynomial::from(Monomial::new(2.0).pow(w, 1.0)) + Monomial::new(3.0);
/// let lp = LogPosynomial::from_posynomial(&p, pool.len());
/// let y = [0.0]; // x = 1
/// assert!((lp.value(&y) - 5f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogPosynomial {
    terms: Vec<LogTerm>,
    dim: usize,
    /// Sorted, deduplicated variable indices this posynomial touches.
    support: Vec<usize>,
    /// Per-term exponents re-indexed into `support` slots, flattened;
    /// term `k` owns `slot_exps[slot_bounds[k]..slot_bounds[k+1]]`. The
    /// sparse evaluator scatters through these so a constraint of support
    /// `s` costs O(s²) regardless of the ambient dimension.
    slot_exps: Vec<(u32, f64)>,
    slot_bounds: Vec<u32>,
}

/// Precomputes the support and the slot-indexed exponent rows.
fn index_support(terms: &[LogTerm]) -> (Vec<usize>, Vec<(u32, f64)>, Vec<u32>) {
    let mut support: Vec<usize> = terms
        .iter()
        .flat_map(|t| t.exps.iter().map(|&(i, _)| i))
        .collect();
    support.sort_unstable();
    support.dedup();
    let mut slot_exps = Vec::with_capacity(terms.iter().map(|t| t.exps.len()).sum());
    let mut slot_bounds = Vec::with_capacity(terms.len() + 1);
    slot_bounds.push(0u32);
    for t in terms {
        for &(i, e) in &t.exps {
            // The index is present by construction; partition_point avoids
            // an unwrap on binary_search's Result.
            let slot = support.partition_point(|&v| v < i);
            debug_assert_eq!(support[slot], i);
            slot_exps.push((slot as u32, e));
        }
        slot_bounds.push(slot_exps.len() as u32);
    }
    (support, slot_exps, slot_bounds)
}

impl LogPosynomial {
    /// Converts `p` for a problem with `dim` variables.
    ///
    /// # Panics
    ///
    /// Panics if `p` is the zero posynomial (log of zero is undefined) or if
    /// `p` references a variable with index `>= dim`.
    pub fn from_posynomial(p: &Posynomial, dim: usize) -> Self {
        assert!(!p.is_zero(), "cannot take the log-form of the zero posynomial");
        assert!(
            p.dimension() <= dim,
            "posynomial uses variable index {} but problem has {} variables",
            p.dimension() - 1,
            dim
        );
        let terms: Vec<LogTerm> = p
            .terms()
            .iter()
            .map(|m| LogTerm {
                exps: m.exponents().map(|(v, e)| (v.index(), e)).collect(),
                offset: m.coeff().ln(),
            })
            .collect();
        let (support, slot_exps, slot_bounds) = index_support(&terms);
        LogPosynomial {
            terms,
            dim,
            support,
            slot_exps,
            slot_bounds,
        }
    }

    /// Builds directly from raw log-terms (used for synthetic constraints
    /// such as phase-I slack rows).
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty or references an index `>= dim`.
    pub fn from_terms(terms: Vec<LogTerm>, dim: usize) -> Self {
        assert!(!terms.is_empty(), "log-form posynomial needs at least one term");
        for t in &terms {
            for &(i, _) in &t.exps {
                assert!(i < dim, "term references variable {i} out of {dim}");
            }
        }
        let (support, slot_exps, slot_bounds) = index_support(&terms);
        LogPosynomial {
            terms,
            dim,
            support,
            slot_exps,
            slot_bounds,
        }
    }

    /// Number of optimization variables of the ambient problem.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The exponentiated-affine terms.
    pub fn terms(&self) -> &[LogTerm] {
        &self.terms
    }

    /// Dense variable indices referenced by this posynomial, sorted
    /// ascending and deduplicated. Precomputed at construction — a borrow,
    /// never a fresh allocation.
    pub fn support(&self) -> &[usize] {
        &self.support
    }

    /// The affine exponents of each term as dense rows (one row per term).
    pub fn dense_rows(&self) -> Vec<Vec<f64>> {
        self.terms
            .iter()
            .map(|t| {
                let mut row = vec![0.0; self.dim];
                for &(i, e) in &t.exps {
                    row[i] = e;
                }
                row
            })
            .collect()
    }

    fn exponent_dots(&self, y: &[f64]) -> Vec<f64> {
        self.terms
            .iter()
            .map(|t| {
                t.offset
                    + t.exps
                        .iter()
                        .map(|&(i, e)| e * y[i])
                        .sum::<f64>()
            })
            .collect()
    }

    /// One term's exponent dot `aₖ·y + bₖ`.
    #[inline]
    fn term_dot(t: &LogTerm, y: &[f64]) -> f64 {
        t.offset + t.exps.iter().map(|&(i, e)| e * y[i]).sum::<f64>()
    }

    /// `F(y) = log Σ exp(aₖ·y + bₖ)`, computed with a max-shift so that very
    /// large or small exponents do not overflow.
    ///
    /// Streams the terms twice (max pass, then sum pass) instead of
    /// materializing the dot vector, so it does not allocate. This is the
    /// per-posynomial oracle: the GP solver evaluates a whole problem at
    /// once through [`LogSystem`](crate::LogSystem), whose values agree
    /// with this one to the last bit.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() < self.dim()`.
    pub fn value(&self, y: &[f64]) -> f64 {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let m = self
            .terms
            .iter()
            .map(|t| Self::term_dot(t, y))
            .fold(f64::NEG_INFINITY, f64::max);
        if m.is_infinite() {
            return m;
        }
        m + self
            .terms
            .iter()
            .map(|t| (Self::term_dot(t, y) - m).exp())
            .sum::<f64>()
            .ln()
    }

    /// Value and gradient of `F` at `y`.
    ///
    /// The gradient is `Σ softmaxₖ · aₖ`.
    pub fn value_grad(&self, y: &[f64]) -> (f64, Vec<f64>) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let z = self.exponent_dots(y);
        let (val, w) = softmax(&z);
        let mut grad = vec![0.0; self.dim];
        for (t, &wk) in self.terms.iter().zip(&w) {
            for &(i, e) in &t.exps {
                grad[i] += wk * e;
            }
        }
        (val, grad)
    }

    /// Value, gradient and dense Hessian of `F` at `y`.
    ///
    /// Hessian is `Σ wₖ aₖaₖᵀ − (Σ wₖaₖ)(Σ wₖaₖ)ᵀ`, PSD by convexity.
    pub fn value_grad_hess(&self, y: &[f64]) -> (f64, Vec<f64>, Vec<Vec<f64>>) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        let z = self.exponent_dots(y);
        let (val, w) = softmax(&z);
        let n = self.dim;
        let mut grad = vec![0.0; n];
        let mut hess = vec![vec![0.0; n]; n];
        for (t, &wk) in self.terms.iter().zip(&w) {
            for &(i, ei) in &t.exps {
                grad[i] += wk * ei;
                for &(j, ej) in &t.exps {
                    hess[i][j] += wk * ei * ej;
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                hess[i][j] -= grad[i] * grad[j];
            }
        }
        (val, grad, hess)
    }

    /// Sparse twin of [`value_grad_hess`](Self::value_grad_hess): stages
    /// the gradient and the packed raw second moment `Σ wₖaₖaₖᵀ` **over
    /// the support only** into `ws` and returns the value. The caller
    /// folds the staged contribution into the global accumulators with
    /// [`GradHessWorkspace::scatter_staged`], which applies the low-rank
    /// `−ggᵀ` completion, choosing scale factors that may depend on the
    /// returned value (barrier weights do).
    ///
    /// Cost is O(Σₖ sₖ²) in the per-term support sizes — independent of
    /// the ambient dimension — and allocation-free once the workspace
    /// buffers have warmed up. Values agree with the dense oracle to the
    /// last bits: both paths compute the same sums in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() < self.dim()` or the workspace's dimension is
    /// smaller than `self.dim()`.
    pub fn value_grad_hess_into(&self, y: &[f64], ws: &mut GradHessWorkspace) -> f64 {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        assert!(
            ws.dim() >= self.dim,
            "workspace dimension {} below posynomial dimension {}",
            ws.dim(),
            self.dim
        );
        ws.stage_begin(&self.support);
        // Exponent dots, then softmax weights in place.
        let mut scratch = std::mem::take(&mut ws.term_scratch);
        scratch.clear();
        scratch.extend(self.terms.iter().map(|t| Self::term_dot(t, y)));
        let m = scratch.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for z in scratch.iter_mut() {
            *z = (*z - m).exp();
            sum += *z;
        }
        let val = m + sum.ln();
        for z in scratch.iter_mut() {
            *z /= sum;
        }
        let (grad, hess) = ws.stage_buffers();
        for (k, &wk) in scratch.iter().enumerate() {
            let range = self.slot_bounds[k] as usize..self.slot_bounds[k + 1] as usize;
            let exps = &self.slot_exps[range];
            for &(si, ei) in exps {
                let si = si as usize;
                grad[si] += wk * ei;
                let row = si * (si + 1) / 2;
                for &(sj, ej) in exps {
                    let sj = sj as usize;
                    if sj <= si {
                        hess[row + sj] += wk * ei * ej;
                    }
                }
            }
        }
        ws.term_scratch = scratch;
        val
    }
}

/// Numerically stable `log Σ exp(zₖ)` (test oracle for the streaming
/// [`LogPosynomial::value`]).
#[cfg(test)]
pub(crate) fn log_sum_exp(z: &[f64]) -> f64 {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + z.iter().map(|&v| (v - m).exp()).sum::<f64>().ln()
}

/// Returns `(log_sum_exp(z), softmax(z))`.
fn softmax(z: &[f64]) -> (f64, Vec<f64>) {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&v| (v - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    (m + s.ln(), exps.iter().map(|&e| e / s).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Monomial, VarPool};

    fn sample() -> (LogPosynomial, Posynomial) {
        let mut pool = VarPool::new();
        let a = pool.var("a");
        let b = pool.var("b");
        let p = Posynomial::from(Monomial::new(0.5).pow(a, 1.0).pow(b, -2.0))
            + Monomial::new(2.0).pow(b, 1.0)
            + Monomial::new(1.0);
        let lp = LogPosynomial::from_posynomial(&p, pool.len());
        (lp, p)
    }

    #[test]
    fn value_matches_direct_eval() {
        let (lp, p) = sample();
        for &(xa, xb) in &[(1.0, 1.0), (0.2, 5.0), (10.0, 0.01)] {
            let y = [xa_f(xa), xa_f(xb)];
            let direct = p.eval(&[xa, xb]).ln();
            assert!((lp.value(&y) - direct).abs() < 1e-10, "at ({xa},{xb})");
        }
        fn xa_f(x: f64) -> f64 {
            x.ln()
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (lp, _) = sample();
        let y = [0.3, -0.7];
        let (_, grad) = lp.value_grad(&y);
        let h = 1e-6;
        for i in 0..2 {
            let mut yp = y;
            let mut ym = y;
            yp[i] += h;
            ym[i] -= h;
            let fd = (lp.value(&yp) - lp.value(&ym)) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-6, "grad[{i}]={} fd={fd}", grad[i]);
        }
    }

    #[test]
    fn hessian_matches_finite_differences_and_is_psd() {
        let (lp, _) = sample();
        let y = [0.1, 0.2];
        let (_, grad, hess) = lp.value_grad_hess(&y);
        let h = 1e-5;
        for i in 0..2 {
            let mut yp = y;
            let mut ym = y;
            yp[i] += h;
            ym[i] -= h;
            let (_, gp) = lp.value_grad(&yp);
            let (_, gm) = lp.value_grad(&ym);
            for j in 0..2 {
                let fd = (gp[j] - gm[j]) / (2.0 * h);
                assert!((hess[i][j] - fd).abs() < 1e-5, "H[{i}][{j}]");
            }
        }
        // PSD check on a couple of directions.
        for d in [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.5, 2.0]] {
            let q: f64 = (0..2)
                .map(|i| (0..2).map(|j| d[i] * hess[i][j] * d[j]).sum::<f64>())
                .sum();
            assert!(q >= -1e-12, "not PSD along {d:?}: {q}");
        }
        let _ = grad;
    }

    #[test]
    fn log_sum_exp_is_stable_for_large_inputs() {
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2f64.ln())).abs() < 1e-9);
        let v = log_sum_exp(&[-1000.0, -1000.0]);
        assert!((v - (-1000.0 + 2f64.ln())).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero posynomial")]
    fn zero_posynomial_rejected() {
        let _ = LogPosynomial::from_posynomial(&Posynomial::zero(), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sparse_workspace_matches_dense_oracle() {
        use crate::{packed_index, GradHessWorkspace};
        // Embed the 2-var sample in a 5-var ambient problem so the
        // support {0, 1} is a strict subset the scatter must respect.
        let (lp2, _) = sample();
        let lp = LogPosynomial::from_terms(lp2.terms().to_vec(), 5);
        let y = [0.3, -0.7, 9.0, -9.0, 0.1];
        let (val, grad, hess) = lp.value_grad_hess(&y);
        let mut ws = GradHessWorkspace::new(5);
        let sval = lp.value_grad_hess_into(&y, &mut ws);
        ws.scatter_staged(1.0, 1.0, 0.0);
        assert_eq!(val, sval, "values must agree bitwise");
        assert_eq!(lp.value(&y), val, "streaming value must agree");
        for i in 0..5 {
            assert_eq!(grad[i], ws.grad()[i], "grad[{i}]");
            for j in 0..=i {
                assert_eq!(
                    hess[i][j],
                    ws.hess_packed()[packed_index(i, j)],
                    "hess[{i}][{j}]"
                );
            }
        }
        // Untouched coordinates stay exactly zero.
        assert_eq!(ws.grad()[3], 0.0);
        assert_eq!(ws.hess_packed()[packed_index(4, 2)], 0.0);
    }

    #[test]
    fn scatter_rank_one_matches_barrier_formula() {
        use crate::{packed_index, GradHessWorkspace};
        let (lp, _) = sample();
        let y = [0.1, 0.2];
        let (_, fg, fh) = lp.value_grad_hess(&y);
        let (inv, inv2) = (1.7, 1.7 * 1.7);
        let mut ws = GradHessWorkspace::new(2);
        let _ = lp.value_grad_hess_into(&y, &mut ws);
        ws.scatter_staged(inv, inv, inv2);
        for i in 0..2 {
            let want_g = inv * fg[i];
            assert!((ws.grad()[i] - want_g).abs() < 1e-15);
            for j in 0..=i {
                let want_h = inv2 * fg[i] * fg[j] + inv * fh[i][j];
                let got = ws.hess_packed()[packed_index(i, j)];
                assert!((got - want_h).abs() < 1e-15, "H[{i}][{j}]: {got} vs {want_h}");
            }
        }
    }

    #[test]
    fn dense_rows_roundtrip() {
        let (lp, _) = sample();
        let rows = lp.dense_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![1.0, -2.0]);
        assert_eq!(rows[1], vec![0.0, 1.0]);
        assert_eq!(rows[2], vec![0.0, 0.0]);
        assert_eq!(lp.support(), vec![0, 1]);
    }
}
