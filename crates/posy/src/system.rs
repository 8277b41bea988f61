//! Shared evaluation of every log-form posynomial of one geometric program.
//!
//! A compacted sizing GP repeats the same monomial exponent rows across
//! many terms: the 64-bit CLA's 42 010 log-terms share only 436 distinct
//! rows. [`LogSystem`] stores the objective and constraints of a whole
//! problem in flat arrays and evaluates them together at a point:
//!
//! 1. [`LogSystem::eval_rows`] computes `dᵣ = Σ eᵢ·yᵢ` once per distinct
//!    exponent row (rows are deduplicated by the exact bits of their
//!    `(variable, exponent)` sequence);
//! 2. [`LogSystem::eval_posy`] forms each term's `z = b + d[row]`, the
//!    max-shift `m`, the term exponentials `exp(z − m)` and their sum, and
//!    caches them in a [`LogEval`];
//! 3. [`LogSystem::stage`] stages one posynomial's gradient and raw
//!    second moment into a [`GradHessWorkspace`] straight from the cached
//!    exponentials — no dot and no `exp` at assembly time.
//!
//! Every float is produced by the same operations in the same order as the
//! per-posynomial [`LogPosynomial`](crate::LogPosynomial) evaluators, so
//! results agree to the last bit: a row's sum is the same sum a term's dot
//! computes and the offset is added last, as in `LogPosynomial`'s term dot.

use std::collections::HashMap;
use std::ops::Range;

use crate::workspace::GradHessWorkspace;
use crate::Posynomial;

/// The log-form posynomials of one problem, flattened, with their terms'
/// exponent rows deduplicated. Built once per solve; evaluated many times
/// into reusable [`LogEval`] buffers.
///
/// ```
/// use smart_posy::{LogEval, LogPosynomial, LogSystem, Monomial, Posynomial, VarPool};
/// let mut pool = VarPool::new();
/// let w = pool.var("W");
/// let a = Posynomial::from(Monomial::new(2.0).pow(w, 1.0)) + Monomial::new(3.0);
/// let b = Posynomial::from(Monomial::new(0.5).pow(w, 1.0));
/// let sys = LogSystem::from_posynomials([&a, &b], pool.len());
/// assert_eq!((sys.len(), sys.terms(), sys.distinct_rows()), (2, 3, 2));
/// let mut ev = LogEval::default();
/// sys.eval(&[0.3], &mut ev);
/// let oracle = LogPosynomial::from_posynomial(&a, pool.len());
/// assert_eq!(ev.value(0).to_bits(), oracle.value(&[0.3]).to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogSystem {
    dim: usize,
    /// Distinct exponent rows as `(variable, exponent)` pairs; row `r`
    /// owns `row_exps[row_bounds[r]..row_bounds[r+1]]`.
    row_exps: Vec<(u32, f64)>,
    row_bounds: Vec<u32>,
    /// Per term: offset `b = log c` and the id of its exponent row.
    term_offset: Vec<f64>,
    term_row: Vec<u32>,
    /// Per term: exponents re-indexed into its posynomial's support slots;
    /// term `k` owns `slot_exps[slot_bounds[k]..slot_bounds[k+1]]`.
    slot_exps: Vec<(u32, f64)>,
    slot_bounds: Vec<u32>,
    /// Per posynomial: its term range and its sorted, deduplicated support.
    term_bounds: Vec<u32>,
    support: Vec<usize>,
    support_bounds: Vec<u32>,
}

/// Converts a flat-array length to the `u32` the bounds store.
fn bound(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("log system exceeds u32 indexing ({len})"))
}

#[inline]
fn span(bounds: &[u32], i: usize) -> Range<usize> {
    bounds[i] as usize..bounds[i + 1] as usize
}

impl LogSystem {
    /// Converts `posys`, in order, for a problem with `dim` variables.
    /// Posynomial `p` of the iterator is index `p` of the system.
    ///
    /// # Panics
    ///
    /// Panics if a posynomial is zero (log of zero is undefined) or
    /// references a variable with index `>= dim`.
    pub fn from_posynomials<'a, I>(posys: I, dim: usize) -> Self
    where
        I: IntoIterator<Item = &'a Posynomial>,
    {
        let mut sys = LogSystem {
            dim,
            row_bounds: vec![0],
            slot_bounds: vec![0],
            term_bounds: vec![0],
            support_bounds: vec![0],
            ..LogSystem::default()
        };
        // Row dedup key: the exact bits of the (variable, exponent)
        // sequence, so equal keys yield bit-equal dot sums.
        let mut rows: HashMap<Vec<(u32, u64)>, u32> = HashMap::new();
        let mut key: Vec<(u32, u64)> = Vec::new();
        let mut support: Vec<usize> = Vec::new();
        for p in posys {
            assert!(
                !p.is_zero(),
                "cannot take the log-form of the zero posynomial"
            );
            assert!(
                p.dimension() <= dim,
                "posynomial uses variable index {} but problem has {} variables",
                p.dimension() - 1,
                dim
            );
            support.clear();
            support.extend(
                p.terms()
                    .iter()
                    .flat_map(|m| m.exponents().map(|(v, _)| v.index())),
            );
            support.sort_unstable();
            support.dedup();
            for m in p.terms() {
                key.clear();
                key.extend(m.exponents().map(|(v, e)| (bound(v.index()), e.to_bits())));
                let row = match rows.get(key.as_slice()) {
                    Some(&r) => r,
                    None => {
                        let r = bound(sys.row_bounds.len() - 1);
                        sys.row_exps
                            .extend(key.iter().map(|&(i, e)| (i, f64::from_bits(e))));
                        sys.row_bounds.push(bound(sys.row_exps.len()));
                        rows.insert(key.clone(), r);
                        r
                    }
                };
                sys.term_row.push(row);
                sys.term_offset.push(m.coeff().ln());
                for (v, e) in m.exponents() {
                    let slot = support.partition_point(|&s| s < v.index());
                    sys.slot_exps.push((bound(slot), e));
                }
                sys.slot_bounds.push(bound(sys.slot_exps.len()));
            }
            sys.term_bounds.push(bound(sys.term_offset.len()));
            sys.support.extend_from_slice(&support);
            sys.support_bounds.push(bound(sys.support.len()));
        }
        sys
    }

    /// Number of optimization variables of the ambient problem.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of posynomials in the system.
    pub fn len(&self) -> usize {
        self.term_bounds.len() - 1
    }

    /// Whether the system holds no posynomial.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of log-terms over all posynomials.
    pub fn terms(&self) -> usize {
        self.term_offset.len()
    }

    /// Number of distinct exponent rows the terms share.
    pub fn distinct_rows(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// Sorted, deduplicated variable indices posynomial `p` touches.
    pub fn support(&self, p: usize) -> &[usize] {
        &self.support[span(&self.support_bounds, p)]
    }

    /// First step of an evaluation at `y`: every distinct row's dot
    /// `Σ eᵢ·yᵢ`, into `ev`. Sizes `ev`'s buffers for this system
    /// (allocation-free once they have warmed up).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() < self.dim()`.
    pub fn eval_rows(&self, y: &[f64], ev: &mut LogEval) {
        assert!(y.len() >= self.dim, "point has wrong dimension");
        ev.dots.resize(self.distinct_rows(), 0.0);
        ev.exps.resize(self.terms(), 0.0);
        ev.maxes.resize(self.len(), 0.0);
        ev.sums.resize(self.len(), 0.0);
        ev.values.resize(self.len(), 0.0);
        for (d, w) in ev.dots.iter_mut().zip(self.row_bounds.windows(2)) {
            *d = self.row_exps[w[0] as usize..w[1] as usize]
                .iter()
                .map(|&(i, e)| e * y[i as usize])
                .sum::<f64>();
        }
    }

    /// Second step: posynomial `p`'s value `F(y) = log Σ exp(zₖ)` from the
    /// row dots of the last [`eval_rows`](Self::eval_rows), with the term
    /// exponentials cached in `ev` for [`stage`](Self::stage).
    ///
    /// Bit-identical to [`LogPosynomial::value`](crate::LogPosynomial::value),
    /// including its guard: an infinite max-shift `m` is returned as the
    /// value. The exponentials and their sum are cached even then, so that
    /// staging reproduces `value_grad_hess_into` in every case.
    pub fn eval_posy(&self, p: usize, ev: &mut LogEval) -> f64 {
        let terms = span(&self.term_bounds, p);
        let exps = &mut ev.exps[terms.clone()];
        let mut m = f64::NEG_INFINITY;
        for ((z, &b), &row) in exps
            .iter_mut()
            .zip(&self.term_offset[terms.clone()])
            .zip(&self.term_row[terms])
        {
            *z = b + ev.dots[row as usize];
            m = f64::max(m, *z);
        }
        let mut sum = 0.0;
        for e in exps.iter_mut() {
            *e = (*e - m).exp();
            sum += *e;
        }
        let value = if m.is_infinite() { m } else { m + sum.ln() };
        ev.maxes[p] = m;
        ev.sums[p] = sum;
        ev.values[p] = value;
        value
    }

    /// Evaluates every posynomial of the system at `y` into `ev`.
    pub fn eval(&self, y: &[f64], ev: &mut LogEval) {
        self.eval_rows(y, ev);
        for p in 0..self.len() {
            self.eval_posy(p, ev);
        }
    }

    /// Stages posynomial `p`'s gradient and raw second moment
    /// `Σ wₖaₖaₖᵀ` over its support into `ws`, from the exponentials `ev`
    /// cached at the point it was evaluated, and returns the value
    /// `m + log Σ exp(zₖ − m)`. Fold the staged contribution in with
    /// [`GradHessWorkspace::scatter_staged`], which applies the `−ggᵀ`
    /// completion.
    ///
    /// Same sums in the same order as
    /// [`LogPosynomial::value_grad_hess_into`](crate::LogPosynomial::value_grad_hess_into)
    /// at that point, so the staged buffers agree to the last bit.
    ///
    /// # Panics
    ///
    /// Panics if `ev` does not hold an evaluation of this system or the
    /// workspace's dimension is smaller than `self.dim()`.
    pub fn stage(&self, p: usize, ev: &LogEval, ws: &mut GradHessWorkspace) -> f64 {
        assert!(
            ws.dim() >= self.dim,
            "workspace dimension {} below system dimension {}",
            ws.dim(),
            self.dim
        );
        ws.stage_begin(self.support(p));
        let sum = ev.sums[p];
        let val = ev.maxes[p] + sum.ln();
        let (grad, hess) = ws.stage_buffers();
        for k in span(&self.term_bounds, p) {
            let wk = ev.exps[k] / sum;
            let exps = &self.slot_exps[span(&self.slot_bounds, k)];
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
        val
    }

    /// Posynomial `p`'s gradient over its support slots (aligned with
    /// [`support`](Self::support)) into `grad`, from the cached evaluation
    /// `ev`; returns the value `m + log Σ exp(zₖ − m)`. Bit-identical to
    /// the support entries of
    /// [`LogPosynomial::value_grad`](crate::LogPosynomial::value_grad).
    pub fn grad_into(&self, p: usize, ev: &LogEval, grad: &mut Vec<f64>) -> f64 {
        grad.clear();
        grad.resize(self.support(p).len(), 0.0);
        let sum = ev.sums[p];
        for k in span(&self.term_bounds, p) {
            let wk = ev.exps[k] / sum;
            for &(si, ei) in &self.slot_exps[span(&self.slot_bounds, k)] {
                grad[si as usize] += wk * ei;
            }
        }
        ev.maxes[p] + sum.ln()
    }
}

/// Reusable buffers holding one evaluation of a [`LogSystem`] at a point:
/// the distinct-row dots, each term's shifted exponential, and each
/// posynomial's max-shift, exponential sum and value. A solver keeps two —
/// the current iterate's and a line-search trial's — and swaps them when a
/// trial is accepted, so the next assembly reads its exponentials here
/// instead of recomputing them.
#[derive(Debug, Clone, Default)]
pub struct LogEval {
    dots: Vec<f64>,
    exps: Vec<f64>,
    maxes: Vec<f64>,
    sums: Vec<f64>,
    values: Vec<f64>,
}

impl LogEval {
    /// Posynomial `p`'s value at the evaluated point, as
    /// [`LogSystem::eval_posy`] returned it.
    pub fn value(&self, p: usize) -> f64 {
        self.values[p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{packed_index, LogPosynomial, Monomial, VarPool};

    /// Three posynomials over four variables that share exponent rows
    /// (`a/b` twice, the constant row three times).
    fn sample() -> (Vec<Posynomial>, usize) {
        let mut pool = VarPool::new();
        let v: Vec<_> = (0..4).map(|i| pool.var(&format!("v{i}"))).collect();
        let p0 = Posynomial::from(Monomial::new(0.5).pow(v[0], 1.0).pow(v[1], -1.0))
            + Monomial::new(2.0).pow(v[2], 1.0)
            + Monomial::new(1.0);
        let p1 = Posynomial::from(Monomial::new(0.7).pow(v[0], 1.0).pow(v[1], -1.0))
            + Monomial::new(0.1);
        // Exponents that are not powers of two, so a reassociated product
        // changes bits.
        let p2 = Posynomial::from(Monomial::new(3.0).pow(v[3], -0.37).pow(v[1], 1.3))
            + Monomial::new(0.2).pow(v[3], 0.7).pow(v[2], -1.9)
            + Monomial::new(0.2);
        (vec![p0, p1, p2], pool.len())
    }

    #[test]
    fn rows_are_shared_across_posynomials() {
        let (posys, dim) = sample();
        let sys = LogSystem::from_posynomials(&posys, dim);
        assert_eq!(sys.len(), 3);
        assert_eq!(sys.terms(), 8);
        // a/b, c, 1, b^1.3·d^-0.37, c^-1.9·d^0.7
        assert_eq!(sys.distinct_rows(), 5);
        assert_eq!(sys.support(0), &[0, 1, 2]);
        assert_eq!(sys.support(1), &[0, 1]);
        assert_eq!(sys.support(2), &[1, 2, 3]);
    }

    #[test]
    fn eval_and_stage_match_per_posynomial_oracle_bitwise() {
        let (posys, dim) = sample();
        let sys = LogSystem::from_posynomials(&posys, dim);
        let mut ev = LogEval::default();
        let mut g = Vec::new();
        for y in [[0.0, 0.0, 0.0, 0.0], [0.3, -0.7, 1.9, -2.4]] {
            sys.eval(&y, &mut ev);
            for (p, posy) in posys.iter().enumerate() {
                let lp = LogPosynomial::from_posynomial(posy, dim);
                assert_eq!(ev.value(p).to_bits(), lp.value(&y).to_bits(), "value p{p}");

                let mut want = GradHessWorkspace::new(dim);
                let want_v = lp.value_grad_hess_into(&y, &mut want);
                want.scatter_staged(1.3, 0.7, 0.4);
                let mut got = GradHessWorkspace::new(dim);
                let got_v = sys.stage(p, &ev, &mut got);
                got.scatter_staged(1.3, 0.7, 0.4);
                assert_eq!(got_v.to_bits(), want_v.to_bits(), "stage value p{p}");
                for i in 0..dim {
                    assert_eq!(got.grad()[i].to_bits(), want.grad()[i].to_bits());
                    for j in 0..=i {
                        let k = packed_index(i, j);
                        assert_eq!(
                            got.hess_packed()[k].to_bits(),
                            want.hess_packed()[k].to_bits()
                        );
                    }
                }

                let (dv, dg) = lp.value_grad(&y);
                assert_eq!(sys.grad_into(p, &ev, &mut g).to_bits(), dv.to_bits());
                for (&i, &gi) in sys.support(p).iter().zip(&g) {
                    assert_eq!(gi.to_bits(), dg[i].to_bits(), "grad p{p} var {i}");
                }
            }
        }
    }

    #[test]
    fn infinite_max_shift_is_returned_as_the_value() {
        let (posys, dim) = sample();
        let sys = LogSystem::from_posynomials(&posys, dim);
        let mut ev = LogEval::default();
        let y = [f64::INFINITY, 0.0, 0.0, 0.0];
        sys.eval(&y, &mut ev);
        let lp = LogPosynomial::from_posynomial(&posys[1], dim);
        assert_eq!(lp.value(&y), f64::INFINITY);
        assert_eq!(ev.value(1), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "zero posynomial")]
    fn zero_posynomial_rejected() {
        let _ = LogSystem::from_posynomials([&Posynomial::zero()], 1);
    }
}
