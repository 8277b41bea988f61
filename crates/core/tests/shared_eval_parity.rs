//! Bit-parity suite for the shared-evaluation GP kernel.
//!
//! The production solver evaluates a whole sizing GP through one
//! `smart_posy::LogSystem` (one dot per distinct exponent row, one `exp`
//! per term, assembly from the cached exponentials, `−ggᵀ` completion
//! fused into the scatter). Its trajectory contract is bit-identity with
//! the per-posynomial evaluators, so this suite compares with
//! `to_bits()`, never a tolerance, on the real sizing GPs of **every**
//! representative macro (`cla64`'s 42 010 terms over 436 rows included)
//! at several jittered points:
//!
//! * each posynomial's value vs `LogPosynomial::value`;
//! * the staged-and-scattered gradient and Hessian vs
//!   `LogPosynomial::value_grad_hess_into` + `scatter_staged`, and vs
//!   the dense `value_grad_hess` folded in with the unfused barrier
//!   formula `o·gᵢgⱼ + h·Hᵢⱼ` the reference solver uses.

use smart_core::constraints::{boundary_extra_loads, build_sizing_gp, SizingGp};
use smart_core::{compact, DelaySpec, SizingOptions};
use smart_macros::representative_database;
use smart_models::ModelLibrary;
use smart_posy::{packed_index, GradHessWorkspace, LogEval, LogPosynomial, LogSystem, Posynomial};
use smart_sta::Boundary;

/// Builds one macro's sizing GP exactly as `size_circuit` would.
fn sizing_gp(spec: &smart_macros::MacroSpec) -> SizingGp {
    let circuit = spec.generate();
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    for p in circuit.output_ports() {
        boundary.output_loads.insert(p.name.clone(), 20.0);
    }
    let opts = SizingOptions::default();
    let (_, vars) = smart_models::label_vars(&circuit);
    let extra = boundary_extra_loads(&circuit, &boundary);
    let compaction = compact(&circuit, &lib, &vars, &extra, &opts).expect("compaction succeeds");
    let delay = DelaySpec::uniform(900.0);
    build_sizing_gp(
        &circuit,
        &lib,
        &compaction,
        &boundary,
        &extra,
        &delay,
        &opts,
    )
    .expect("GP builds")
}

/// Deterministic log-space jitter for evaluation points (splitmix64).
fn jitter(dim: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..dim)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 3.0
        })
        .collect()
}

/// Asserts every gradient and packed-Hessian entry of two accumulators
/// carries the same bits.
fn assert_same_bits(got: &GradHessWorkspace, want: &GradHessWorkspace, what: &str) {
    for (i, (g, w)) in got.grad().iter().zip(want.grad()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: grad[{i}] {g} vs {w}");
    }
    for (k, (g, w)) in got.hess_packed().iter().zip(want.hess_packed()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: packed hess[{k}] {g} vs {w}"
        );
    }
}

#[test]
fn shared_evaluation_is_bit_identical_on_every_representative_macro() {
    let mut saw_shared_rows = false;
    for spec in representative_database() {
        let built = sizing_gp(&spec);
        let gp = &built.gp;
        let dim = gp.dim();
        let posys: Vec<&Posynomial> = std::iter::once(gp.objective())
            .chain(gp.constraints().iter().map(|c| &c.body))
            .collect();
        let sys = LogSystem::from_posynomials(posys.iter().copied(), dim);
        let oracles: Vec<LogPosynomial> = posys
            .iter()
            .map(|p| LogPosynomial::from_posynomial(p, dim))
            .collect();
        assert_eq!(sys.len(), oracles.len());
        assert_eq!(
            sys.terms(),
            oracles.iter().map(|o| o.terms().len()).sum::<usize>(),
            "{spec}: term count"
        );
        saw_shared_rows |= sys.distinct_rows() < sys.terms();

        let mut ev = LogEval::default();
        let mut got = GradHessWorkspace::new(dim);
        let mut want = GradHessWorkspace::new(dim);
        let mut unfused = GradHessWorkspace::new(dim);
        for (pi, seed) in [0x5EED_0001u64, 0xFACE_0002, 0xC0DE_0003]
            .into_iter()
            .enumerate()
        {
            let y = jitter(dim, seed);
            sys.eval(&y, &mut ev);
            for (p, lp) in oracles.iter().enumerate() {
                let what = format!("{spec} posy {p} @p{pi}");
                let value = lp.value(&y);
                assert_eq!(ev.value(p).to_bits(), value.to_bits(), "{what}: value");

                // Barrier-shaped scale factors that depend on the value,
                // as the solver's do.
                let inv = 1.0 / (1.0 + value.abs());
                got.reset(dim);
                let got_v = sys.stage(p, &ev, &mut got);
                got.scatter_staged(inv, inv, inv * inv);
                want.reset(dim);
                let want_v = lp.value_grad_hess_into(&y, &mut want);
                want.scatter_staged(inv, inv, inv * inv);
                assert_eq!(got_v.to_bits(), want_v.to_bits(), "{what}: staged value");
                assert_same_bits(&got, &want, &what);

                // The fused completion against the dense Hessian folded in
                // with the unfused formula, over the support entries.
                let (_, fg, fh) = lp.value_grad_hess(&y);
                unfused.reset(dim);
                let support = lp.support();
                for (a, &i) in support.iter().enumerate() {
                    unfused.grad_mut()[i] += inv * fg[i];
                    for &j in &support[..=a] {
                        unfused.add_hess(i, j, inv * inv * fg[i] * fg[j] + inv * fh[i][j]);
                    }
                }
                for &i in support {
                    for &j in support.iter().filter(|&&j| j <= i) {
                        let k = packed_index(i, j);
                        assert_eq!(
                            got.hess_packed()[k].to_bits(),
                            unfused.hess_packed()[k].to_bits(),
                            "{what}: fused vs unfused hess[{i}][{j}]"
                        );
                    }
                    assert_eq!(got.grad()[i].to_bits(), unfused.grad()[i].to_bits());
                }
            }
        }
    }
    assert!(
        saw_shared_rows,
        "no macro shares an exponent row; the suite tests nothing"
    );
}
