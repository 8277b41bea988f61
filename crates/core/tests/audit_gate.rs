//! The audit gate's cost contract: a spec the static analyzer certifies
//! infeasible must abort *before* the solver — zero GP Newton steps,
//! zero retry restarts — and be stored once as a failure entry that a
//! repeat replays without even compacting paths; the certificate must
//! re-verify by plain interval evaluation, independent of the flow that
//! produced it. Plus the relaxation-ladder short-circuit: rungs whose
//! certificate survives the relaxed spec are skipped without burning a
//! solve, and the first genuinely feasible rung still succeeds.

use std::sync::Arc;

use smart_core::{
    audit_circuit, compact, constraints::build_sizing_gp, constraints::boundary_extra_loads,
    size_circuit, AuditGate, DelaySpec, FlowError, SizingCache, SizingOptions,
};
use smart_macros::MacroSpec;
use smart_models::{label_vars, ModelLibrary};
use smart_sta::Boundary;
use smart_trace::Trace;

fn incrementor() -> smart_netlist::Circuit {
    MacroSpec::Incrementor { width: 8 }.generate()
}

fn boundary() -> Boundary {
    let mut b = Boundary::default();
    b.output_loads.insert("y7".into(), 10.0);
    b
}

/// 5 ps is below a single gate's intrinsic delay: the constraint
/// constants alone exceed the budget, which the interval analysis proves
/// without a solve.
fn impossible() -> DelaySpec {
    DelaySpec::uniform(5.0)
}

#[test]
fn certificate_aborts_with_zero_newton_steps_and_is_stored_once() {
    let circuit = incrementor();
    let lib = ModelLibrary::reference();
    let boundary = boundary();
    let cache = Arc::new(SizingCache::new());
    let mut opts = SizingOptions {
        cache: Some(Arc::clone(&cache)),
        ..Default::default()
    };
    // A zero-iteration GP budget is the tripwire: if the flow had reached
    // the solver at all, the solve would have died as `BudgetExceeded`,
    // not as a certificate.
    opts.budget.max_gp_iters = Some(0);

    let err = size_circuit(&circuit, &lib, &boundary, &impossible(), &opts).unwrap_err();
    assert!(
        matches!(err, FlowError::InfeasibleCertificate { ref constraints, .. }
            if !constraints.is_empty()),
        "expected a certificate, got {err:?}"
    );
    assert_eq!(err.taxonomy(), "infeasible");

    // Cache traffic: exactly the one unavoidable entry probe (a miss),
    // no hit, nothing poisoned — and the certificate is the answer for
    // this key, so it is stored as exactly one failure entry.
    let (hits, misses) = cache.stats();
    assert_eq!(hits, 0, "a certified-infeasible run must never hit");
    assert_eq!(misses, 1, "exactly the entry lookup probe");
    assert_eq!(cache.len(), 1, "the certificate is stored once");
    assert_eq!(cache.failure_entries(), 1);
    assert_eq!(cache.poisoned(), 0);

    // A repeat replays the stored certificate: the same typed error with
    // the same text, one negative hit, and no compaction at all.
    let trace = Trace::enabled();
    let scope = trace.scope("test", trace.next_id(), 0);
    let entered = scope.enter();
    let again = size_circuit(&circuit, &lib, &boundary, &impossible(), &opts).unwrap_err();
    drop(entered);
    drop(scope);
    assert_eq!(again, err);
    assert_eq!(again.to_string(), err.to_string());
    assert_eq!(cache.negative_hits(), 1);
    assert_eq!(cache.stats(), (0, 1), "a replayed failure is neither hit nor miss");
    let report = trace.collect();
    assert_eq!(report.counter("cache/negative-hit"), 1);
    assert_eq!(
        report.events_named("size/compact").count(),
        0,
        "a replayed certificate must not re-run the flow"
    );

    // Control: with the gate off the same zero-iteration budget *is*
    // tripped — proof the default gate spared real Newton work.
    let off = SizingOptions {
        audit: AuditGate::Off,
        ..Default::default()
    };
    let mut off = off;
    off.budget.max_gp_iters = Some(0);
    let err = size_circuit(&circuit, &lib, &boundary, &impossible(), &off).unwrap_err();
    assert!(
        matches!(err, FlowError::BudgetExceeded { .. }),
        "with the audit off the solver must start (and trip the 0-step \
         budget), got {err:?}"
    );
}

#[test]
fn certificate_re_verifies_by_interval_evaluation() {
    let circuit = incrementor();
    let lib = ModelLibrary::reference();
    let boundary = boundary();
    let opts = SizingOptions::default();

    // Assemble the exact GP the flow would solve, by the same public
    // pieces the flow uses.
    let (_, vars) = label_vars(&circuit);
    let extra = boundary_extra_loads(&circuit, &boundary);
    let compaction = compact(&circuit, &lib, &vars, &extra, &opts).expect("compaction");
    let built = build_sizing_gp(
        &circuit,
        &lib,
        &compaction,
        &boundary,
        &extra,
        &impossible(),
        &opts,
    )
    .expect("constraint assembly");

    let outcome =
        smart_audit::audit_problem(&built.gp, "inc8", &smart_audit::AuditConfig::default());
    let cert = outcome.certificate.expect("5 ps must certify");
    // The certificate is machine-checkable: re-running the interval
    // propagation restricted to the cited constraints re-derives the
    // contradiction. No solver, no flow — just the certificate and the
    // problem.
    assert!(
        cert.verify(&built.gp),
        "certificate must re-verify by interval evaluation over its own \
         constraint subset: {}",
        cert.detail
    );
    assert!(!cert.labels.is_empty());

    // And the no-solve entry point reports the same verdict on the same
    // constraints as the in-flow gate.
    let via_entry = audit_circuit(&circuit, &lib, &boundary, &impossible(), &opts, "inc8")
        .expect("audit entry");
    let entry_cert = via_entry.certificate.expect("same verdict");
    assert_eq!(entry_cert.labels, cert.labels);
    let flow_err =
        size_circuit(&circuit, &lib, &boundary, &impossible(), &opts).unwrap_err();
    match flow_err {
        FlowError::InfeasibleCertificate { constraints, .. } => {
            assert_eq!(constraints, cert.labels, "flow surfaces the same certificate");
        }
        other => panic!("expected certificate, got {other:?}"),
    }
}

#[test]
fn relaxation_ladder_skips_certified_rungs_without_restarts() {
    let circuit = incrementor();
    let lib = ModelLibrary::reference();
    let boundary = boundary();
    // Rung 0 (5 ps) and rung +100% (10 ps) both carry certificates; the
    // final rung (5 × 400 = 2000 ps) is comfortably feasible for the
    // ripple chain. The ladder must walk straight through the certified
    // rungs — re-auditing the retargeted GP costs microseconds — and
    // solve only the last one.
    let opts = SizingOptions {
        relaxation: vec![1.0, 399.0],
        ..Default::default()
    };
    let out = size_circuit(&circuit, &lib, &boundary, &impossible(), &opts)
        .expect("the 2000 ps rung is feasible");
    assert_eq!(out.spec_relaxation, 399.0, "only the last rung succeeds");
    // Regression pin: certified rungs must not burn retry restarts. Any
    // nonzero count here means a doomed rung reached the solver and died
    // numerically instead of being short-circuited by its certificate.
    assert_eq!(out.gp_restarts, 0, "certified rungs must cost zero restarts");
    assert!(out.measured_delay <= 2000.0 * (1.0 + opts.timing_tolerance));

    // Ladder exhaustion: when every rung certifies, the error is the
    // certificate (relaxable, recorded), not a solver failure.
    let hopeless = SizingOptions {
        relaxation: vec![0.5, 1.0],
        ..Default::default()
    };
    let err = size_circuit(&circuit, &lib, &boundary, &impossible(), &hopeless).unwrap_err();
    assert!(
        matches!(err, FlowError::InfeasibleCertificate { .. }),
        "an all-certified ladder reports the certificate, got {err:?}"
    );
}
