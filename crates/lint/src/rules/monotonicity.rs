//! `SL101`: domino data inputs must be monotone-rising during evaluate.
//!
//! This is the check the structural `SL00x` rules cannot express:
//! `SL003` only looks at *precharge* levels of D2 inputs, so a static
//! inverter pair between two domino stages — output falls during
//! evaluate, violating the domino discipline — sails through it. The monotonicity dataflow
//! ([`crate::dataflow`]) sees it: the second inversion makes the D2
//! input monotone-*falling*, and any net classified falling or unknown
//! on a domino data pin is a violation.

use smart_netlist::{Circuit, ComponentKind};

use crate::dataflow::{Monotonicity, MonotonicityAnalysis};
use crate::engine::{Finding, LintConfig, Severity};

pub(crate) fn check(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let analysis = MonotonicityAnalysis::run(circuit);
    for (_, comp) in circuit.components() {
        if !matches!(comp.kind, ComponentKind::Domino { .. }) {
            continue;
        }
        for (pin, net) in comp.input_nets() {
            if pin == 0 {
                continue; // clock pin
            }
            let class = analysis.of(net);
            if matches!(class, Monotonicity::FallingMonotone | Monotonicity::Unknown) {
                let name = circuit.net(net).name.clone();
                out.push(Finding {
                    rule: "SL101",
                    severity: Severity::Error,
                    path: comp.path.clone(),
                    nets: vec![name.clone()],
                    message: format!(
                        "domino data input '{name}' is {class} during evaluate; domino \
                         inputs must be monotone-rising (a falling input re-opens an \
                         already-evaluated pull-down — remove the inverting static \
                         logic between stages or re-buffer from the domino output)"
                    ),
                });
            }
        }
    }
}
