//! `SL107`–`SL110`: structural connectivity rules — floating nets,
//! undriven outputs, always-on driver conflicts and unbound size labels.

use smart_netlist::Circuit;

use crate::engine::{Finding, LintConfig, Severity};

fn input_net_mask(circuit: &Circuit) -> Vec<bool> {
    let mut mask = vec![false; circuit.net_count()];
    for p in circuit.input_ports() {
        mask[p.net.index()] = true;
    }
    mask
}

/// `SL107`: a net with loads, no driver, and no input port.
pub(crate) fn check_floating(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let inputs = input_net_mask(circuit);
    for (id, net) in circuit.nets() {
        if circuit.drivers_of(id).is_empty()
            && !circuit.loads_of(id).is_empty()
            && !inputs[id.index()]
        {
            out.push(Finding {
                rule: "SL107",
                severity: Severity::Error,
                path: String::new(),
                nets: vec![net.name.clone()],
                message: format!("net '{}' has loads but no driver and no input port", net.name),
            });
        }
    }
}

/// `SL108`: an output port on an undriven net.
pub(crate) fn check_undriven_outputs(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let inputs = input_net_mask(circuit);
    for p in circuit.output_ports() {
        if circuit.drivers_of(p.net).is_empty() && !inputs[p.net.index()] {
            let name = circuit.net(p.net).name.clone();
            out.push(Finding {
                rule: "SL108",
                severity: Severity::Error,
                path: String::new(),
                nets: vec![name.clone()],
                message: format!("output port '{}' sits on undriven net '{name}'", p.name),
            });
        }
    }
}

/// `SL109`: several always-on drivers on one net. The mixed
/// restoring-plus-shared case is `SL102`'s sneak path; this rule covers
/// the all-restoring conflict, so together they cover every net with
/// more than one driver that cannot release it, without double-reporting.
pub(crate) fn check_driver_conflicts(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    for (id, net) in circuit.nets() {
        let drivers = circuit.drivers_of(id);
        if drivers.len() > 1
            && drivers
                .iter()
                .all(|&d| !circuit.comp(d).kind.is_shared_driver())
        {
            let path = drivers
                .iter()
                .map(|&d| circuit.comp(d).path.as_str())
                .min()
                .unwrap_or("")
                .to_owned();
            out.push(Finding {
                rule: "SL109",
                severity: Severity::Error,
                path,
                nets: vec![net.name.clone()],
                message: format!(
                    "net '{}' has {} always-on drivers; only pass/tri-state \
                     drivers may share a net",
                    net.name,
                    drivers.len()
                ),
            });
        }
    }
}

/// `SL110`: a size label bound by no device.
pub(crate) fn check_unused_labels(circuit: &Circuit, _cfg: &LintConfig, out: &mut Vec<Finding>) {
    let mut used = vec![false; circuit.labels().len()];
    for (_, comp) in circuit.components() {
        for &(_, label) in comp.label_bindings() {
            used[label.index()] = true;
        }
    }
    for (label, name) in circuit.labels().iter() {
        if !used[label.index()] {
            out.push(Finding {
                rule: "SL110",
                severity: Severity::Warning,
                path: String::new(),
                nets: Vec::new(),
                message: format!("size label '{name}' is bound to no device"),
            });
        }
    }
}
