//! Designer-facing sizing report: the advisory output a SMART user reads
//! after a run — per-label widths, the measured timing, the critical path
//! walk, and which constraints are binding.

use std::fmt::Write as _;

use smart_models::ModelLibrary;
use smart_netlist::Circuit;
use smart_sta::{analyze, Boundary};

use crate::{Exploration, FlowError, SizingOutcome};

/// Renders a plain-text advisory report for a completed sizing run.
///
/// Sections: summary (delay/width/paths), label table (sorted by width,
/// with each label's share of the total), and the critical path with
/// per-stage arrival times — the view a designer uses to decide whether to
/// accept the solution or pin and re-run (paper Fig. 1's "designer can
/// further tune the design if needed").
///
/// # Errors
///
/// Propagates STA failures (the circuit was already analyzable during
/// sizing, so this only fails if inputs changed since).
pub fn sizing_report(
    circuit: &Circuit,
    lib: &ModelLibrary,
    boundary: &Boundary,
    outcome: &SizingOutcome,
) -> Result<String, FlowError> {
    let mut out = String::new();
    let _ = writeln!(out, "== SMART sizing report: {} ==", circuit.name());
    let _ = writeln!(
        out,
        "delay     : {:.1} ps data/evaluate, {:.1} ps precharge",
        outcome.measured_delay, outcome.measured_precharge
    );
    let _ = writeln!(
        out,
        "width     : {:.1} total over {} transistors ({} components)",
        outcome.total_width,
        circuit.device_count(),
        circuit.component_count()
    );
    let _ = writeln!(
        out,
        "paths     : {} raw -> {} constraints; {} outer iteration(s)",
        outcome.raw_paths, outcome.constraint_paths, outcome.iterations
    );
    let _ = writeln!(
        out,
        "clock load: {:.1}",
        circuit.clock_load(&outcome.sizing)
    );

    // Label table sorted by width contribution.
    let mut rows: Vec<(String, f64, f64)> = circuit
        .labels()
        .iter()
        .map(|(label, name)| {
            let w = outcome.sizing.width(label);
            // Total width contributed by devices bound to this label.
            let contrib: f64 = circuit
                .components()
                .map(|(_, comp)| {
                    comp.kind
                        .roles()
                        .iter()
                        .filter(|r| comp.label_of(r.role) == label)
                        .map(|r| w * r.width_factor * r.mult as f64)
                        .sum::<f64>()
                })
                .sum();
            (name.to_owned(), w, contrib)
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    let _ = writeln!(out, "\n{:<16} {:>9} {:>12} {:>7}", "label", "width", "total width", "share");
    for (name, w, contrib) in &rows {
        let _ = writeln!(
            out,
            "{:<16} {:>9.2} {:>12.1} {:>6.1}%",
            name,
            w,
            contrib,
            100.0 * contrib / outcome.total_width
        );
    }

    // Critical path walk.
    let report = analyze(circuit, lib, &outcome.sizing, boundary)?;
    if let Some((node, arrival)) = report.worst_over(circuit.output_ports().map(|p| p.net)) {
        let _ = writeln!(
            out,
            "\ncritical path ({:.1} ps to {}):",
            arrival.time,
            circuit.net(node.net).name
        );
        for step in report.path_to(circuit, node) {
            let _ = writeln!(
                out,
                "  {:>8.1} ps  {:?} of {}  -> {}",
                step.time,
                step.node.edge,
                step.comp_path,
                circuit.net(step.node.net).name
            );
        }
    }
    Ok(out)
}

/// Renders the Fig.-1 exploration table as a designer-facing summary:
/// one row per candidate in database order (width / power / delay for
/// feasible rows, the failure taxonomy tag otherwise), the best-by-width
/// and best-by-power winners, and the sweep's sizing-cache statistics.
pub fn exploration_report(table: &Exploration) -> String {
    let mut out = String::new();
    let best_w = table.best_by_width().map(|c| c as *const _);
    let best_p = table.best_by_power().map(|c| c as *const _);
    let _ = writeln!(
        out,
        "== SMART exploration: {} candidate(s), {} feasible ==",
        table.candidates.len(),
        table.feasible_count()
    );
    let _ = writeln!(
        out,
        "{:<4} {:<34} {:>9} {:>9} {:>9}  notes",
        "#", "candidate", "width", "power", "delay"
    );
    for (i, c) in table.candidates.iter().enumerate() {
        let mut notes = Vec::new();
        if best_w == Some(c as *const _) {
            notes.push("best width");
        }
        if best_p == Some(c as *const _) {
            notes.push("best power");
        }
        match &c.result {
            Ok(m) => {
                let _ = writeln!(
                    out,
                    "{i:<4} {:<34} {:>9.1} {:>9.1} {:>7.1}ps  {}",
                    c.spec.to_string(),
                    m.outcome.total_width,
                    m.power.total(),
                    m.outcome.measured_delay,
                    notes.join(", ")
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "{i:<4} {:<34} {:>9} {:>9} {:>9}  {}",
                    c.spec.to_string(),
                    "-",
                    "-",
                    "-",
                    e.taxonomy()
                );
            }
        }
    }
    if !table.failure_taxonomy().is_empty() {
        let _ = writeln!(out, "failures  : {:?}", table.failure_taxonomy());
    }
    if table.cache_hits + table.cache_negative_hits + table.cache_misses > 0 {
        let _ = writeln!(
            out,
            "cache     : {} hit(s), {} negative hit(s), {} miss(es) this sweep",
            table.cache_hits, table.cache_negative_hits, table.cache_misses
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{size_circuit, DelaySpec, SizingOptions};
    use smart_macros::{MacroSpec, MuxTopology};

    #[test]
    fn report_contains_every_section() {
        let circuit = MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 4,
        }
        .generate();
        let lib = ModelLibrary::reference();
        let mut boundary = Boundary::default();
        boundary.output_loads.insert("y".into(), 15.0);
        let outcome = size_circuit(
            &circuit,
            &lib,
            &boundary,
            &DelaySpec::uniform(300.0),
            &SizingOptions::default(),
        )
        .unwrap();
        let text = sizing_report(&circuit, &lib, &boundary, &outcome).unwrap();
        assert!(text.contains("SMART sizing report"));
        assert!(text.contains("critical path"));
        for (_, name) in circuit.labels().iter() {
            assert!(text.contains(name), "label {name} missing from report");
        }
        // Shares sum to ~100%.
        let total: f64 = text
            .lines()
            .filter_map(|l| l.trim_end().strip_suffix('%'))
            .filter_map(|l| l.split_whitespace().last())
            .filter_map(|v| v.parse::<f64>().ok())
            .sum();
        assert!((total - 100.0).abs() < 1.0, "shares sum to {total}");
    }

    #[test]
    fn exploration_report_lists_rows_winners_and_cache_stats() {
        use std::sync::Arc;
        let request = MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 4,
        };
        let lib = ModelLibrary::reference();
        let mut boundary = Boundary::default();
        boundary.output_loads.insert("y".into(), 15.0);
        let mut opts = SizingOptions::default();
        opts.cache = Some(Arc::new(crate::SizingCache::new()));
        let table = crate::explore_parallel(
            &request,
            &lib,
            &boundary,
            &DelaySpec::uniform(400.0),
            &opts,
            &crate::ParallelOptions::serial(),
        );
        let text = exploration_report(&table);
        assert!(text.contains("SMART exploration"));
        assert!(text.contains("best width"), "{text}");
        assert!(text.contains("cache     :"), "{text}");
        for c in &table.candidates {
            assert!(text.contains(&c.spec.to_string()), "{text}");
        }
    }
}
