//! Full-pipeline integration: database → functional signoff → baseline →
//! SMART sizing → timing/power verification, across crates.

use std::collections::BTreeMap;

use smart_datapath::core::{
    baseline_sizing, size_circuit, BaselineMargins, DelaySpec, SizingOptions,
};
use smart_datapath::lint::lint_circuit;
use smart_datapath::macros::{MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_datapath::models::ModelLibrary;
use smart_datapath::netlist::spice::to_spice;
use smart_datapath::power::{estimate, ActivityProfile};
use smart_datapath::sim::harness::evaluate;
use smart_datapath::sim::Logic;
use smart_datapath::sta::{max_delay, Boundary};

fn boundary_for(circuit: &smart_datapath::netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in circuit.output_ports() {
        b.output_loads.insert(p.name.clone(), load);
    }
    b
}

/// The complete advisor journey on one macro: everything a designer
/// would run, end to end.
#[test]
fn full_pipeline_on_a_domino_mux() {
    let spec = MacroSpec::Mux {
        topology: MuxTopology::UnsplitDomino,
        width: 4,
    };
    let circuit = spec.generate();

    // 1. Structural signoff.
    let issues = lint_circuit(&circuit).structural();
    assert!(issues.is_empty(), "{issues:?}");

    // 2. Functional signoff (two-phase protocol handled by the harness).
    for data in [0b1010u64, 0b0110] {
        for sel in 0..4 {
            let mut inputs = BTreeMap::new();
            for i in 0..4 {
                inputs.insert(format!("d{i}"), (data >> i) & 1 == 1);
                inputs.insert(format!("s{i}"), i == sel);
            }
            let out = evaluate(&circuit, &inputs).unwrap();
            assert_eq!(out["y"], Logic::from_bool((data >> sel) & 1 == 1));
        }
    }

    // 3. Baseline (hand design) + measurement.
    let lib = ModelLibrary::reference();
    let boundary = boundary_for(&circuit, 18.0);
    let base = baseline_sizing(&circuit, &lib, &boundary, &BaselineMargins::default());
    let base_delay = max_delay(&circuit, &lib, &base, &boundary).unwrap();
    let base_power = estimate(&circuit, &lib, &base, &ActivityProfile::default());

    // 4. SMART re-size at matched delay.
    let outcome = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(base_delay),
        &SizingOptions::default(),
    )
    .unwrap();
    assert!(outcome.measured_delay <= base_delay * 1.02);
    assert!(outcome.total_width < circuit.total_width(&base));

    // 5. Power and clock load improve together on a domino macro.
    let smart_power = estimate(&circuit, &lib, &outcome.sizing, &ActivityProfile::default());
    assert!(smart_power.total() < base_power.total());
    assert!(circuit.clock_load(&outcome.sizing) < circuit.clock_load(&base));

    // 6. The sized design exports to a well-formed SPICE deck.
    let deck = to_spice(&circuit, &outcome.sizing);
    assert!(deck.contains(".subckt"));
    assert!(deck.contains(".ends"));
    let m_lines = deck.lines().filter(|l| l.starts_with('M')).count();
    assert_eq!(m_lines, circuit.device_count());
}

/// The §6.1 protocol delivers material savings on every macro family the
/// paper evaluates, and dominos save clock load too.
#[test]
fn savings_hold_across_macro_families() {
    let lib = ModelLibrary::reference();
    let cases: Vec<(MacroSpec, f64)> = vec![
        (MacroSpec::Incrementor { width: 8 }, 12.0),
        (
            MacroSpec::ZeroDetect {
                width: 16,
                style: ZeroDetectStyle::Domino,
            },
            12.0,
        ),
        (MacroSpec::Decoder { in_bits: 3 }, 8.0),
        (
            MacroSpec::Mux {
                topology: MuxTopology::Tristate,
                width: 4,
            },
            20.0,
        ),
        (MacroSpec::PriorityEncoder { out_bits: 2 }, 10.0),
        (MacroSpec::RegFileRead { words: 4, bits: 2 }, 10.0),
    ];
    for (spec, load) in cases {
        let circuit = spec.generate();
        let boundary = boundary_for(&circuit, load);
        let base = baseline_sizing(&circuit, &lib, &boundary, &BaselineMargins::default());
        let base_delay = max_delay(&circuit, &lib, &base, &boundary).unwrap();
        let outcome = size_circuit(
            &circuit,
            &lib,
            &boundary,
            &DelaySpec::uniform(base_delay),
            &SizingOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{spec}: {e}"));
        let savings = 1.0 - outcome.total_width / circuit.total_width(&base);
        assert!(
            savings > 0.03,
            "{spec}: expected material savings, got {:.1}%",
            savings * 100.0
        );
        assert!(
            savings < 0.90,
            "{spec}: implausible savings {:.1}% — baseline degenerate?",
            savings * 100.0
        );
    }
}

/// The functional behaviour of a macro is invariant under re-sizing (the
/// sizer must never change logic, only widths).
#[test]
fn sizing_preserves_function() {
    let spec = MacroSpec::ClaAdder { width: 6 };
    let circuit = spec.generate();
    let lib = ModelLibrary::reference();
    let boundary = boundary_for(&circuit, 10.0);
    let outcome = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(1500.0),
        &SizingOptions::default(),
    )
    .unwrap();
    // Widths changed...
    assert!(outcome.total_width > 0.0);
    // ...but the netlist still adds (simulation is size-independent in
    // this IR by construction; this guards against any future flow step
    // mutating connectivity).
    for (a, b, cin) in [(13u64, 50u64, false), (63, 1, true), (0, 0, false)] {
        let mut inputs = BTreeMap::new();
        for i in 0..6 {
            inputs.insert(format!("a{i}"), (a >> i) & 1 == 1);
            inputs.insert(format!("b{i}"), (b >> i) & 1 == 1);
        }
        inputs.insert("cin0".into(), cin);
        let out = evaluate(&circuit, &inputs).unwrap();
        let total = a + b + cin as u64;
        for i in 0..6 {
            assert_eq!(
                out[&format!("s{i}")],
                Logic::from_bool((total >> i) & 1 == 1),
                "{a}+{b}+{cin} bit {i}"
            );
        }
        assert_eq!(out["cout"], Logic::from_bool(total > 63));
    }
}

/// Cost metric changes the solution: optimizing for power shifts width
/// away from clocked devices relative to the width-optimal answer.
#[test]
fn power_objective_prefers_lighter_clock() {
    use smart_datapath::core::CostMetric;
    let circuit = MacroSpec::Mux {
        topology: MuxTopology::UnsplitDomino,
        width: 8,
    }
    .generate();
    let lib = ModelLibrary::reference();
    let boundary = boundary_for(&circuit, 25.0);
    let spec = DelaySpec::uniform(400.0);
    let width_opt = size_circuit(&circuit, &lib, &boundary, &spec, &SizingOptions::default())
        .expect("width objective");
    let popts = SizingOptions {
        cost: CostMetric::Power,
        ..Default::default()
    };
    let power_opt =
        size_circuit(&circuit, &lib, &boundary, &spec, &popts).expect("power objective");
    let act = ActivityProfile::default();
    let p_width = estimate(&circuit, &lib, &width_opt.sizing, &act).total();
    let p_power = estimate(&circuit, &lib, &power_opt.sizing, &act).total();
    assert!(
        p_power <= p_width * 1.001,
        "power objective must not cost power: {p_power} vs {p_width}"
    );
}
