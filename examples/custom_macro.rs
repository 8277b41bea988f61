//! Extending the design database with a designer-provided macro — the
//! paper's §3(i): "Whenever a designer comes up with an implementation
//! not available in the database, it can be incorporated into the
//! database." Also shows designer size pinning (§2).
//!
//! The custom macro here is a 4:1 AOI-merged mux: two pass-gate stages
//! with condition logic merged in (the schematic-editing scenario of §2),
//! built directly on the netlist API, functionally verified with the
//! simulator, then sized with a pinned output stage.
//!
//! ```sh
//! cargo run --example custom_macro
//! ```

use std::collections::BTreeMap;

use smart_datapath::core::{size_circuit, DelaySpec, SizingOptions};
use smart_datapath::lint::lint_circuit;
use smart_datapath::macros::helpers::{input_bus, inverter, pass_gate};
use smart_datapath::macros::Database;
use smart_datapath::models::ModelLibrary;
use smart_datapath::netlist::{Circuit, Skew};
use smart_datapath::sim::harness::evaluate;
use smart_datapath::sim::Logic;
use smart_datapath::sta::Boundary;

/// A 4:1 mux as a 2-level tree of encoded-select pass stages: selects are
/// `s0` (low bit) and `s1` (high bit) instead of one-hot — the kind of
/// condition-logic merge a designer edits into a database schematic.
fn tree_mux4() -> Circuit {
    let mut c = Circuit::new("mux4_tree");
    let d = input_bus(&mut c, "d", 4);
    let s = input_bus(&mut c, "s", 2);
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let p3 = c.label("P3");
    let n3 = c.label("N3");
    let p4 = c.label("P4");
    let n4 = c.label("N4");

    // Select complements.
    let s0b = c.add_net("s0b").unwrap();
    inverter(&mut c, "s0_inv", s[0], s0b, p4, n4, Skew::Balanced);
    let s1b = c.add_net("s1b").unwrap();
    inverter(&mut c, "s1_inv", s[1], s1b, p4, n4, Skew::Balanced);

    // Level 1: two 2:1 encoded-select stages (inverting drivers + pass).
    let mut mids = Vec::new();
    for (g, pair) in [(0usize, [0usize, 1]), (1, [2, 3])] {
        let mid = c.add_net(format!("mid{g}")).unwrap();
        for (k, &i) in pair.iter().enumerate() {
            let db = c.add_net(format!("db{i}")).unwrap();
            inverter(&mut c, format!("drv{i}"), d[i], db, p1, n1, Skew::Balanced);
            let sel = if k == 0 { s0b } else { s[0] };
            pass_gate(&mut c, format!("pg{i}"), db, sel, mid, n2);
        }
        mids.push(mid);
    }
    // Level 2: one 2:1 stage on the (already inverted) mid rails.
    let node = c.add_net("node").unwrap();
    pass_gate(&mut c, "pg_hi0", mids[0], s1b, node, n2);
    pass_gate(&mut c, "pg_hi1", mids[1], s[1], node, n2);
    let y = c.add_net("y").unwrap();
    inverter(&mut c, "outdrv", node, y, p3, n3, Skew::Balanced);
    c.expose_output("y", y);
    c.add_route_parasitics(0.5, 0.8);
    c
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build and register the designer's macro.
    let circuit = tree_mux4();
    // Structurally sound: no mixed drivers (SL102), floating nets,
    // undriven outputs, driver conflicts or unbound labels (SL107–SL110).
    let issues = lint_circuit(&circuit).structural();
    assert!(issues.is_empty(), "{issues:?}");
    let mut db = Database::new();
    db.register("mux4-tree-encoded", circuit.clone());
    println!(
        "registered '{}' ({} transistors) into the database",
        db.custom_names().next().unwrap(),
        circuit.device_count()
    );

    // Functional signoff before admission: y must equal d[s1s0].
    for data in [0b1010u64, 0b0110, 0b0001, 0b1111] {
        for sel in 0..4u64 {
            let mut inputs = BTreeMap::new();
            for i in 0..4 {
                inputs.insert(format!("d{i}"), (data >> i) & 1 == 1);
            }
            inputs.insert("s0".into(), sel & 1 == 1);
            inputs.insert("s1".into(), sel & 2 == 2);
            let out = evaluate(&circuit, &inputs)?;
            let expect = Logic::from_bool((data >> sel) & 1 == 1);
            assert_eq!(out["y"], expect, "data {data:#06b} sel {sel}");
        }
    }
    println!("functional signoff: 16/16 vectors match");

    // Size it, with the output driver pinned by the designer (a noisy
    // neighborhood calls for a deliberately strong driver, §2).
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    boundary.output_loads.insert("y".into(), 20.0);
    let mut opts = SizingOptions::default();
    opts.pinned.insert("P3".into(), 14.0);
    opts.pinned.insert("N3".into(), 7.0);
    let outcome = size_circuit(
        &circuit,
        &lib,
        &boundary,
        &DelaySpec::uniform(300.0),
        &opts,
    )?;
    println!(
        "sized: delay {:.1} ps, width {:.1} (output driver pinned at P3=14, N3=7)",
        outcome.measured_delay, outcome.total_width
    );
    for (label, name) in circuit.labels().iter() {
        println!("  {name:>4} = {:>7.2}", outcome.sizing.width(label));
    }
    Ok(())
}
