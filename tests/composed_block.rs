//! Cross-crate integration on the composed ALU block: functional
//! verification over randomized vectors, end-to-end sizing of the whole
//! netlist, and consistency of composed-circuit analyses.

use smart_datapath::blocks::alu_slice;
use smart_datapath::core::{minimize_delay, size_circuit, DelaySpec, SizingOptions};
use smart_datapath::lint::lint_circuit;
use smart_datapath::models::ModelLibrary;
use smart_datapath::power::{estimate, ActivityProfile};
use smart_datapath::sim::harness::{read_bus, set_bus};
use smart_datapath::sim::{Logic, Simulator};
use smart_datapath::sta::Boundary;
use smart_prng::Prng;

const BITS: usize = 4;

fn run_vector(sim: &mut Simulator<'_>, a: u64, b: u64, sh: u64, op: bool, cin: bool) -> (u64, bool) {
    sim.set("clk", Logic::Zero).unwrap();
    set_bus(sim, "a", BITS, 0).unwrap();
    set_bus(sim, "b", BITS, 0).unwrap();
    sim.set("cin", Logic::Zero).unwrap();
    sim.settle().unwrap();
    set_bus(sim, "a", BITS, a).unwrap();
    set_bus(sim, "b", BITS, b).unwrap();
    set_bus(sim, "sh", 2, sh).unwrap();
    sim.set("op", Logic::from_bool(op)).unwrap();
    sim.set("cin", Logic::from_bool(cin)).unwrap();
    sim.settle().unwrap();
    sim.set("clk", Logic::One).unwrap();
    sim.settle().unwrap();
    let r = read_bus(sim, "r", BITS).unwrap().expect("resolved");
    let z = sim.get("zd_z").unwrap() == Logic::One;
    (r, z)
}

#[test]
fn composed_alu_is_functionally_correct_over_random_vectors() {
    let alu = alu_slice(BITS);
    let issues = lint_circuit(&alu).structural();
    assert!(issues.is_empty(), "{issues:?}");
    let mut sim = Simulator::new(&alu);
    let mut rng = Prng::new(0xA1_57);
    let mask = (1u64 << BITS) - 1;
    for _ in 0..40 {
        let a = rng.u64_below(mask + 1);
        let b = rng.u64_below(mask + 1);
        let sh = rng.u64_below(BITS as u64);
        let op = rng.bool();
        let cin = rng.bool();
        let (r, z) = run_vector(&mut sim, a, b, sh, op, cin);
        let expect = if op {
            ((a << sh) | (a >> (BITS as u64 - sh).min(63))) & mask
        } else {
            (a + b + cin as u64) & mask
        };
        assert_eq!(r, expect, "a={a} b={b} sh={sh} op={op} cin={cin}");
        assert_eq!(z, expect == 0);
    }
}

#[test]
fn composed_alu_sizes_end_to_end() {
    let alu = alu_slice(BITS);
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    for name in ["r0", "r1", "r2", "r3", "zd_z"] {
        boundary.output_loads.insert(name.into(), 10.0);
    }
    let opts = SizingOptions::default();
    let (t_star, fastest) = minimize_delay(&alu, &lib, &boundary, &opts).expect("t*");
    assert!(t_star > 0.0);
    let relaxed = size_circuit(
        &alu,
        &lib,
        &boundary,
        &DelaySpec::uniform(t_star * 1.6),
        &opts,
    )
    .expect("relaxed sizing");
    assert!(relaxed.measured_delay <= t_star * 1.6 * 1.01);
    assert!(
        relaxed.total_width < fastest.total_width,
        "relaxing the spec must shed width: {} vs {}",
        relaxed.total_width,
        fastest.total_width
    );
    // The composed netlist's power responds to the sizing too.
    let act = ActivityProfile::default();
    let p_fast = estimate(&alu, &lib, &fastest.sizing, &act).total();
    let p_relaxed = estimate(&alu, &lib, &relaxed.sizing, &act).total();
    assert!(p_relaxed < p_fast);
}

#[test]
fn composition_preserves_per_macro_path_structure() {
    // The composed block's raw path count must exceed each constituent's
    // (paths run through macro boundaries), and compaction must still
    // produce a workable constraint set.
    use smart_datapath::core::compaction_stats;
    use smart_datapath::macros::MacroSpec;
    let lib = ModelLibrary::reference();
    let opts = SizingOptions::default();
    let alu = alu_slice(BITS);
    let adder = MacroSpec::ClaAdder { width: BITS }.generate();
    let b = Boundary::default();
    let s_alu = compaction_stats(&alu, &lib, &b, &opts).unwrap();
    let s_add = compaction_stats(&adder, &lib, &b, &opts).unwrap();
    assert!(s_alu.raw_paths > s_add.raw_paths);
    assert!(s_alu.classes.len() < 2000);
    assert!(s_alu.ratio() >= 2.0);
}
