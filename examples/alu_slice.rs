//! A composed datapath block: an ALU slice assembled from database macros
//! with `Circuit::instantiate`, then functionally verified, sized
//! **end-to-end as one netlist**, and timed — the block-level workflow
//! the paper's §6.4 performs on real designs, here with true netlist
//! composition rather than per-macro aggregation.
//!
//! Structure (width-parameterized, default 8 bits):
//!
//! ```text
//!   a, b ──► domino CLA adder ──► sum ─┐
//!   a, s ──► barrel rotator   ──► rot ─┼─► per-bit 2:1 pass mux ──► r
//!                                      │            ▲
//!                                      │        op select
//!                                      └─► zero-detect(r) ──► z
//! ```
//!
//! ```sh
//! cargo run --release --example alu_slice [bits]
//! ```

use smart_datapath::blocks::alu_slice;
use smart_datapath::core::{size_circuit, DelaySpec, SizingOptions};
use smart_datapath::lint::lint_circuit;
use smart_datapath::models::ModelLibrary;
use smart_datapath::sim::harness::{read_bus, set_bus};
use smart_datapath::sim::{Logic, Simulator};
use smart_datapath::sta::Boundary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let alu = alu_slice(bits);
    println!(
        "composed ALU slice: {} components, {} transistors, {} size labels, lint errors: {}",
        alu.component_count(),
        alu.device_count(),
        alu.labels().len(),
        lint_circuit(&alu).errors()
    );

    // Functional spot checks through the two-phase protocol.
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let abits = bits.trailing_zeros() as usize;
    let mut sim = Simulator::new(&alu);
    for (av, bv, shv, opv) in [(23u64, 42u64, 0u64, false), (0x2C & mask, 0, 3, true), (mask, 1, 0, false)] {
        sim.set("clk", Logic::Zero)?;
        set_bus(&mut sim, "a", bits, 0)?;
        set_bus(&mut sim, "b", bits, 0)?;
        sim.set("cin", Logic::Zero)?;
        sim.settle()?;
        set_bus(&mut sim, "a", bits, av)?;
        set_bus(&mut sim, "b", bits, bv)?;
        set_bus(&mut sim, "sh", abits, shv)?;
        sim.set("op", Logic::from_bool(opv))?;
        sim.settle()?;
        sim.set("clk", Logic::One)?;
        sim.settle()?;
        let got = read_bus(&sim, "r", bits)?.expect("resolved result");
        let expect = if opv {
            ((av << shv) | (av >> (bits as u64 - shv).min(63))) & mask
        } else {
            (av + bv) & mask
        };
        assert_eq!(got, expect, "a={av} b={bv} sh={shv} op={opv}");
        let z = sim.get("zd_z")?;
        assert_eq!(z, Logic::from_bool(expect == 0));
        println!(
            "  op={} a={av:#x} b={bv:#x} sh={shv} -> r={got:#x} z={z}",
            if opv { "rot" } else { "add" }
        );
    }

    // Size the whole block end-to-end as one netlist.
    let lib = ModelLibrary::reference();
    let mut boundary = Boundary::default();
    for p in alu.output_ports() {
        boundary.output_loads.insert(p.name.clone(), 10.0);
    }
    let opts = SizingOptions::default();
    let (t_star, _) = smart_datapath::core::minimize_delay(&alu, &lib, &boundary, &opts)?;
    let budget = t_star * 1.25;
    let outcome = size_circuit(&alu, &lib, &boundary, &DelaySpec::uniform(budget), &opts)?;
    println!(
        "\nsized end-to-end: {:.1} ps (budget {budget:.0}), total width {:.1}",
        outcome.measured_delay, outcome.total_width
    );
    println!(
        "paths: {} raw -> {} constraints; {} Fig.-4 iterations",
        outcome.raw_paths, outcome.constraint_paths, outcome.iterations
    );
    Ok(())
}
