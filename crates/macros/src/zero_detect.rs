//! Zero-detect macros (the circuits of the paper's Fig. 5(b)): `z = 1`
//! iff the whole input bus is zero.

use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetKind, Network, Skew};

use crate::helpers::{input_bus, inverter, or_tree};

/// Implementation style for a zero-detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZeroDetectStyle {
    /// Static alternating NOR/NAND reduction tree.
    Static,
    /// Domino: D1 wide-OR gates (≤ 8 bits each) feeding a D2 combining
    /// stage — the fast variant used on critical zero-flags.
    Domino,
}

/// Generates an `width`-bit zero-detect in the given style. The output
/// port is `z` (active high when all inputs are 0); domino variants also
/// take a `clk` port.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn zero_detect(width: usize, style: ZeroDetectStyle) -> Circuit {
    assert!(width > 0, "zero-detect width must be positive");
    match style {
        ZeroDetectStyle::Static => zero_detect_static(width),
        ZeroDetectStyle::Domino => zero_detect_domino(width),
    }
}

fn zero_detect_static(width: usize) -> Circuit {
    let mut c = Circuit::new(format!("zd{width}_static"));
    let a = input_bus(&mut c, "a", width);
    let any = or_tree(&mut c, "or", &a, "TP", "TN");
    let z = c.add_net("z").unwrap();
    let zp = c.label("ZP");
    let zn = c.label("ZN");
    inverter(&mut c, "zinv", any, z, zp, zn, Skew::Balanced);
    c.expose_output("z", z);
    c
}

fn zero_detect_domino(width: usize) -> Circuit {
    let mut c = Circuit::new(format!("zd{width}_domino"));
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    c.expose_input("clk", clk);
    let a = input_bus(&mut c, "a", width);
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let hp = c.label("HP");
    let hn = c.label("HN");

    // D1 level: wide domino ORs over groups of up to 8 bits.
    let mut group_nz = Vec::new();
    for (g, chunk) in a.chunks(8).enumerate() {
        let dyn_n = c
            .add_net_kind(format!("dyn1_{g}"), NetKind::Dynamic)
            .unwrap();
        let network = Network::parallel_of(0..chunk.len());
        let mut conns = vec![clk];
        conns.extend(chunk);
        conns.push(dyn_n);
        c.add(
            format!("d1_{g}"),
            ComponentKind::Domino {
                network,
                clocked_eval: true,
            },
            &conns,
            &[
                (DeviceRole::Precharge, p1),
                (DeviceRole::DataN, n1),
                (DeviceRole::Evaluate, n2),
            ],
        )
        .expect("generator netlist must be valid");
        let nz = c.add_net(format!("nz{g}")).unwrap();
        inverter(&mut c, format!("h1_{g}"), dyn_n, nz, hp, hn, Skew::High);
        group_nz.push(nz);
    }

    // D2 level: one unfooted domino OR over the group flags; its dynamic
    // node stays high exactly when every group is zero.
    let z = c.add_net("z").unwrap();
    if group_nz.len() == 1 {
        // Single group: z = !nz.
        let zp = c.label("ZP");
        let zn = c.label("ZN");
        inverter(&mut c, "zinv", group_nz[0], z, zp, zn, Skew::Balanced);
    } else {
        let p3 = c.label("P3");
        let n3 = c.label("N3");
        let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
        let mut conns = vec![clk];
        conns.extend(&group_nz);
        conns.push(dyn2);
        c.add(
            "d2",
            ComponentKind::Domino {
                network: Network::parallel_of(0..group_nz.len()),
                clocked_eval: false,
            },
            &conns,
            &[(DeviceRole::Precharge, p3), (DeviceRole::DataN, n3)],
        )
        .expect("generator netlist must be valid");
        // dyn2 is already the zero flag (high = zero); buffer it with two
        // inverters to present a driven static output.
        let hp2 = c.label("HP2");
        let hn2 = c.label("HN2");
        let nzall = c.add_net("nz_all").unwrap();
        inverter(&mut c, "h2", dyn2, nzall, hp2, hn2, Skew::High);
        let zp = c.label("ZP");
        let zn = c.label("ZN");
        inverter(&mut c, "zinv", nzall, z, zp, zn, Skew::Balanced);
    }
    c.expose_output("z", z);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_variants_lint_clean() {
        for w in [1, 3, 6, 8, 16, 22, 63] {
            let c = zero_detect(w, ZeroDetectStyle::Static);
            let issues = smart_lint::lint_circuit(&c).structural();
            assert!(issues.is_empty(), "width {w}: {issues:?}");
        }
    }

    #[test]
    fn domino_variants_lint_clean() {
        for w in [6, 8, 16, 32, 63] {
            let c = zero_detect(w, ZeroDetectStyle::Domino);
            let issues = smart_lint::lint_circuit(&c).structural();
            assert!(issues.is_empty(), "width {w}: {issues:?}");
        }
    }

    #[test]
    fn domino_group_count() {
        let c = zero_detect(22, ZeroDetectStyle::Domino);
        let d1_count = c
            .components()
            .filter(|(_, comp)| matches!(comp.kind, ComponentKind::Domino { .. }))
            .count();
        assert_eq!(d1_count, 4, "three 8-bit D1 groups (8+8+6) plus one D2");
    }
}
