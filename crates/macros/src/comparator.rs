//! Two-stage dynamic (D1-D2) equality comparator — the macro of the
//! paper's Fig. 7 topology-exploration example.
//!
//! Stage D1 (clock-footed): "XorsumK" domino gates, each detecting a
//! mismatch across K bit pairs via dual-rail branches
//! `aⱼ·b̄ⱼ + āⱼ·bⱼ`. Stage D2 (unfooted): domino NOR gates over the
//! group-mismatch flags. Precharged-high D2 nodes are combined by a static
//! NAND + inverter into the final `eq` flag.

use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetId, NetKind, Network, Skew};

use crate::helpers::{input_bus, inverter, nand};

/// One comparator topology: how many bit pairs each D1 Xorsum gate covers
/// and the fan-in of the D2 NOR stage. The Fig. 7 candidates:
///
/// | variant | D1 | D2 |
/// |---|---|---|
/// | `merced()` (original) | Xorsum2 | Nor4 |
/// | `xorsum1_nor8()` | Xorsum1 | Nor8 |
/// | `xorsum4_nor4()` | Xorsum4 | Nor4 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComparatorVariant {
    /// Bit pairs per D1 Xorsum gate.
    pub xorsum: usize,
    /// Mismatch flags per D2 NOR gate.
    pub d2_fanin: usize,
}

impl ComparatorVariant {
    /// The original hand-designed topology of the paper's example
    /// (D1 Xorsum2 → D2 Nor4).
    pub fn merced() -> Self {
        ComparatorVariant {
            xorsum: 2,
            d2_fanin: 4,
        }
    }

    /// Exploration alternative: one bit pair per D1 gate, wide D2 NOR8.
    pub fn xorsum1_nor8() -> Self {
        ComparatorVariant {
            xorsum: 1,
            d2_fanin: 8,
        }
    }

    /// Exploration alternative: four bit pairs per D1 gate, D2 Nor4.
    pub fn xorsum4_nor4() -> Self {
        ComparatorVariant {
            xorsum: 4,
            d2_fanin: 4,
        }
    }

    /// The Fig. 7 exploration set, original first.
    pub fn exploration_set() -> [ComparatorVariant; 3] {
        [
            Self::merced(),
            Self::xorsum1_nor8(),
            Self::xorsum4_nor4(),
        ]
    }

    /// Report name, e.g. `"xorsum2-nor4"`.
    pub fn name(&self) -> String {
        format!("xorsum{}-nor{}", self.xorsum, self.d2_fanin)
    }
}

/// Generates a `width`-bit equality comparator in the given variant.
///
/// Ports: `clk`, `a0..`, `b0..`; output `eq` (high after evaluate iff
/// `a == b`).
///
/// # Panics
///
/// Panics if `width` is not divisible by `variant.xorsum`.
pub fn comparator(width: usize, variant: ComparatorVariant) -> Circuit {
    assert!(width > 0, "comparator width must be positive");
    assert_eq!(
        width % variant.xorsum,
        0,
        "width {width} not divisible by xorsum {}",
        variant.xorsum
    );
    let mut c = Circuit::new(format!("cmp{width}_{}", variant.name()));
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    c.expose_input("clk", clk);
    let a = input_bus(&mut c, "a", width);
    let b = input_bus(&mut c, "b", width);
    let ap = c.label("AP");
    let an = c.label("AN");

    // Complement rails (static; safe for clock-footed D1 inputs).
    let abar: Vec<NetId> = (0..width)
        .map(|i| {
            let net = c.add_net(format!("ab{i}")).unwrap();
            inverter(&mut c, format!("acomp{i}"), a[i], net, ap, an, Skew::Balanced);
            net
        })
        .collect();
    let bbar: Vec<NetId> = (0..width)
        .map(|i| {
            let net = c.add_net(format!("bb{i}")).unwrap();
            inverter(&mut c, format!("bcomp{i}"), b[i], net, ap, an, Skew::Balanced);
            net
        })
        .collect();

    // D1: Xorsum gates.
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let h1p = c.label("H1P");
    let h1n = c.label("H1N");
    let k = variant.xorsum;
    let groups = width / k;
    let mut mismatch = Vec::with_capacity(groups);
    for g in 0..groups {
        let dyn_n = c
            .add_net_kind(format!("dyn1_{g}"), NetKind::Dynamic)
            .unwrap();
        // Pins per bit t: a, bbar, abar, b at indices 4t..4t+3.
        let network = Network::Parallel(
            (0..k)
                .flat_map(|t| {
                    [
                        Network::series_of([4 * t, 4 * t + 1]),
                        Network::series_of([4 * t + 2, 4 * t + 3]),
                    ]
                })
                .collect(),
        );
        let mut conns = vec![clk];
        for t in 0..k {
            let bit = g * k + t;
            conns.extend([a[bit], bbar[bit], abar[bit], b[bit]]);
        }
        conns.push(dyn_n);
        c.add(
            format!("xorsum{g}"),
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
        let m = c.add_net(format!("m{g}")).unwrap();
        inverter(&mut c, format!("h1_{g}"), dyn_n, m, h1p, h1n, Skew::High);
        mismatch.push(m);
    }

    // D2: unfooted domino NORs over the mismatch flags; the dynamic node
    // stays precharged-high exactly when its subset matched.
    let p3 = c.label("P3");
    let n3 = c.label("N3");
    let mut d2_nodes = Vec::new();
    for (j, chunk) in mismatch.chunks(variant.d2_fanin).enumerate() {
        let dyn2 = c
            .add_net_kind(format!("dyn2_{j}"), NetKind::Dynamic)
            .unwrap();
        let mut conns = vec![clk];
        conns.extend(chunk);
        conns.push(dyn2);
        c.add(
            format!("d2_{j}"),
            ComponentKind::Domino {
                network: Network::parallel_of(0..chunk.len()),
                clocked_eval: false,
            },
            &conns,
            &[(DeviceRole::Precharge, p3), (DeviceRole::DataN, n3)],
        )
        .expect("generator netlist must be valid");
        d2_nodes.push(dyn2);
    }

    // Final static combine: eq = AND of all precharged-high D2 nodes.
    let p5 = c.label("P5");
    let n5 = c.label("N5");
    let op = c.label("OP");
    let on = c.label("ON");
    let eq = c.add_net("eq").unwrap();
    if d2_nodes.len() == 1 {
        let nb = c.add_net("eqb").unwrap();
        inverter(&mut c, "combine", d2_nodes[0], nb, p5, n5, Skew::Balanced);
        inverter(&mut c, "outdrv", nb, eq, op, on, Skew::Balanced);
    } else {
        let nb = c.add_net("eqb").unwrap();
        nand(&mut c, "combine", &d2_nodes, nb, p5, n5);
        inverter(&mut c, "outdrv", nb, eq, op, on, Skew::Balanced);
    }
    c.expose_output("eq", eq);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_lint_clean() {
        for v in ComparatorVariant::exploration_set() {
            let c = comparator(32, v);
            let issues = smart_lint::lint_circuit(&c).structural();
            assert!(issues.is_empty(), "{}: {issues:?}", v.name());
        }
    }

    #[test]
    fn gate_counts_follow_variant() {
        let count_domino = |c: &Circuit| {
            c.components()
                .filter(|(_, comp)| matches!(comp.kind, ComponentKind::Domino { .. }))
                .count()
        };
        // Xorsum2/Nor4: 16 D1 + 4 D2 = 20 domino gates.
        let c = comparator(32, ComparatorVariant::merced());
        assert_eq!(count_domino(&c), 20);
        // Xorsum1/Nor8: 32 D1 + 4 D2 = 36.
        let c = comparator(32, ComparatorVariant::xorsum1_nor8());
        assert_eq!(count_domino(&c), 36);
        // Xorsum4/Nor4: 8 D1 + 2 D2 = 10.
        let c = comparator(32, ComparatorVariant::xorsum4_nor4());
        assert_eq!(count_domino(&c), 10);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_width_rejected() {
        let _ = comparator(10, ComparatorVariant::xorsum4_nor4());
    }
}
