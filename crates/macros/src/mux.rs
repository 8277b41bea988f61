//! The mux chapter of the design database — the six topologies of the
//! paper's Fig. 2, with their default labelings.
//!
//! All generators produce a *non-inverting* mux: `y = d[selected]`. Pass
//! and tri-state topologies expose one select per input (one-hot for the
//! strongly mutexed variants); the 2-input encoded topology takes a single
//! `s` (`s = 0 → d0`, `s = 1 → d1`); domino topologies take `clk` plus
//! one-hot selects.

use smart_netlist::{Circuit, NetKind, Network, Skew};

use crate::helpers::{inverter, input_bus, nor, pass_gate, tristate};

/// The mux topology alternatives of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MuxTopology {
    /// Fig. 2(a): input drivers → pass gates (one-hot selects) → output
    /// driver. Selects must be strongly mutexed.
    StronglyMutexedPass,
    /// Fig. 2(b): last input's select is generated by a NOR of the others,
    /// making the select set strongly mutexed at the cost of select→out
    /// delay.
    WeaklyMutexedPass,
    /// Fig. 2(c): 2-input pass mux with an encoded select (one select wire,
    /// local complement) — no extra select→out gate delay.
    EncodedSelectPass,
    /// Fig. 2(d): tri-state drivers onto a shared node with an output
    /// driver; preferred for large loads / long interconnect.
    Tristate,
    /// Fig. 2(e): all product terms on a single domino node (D1).
    UnsplitDomino,
    /// Fig. 2(f): domino mux split into two partitions of `m` and `n − m`
    /// inputs combined by a static NAND output stage.
    PartitionedDomino,
}

impl MuxTopology {
    /// All topologies, in the paper's Fig. 2 order.
    pub fn all() -> [MuxTopology; 6] {
        [
            MuxTopology::StronglyMutexedPass,
            MuxTopology::WeaklyMutexedPass,
            MuxTopology::EncodedSelectPass,
            MuxTopology::Tristate,
            MuxTopology::UnsplitDomino,
            MuxTopology::PartitionedDomino,
        ]
    }

    /// Short name used in reports (Table 1 rows).
    pub fn name(self) -> &'static str {
        match self {
            MuxTopology::StronglyMutexedPass => "strongly-mutexed-passgate",
            MuxTopology::WeaklyMutexedPass => "weakly-mutexed-passgate",
            MuxTopology::EncodedSelectPass => "2-input-passgate-encoded",
            MuxTopology::Tristate => "tristate",
            MuxTopology::UnsplitDomino => "unsplit-domino",
            MuxTopology::PartitionedDomino => "partitioned-domino",
        }
    }

    /// Whether the topology is clocked (domino).
    pub fn is_domino(self) -> bool {
        matches!(
            self,
            MuxTopology::UnsplitDomino | MuxTopology::PartitionedDomino
        )
    }

    /// Whether the topology supports `width` inputs.
    pub fn supports_width(self, width: usize) -> bool {
        match self {
            MuxTopology::EncodedSelectPass => width == 2,
            MuxTopology::WeaklyMutexedPass | MuxTopology::PartitionedDomino => width >= 3,
            _ => width >= 2,
        }
    }
}

/// Generates an `width`-input mux in the given topology.
///
/// # Panics
///
/// Panics if the topology does not support `width`
/// (see [`MuxTopology::supports_width`]).
pub fn generate(topology: MuxTopology, width: usize) -> Circuit {
    assert!(
        topology.supports_width(width),
        "{} does not support width {width}",
        topology.name()
    );
    match topology {
        MuxTopology::StronglyMutexedPass => strongly_mutexed_pass(width),
        MuxTopology::WeaklyMutexedPass => weakly_mutexed_pass(width),
        MuxTopology::EncodedSelectPass => encoded_select_pass(),
        MuxTopology::Tristate => tristate_mux(width),
        MuxTopology::UnsplitDomino => unsplit_domino(width),
        MuxTopology::PartitionedDomino => partitioned_domino(width, width / 2),
    }
}

/// Fig. 2(a). Default labeling per the paper: input drivers `P1/N1`, pass
/// gates `N2` (shared P/N + fixed-relation local inverter), output driver
/// `P3/N3`.
pub fn strongly_mutexed_pass(n: usize) -> Circuit {
    let mut c = Circuit::new(format!("mux{n}_smpass"));
    let d = input_bus(&mut c, "d", n);
    let s = input_bus(&mut c, "s", n);
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let p3 = c.label("P3");
    let n3 = c.label("N3");
    let shared = c.add_net("node").unwrap();
    for i in 0..n {
        let db = c.add_net(format!("db{i}")).unwrap();
        inverter(&mut c, format!("drv{i}"), d[i], db, p1, n1, Skew::Balanced);
        pass_gate(&mut c, format!("pg{i}"), db, s[i], shared, n2);
    }
    // Output driver: the shared node carries inverted data.
    let y = c.add_net("y").unwrap();
    inverter(&mut c, "outdrv", shared, y, p3, n3, Skew::Balanced);
    c.expose_output("y", y);
    c
}

/// Fig. 2(b). Inputs `0..n-2` selected by their own select; the last input
/// is selected by a NOR (`P4/N4`) of all other selects.
pub fn weakly_mutexed_pass(n: usize) -> Circuit {
    let mut c = Circuit::new(format!("mux{n}_wmpass"));
    let d = input_bus(&mut c, "d", n);
    let s = input_bus(&mut c, "s", n - 1);
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let p3 = c.label("P3");
    let n3 = c.label("N3");
    let p4 = c.label("P4");
    let n4 = c.label("N4");
    let shared = c.add_net("node").unwrap();
    for i in 0..n - 1 {
        let db = c.add_net(format!("db{i}")).unwrap();
        inverter(&mut c, format!("drv{i}"), d[i], db, p1, n1, Skew::Balanced);
        pass_gate(&mut c, format!("pg{i}"), db, s[i], shared, n2);
    }
    // Default select for the last input: NOR of all other selects.
    let s_last = c.add_net("s_default").unwrap();
    nor(&mut c, "sel_nor", &s, s_last, p4, n4);
    let db = c.add_net(format!("db{}", n - 1)).unwrap();
    inverter(
        &mut c,
        format!("drv{}", n - 1),
        d[n - 1],
        db,
        p1,
        n1,
        Skew::Balanced,
    );
    pass_gate(&mut c, format!("pg{}", n - 1), db, s_last, shared, n2);
    let y = c.add_net("y").unwrap();
    inverter(&mut c, "outdrv", shared, y, p3, n3, Skew::Balanced);
    c.expose_output("y", y);
    c
}

/// Fig. 2(c): 2-input pass mux with encoded select. One select wire `s`
/// with a local complement (`P4/N4`); `s = 0` selects `d0`, `s = 1`
/// selects `d1`.
pub fn encoded_select_pass() -> Circuit {
    let mut c = Circuit::new("mux2_encoded");
    let d = input_bus(&mut c, "d", 2);
    let s = input_bus(&mut c, "s", 1)[0];
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let p3 = c.label("P3");
    let n3 = c.label("N3");
    let p4 = c.label("P4");
    let n4 = c.label("N4");
    let sb = c.add_net("sb").unwrap();
    inverter(&mut c, "sel_inv", s, sb, p4, n4, Skew::Balanced);
    let shared = c.add_net("node").unwrap();
    for (i, sel) in [(0usize, sb), (1usize, s)] {
        let db = c.add_net(format!("db{i}")).unwrap();
        inverter(&mut c, format!("drv{i}"), d[i], db, p1, n1, Skew::Balanced);
        pass_gate(&mut c, format!("pg{i}"), db, sel, shared, n2);
    }
    let y = c.add_net("y").unwrap();
    inverter(&mut c, "outdrv", shared, y, p3, n3, Skew::Balanced);
    c.expose_output("y", y);
    c
}

/// Fig. 2(d): tri-state drivers (`P1/N1`) onto a shared node, output
/// driver `P2/N2`. Used for large loads / long interconnect.
pub fn tristate_mux(n: usize) -> Circuit {
    let mut c = Circuit::new(format!("mux{n}_tristate"));
    let d = input_bus(&mut c, "d", n);
    let s = input_bus(&mut c, "s", n);
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let p2 = c.label("P2");
    let n2 = c.label("N2");
    let shared = c.add_net("node").unwrap();
    for i in 0..n {
        tristate(&mut c, format!("tri{i}"), d[i], s[i], shared, p1, n1);
    }
    let y = c.add_net("y").unwrap();
    inverter(&mut c, "outdrv", shared, y, p2, n2, Skew::Balanced);
    c.expose_output("y", y);
    c
}

/// Fig. 2(e): Nx1 un-split domino mux — every `sᵢ·dᵢ` product term on one
/// dynamic node. Labels: precharge `P1`, data `N1`, clocked evaluate `N2`,
/// high-skew output driver `P3/N3`.
pub fn unsplit_domino(n: usize) -> Circuit {
    let mut c = Circuit::new(format!("mux{n}_domino"));
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    c.expose_input("clk", clk);
    let s = input_bus(&mut c, "s", n);
    let d = input_bus(&mut c, "d", n);
    let p1 = c.label("P1");
    let n1 = c.label("N1");
    let n2 = c.label("N2");
    let p3 = c.label("P3");
    let n3 = c.label("N3");
    let dyn_n = c.add_net_kind("dyn", NetKind::Dynamic).unwrap();
    // Data pins: s0..s{n-1}, d0..d{n-1} (selects first).
    let network = Network::Parallel((0..n).map(|i| Network::series_of([i, n + i])).collect());
    let mut conns = vec![clk];
    conns.extend(&s);
    conns.extend(&d);
    conns.push(dyn_n);
    c.add(
        "dom",
        smart_netlist::ComponentKind::Domino {
            network,
            clocked_eval: true,
        },
        &conns,
        &[
            (smart_netlist::DeviceRole::Precharge, p1),
            (smart_netlist::DeviceRole::DataN, n1),
            (smart_netlist::DeviceRole::Evaluate, n2),
        ],
    )
    .expect("generator netlist must be valid");
    let y = c.add_net("y").unwrap();
    inverter(&mut c, "outdrv", dyn_n, y, p3, n3, Skew::High);
    c.expose_output("y", y);
    c
}

/// Fig. 2(f): (m, n−m) partitioned domino mux. Two smaller domino gates
/// (labels `P1/N1/N2` and `P3/N3/N4`) whose precharged-high dynamic nodes
/// are combined by a static NAND (`P5/N5`), which also serves as the
/// output driver.
pub fn partitioned_domino(n: usize, m: usize) -> Circuit {
    assert!(m >= 1 && m < n, "partition sizes must be >= 1");
    let mut c = Circuit::new(format!("mux{n}_split{m}"));
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    c.expose_input("clk", clk);
    let s = input_bus(&mut c, "s", n);
    let d = input_bus(&mut c, "d", n);
    let labels_top = (
        c.label("P1"),
        c.label("N1"),
        c.label("N2"),
    );
    let labels_bot = (
        c.label("P3"),
        c.label("N3"),
        c.label("N4"),
    );
    let p5 = c.label("P5");
    let n5 = c.label("N5");
    let mut dyn_nodes = Vec::new();
    for (part, (range, (lp, ln, le))) in [
        (0usize..m, labels_top),
        (m..n, labels_bot),
    ]
    .into_iter()
    .enumerate()
    {
        let k = range.len();
        let dyn_n = c
            .add_net_kind(format!("dyn{part}"), NetKind::Dynamic)
            .unwrap();
        let network =
            Network::Parallel((0..k).map(|i| Network::series_of([i, k + i])).collect());
        let mut conns = vec![clk];
        conns.extend(range.clone().map(|i| s[i]));
        conns.extend(range.clone().map(|i| d[i]));
        conns.push(dyn_n);
        c.add(
            format!("dom{part}"),
            smart_netlist::ComponentKind::Domino {
                network,
                clocked_eval: true,
            },
            &conns,
            &[
                (smart_netlist::DeviceRole::Precharge, lp),
                (smart_netlist::DeviceRole::DataN, ln),
                (smart_netlist::DeviceRole::Evaluate, le),
            ],
        )
        .expect("generator netlist must be valid");
        dyn_nodes.push(dyn_n);
    }
    // Both nodes precharge high; a selected 1 discharges its node, so
    // y = NAND(dyn0, dyn1) rises exactly when some selected data is 1.
    let y = c.add_net("y").unwrap();
    crate::helpers::nand(&mut c, "combine", &dyn_nodes, y, p5, n5);
    c.expose_output("y", y);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeling_matches_paper_defaults() {
        let c = strongly_mutexed_pass(4);
        for name in ["P1", "N1", "N2", "P3", "N3"] {
            assert!(c.labels().lookup(name).is_some(), "missing label {name}");
        }
        assert_eq!(c.labels().len(), 5, "exactly the Fig 2(a) label set");

        let c = partitioned_domino(8, 4);
        for name in ["P1", "N1", "N2", "P3", "N3", "N4", "P5", "N5"] {
            assert!(c.labels().lookup(name).is_some(), "missing label {name}");
        }
    }

    #[test]
    fn all_topologies_lint_clean() {
        for topo in MuxTopology::all() {
            let width = if topo == MuxTopology::EncodedSelectPass { 2 } else { 4 };
            let issues = smart_lint::lint_circuit(&generate(topo, width)).structural();
            assert!(issues.is_empty(), "{}: {issues:?}", topo.name());
        }
    }

    #[test]
    fn device_counts_scale_with_width() {
        let c4 = unsplit_domino(4);
        let c8 = unsplit_domino(8);
        assert!(c8.device_count() > c4.device_count());
        // Unsplit domino: 1 precharge + 2n data + 1 foot + 2 inverter.
        assert_eq!(c4.device_count(), 1 + 8 + 1 + 2);
    }

    #[test]
    fn partitioned_domino_splits_inputs() {
        let c = partitioned_domino(6, 3);
        // Two domino gates with 6 data devices each (3 sel + 3 data pairs).
        let doms: Vec<_> = c
            .components()
            .filter(|(_, comp)| {
                matches!(comp.kind, smart_netlist::ComponentKind::Domino { .. })
            })
            .collect();
        assert_eq!(doms.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not support width")]
    fn encoded_select_is_two_input_only() {
        let _ = generate(MuxTopology::EncodedSelectPass, 4);
    }
}
