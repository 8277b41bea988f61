//! Dynamic carry-lookahead adder — the "64 bit dual-rail carry-look-ahead
//! adder" of the paper's §6.2 (Fig. 6 area-delay experiment).
//!
//! Structure (domino-static mix, standard for high-performance CLAs):
//!
//! * **D1** (clock-footed): per-bit generate `gᵢ = aᵢ·bᵢ` and transmit
//!   `tᵢ = aᵢ + bᵢ` domino gates — the monotone high-true signal pair that
//!   plays the role of the dual rails.
//! * **Kogge-Stone prefix tree** of **D2** (unfooted) domino nodes over the
//!   `(g, t)` pairs, `cin` injected as a virtual low-order element through
//!   its own D1 buffer: each node computes `G' = G_hi + T_hi·G_lo`,
//!   `T' = T_hi·T_lo`.
//! * **Static sum stage**: `sᵢ = pᵢ XOR cᵢ` with `pᵢ = aᵢ XOR bᵢ` (static
//!   XORs consuming the domino carries at the phase boundary).
//!
//! Labels are shared per tree level, which is what lets the sizer collapse
//! the >32,000 timing paths of §5.2 to ~120 optimization paths.

use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetId, NetKind, Network, Skew};

use crate::helpers::{input_bus, inverter, output_bus, xor2};

/// Adds a domino gate + its high-skew output inverter; returns the
/// inverter's (monotone, high-true) output net.
#[allow(clippy::too_many_arguments)]
fn domino_stage(
    c: &mut Circuit,
    path: &str,
    clk: NetId,
    inputs: &[NetId],
    network: Network,
    footed: bool,
    labels: (&str, &str, Option<&str>),
    inv_labels: (&str, &str),
) -> NetId {
    let (lp, ln, lf) = labels;
    let p = c.label(lp);
    let n = c.label(ln);
    let dyn_n = c
        .add_net_kind(format!("{path}_dyn"), NetKind::Dynamic)
        .unwrap();
    let mut conns = vec![clk];
    conns.extend(inputs);
    conns.push(dyn_n);
    let mut bindings = vec![(DeviceRole::Precharge, p), (DeviceRole::DataN, n)];
    if footed {
        let f = c.label(lf.expect("footed stage needs a foot label"));
        bindings.push((DeviceRole::Evaluate, f));
    }
    c.add(
        path,
        ComponentKind::Domino {
            network,
            clocked_eval: footed,
        },
        &conns,
        &bindings,
    )
    .expect("generator netlist must be valid");
    let (ip, inn) = inv_labels;
    let ip = c.label(ip);
    let inn = c.label(inn);
    let out = c.add_net(format!("{path}_q")).unwrap();
    inverter(c, format!("{path}_inv"), dyn_n, out, ip, inn, Skew::High);
    out
}

/// Generates a `width`-bit dynamic CLA adder with carry-in.
///
/// Ports: `clk`, `a0..`, `b0..`, `cin`; outputs `s0..` and `cout`.
/// Evaluate-phase semantics: `{cout, s} = a + b + cin`.
///
/// # Panics
///
/// Panics if `width` is zero or greater than 64.
pub fn cla_adder(width: usize) -> Circuit {
    assert!(
        (1..=64).contains(&width),
        "adder supports 1..=64 bits, got {width}"
    );
    let mut c = Circuit::new(format!("cla{width}"));
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    c.expose_input("clk", clk);
    let a = input_bus(&mut c, "a", width);
    let b = input_bus(&mut c, "b", width);
    let cin = input_bus(&mut c, "cin", 1)[0];
    let s = output_bus(&mut c, "s", width);

    // D1: per-bit generate/transmit, plus the cin buffer as prefix
    // element 0. Prefix element i+1 covers bit i.
    let n = width + 1;
    let mut g: Vec<NetId> = Vec::with_capacity(n);
    let mut t: Vec<NetId> = Vec::with_capacity(n);
    let cin_buf = domino_stage(
        &mut c,
        "d1_cin",
        clk,
        &[cin],
        Network::Input(0),
        true,
        ("CBP", "CBN", Some("CBF")),
        ("CBIP", "CBIN"),
    );
    g.push(cin_buf);
    // t for the virtual element is never used (nothing propagates past
    // the carry-in); push a placeholder that no node reads.
    t.push(cin_buf);
    for i in 0..width {
        g.push(domino_stage(
            &mut c,
            &format!("d1_g{i}"),
            clk,
            &[a[i], b[i]],
            Network::series_of([0, 1]),
            true,
            ("G1P", "G1N", Some("G1F")),
            ("G1IP", "G1IN"),
        ));
        t.push(domino_stage(
            &mut c,
            &format!("d1_t{i}"),
            clk,
            &[a[i], b[i]],
            Network::parallel_of([0, 1]),
            true,
            ("T1P", "T1N", Some("T1F")),
            ("T1IP", "T1IN"),
        ));
    }

    // Kogge-Stone prefix: after ceil(log2(n)) levels, element i holds
    // (G, T) of the span 0..=i.
    let mut level = 0usize;
    let mut offset = 1usize;
    while offset < n {
        let mut next_g = g.clone();
        let mut next_t = t.clone();
        for i in offset..n {
            let hi_g = g[i];
            let hi_t = t[i];
            let lo_g = g[i - offset];
            let lo_t = t[i - offset];
            // G' = hi_g + hi_t·lo_g
            next_g[i] = domino_stage(
                &mut c,
                &format!("ks{level}_g{i}"),
                clk,
                &[hi_g, hi_t, lo_g],
                Network::Parallel(vec![
                    Network::Input(0),
                    Network::series_of([1, 2]),
                ]),
                false,
                (&format!("KG{level}P"), &format!("KG{level}N"), None),
                (&format!("KG{level}IP"), &format!("KG{level}IN")),
            );
            // T' = hi_t·lo_t — only needed while a longer span can still
            // combine below this element (i >= 2*offset keeps it useful);
            // computing it uniformly keeps the slice regular, as a layout
            // designer would.
            if i >= 2 * offset || i - offset > 0 {
                next_t[i] = domino_stage(
                    &mut c,
                    &format!("ks{level}_t{i}"),
                    clk,
                    &[hi_t, lo_t],
                    Network::series_of([0, 1]),
                    false,
                    (&format!("KT{level}P"), &format!("KT{level}N"), None),
                    (&format!("KT{level}IP"), &format!("KT{level}IN")),
                );
            }
        }
        g = next_g;
        t = next_t;
        offset *= 2;
        level += 1;
    }

    // Static sum stage: s_i = p_i XOR c_i, where c_i = prefix G at element
    // i (carry INTO bit i) and p_i = a_i XOR b_i.
    let sp = c.label("SP");
    let sn = c.label("SN");
    let up = c.label("UP");
    let un = c.label("UN");
    for i in 0..width {
        let p_i = c.add_net(format!("p{i}")).unwrap();
        xor2(&mut c, format!("prop{i}"), a[i], b[i], p_i, sp, sn);
        xor2(&mut c, format!("sum{i}"), p_i, g[i], s[i], up, un);
    }
    // cout = prefix G over everything.
    let op = c.label("OP");
    let on = c.label("ON");
    let cb = c.add_net("coutb").unwrap();
    inverter(&mut c, "cout_a", g[width], cb, op, on, Skew::Balanced);
    let cout = c.add_net("cout").unwrap();
    inverter(&mut c, "cout_b", cb, cout, op, on, Skew::Balanced);
    c.expose_output("cout", cout);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adder_lints_clean_across_widths() {
        for w in [1, 2, 4, 8, 16] {
            let issues = smart_lint::lint_circuit(&cla_adder(w)).structural();
            assert!(issues.is_empty(), "width {w}: {issues:?}");
        }
    }

    #[test]
    fn component_count_is_n_log_n() {
        let c16 = cla_adder(16).component_count();
        let c64 = cla_adder(64).component_count();
        // 64-bit should be > 4x but < 8x the 16-bit count (n log n).
        assert!(c64 > 4 * c16 / 2, "c64={c64} c16={c16}");
        assert!(c64 < 8 * c16, "c64={c64} c16={c16}");
    }

    #[test]
    fn sixty_four_bit_is_macro_scale() {
        let c = cla_adder(64);
        assert!(
            c.device_count() > 3000,
            "64b CLA should be a large macro: {}",
            c.device_count()
        );
        assert!(c.labels().len() < 80, "labels stay compact: {}", c.labels().len());
    }
}
