//! Incrementor / decrementor macros (the circuits of the paper's
//! Fig. 5(a)).
//!
//! Classic ripple structures with fully shared per-function labels: all
//! sum XORs share one label pair, all carry/borrow gates another — the
//! bit-slice regularity a hand datapath layout would have, and exactly the
//! label sharing the sizer's path compaction feeds on (§5.2).

use smart_netlist::{Circuit, NetId, Skew};

use crate::helpers::{input_bus, inverter, nand, output_bus, xor2};

/// Generates an `width`-bit incrementor: `y = a + 1` (wrapping), with a
/// `cout` port for the carry out of the top bit.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn incrementor(width: usize) -> Circuit {
    assert!(width > 0, "incrementor width must be positive");
    let mut c = Circuit::new(format!("inc{width}"));
    let a = input_bus(&mut c, "a", width);
    let y = output_bus(&mut c, "y", width);
    let xp = c.label("XP");
    let xn = c.label("XN");
    let cp = c.label("CP");
    let cn = c.label("CN");
    let ip = c.label("IP");
    let inn = c.label("IN");

    // Bit 0: y0 = a0 XOR 1 = !a0; carry0 = a0.
    inverter(&mut c, "sum0", a[0], y[0], ip, inn, Skew::Balanced);
    let mut carry: NetId = a[0];
    for i in 1..width {
        // y_i = a_i XOR carry_{i-1}
        xor2(&mut c, format!("sum{i}"), a[i], carry, y[i], xp, xn);
        // carry_i = a_i AND carry_{i-1} (NAND + INV keeps static polarity).
        let cb = c.add_net(format!("cb{i}")).unwrap();
        nand(&mut c, format!("cnand{i}"), &[a[i], carry], cb, cp, cn);
        let cnet = c.add_net(format!("c{i}")).unwrap();
        inverter(&mut c, format!("cinv{i}"), cb, cnet, ip, inn, Skew::Balanced);
        carry = cnet;
    }
    let cout = c.add_net("cout").unwrap();
    inverter(&mut c, "cout_buf_a", carry, cout, ip, inn, Skew::Balanced);
    let cout_t = c.add_net("cout_t").unwrap();
    inverter(&mut c, "cout_buf_b", cout, cout_t, ip, inn, Skew::Balanced);
    c.expose_output("cout", cout_t);
    c
}

/// Generates an `width`-bit decrementor: `y = a - 1` (wrapping), with a
/// `bout` borrow-out port.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn decrementor(width: usize) -> Circuit {
    assert!(width > 0, "decrementor width must be positive");
    let mut c = Circuit::new(format!("dec{width}"));
    let a = input_bus(&mut c, "a", width);
    let y = output_bus(&mut c, "y", width);
    let xp = c.label("XP");
    let xn = c.label("XN");
    let bp = c.label("BP");
    let bn = c.label("BN");
    let ip = c.label("IP");
    let inn = c.label("IN");

    // Bit 0: y0 = !a0; borrow0 = !a0.
    inverter(&mut c, "sum0", a[0], y[0], ip, inn, Skew::Balanced);
    let ab0 = c.add_net("ab0").unwrap();
    inverter(&mut c, "comp0", a[0], ab0, ip, inn, Skew::Balanced);
    let mut borrow: NetId = ab0;
    for i in 1..width {
        // y_i = a_i XOR borrow_{i-1}
        xor2(&mut c, format!("sum{i}"), a[i], borrow, y[i], xp, xn);
        // borrow_i = !a_i AND borrow_{i-1}.
        let abi = c.add_net(format!("ab{i}")).unwrap();
        inverter(&mut c, format!("comp{i}"), a[i], abi, ip, inn, Skew::Balanced);
        let bb = c.add_net(format!("bb{i}")).unwrap();
        nand(&mut c, format!("bnand{i}"), &[abi, borrow], bb, bp, bn);
        let bnet = c.add_net(format!("b{i}")).unwrap();
        inverter(&mut c, format!("binv{i}"), bb, bnet, ip, inn, Skew::Balanced);
        borrow = bnet;
    }
    let bout = c.add_net("bout_b").unwrap();
    inverter(&mut c, "bout_buf_a", borrow, bout, ip, inn, Skew::Balanced);
    let bout_t = c.add_net("bout").unwrap();
    inverter(&mut c, "bout_buf_b", bout, bout_t, ip, inn, Skew::Balanced);
    c.expose_output("bout", bout_t);
    c
}

/// Generates a `width`-bit *carry-lookahead* incrementor: the carry into
/// bit `i` is `AND(a_0..a_{i-1})`, computed by a Kogge-Stone prefix-AND
/// tree of NAND/INV pairs with per-level shared labels.
///
/// Ports match [`incrementor`]: `a0..`, `y0..`, `cout`.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn incrementor_cla(width: usize) -> Circuit {
    assert!(width > 0, "incrementor width must be positive");
    let mut c = Circuit::new(format!("inc{width}_cla"));
    let a = input_bus(&mut c, "a", width);
    let y = output_bus(&mut c, "y", width);
    let ip = c.label("IP");
    let inn = c.label("IN");

    // Kogge-Stone prefix AND over a: after the tree, p[i] = AND(a_0..a_i).
    // Each combine is NAND + INV so the working rail stays true-polarity,
    // with one label pair per level.
    let mut p: Vec<NetId> = a.clone();
    let mut offset = 1usize;
    let mut level = 0usize;
    while offset < width {
        let lp = c.label(&format!("L{level}P"));
        let ln = c.label(&format!("L{level}N"));
        let mut next = p.clone();
        for i in offset..width {
            let nb = c.add_net(format!("ks{level}_nb{i}")).unwrap();
            nand(&mut c, format!("ks{level}_nand{i}"), &[p[i], p[i - offset]], nb, lp, ln);
            let out = c.add_net(format!("ks{level}_p{i}")).unwrap();
            inverter(&mut c, format!("ks{level}_inv{i}"), nb, out, ip, inn, Skew::Balanced);
            next[i] = out;
        }
        p = next;
        offset *= 2;
        level += 1;
    }

    // y_0 = !a_0; y_i = a_i XOR p[i-1]; cout = p[width-1].
    inverter(&mut c, "sum0", a[0], y[0], ip, inn, Skew::Balanced);
    for i in 1..width {
        // Label the sum XORs lazily: a 1-bit instance has none.
        let xp = c.label("XP");
        let xn = c.label("XN");
        xor2(&mut c, format!("sum{i}"), a[i], p[i - 1], y[i], xp, xn);
    }
    let cb = c.add_net("coutb").unwrap();
    inverter(&mut c, "cout_a", p[width - 1], cb, ip, inn, Skew::Balanced);
    let cout = c.add_net("cout").unwrap();
    inverter(&mut c, "cout_b", cb, cout, ip, inn, Skew::Balanced);
    c.expose_output("cout", cout);
    c
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_set_is_width_independent() {
        let c3 = incrementor(3);
        let c48 = incrementor(48);
        assert_eq!(c3.labels().len(), c48.labels().len());
        assert_eq!(c48.labels().len(), 6, "XP XN CP CN IP IN");
    }

    #[test]
    fn structure_scales_linearly() {
        let c8 = incrementor(8);
        let c16 = incrementor(16);
        assert!(c16.component_count() as f64 > 1.8 * c8.component_count() as f64);
        let issues = smart_lint::lint_circuit(&c8).structural();
        assert!(issues.is_empty(), "{issues:?}");
        assert!(smart_lint::lint_circuit(&decrementor(8)).structural().is_empty());
    }
}
