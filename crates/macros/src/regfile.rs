//! Register-file read-path macro: address decoder + per-bit tri-state
//! word muxing — the composition showing database macros assembling into a
//! larger datapath macro (the paper's §2 lists register files among the
//! regular structures SMART targets).
//!
//! Storage cells are outside the scope of a sizing advisor; the stored
//! words enter as input buses `w{word}_{bit}` and the macro implements the
//! timing-critical read path: `addr → word line → bit line → output`.

use smart_netlist::{Circuit, NetId, Skew};

use crate::helpers::{input_bus, inverter, nand, output_bus, tristate};

/// Generates a read port over `words × bits` storage inputs.
///
/// Ports: address `a0..` (`log2(words)` bits), data inputs `w{i}_{j}`
/// (word `i`, bit `j`), outputs `q0..q{bits-1}`.
///
/// # Panics
///
/// Panics unless `words` is a power of two in `2..=64` and `bits >= 1`.
pub fn regfile_read(words: usize, bits: usize) -> Circuit {
    assert!(
        words.is_power_of_two() && (2..=64).contains(&words),
        "words must be a power of two in 2..=64, got {words}"
    );
    assert!(bits >= 1, "bits must be >= 1");
    let abits = words.trailing_zeros() as usize;
    let mut c = Circuit::new(format!("rf{words}x{bits}_read"));
    let a = input_bus(&mut c, "a", abits);
    let q = output_bus(&mut c, "q", bits);

    // Word-line decoder (same slice as the standalone decoder macro).
    let ap = c.label("AP");
    let an = c.label("AN");
    let dp = c.label("DP");
    let dn = c.label("DN");
    let wp = c.label("WP");
    let wn = c.label("WN");
    let abar: Vec<NetId> = (0..abits)
        .map(|i| {
            let net = c.add_net(format!("ab{i}")).unwrap();
            inverter(&mut c, format!("comp{i}"), a[i], net, ap, an, Skew::Balanced);
            net
        })
        .collect();
    let mut wordlines = Vec::with_capacity(words);
    #[allow(clippy::needless_range_loop)] // w doubles as the word address in names
    for w in 0..words {
        let literals: Vec<NetId> = (0..abits)
            .map(|i| if (w >> i) & 1 == 1 { a[i] } else { abar[i] })
            .collect();
        let nb = c.add_net(format!("wlb{w}")).unwrap();
        if abits == 1 {
            inverter(&mut c, format!("wl_nand{w}"), literals[0], nb, dp, dn, Skew::Balanced);
        } else {
            nand(&mut c, format!("wl_nand{w}"), &literals, nb, dp, dn);
        }
        let wl = c.add_net(format!("wl{w}")).unwrap();
        inverter(&mut c, format!("wl_drv{w}"), nb, wl, wp, wn, Skew::Balanced);
        wordlines.push(wl);
    }

    // Per-bit tri-state bit line (Fig. 2(d) structure, shared labels).
    let tp = c.label("TP");
    let tn = c.label("TN");
    let op = c.label("OP");
    let on = c.label("ON");
    #[allow(clippy::needless_range_loop)] // j/w are the bit/word addresses used in names
    for j in 0..bits {
        let bitline = c.add_net(format!("bl{j}")).unwrap();
        for w in 0..words {
            let cell = c.add_net(format!("w{w}_{j}")).unwrap();
            c.expose_input(format!("w{w}_{j}"), cell);
            tristate(
                &mut c,
                format!("rd_w{w}_b{j}"),
                cell,
                wordlines[w],
                bitline,
                tp,
                tn,
            );
        }
        // Tri-states invert; the output driver restores polarity.
        inverter(&mut c, format!("q_drv{j}"), bitline, q[j], op, on, Skew::Balanced);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_clean() {
        let c = regfile_read(8, 4);
        let issues = smart_lint::lint_circuit(&c).structural();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn port_counts() {
        let c = regfile_read(4, 2);
        // 2 address + 4*2 data inputs, 2 outputs.
        assert_eq!(c.input_ports().count(), 2 + 8);
        assert_eq!(c.output_ports().count(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = regfile_read(6, 2);
    }
}
