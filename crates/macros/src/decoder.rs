//! Address decoder macros (the circuits of the paper's Fig. 5(c)):
//! `n`-to-`2ⁿ` one-hot decoders.

use smart_netlist::{Circuit, NetId, Skew};

use crate::helpers::{input_bus, inverter, nand, output_bus};

/// Generates an `in_bits`-to-`2^in_bits` decoder. Output `y[k]` is high
/// exactly when the input bus reads `k`.
///
/// Structure: complement rail per address bit (`AP/AN`), one NAND of
/// `in_bits` literals per output (`DP/DN`), output inverters (`OP/ON`) —
/// the classic word-line decoder slice, with all slices sharing labels.
///
/// # Panics
///
/// Panics unless `1 <= in_bits <= 8` (up to 256 outputs; the paper's
/// largest instance is 7→128).
pub fn decoder(in_bits: usize) -> Circuit {
    assert!(
        (1..=8).contains(&in_bits),
        "decoder supports 1..=8 address bits, got {in_bits}"
    );
    let outputs = 1usize << in_bits;
    let mut c = Circuit::new(format!("dec{in_bits}to{outputs}"));
    let a = input_bus(&mut c, "a", in_bits);
    let y = output_bus(&mut c, "y", outputs);
    let ap = c.label("AP");
    let an = c.label("AN");
    let dp = c.label("DP");
    let dn = c.label("DN");
    let op = c.label("OP");
    let on = c.label("ON");

    // Complement rails.
    let abar: Vec<NetId> = (0..in_bits)
        .map(|i| {
            let net = c.add_net(format!("ab{i}")).unwrap();
            inverter(&mut c, format!("comp{i}"), a[i], net, ap, an, Skew::Balanced);
            net
        })
        .collect();

    for (k, &yk) in y.iter().enumerate() {
        let literals: Vec<NetId> = (0..in_bits)
            .map(|i| if (k >> i) & 1 == 1 { a[i] } else { abar[i] })
            .collect();
        let nb = c.add_net(format!("nb{k}")).unwrap();
        if in_bits == 1 {
            // Degenerate 1→2: buffer the single literal through two stages
            // to keep the same two-stage depth as wider decoders.
            inverter(&mut c, format!("word{k}"), literals[0], nb, dp, dn, Skew::Balanced);
        } else {
            nand(&mut c, format!("word{k}"), &literals, nb, dp, dn);
        }
        inverter(&mut c, format!("out{k}"), nb, yk, op, on, Skew::Balanced);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_shapes() {
        for bits in [2, 3, 4, 6, 7] {
            let c = decoder(bits);
            let issues = smart_lint::lint_circuit(&c).structural();
            assert!(issues.is_empty(), "{bits}: {issues:?}");
            assert_eq!(c.output_ports().count(), 1 << bits);
            // Label set independent of size.
            assert_eq!(c.labels().len(), 6);
        }
    }

    #[test]
    fn component_count_matches_structure() {
        let c = decoder(3);
        // 3 complement inverters + 8 NAND3 + 8 output inverters.
        assert_eq!(c.component_count(), 3 + 8 + 8);
    }

    #[test]
    #[should_panic(expected = "decoder supports")]
    fn oversized_decoder_rejected() {
        let _ = decoder(9);
    }
}
