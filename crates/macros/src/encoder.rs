//! Priority encoder macro: highest asserted input wins; binary index plus
//! a `valid` flag.

use smart_netlist::{Circuit, NetId, Skew};

use crate::helpers::{input_bus, inverter, or_tree, output_bus};

/// Generates a `2^out_bits`-to-`out_bits` priority encoder.
///
/// Ports: inputs `d0..d{m-1}` (m = `2^out_bits`), outputs `y0..` (binary
/// index of the highest asserted input) and `valid` (any input asserted).
///
/// Structure: a top-down OR chain computes "some higher input asserted";
/// each input is masked by it; masked one-hots are OR-reduced per output
/// bit. All chain/mask/reduce gates share per-function labels.
///
/// # Panics
///
/// Panics unless `1 <= out_bits <= 6`.
pub fn priority_encoder(out_bits: usize) -> Circuit {
    assert!(
        (1..=6).contains(&out_bits),
        "priority encoder supports 1..=6 output bits, got {out_bits}"
    );
    let m = 1usize << out_bits;
    let mut c = Circuit::new(format!("penc{m}to{out_bits}"));
    let d = input_bus(&mut c, "d", m);
    let y = output_bus(&mut c, "y", out_bits);
    let mp = c.label("MP");
    let mn = c.label("MN");
    let ip = c.label("IP");
    let inn = c.label("IN");

    // hbar[i] = !(d[i+1] | d[i+2] | ... ) built as a NOR chain from the top:
    // hbar[m-2] = !d[m-1]; hbar[i] = !(d[i+1] | !hbar[i+1]) — implemented
    // with NAND(hbar[i+1], !d[i+1]) ... simpler: carry the OR-so-far `h`
    // (true = some higher input set) via NOR+INV pairs.
    //
    // h[i] = d[i+1] OR h[i+1], h[m-1] = const 0 (omitted: top input is
    // never masked).
    let mut masked: Vec<NetId> = vec![d[0]; m];
    masked[m - 1] = d[m - 1];
    let mut h: Option<NetId> = None; // OR of inputs above the current one
    for i in (0..m - 1).rev() {
        let next_h = match h {
            None => d[i + 1],
            Some(prev) => {
                // h = d[i+1] OR prev, built as NOR + INV.
                let hp = c.label("HP");
                let hn = c.label("HN");
                let nb = c.add_net(format!("hn{i}")).unwrap();
                crate::helpers::nor(&mut c, format!("hnor{i}"), &[d[i + 1], prev], nb, hp, hn);
                let hh = c.add_net(format!("h{i}")).unwrap();
                inverter(&mut c, format!("hinv{i}"), nb, hh, ip, inn, Skew::Balanced);
                hh
            }
        };
        // masked[i] = d[i] AND !next_h = NOR(!d[i], next_h): need !d[i].
        let db = c.add_net(format!("db{i}")).unwrap();
        inverter(&mut c, format!("dinv{i}"), d[i], db, ip, inn, Skew::Balanced);
        let mi = c.add_net(format!("m{i}")).unwrap();
        crate::helpers::nor(&mut c, format!("mask{i}"), &[db, next_h], mi, mp, mn);
        masked[i] = mi;
        h = Some(next_h);
    }

    // Output bit j = OR of masked[i] for i with bit j set.
    for (j, &yj) in y.iter().enumerate() {
        let group: Vec<NetId> = (0..m)
            .filter(|i| (i >> j) & 1 == 1)
            .map(|i| masked[i])
            .collect();
        let or = or_tree(&mut c, &format!("ybit{j}"), &group, "RP", "RN");
        // Present through a buffer pair so output drivers share labels.
        let ob = c.add_net(format!("ob{j}")).unwrap();
        inverter(&mut c, format!("obufa{j}"), or, ob, ip, inn, Skew::Balanced);
        // Final inversion back to true polarity.
        let op = c.label("OP");
        let on = c.label("ON");
        inverter(&mut c, format!("obufb{j}"), ob, yj, op, on, Skew::Balanced);
    }

    // valid = OR of all inputs.
    let v = or_tree(&mut c, "valid", &d, "VP", "VN");
    let vb = c.add_net("vb").unwrap();
    inverter(&mut c, "vbufa", v, vb, ip, inn, Skew::Balanced);
    let valid = c.add_net("valid_out").unwrap();
    let op = c.label("OP");
    let on = c.label("ON");
    inverter(&mut c, "vbufb", vb, valid, op, on, Skew::Balanced);
    c.expose_output("valid", valid);
    c
}

/// A plain (non-priority) one-hot-to-binary encoder used where selects are
/// already guaranteed mutexed: output bit j = OR over the one-hot inputs
/// whose index has bit j set.
pub fn onehot_encoder(out_bits: usize) -> Circuit {
    assert!(
        (1..=6).contains(&out_bits),
        "encoder supports 1..=6 output bits, got {out_bits}"
    );
    let m = 1usize << out_bits;
    let mut c = Circuit::new(format!("enc{m}to{out_bits}"));
    let d = input_bus(&mut c, "d", m);
    let y = output_bus(&mut c, "y", out_bits);
    let ip = c.label("IP");
    let inn = c.label("IN");
    let op = c.label("OP");
    let on = c.label("ON");
    for (j, &yj) in y.iter().enumerate() {
        let group: Vec<NetId> = (0..m)
            .filter(|i| (i >> j) & 1 == 1)
            .map(|i| d[i])
            .collect();
        let or = or_tree(&mut c, &format!("ybit{j}"), &group, "RP", "RN");
        let ob = c.add_net(format!("ob{j}")).unwrap();
        inverter(&mut c, format!("obufa{j}"), or, ob, ip, inn, Skew::Balanced);
        inverter(&mut c, format!("obufb{j}"), ob, yj, op, on, Skew::Balanced);
    }
    // Tie the unused d[0] input into a dummy load so it is observable for
    // loading purposes (it does not affect any output bit).
    let dummy = c.add_net("d0_load").unwrap();
    inverter(&mut c, "d0_obs", d[0], dummy, ip, inn, Skew::Balanced);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoders_lint_clean() {
        for bits in [1, 2, 3, 4] {
            let c = priority_encoder(bits);
            let issues = smart_lint::lint_circuit(&c).structural();
            assert!(issues.is_empty(), "penc {bits}: {issues:?}");
            let c = onehot_encoder(bits);
            let issues = smart_lint::lint_circuit(&c).structural();
            assert!(issues.is_empty(), "enc {bits}: {issues:?}");
        }
    }

    #[test]
    fn port_shape() {
        let c = priority_encoder(3);
        assert_eq!(c.input_ports().count(), 8);
        // 3 index bits + valid.
        assert_eq!(c.output_ports().count(), 4);
    }

    #[test]
    fn nand_free_path_exists() {
        // Structure check: the encoder uses NOR-based masking.
        let c = priority_encoder(2);
        let has_nor = c
            .components()
            .any(|(_, comp)| matches!(comp.kind, smart_netlist::ComponentKind::Nor { .. }));
        assert!(has_nor);
    }
}
