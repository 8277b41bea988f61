//! Barrel shifter macros — "shifters" are on the paper's §2 list of
//! regular datapath structures SMART targets.
//!
//! Structure: log₂(width) stages of 2:1 encoded-select pass muxes, stage
//! `k` shifting by `2^k` when its select bit is high — the classic
//! pass-gate barrel. Each stage's devices share one label set (`N2{k}`,
//! drivers `P1{k}/N1{k}`), giving the same per-stage regularity a hand
//! layout has.

use smart_netlist::{Circuit, NetId, Skew};

use crate::helpers::{input_bus, inverter, output_bus, pass_gate};

/// Shift behaviour of a [`barrel_shifter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Logical left shift; zeros enter at the bottom.
    LogicalLeft,
    /// Logical right shift; zeros enter at the top.
    LogicalRight,
    /// Rotate left (no fill needed — fully pass-gate).
    RotateLeft,
}

impl ShiftKind {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ShiftKind::LogicalLeft => "sll",
            ShiftKind::LogicalRight => "srl",
            ShiftKind::RotateLeft => "rol",
        }
    }
}

/// Generates a `width`-bit barrel shifter.
///
/// Ports: data `a0..`, shift amount `s0..s{log2(width)-1}`, plus a `zero`
/// input rail for logical fills (tie it low; keeping it a port avoids
/// constant generators in the IR); outputs `y0..`.
///
/// # Panics
///
/// Panics unless `width` is a power of two in `2..=64`.
pub fn barrel_shifter(width: usize, kind: ShiftKind) -> Circuit {
    assert!(
        width.is_power_of_two() && (2..=64).contains(&width),
        "barrel shifter supports power-of-two widths 2..=64, got {width}"
    );
    let stages = width.trailing_zeros() as usize;
    let mut c = Circuit::new(format!("shift{width}_{}", kind.name()));
    let a = input_bus(&mut c, "a", width);
    let s = input_bus(&mut c, "s", stages);
    // Fill rail for logical shifts (exposed so the instance can tie it).
    let zero = match kind {
        ShiftKind::RotateLeft => None,
        _ => Some(input_bus(&mut c, "zero", 1)[0]),
    };

    // Stage k: y = s[k] ? shifted(input, 2^k) : input.
    // Implemented as inverting driver per bit + two pass gates onto a
    // shared node per output bit; stage parity alternates polarity, fixed
    // at the output drivers.
    let mut rail: Vec<NetId> = a;
    let mut inverted = false;
    #[allow(clippy::needless_range_loop)] // k is the shift-stage number used in names
    for k in 0..stages {
        let shift = 1usize << k;
        let p1 = c.label(&format!("P1{k}"));
        let n1 = c.label(&format!("N1{k}"));
        let n2 = c.label(&format!("N2{k}"));
        let p4 = c.label(&format!("P4{k}"));
        let n4 = c.label(&format!("N4{k}"));
        // Select complement for the "no shift" leg.
        let sb = c.add_net(format!("sb{k}")).unwrap();
        inverter(&mut c, format!("selinv{k}"), s[k], sb, p4, n4, Skew::Balanced);

        // Invert the rail once per stage (drivers double as the mux's
        // input buffers).
        let driven: Vec<NetId> = rail
            .iter()
            .enumerate()
            .map(|(i, &net)| {
                let d = c.add_net(format!("st{k}_d{i}")).unwrap();
                inverter(&mut c, format!("st{k}_drv{i}"), net, d, p1, n1, Skew::Balanced);
                d
            })
            .collect();
        // Fill value in the *driven* rail's polarity: the drivers invert,
        // so a true-polarity input rail needs a complemented (high) fill
        // and vice versa.
        let fill = zero.map(|z| {
            if inverted {
                // Driven rail is true-polarity: logical 0 fill = z itself.
                z
            } else {
                // Driven rail is complemented: logical 0 fill = !z (high).
                let f = c.add_net(format!("st{k}_fill")).unwrap();
                inverter(&mut c, format!("st{k}_fillinv"), z, f, p1, n1, Skew::Balanced);
                f
            }
        });

        let mut next = Vec::with_capacity(width);
        for i in 0..width {
            let node = c.add_net(format!("st{k}_n{i}")).unwrap();
            // "No shift" leg.
            pass_gate(&mut c, format!("st{k}_pg0_{i}"), driven[i], sb, node, n2);
            // "Shift by 2^k" leg.
            let src: Option<usize> = match kind {
                ShiftKind::LogicalLeft => i.checked_sub(shift),
                ShiftKind::LogicalRight => {
                    let j = i + shift;
                    (j < width).then_some(j)
                }
                ShiftKind::RotateLeft => Some((i + width - shift) % width),
            };
            let from = match src {
                Some(j) => driven[j],
                None => fill.expect("logical shifts have a fill rail"),
            };
            pass_gate(&mut c, format!("st{k}_pg1_{i}"), from, s[k], node, n2);
            next.push(node);
        }
        rail = next;
        inverted = !inverted;
    }

    // Output drivers restore true polarity (stages invert once each).
    let y = output_bus(&mut c, "y", width);
    let op = c.label("OP");
    let on = c.label("ON");
    for i in 0..width {
        if inverted {
            inverter(&mut c, format!("out{i}"), rail[i], y[i], op, on, Skew::Balanced);
        } else {
            // Even stage count: buffer with two inverters to present a
            // driven, true-polarity output.
            let mid = c.add_net(format!("ob{i}")).unwrap();
            inverter(&mut c, format!("outa{i}"), rail[i], mid, op, on, Skew::Balanced);
            inverter(&mut c, format!("outb{i}"), mid, y[i], op, on, Skew::Balanced);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifter_lints_clean() {
        for kind in [ShiftKind::LogicalLeft, ShiftKind::LogicalRight, ShiftKind::RotateLeft] {
            for width in [4, 8, 16] {
                let c = barrel_shifter(width, kind);
                let issues = smart_lint::lint_circuit(&c).structural();
                assert!(issues.is_empty(), "{} {width}: {issues:?}", kind.name());
            }
        }
    }

    #[test]
    fn per_stage_label_sets() {
        let c = barrel_shifter(16, ShiftKind::RotateLeft);
        // 4 stages × 5 labels + OP/ON.
        assert_eq!(c.labels().len(), 4 * 5 + 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = barrel_shifter(12, ShiftKind::RotateLeft);
    }
}
