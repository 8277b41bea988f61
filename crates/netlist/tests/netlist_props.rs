//! Randomized tests on the circuit IR: accounting linearity, capacitance
//! monotonicity, SPICE consistency, lint stability on random macros-like
//! compositions. Deterministic (fixed seeds via `smart-prng`).

use smart_netlist::{
    spice::to_spice, Circuit, ComponentKind, DeviceRole, NetId, NetKind, Network, Sizing, Skew,
};
use smart_prng::Prng;

const CASES: usize = 40;

/// Random chain-with-taps circuit: inverters/NANDs/domino stages wired
/// front-to-back, labels partially shared.
fn chain(r: &mut Prng) -> Circuit {
    let n_stages = r.usize_in(2, 10);
    let mut c = Circuit::new("chain");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    c.expose_input("clk", clk);
    let mut prev = c.add_net("in").unwrap();
    c.expose_input("in", prev);
    let mut aux = c.add_net("aux").unwrap();
    c.expose_input("aux", aux);
    for i in 0..n_stages {
        let kind = r.usize_in(0, 4);
        let share = r.bool();
        let out = c.add_net(format!("n{i}")).unwrap();
        // Labels: shared pair when `share`, unique otherwise.
        let (p, n) = if share {
            (c.label("PS"), c.label("NS"))
        } else {
            (c.label(&format!("P{i}")), c.label(&format!("N{i}")))
        };
        match kind {
            0 => {
                c.add(
                    format!("u{i}"),
                    ComponentKind::Inverter { skew: Skew::Balanced },
                    &[prev, out],
                    &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
                )
                .unwrap();
            }
            1 => {
                c.add(
                    format!("u{i}"),
                    ComponentKind::Nand { inputs: 2 },
                    &[prev, aux, out],
                    &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
                )
                .unwrap();
            }
            2 => {
                c.add(
                    format!("u{i}"),
                    ComponentKind::Nor { inputs: 2 },
                    &[prev, aux, out],
                    &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
                )
                .unwrap();
            }
            _ => {
                let dyn_out = out;
                let f = c.label(&format!("F{i}"));
                c.add(
                    format!("u{i}"),
                    ComponentKind::Domino {
                        network: Network::parallel_of([0, 1]),
                        clocked_eval: true,
                    },
                    &[clk, prev, aux, dyn_out],
                    &[
                        (DeviceRole::Precharge, p),
                        (DeviceRole::DataN, n),
                        (DeviceRole::Evaluate, f),
                    ],
                )
                .unwrap();
            }
        }
        aux = prev;
        prev = out;
    }
    c.expose_output("out", prev);
    c
}

#[test]
fn total_width_is_linear_in_scaling() {
    let mut r = Prng::new(0xE1);
    for _ in 0..CASES {
        let c = chain(&mut r);
        let k = r.f64_in(1.1, 5.0);
        let s = Sizing::uniform(c.labels(), 2.0);
        let w1 = c.total_width(&s);
        let w2 = c.total_width(&s.scaled(k));
        assert!((w2 - k * w1).abs() < 1e-9 * w2.max(1.0));
    }
}

#[test]
fn clock_load_bounded_by_total_width() {
    let mut r = Prng::new(0xE2);
    for _ in 0..CASES {
        let c = chain(&mut r);
        let s = Sizing::uniform(c.labels(), 3.0);
        assert!(c.clock_load(&s) <= c.total_width(&s) + 1e-9);
        assert!(c.clock_load(&s) >= 0.0);
    }
}

#[test]
fn net_cap_monotone_in_widths() {
    let mut r = Prng::new(0xE3);
    for _ in 0..CASES {
        let c = chain(&mut r);
        let small = Sizing::uniform(c.labels(), 1.0);
        let big = Sizing::uniform(c.labels(), 4.0);
        for (id, _) in c.nets() {
            assert!(
                c.net_cap(id, &big, 0.5) >= c.net_cap(id, &small, 0.5) - 1e-12,
                "net {id}"
            );
        }
    }
}

#[test]
fn spice_m_lines_match_device_count() {
    let mut r = Prng::new(0xE4);
    for _ in 0..CASES {
        // (No XOR kinds in this generator, so every device is an M line.)
        let c = chain(&mut r);
        let s = Sizing::uniform(c.labels(), 2.0);
        let deck = to_spice(&c, &s);
        let m = deck.lines().filter(|l| l.starts_with('M')).count();
        assert_eq!(m, c.device_count());
        // Deck structure.
        assert!(deck.starts_with("* "));
        assert!(deck.contains(".subckt"));
        assert!(deck.trim_end().ends_with(".ends chain"));
    }
}

#[test]
fn random_chains_are_lint_clean() {
    let mut r = Prng::new(0xE5);
    for _ in 0..CASES {
        let c = chain(&mut r);
        let issues = smart_lint::lint_circuit(&c).structural();
        assert!(issues.is_empty(), "{issues:?}");
    }
}

#[test]
fn parasitics_only_increase_caps() {
    let mut r = Prng::new(0xE6);
    for _ in 0..CASES {
        let c = chain(&mut r);
        let s = Sizing::uniform(c.labels(), 2.0);
        let before: Vec<f64> = c.nets().map(|(id, _)| c.net_cap(id, &s, 0.5)).collect();
        let mut routed = c.clone();
        routed.add_route_parasitics(0.5, 0.8);
        for (i, (id, _)) in routed.nets().enumerate() {
            assert!(routed.net_cap(id, &s, 0.5) >= before[i]);
        }
        // Width accounting is untouched by parasitics.
        assert_eq!(routed.total_width(&s), c.total_width(&s));
    }
}

#[test]
fn per_width_cap_scales() {
    let mut r = Prng::new(0xE7);
    for _ in 0..CASES {
        // Without wire cap, net capacitance is exactly linear in a global
        // width scale.
        let c = chain(&mut r);
        let s1 = Sizing::uniform(c.labels(), 2.0);
        let s2 = s1.scaled(3.0);
        for (id, _) in c.nets() {
            let c1 = c.net_cap(id, &s1, 0.5);
            let c2 = c.net_cap(id, &s2, 0.5);
            assert!((c2 - 3.0 * c1).abs() < 1e-9 * c2.max(1.0), "net {id}");
        }
    }
}

/// Deterministic regression: sizing vectors index labels stably.
#[test]
fn sizing_vector_matches_label_iteration_order() {
    let mut c = Circuit::new("t");
    let a = c.add_net("a").unwrap();
    let y = c.add_net("y").unwrap();
    let p = c.label("P");
    let n = c.label("N");
    c.add(
        "u",
        ComponentKind::Inverter { skew: Skew::Balanced },
        &[a, y],
        &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
    )
    .unwrap();
    let s = Sizing::from_widths(vec![7.0, 9.0]);
    assert_eq!(s.width(p), 7.0);
    assert_eq!(s.width(n), 9.0);
    let _unused: Option<NetId> = c.find_net("zzz");
}

mod text_props {
    use super::{chain, CASES};
    use smart_netlist::text::{from_text, to_text};
    use smart_netlist::Sizing;
    use smart_prng::Prng;

    #[test]
    fn text_roundtrip_preserves_structure() {
        let mut r = Prng::new(0xE8);
        for _ in 0..CASES {
            let c = chain(&mut r);
            let rendered = to_text(&c);
            let parsed = from_text(&rendered).unwrap();
            assert_eq!(parsed.net_count(), c.net_count());
            assert_eq!(parsed.component_count(), c.component_count());
            assert_eq!(parsed.device_count(), c.device_count());
            assert_eq!(parsed.labels().len(), c.labels().len());
            let s1 = Sizing::uniform(c.labels(), 1.7);
            let s2 = Sizing::uniform(parsed.labels(), 1.7);
            assert!((parsed.total_width(&s2) - c.total_width(&s1)).abs() < 1e-9);
            // Idempotent rendering.
            assert_eq!(to_text(&parsed), rendered);
        }
    }
}
