//! Per-rule positive/negative coverage: every rule in the registry has at
//! least one hand-built circuit that triggers it and one structurally
//! close circuit that does not, plus engine-level tests for disabling,
//! severity overrides and waivers.

use smart_lint::{lint_circuit, lint_circuit_with, rules, LintConfig, Severity, Waiver};
use smart_netlist::{Circuit, ComponentKind, DeviceRole, NetId, NetKind, Network, Skew};

fn inv(c: &mut Circuit, path: &str, a: NetId, y: NetId) {
    let p = c.label("P1");
    let n = c.label("N1");
    c.add(
        path,
        ComponentKind::Inverter { skew: Skew::Balanced },
        &[a, y],
        &[(DeviceRole::PullUp, p), (DeviceRole::PullDown, n)],
    )
    .unwrap();
}

fn pass(c: &mut Circuit, path: &str, d: NetId, s: NetId, y: NetId) {
    let l = c.label("N2");
    c.add(
        path,
        ComponentKind::PassGate,
        &[d, s, y],
        &[
            (DeviceRole::PassN, l),
            (DeviceRole::PassP, l),
            (DeviceRole::PassInv, l),
        ],
    )
    .unwrap();
}

fn domino(c: &mut Circuit, path: &str, network: Network, clocked_eval: bool, conns: &[NetId]) {
    let p = c.label("P1");
    let n = c.label("N1");
    let mut bindings = vec![(DeviceRole::Precharge, p), (DeviceRole::DataN, n)];
    if clocked_eval {
        bindings.push((DeviceRole::Evaluate, n));
    }
    c.add(
        path,
        ComponentKind::Domino { network, clocked_eval },
        conns,
        &bindings,
    )
    .unwrap();
}

/// Rule ids present in the report.
fn fired(c: &Circuit) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = lint_circuit(c).findings.iter().map(|f| f.rule).collect();
    ids.dedup();
    ids
}

/// The canonical legal footed stage: clk ─ D1(a) ─ dyn1 ─ hs-inv ─ q.
fn stage() -> Circuit {
    let mut c = Circuit::new("stage");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
    let q = c.add_net("q").unwrap();
    domino(&mut c, "d1", Network::Input(0), true, &[clk, a, dyn1]);
    inv(&mut c, "h1", dyn1, q);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("q", q);
    c
}

#[test]
fn legal_stage_is_clean() {
    assert_eq!(fired(&stage()), Vec::<&str>::new());
}

#[test]
fn sl001_domino_clock_pin_off_clock() {
    let mut c = Circuit::new("sl001_pos");
    let notclk = c.add_net("notclk").unwrap();
    let a = c.add_net("a").unwrap();
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
    domino(&mut c, "d1", Network::Input(0), true, &[notclk, a, dyn1]);
    c.expose_input("notclk", notclk);
    c.expose_input("a", a);
    c.expose_output("y", dyn1);
    assert!(fired(&c).contains(&"SL001"));
}

#[test]
fn sl001_static_input_on_clock_net() {
    let mut c = Circuit::new("sl001_static");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let y = c.add_net("y").unwrap();
    inv(&mut c, "u1", clk, y);
    c.expose_input("clk", clk);
    c.expose_output("y", y);
    let report = lint_circuit(&c);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "SL001")
        .expect("static gate reading a clock must fire SL001");
    assert!(f.message.contains("non-clock input pin"));
    assert!(!fired(&stage()).contains(&"SL001"));
}

#[test]
fn sl002_marking_mismatch_both_directions() {
    // Domino output not marked Dynamic.
    let mut c = Circuit::new("sl002_out");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let y = c.add_net("y").unwrap(); // should be Dynamic
    domino(&mut c, "d1", Network::Input(0), true, &[clk, a, y]);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("y", y);
    assert!(fired(&c).contains(&"SL002"));

    // Dynamic net without a domino driver.
    let mut c = Circuit::new("sl002_net");
    let a = c.add_net("a").unwrap();
    let y = c.add_net_kind("y", NetKind::Dynamic).unwrap();
    inv(&mut c, "u1", a, y);
    c.expose_input("a", a);
    c.expose_output("y", y);
    assert!(fired(&c).contains(&"SL002"));
    assert!(!fired(&stage()).contains(&"SL002"));
}

/// Legal D1 → inverter → D2 two-stage pipeline (the comparator shape).
fn two_stage() -> Circuit {
    let mut c = Circuit::new("two_stage");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
    let q = c.add_net("q").unwrap();
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
    let out = c.add_net("out").unwrap();
    domino(&mut c, "d1", Network::Input(0), true, &[clk, a, dyn1]);
    inv(&mut c, "h1", dyn1, q);
    domino(&mut c, "d2", Network::Input(0), false, &[clk, q, dyn2]);
    inv(&mut c, "h2", dyn2, out);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("out", out);
    c
}

#[test]
fn sl003_unfooted_data_from_static_source() {
    let mut c = Circuit::new("sl003_pos");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
    // D2 data wired straight to a primary input: high during precharge.
    domino(&mut c, "d2", Network::Input(0), false, &[clk, a, dyn2]);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("y", dyn2);
    assert!(fired(&c).contains(&"SL003"));
    // The disciplined D1 → inv → D2 shape does not fire.
    assert!(!fired(&two_stage()).contains(&"SL003"));
}

/// `depth` series pass gates ending at an output buffer.
fn pass_chain(depth: usize) -> Circuit {
    let mut c = Circuit::new("chain");
    let s = c.add_net("s").unwrap();
    c.expose_input("s", s);
    let mut prev = c.add_net("n0").unwrap();
    c.expose_input("n0", prev);
    for i in 0..depth {
        let next = c.add_net(format!("n{}", i + 1)).unwrap();
        pass(&mut c, &format!("pg{i}"), prev, s, next);
        prev = next;
    }
    let y = c.add_net("y").unwrap();
    inv(&mut c, "buf", prev, y);
    c.expose_output("y", y);
    c
}

#[test]
fn sl004_pass_chain_depth() {
    assert!(fired(&pass_chain(4)).contains(&"SL004"));
    assert!(!fired(&pass_chain(3)).contains(&"SL004"));
    // The limit is configurable.
    let mut cfg = LintConfig::default();
    cfg.pass_chain_limit = 1;
    let report = lint_circuit_with(&pass_chain(2), &cfg);
    assert!(report.findings.iter().any(|f| f.rule == "SL004"));
}

/// One circuit tripping every `SL00x` check, each in every direction it
/// has: both `SL001` and both `SL002` directions, `SL003` and `SL004`.
#[test]
fn all_violations_trips_exactly_the_expected_sl00x_findings() {
    let mut c = Circuit::new("all_violations");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let notclk = c.add_net("notclk").unwrap();
    let a = c.add_net("a").unwrap();
    // SL001 + SL002: domino clock pin off-clock, output not marked dynamic.
    let y1 = c.add_net("y1").unwrap();
    domino(
        &mut c,
        "d_badclk",
        Network::Input(0),
        true,
        &[notclk, a, y1],
    );
    // SL001 the other way: a static input reads the clock.
    let y2 = c.add_net("y2").unwrap();
    inv(&mut c, "i_onclk", clk, y2);
    // SL002 the other way: a dynamic net with no domino driver.
    let dyn3 = c.add_net_kind("dyn3", NetKind::Dynamic).unwrap();
    inv(&mut c, "i_dyn", a, dyn3);
    // SL003: D2 data wired to a primary input.
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
    domino(&mut c, "d2_bad", Network::Input(0), false, &[clk, a, dyn2]);
    // SL004: four series pass gates.
    let s = c.add_net("s").unwrap();
    let mut prev = c.add_net("p0").unwrap();
    c.expose_input("p0", prev);
    for i in 0..4 {
        let next = c.add_net(format!("p{}", i + 1)).unwrap();
        pass(&mut c, &format!("pg{i}"), prev, s, next);
        prev = next;
    }
    for (name, net) in [("clk", clk), ("notclk", notclk), ("a", a), ("s", s)] {
        c.expose_input(name, net);
    }
    for (name, net) in [
        ("y1", y1),
        ("y2", y2),
        ("dyn3", dyn3),
        ("dyn2", dyn2),
        ("tail", prev),
    ] {
        c.expose_output(name, net);
    }

    let report = lint_circuit(&c);
    let sl00x: Vec<(&str, &str, Vec<&str>)> = report
        .findings
        .iter()
        .filter(|f| f.rule < "SL100")
        .map(|f| {
            (
                f.rule,
                f.path.as_str(),
                f.nets.iter().map(String::as_str).collect(),
            )
        })
        .collect();
    assert_eq!(
        sl00x,
        [
            ("SL001", "d_badclk", vec!["notclk"]),
            ("SL001", "i_onclk", vec!["clk"]),
            ("SL002", "", vec!["dyn3"]),
            ("SL002", "", vec!["y1"]),
            ("SL003", "d2_bad", vec!["a"]),
            ("SL004", "", vec!["p4"]),
        ]
    );
    let message = |path: &str| {
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == "SL001" && f.path == path);
        f.map(|f| f.message.as_str()).unwrap_or_default()
    };
    assert_eq!(
        message("d_badclk"),
        "domino clock pin wired to non-clock net 'notclk'"
    );
    assert_eq!(
        message("i_onclk"),
        "non-clock input pin reads clock net 'clk'"
    );
}

#[test]
fn sl101_inverting_static_logic_between_stages() {
    // Two inverters between D1 and D2: the D2 data input becomes
    // monotone-FALLING during evaluate — the classic illegal structure.
    let mut c = Circuit::new("sl101_pos");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
    let q = c.add_net("q").unwrap();
    let qb = c.add_net("qb").unwrap();
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
    let out = c.add_net("out").unwrap();
    domino(&mut c, "d1", Network::Input(0), true, &[clk, a, dyn1]);
    inv(&mut c, "h1", dyn1, q);
    inv(&mut c, "bad", q, qb);
    domino(&mut c, "d2", Network::Input(0), true, &[clk, qb, dyn2]);
    inv(&mut c, "h2", dyn2, out);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("out", out);
    let report = lint_circuit(&c);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "SL101")
        .expect("falling-monotone domino data must fire SL101");
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.nets, vec!["qb".to_owned()]);
    // One inverter (non-inverting in the monotone sense: dynamic falls,
    // output rises) is the legal shape.
    assert!(!fired(&two_stage()).contains(&"SL101"));
}

#[test]
fn sl102_restoring_and_pass_drivers_mix() {
    let mut c = Circuit::new("sl102_pos");
    let a = c.add_net("a").unwrap();
    let s = c.add_net("s").unwrap();
    let d = c.add_net("d").unwrap();
    let shared = c.add_net("shared").unwrap();
    inv(&mut c, "u1", a, shared); // restoring driver
    pass(&mut c, "pg0", d, s, shared); // shared driver on the same net
    for (name, net) in [("a", a), ("s", s), ("d", d)] {
        c.expose_input(name, net);
    }
    c.expose_output("y", shared);
    assert!(fired(&c).contains(&"SL102"));
    // All-pass sharing is SL104 territory, not a sneak path.
    let mut c2 = Circuit::new("sl102_neg");
    let s0 = c2.add_net("s0").unwrap();
    let s1 = c2.add_net("s1").unwrap();
    let d0 = c2.add_net("d0").unwrap();
    let d1 = c2.add_net("d1").unwrap();
    let sh = c2.add_net("sh").unwrap();
    pass(&mut c2, "pg0", d0, s0, sh);
    pass(&mut c2, "pg1", d1, s1, sh);
    for (name, net) in [("s0", s0), ("s1", s1), ("d0", d0), ("d1", d1)] {
        c2.expose_input(name, net);
    }
    c2.expose_output("y", sh);
    assert!(!fired(&c2).contains(&"SL102"));
}

#[test]
fn two_pass_gates_sharing_a_net_fire_no_sl109() {
    // Pass gates may release the net, so sharing is not a driver conflict.
    let ids = fired(&pass_pair(false, false));
    assert!(!ids.contains(&"SL109"), "{ids:?}");
    assert!(!ids.contains(&"SL102"), "{ids:?}");
}

/// Two pass gates onto one net; select nets and data nets chosen per test.
fn pass_pair(same_select: bool, same_data: bool) -> Circuit {
    let mut c = Circuit::new("pair");
    let s0 = c.add_net("s0").unwrap();
    let s1 = if same_select { s0 } else { c.add_net("s1").unwrap() };
    let d0 = c.add_net("d0").unwrap();
    let d1 = if same_data { d0 } else { c.add_net("d1").unwrap() };
    let sh = c.add_net("sh").unwrap();
    pass(&mut c, "pg0", d0, s0, sh);
    pass(&mut c, "pg1", d1, s1, sh);
    c.expose_input("s0", s0);
    if !same_select {
        c.expose_input("s1", s1);
    }
    c.expose_input("d0", d0);
    if !same_data {
        c.expose_input("d1", d1);
    }
    let y = c.add_net("y").unwrap();
    inv(&mut c, "buf", sh, y);
    c.expose_output("y", y);
    c
}

#[test]
fn sl103_same_select_different_data_is_contention() {
    assert!(fired(&pass_pair(true, false)).contains(&"SL103"));
    // Same select, same data: redundant but not contending.
    assert!(!fired(&pass_pair(true, true)).contains(&"SL103"));
    // Different selects: a mutual-exclusion question (SL104), not SL103.
    assert!(!fired(&pass_pair(false, false)).contains(&"SL103"));
}

#[test]
fn sl104_unproven_vs_complementary_enables() {
    let report = lint_circuit(&pass_pair(false, false));
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "SL104")
        .expect("independent selects are not provably exclusive");
    assert_eq!(f.severity, Severity::Warning);

    // An encoded 2:1 mux — s and its inverter image — is proven exclusive.
    let mut c = Circuit::new("encoded");
    let s = c.add_net("s").unwrap();
    let sb = c.add_net("sb").unwrap();
    inv(&mut c, "seln", s, sb);
    let d0 = c.add_net("d0").unwrap();
    let d1 = c.add_net("d1").unwrap();
    let sh = c.add_net("sh").unwrap();
    pass(&mut c, "pg0", d0, s, sh);
    pass(&mut c, "pg1", d1, sb, sh);
    for (name, net) in [("s", s), ("d0", d0), ("d1", d1)] {
        c.expose_input(name, net);
    }
    let y = c.add_net("y").unwrap();
    inv(&mut c, "buf", sh, y);
    c.expose_output("y", y);
    assert!(!fired(&c).contains(&"SL104"));
}

#[test]
fn sl105_pass_level_into_non_restoring_load() {
    // Pass-driven net feeding another pass gate's *data* pin.
    let c = pass_chain(2);
    let report = lint_circuit(&c);
    assert!(report.findings.iter().any(|f| f.rule == "SL105"));
    // Pass-driven net feeding a restoring inverter: fine.
    let c = pass_chain(1);
    assert!(!fired(&c).contains(&"SL105"));
}

#[test]
fn sl106_deep_domino_stack() {
    let mk = |depth: usize| {
        let mut c = Circuit::new("stack");
        let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
        let ins: Vec<NetId> = (0..depth)
            .map(|i| {
                let n = c.add_net(format!("a{i}")).unwrap();
                c.expose_input(format!("a{i}"), n);
                n
            })
            .collect();
        let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
        let q = c.add_net("q").unwrap();
        let series = Network::series_of(0..depth);
        let mut conns = vec![clk];
        conns.extend(ins);
        conns.push(dyn1);
        domino(&mut c, "d1", series, true, &conns);
        inv(&mut c, "h1", dyn1, q);
        c.expose_input("clk", clk);
        c.expose_output("q", q);
        c
    };
    assert!(fired(&mk(3)).contains(&"SL106"));
    assert!(!fired(&mk(2)).contains(&"SL106"));
}

#[test]
fn sl107_floating_net() {
    let mut c = Circuit::new("float");
    let f = c.add_net("f").unwrap(); // no driver, no port
    let y = c.add_net("y").unwrap();
    inv(&mut c, "u1", f, y);
    c.expose_output("y", y);
    assert!(fired(&c).contains(&"SL107"));
    // Exposing it as an input makes it legal.
    let mut c2 = Circuit::new("float_neg");
    let f = c2.add_net("f").unwrap();
    let y = c2.add_net("y").unwrap();
    inv(&mut c2, "u1", f, y);
    c2.expose_input("f", f);
    c2.expose_output("y", y);
    assert!(!fired(&c2).contains(&"SL107"));
}

#[test]
fn sl108_undriven_output_port() {
    let mut c = Circuit::new("undriven");
    let a = c.add_net("a").unwrap();
    let y = c.add_net("y").unwrap();
    let dangling = c.add_net("dangling").unwrap();
    inv(&mut c, "u1", a, y);
    c.expose_input("a", a);
    c.expose_output("y", y);
    c.expose_output("z", dangling);
    let report = lint_circuit(&c);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "SL108")
        .expect("output port on an undriven net must fire");
    assert!(f.message.contains("'z'"));
    assert!(!fired(&stage()).contains(&"SL108"));
}

#[test]
fn sl109_two_always_on_drivers() {
    let mut c = Circuit::new("conflict");
    let a = c.add_net("a").unwrap();
    let b = c.add_net("b").unwrap();
    let y = c.add_net("y").unwrap();
    inv(&mut c, "u1", a, y);
    inv(&mut c, "u2", b, y);
    c.expose_input("a", a);
    c.expose_input("b", b);
    c.expose_output("y", y);
    let report = lint_circuit(&c);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "SL109")
        .expect("two restoring drivers must conflict");
    // Anchored on the lexicographically first driver path.
    assert_eq!(f.path, "u1");
    assert!(!fired(&stage()).contains(&"SL109"));
}

/// The canonical legal two-stage domino chain:
/// clk ─ D1(a) ─ dyn1 ─ hs-inv ─ q1 ─ D1 ─ dyn2 ─ hs-inv ─ q2.
fn domino_chain() -> Circuit {
    let mut c = Circuit::new("sl111_chain");
    let clk = c.add_net_kind("clk", NetKind::Clock).unwrap();
    let a = c.add_net("a").unwrap();
    let dyn1 = c.add_net_kind("dyn1", NetKind::Dynamic).unwrap();
    let q1 = c.add_net("q1").unwrap();
    let dyn2 = c.add_net_kind("dyn2", NetKind::Dynamic).unwrap();
    let q2 = c.add_net("q2").unwrap();
    domino(&mut c, "d1", Network::Input(0), true, &[clk, a, dyn1]);
    inv(&mut c, "h1", dyn1, q1);
    domino(&mut c, "d2", Network::Input(0), true, &[clk, q1, dyn2]);
    inv(&mut c, "h2", dyn2, q2);
    c.expose_input("clk", clk);
    c.expose_input("a", a);
    c.expose_output("q", q2);
    c
}

#[test]
fn sl111_sanctioned_handoff_is_clean_at_default_knobs() {
    // Three typical stages from dyn1's evaluation to d2's data pin
    // (dyn1 → h1 → the stage itself): 3 x 0.5 = 1.5, outside the
    // 1.0-unit window. Port-fed d1 has no dynamic-origin path at all.
    assert_eq!(fired(&domino_chain()), Vec::<&str>::new());
}

#[test]
fn sl111_widened_window_names_the_receiving_stage() {
    let cfg = LintConfig { precharge_window: 1.75, ..LintConfig::default() };
    let report = lint_circuit_with(&domino_chain(), &cfg);
    let f = report
        .findings
        .iter()
        .find(|f| f.rule == "SL111")
        .expect("1.5 fast-corner stages inside a 1.75 window must fire SL111");
    assert_eq!(f.severity, Severity::Warning);
    assert_eq!(f.path, "d2");
    assert_eq!(f.nets, vec!["q1".to_owned()]);
    // The first stage is timed from primary inputs only: no race to flag.
    assert!(!report.findings.iter().any(|f| f.rule == "SL111" && f.path == "d1"));
}

#[test]
fn sl111_aggressive_derate_fires_without_touching_the_window() {
    // 3 stages x 0.3 = 0.9 < 1.0.
    let cfg = LintConfig { fast_derate: 0.3, ..LintConfig::default() };
    assert!(lint_circuit_with(&domino_chain(), &cfg)
        .findings
        .iter()
        .any(|f| f.rule == "SL111"));
}

#[test]
fn sl110_unused_label() {
    let mut c = stage();
    c.label("N99"); // never bound
    assert!(fired(&c).contains(&"SL110"));
    assert!(!fired(&stage()).contains(&"SL110"));
}

#[test]
fn disabled_rules_are_skipped() {
    let mut cfg = LintConfig::default();
    cfg.disabled.insert("SL109".to_owned());
    let mut c = Circuit::new("conflict");
    let a = c.add_net("a").unwrap();
    let b = c.add_net("b").unwrap();
    let y = c.add_net("y").unwrap();
    inv(&mut c, "u1", a, y);
    inv(&mut c, "u2", b, y);
    c.expose_input("a", a);
    c.expose_input("b", b);
    c.expose_output("y", y);
    let report = lint_circuit_with(&c, &cfg);
    assert!(report.findings.iter().all(|f| f.rule != "SL109"));
}

#[test]
fn severity_override_promotes_and_demotes() {
    let mut cfg = LintConfig::default();
    cfg.severities.insert("SL104".to_owned(), Severity::Error);
    let report = lint_circuit_with(&pass_pair(false, false), &cfg);
    let f = report.findings.iter().find(|f| f.rule == "SL104").unwrap();
    assert_eq!(f.severity, Severity::Error);
    assert!(report.has_errors());
}

#[test]
fn waivers_suppress_by_rule_and_path() {
    let mut c = Circuit::new("conflict");
    let a = c.add_net("a").unwrap();
    let b = c.add_net("b").unwrap();
    let y = c.add_net("y").unwrap();
    inv(&mut c, "u1", a, y);
    inv(&mut c, "u2", b, y);
    c.expose_input("a", a);
    c.expose_input("b", b);
    c.expose_output("y", y);
    assert!(lint_circuit(&c).has_errors());
    let mut cfg = LintConfig::default();
    cfg.waivers.push(Waiver {
        rule: "SL109".to_owned(),
        path_prefix: "u".to_owned(),
    });
    assert!(!lint_circuit_with(&c, &cfg).has_errors());
    // A waiver for a different path prefix does not cover the finding.
    let mut cfg = LintConfig::default();
    cfg.waivers.push(Waiver {
        rule: "SL109".to_owned(),
        path_prefix: "x".to_owned(),
    });
    assert!(lint_circuit_with(&c, &cfg).has_errors());
}

#[test]
fn registry_covers_every_documented_rule() {
    let ids: Vec<&str> = rules().iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        [
            "SL001", "SL002", "SL003", "SL004", "SL101", "SL102", "SL103", "SL104", "SL105",
            "SL106", "SL107", "SL108", "SL109", "SL110", "SL111",
        ]
    );
    for rule in rules() {
        assert!(!rule.name.is_empty());
        assert!(!rule.description.is_empty());
    }
}
