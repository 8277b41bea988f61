//! Every macro the database can generate must round-trip through the
//! structural text format losslessly: same structure, same accounting,
//! same function.

use smart_lint::lint_circuit;
use smart_macros::{ComparatorVariant, MacroSpec, MuxTopology, ShiftKind, ZeroDetectStyle};
use smart_netlist::text::{from_text, to_text};
use smart_netlist::Sizing;

fn spec_pool() -> Vec<MacroSpec> {
    vec![
        MacroSpec::Mux {
            topology: MuxTopology::StronglyMutexedPass,
            width: 4,
        },
        MacroSpec::Mux {
            topology: MuxTopology::WeaklyMutexedPass,
            width: 4,
        },
        MacroSpec::Mux {
            topology: MuxTopology::EncodedSelectPass,
            width: 2,
        },
        MacroSpec::Mux {
            topology: MuxTopology::Tristate,
            width: 4,
        },
        MacroSpec::Mux {
            topology: MuxTopology::UnsplitDomino,
            width: 6,
        },
        MacroSpec::Mux {
            topology: MuxTopology::PartitionedDomino,
            width: 6,
        },
        MacroSpec::Incrementor { width: 6 },
        MacroSpec::Decrementor { width: 5 },
        MacroSpec::ZeroDetect {
            width: 9,
            style: ZeroDetectStyle::Static,
        },
        MacroSpec::ZeroDetect {
            width: 12,
            style: ZeroDetectStyle::Domino,
        },
        MacroSpec::Decoder { in_bits: 3 },
        MacroSpec::PriorityEncoder { out_bits: 2 },
        MacroSpec::OnehotEncoder { out_bits: 2 },
        MacroSpec::Comparator {
            width: 8,
            variant: ComparatorVariant::merced(),
        },
        MacroSpec::ClaAdder { width: 6 },
        MacroSpec::RegFileRead { words: 4, bits: 2 },
        MacroSpec::BarrelShifter {
            width: 8,
            kind: ShiftKind::RotateLeft,
        },
        MacroSpec::BarrelShifter {
            width: 4,
            kind: ShiftKind::LogicalLeft,
        },
    ]
}

#[test]
fn every_macro_roundtrips_structurally() {
    for spec in spec_pool() {
        let original = spec.generate();
        let text = to_text(&original);
        let parsed = from_text(&text).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(parsed.name(), original.name(), "{spec}");
        assert_eq!(parsed.net_count(), original.net_count(), "{spec}");
        assert_eq!(
            parsed.component_count(),
            original.component_count(),
            "{spec}"
        );
        assert_eq!(parsed.device_count(), original.device_count(), "{spec}");
        assert_eq!(parsed.labels().len(), original.labels().len(), "{spec}");
        assert_eq!(parsed.ports().len(), original.ports().len(), "{spec}");
        // Width accounting survives (uniform sizing is label-order safe
        // because the label sets are identical).
        let s1 = Sizing::uniform(original.labels(), 2.0);
        let s2 = Sizing::uniform(parsed.labels(), 2.0);
        assert!(
            (original.total_width(&s1) - parsed.total_width(&s2)).abs() < 1e-9,
            "{spec}"
        );
        assert!((original.clock_load(&s1) - parsed.clock_load(&s2)).abs() < 1e-9);
        // Rendering is idempotent.
        assert_eq!(to_text(&parsed), text, "{spec}");
        let report = lint_circuit(&parsed);
        let issues = report.structural();
        assert!(issues.is_empty(), "{spec}: {issues:?}");
        assert_eq!(report.findings, lint_circuit(&original).findings, "{spec}");
    }
}

#[test]
fn parsed_adder_still_adds() {
    use smart_sim::harness::evaluate;
    use smart_sim::Logic;
    use std::collections::BTreeMap;

    let original = MacroSpec::ClaAdder { width: 4 }.generate();
    let parsed = from_text(&to_text(&original)).unwrap();
    for (a, b) in [(3u64, 9u64), (15, 1), (7, 7)] {
        let mut inputs = BTreeMap::new();
        for i in 0..4 {
            inputs.insert(format!("a{i}"), (a >> i) & 1 == 1);
            inputs.insert(format!("b{i}"), (b >> i) & 1 == 1);
        }
        inputs.insert("cin0".into(), false);
        let out = evaluate(&parsed, &inputs).unwrap();
        let total = a + b;
        for i in 0..4 {
            assert_eq!(
                out[&format!("s{i}")],
                Logic::from_bool((total >> i) & 1 == 1),
                "{a}+{b} bit {i}"
            );
        }
    }
}
