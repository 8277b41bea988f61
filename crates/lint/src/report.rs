//! Machine-readable lint reports.

use crate::engine::{Finding, Severity};

/// The result of linting one circuit: canonical-order findings plus the
/// circuit's name, serializable to deterministic JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the linted circuit.
    pub circuit: String,
    /// Findings in canonical order (sorted by rule, severity, path,
    /// nets, message; deduplicated).
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warning`-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Whether any finding is an `Error` — the flow-gate predicate.
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// The findings of the [`STRUCTURAL_RULES`](crate::rules::STRUCTURAL_RULES)
    /// — the "is this netlist well-formed" subset. A generated macro or a
    /// composed block must have none.
    pub fn structural(&self) -> Vec<Finding> {
        self.findings
            .iter()
            .filter(|f| crate::rules::STRUCTURAL_RULES.contains(&f.rule))
            .cloned()
            .collect()
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Serializes the report as JSON. The encoding is fully
    /// deterministic — fixed key order, findings in canonical order — so
    /// equal reports are byte-equal strings (the determinism test
    /// compares these bytes across runs and thread counts).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.findings.len() * 96);
        out.push_str("{\"circuit\":");
        json_string(&mut out, &self.circuit);
        out.push_str(&format!(
            ",\"errors\":{},\"warnings\":{},\"findings\":[",
            self.errors(),
            self.warnings()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rule\":");
            json_string(&mut out, f.rule);
            out.push_str(",\"severity\":");
            json_string(&mut out, &f.severity.to_string());
            out.push_str(",\"path\":");
            json_string(&mut out, &f.path);
            out.push_str(",\"nets\":[");
            for (j, n) in f.nets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, n);
            }
            out.push_str("],\"message\":");
            json_string(&mut out, &f.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes).
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_orders_keys() {
        let report = LintReport {
            circuit: "a\"b\\c\n".into(),
            findings: vec![Finding {
                rule: "SL001",
                severity: Severity::Error,
                path: "u1".into(),
                nets: vec!["n\t1".into()],
                message: "bad".into(),
            }],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"circuit\":\"a\\\"b\\\\c\\n\",\"errors\":1,\"warnings\":0,\
             \"findings\":[{\"rule\":\"SL001\",\"severity\":\"error\",\
             \"path\":\"u1\",\"nets\":[\"n\\t1\"],\"message\":\"bad\"}]}"
        );
    }

    #[test]
    fn counts_split_by_severity() {
        let f = |sev| Finding {
            rule: "SL104",
            severity: sev,
            path: String::new(),
            nets: vec![],
            message: String::new(),
        };
        let report = LintReport {
            circuit: "c".into(),
            findings: vec![f(Severity::Warning), f(Severity::Error)],
        };
        assert_eq!(report.errors(), 1);
        assert_eq!(report.warnings(), 1);
        assert!(report.has_errors());
    }
}
