//! The outside-in per-layer ledger.
//!
//! [`replay`] re-runs one candidate through the public function of every
//! layer the flow composes — `generate` → `lint_circuit` → `compact` →
//! `build_sizing_gp` / `SizingGp::retarget` → `audit_problem` →
//! `GpProblem::solve` → STA → `smart_power::estimate` — in the
//! order `size_circuit` calls them, timing each call from here. No probe
//! is added inside the program. A replay *reconciles* only when it lands
//! on the row the program produced: the same total width bit for bit, or
//! the same failure class. Rows it cannot reproduce from outside (a GP
//! restart from the flow's private perturbation) are counted, never
//! dropped.

use std::collections::BTreeMap;

use smart_core::compact::Compaction;
use smart_core::constraints::{boundary_extra_loads, build_sizing_gp, SizingGp};
use smart_core::{compact, DelaySpec, FlowError, SizingOptions};
use smart_gp::{GpError, SolverOptions};
use smart_macros::MacroSpec;
use smart_models::ModelLibrary;
use smart_netlist::{Circuit, Sizing};
use smart_sta::Boundary;
use smart_trace::{EventKind, TraceReport, Value};

use crate::util::{timed, Metrics};

/// Calls, busy time and work counts per layer, summed over replays.
#[derive(Default)]
pub struct Ledger {
    pub macros_calls: u64,
    pub macros_ms: f64,
    pub lint_calls: u64,
    pub lint_ms: f64,
    pub lint_rejected: u64,
    pub compact_calls: u64,
    pub compact_ms: f64,
    pub compact_raw_paths: f64,
    pub compact_classes: u64,
    pub constraints_builds: u64,
    pub constraints_retargets: u64,
    pub constraints_ms: f64,
    pub constraints_rows: u64,
    pub audit_calls: u64,
    pub audit_ms: f64,
    pub audit_certificates: u64,
    pub audit_prunable: u64,
    pub gp_solves: u64,
    pub gp_ms: f64,
    pub gp_newton_steps: u64,
    pub gp_infeasible: u64,
    /// Solves whose optimum became the row.
    pub gp_useful: u64,
    pub sta_calls: u64,
    pub sta_ms: f64,
    pub sta_outer_iters: u64,
    pub power_calls: u64,
    pub power_ms: f64,
    /// Candidates replayed, and those that landed on the program's row.
    pub replayed: u64,
    pub reconciled: u64,
    /// Wall time of the replays, the layers' calls included.
    pub wall_ms: f64,
}

impl Ledger {
    pub fn layer_ms(&self) -> f64 {
        self.macros_ms
            + self.lint_ms
            + self.compact_ms
            + self.constraints_ms
            + self.audit_ms
            + self.gp_ms
            + self.sta_ms
            + self.power_ms
    }

    pub fn write(&self, m: &mut Metrics) {
        let c = |v: u64| v as f64;
        m.set("macros.calls", c(self.macros_calls), "count");
        m.set("macros.ms", self.macros_ms, "ms");
        m.set("lint.calls", c(self.lint_calls), "count");
        m.set("lint.ms", self.lint_ms, "ms");
        m.set("lint.rejected", c(self.lint_rejected), "count");
        m.set("compact.calls", c(self.compact_calls), "count");
        m.set("compact.ms", self.compact_ms, "ms");
        m.set("compact.raw_paths", self.compact_raw_paths, "count");
        m.set("compact.classes", c(self.compact_classes), "count");
        m.set("constraints.builds", c(self.constraints_builds), "count");
        m.set(
            "constraints.retargets",
            c(self.constraints_retargets),
            "count",
        );
        m.set("constraints.ms", self.constraints_ms, "ms");
        m.set("constraints.rows", c(self.constraints_rows), "count");
        m.set("audit.calls", c(self.audit_calls), "count");
        m.set("audit.ms", self.audit_ms, "ms");
        m.set("audit.certificates", c(self.audit_certificates), "count");
        m.set("audit.prunable", c(self.audit_prunable), "count");
        m.set("gp.solves", c(self.gp_solves), "count");
        m.set("gp.ms", self.gp_ms, "ms");
        m.set("gp.newton_steps", c(self.gp_newton_steps), "count");
        m.set("gp.infeasible", c(self.gp_infeasible), "count");
        m.set(
            "gp.useful_ratio",
            if self.gp_solves == 0 {
                0.0
            } else {
                c(self.gp_useful) / c(self.gp_solves)
            },
            "ratio",
        );
        m.set("sta.calls", c(self.sta_calls), "count");
        m.set("sta.ms", self.sta_ms, "ms");
        m.set("sta.outer_iters", c(self.sta_outer_iters), "count");
        m.set("power.calls", c(self.power_calls), "count");
        m.set("power.ms", self.power_ms, "ms");
        m.set(
            "ledger.unreconciled_frac",
            if self.replayed == 0 {
                0.0
            } else {
                c(self.replayed - self.reconciled) / c(self.replayed)
            },
            "frac",
        );
    }
}

/// What the program answered for one candidate: the exact width of a
/// success row, or the failure class of an error row.
#[derive(Debug, Clone, PartialEq)]
pub enum Row {
    Width(u64),
    Failed(String),
}

/// Per-candidate work counts of one replay, compared against the program's
/// own trace of the same candidate.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counts {
    pub newton_steps: u64,
    pub classes: u64,
    pub certificates: u64,
    pub lint_rejected: u64,
    pub iterations: u64,
}

/// The flow settings a replay must mirror: one corner, no relaxation
/// ladder.
pub struct Flow<'a> {
    pub lib: &'a ModelLibrary,
    pub opts: &'a SizingOptions,
    pub lint: bool,
}

/// STA reduced over the compacted path classes, as the flow's own
/// verification does: worst data arrival and worst precharge completion.
pub fn measure(
    circuit: &Circuit,
    lib: &ModelLibrary,
    sizing: &Sizing,
    boundary: &Boundary,
    compaction: &Compaction,
) -> Result<(f64, f64), FlowError> {
    let report = smart_sta::analyze(circuit, lib, sizing, boundary)?;
    let (mut data, mut pre, mut reached) = (0.0f64, 0.0f64, false);
    for class in &compaction.classes {
        if let Some(a) = report.arrival(class.endpoint.net, class.endpoint.edge) {
            if class.is_precharge {
                pre = pre.max(a.time);
            } else {
                data = data.max(a.time);
                reached = true;
            }
        }
    }
    if reached {
        Ok((data, pre))
    } else {
        Err(FlowError::NoEndpoints)
    }
}

/// Why a replay ended without a width.
enum End {
    /// A failure row, as the program reports it.
    Failed(FlowError),
    /// A numerical failure the flow retries from a private perturbed
    /// start: not reproducible from outside.
    Unreplayable,
}

impl From<FlowError> for End {
    fn from(e: FlowError) -> End {
        End::Failed(e)
    }
}

/// Replays one candidate, adding its layer calls to `led`. Returns the row
/// the replay reached (`None` when it cannot be reproduced) and the
/// candidate's work counts.
pub fn replay(
    spec: &MacroSpec,
    boundary: &Boundary,
    target: &DelaySpec,
    flow: &Flow<'_>,
    led: &mut Ledger,
) -> (Option<Row>, Counts) {
    let (out, wall) = timed(|| replay_inner(spec, boundary, target, flow, led));
    led.replayed += 1;
    led.wall_ms += wall;
    out
}

fn replay_inner(
    spec: &MacroSpec,
    boundary: &Boundary,
    target: &DelaySpec,
    flow: &Flow<'_>,
    led: &mut Ledger,
) -> (Option<Row>, Counts) {
    let mut counts = Counts::default();
    let fail = |e: FlowError| Some(Row::Failed(e.taxonomy().to_owned()));
    let (circuit, t) = timed(|| spec.generate());
    led.macros_calls += 1;
    led.macros_ms += t;
    if flow.lint {
        let (report, t) = timed(|| smart_lint::lint_circuit(&circuit));
        led.lint_calls += 1;
        led.lint_ms += t;
        if report.has_errors() {
            led.lint_rejected += 1;
            counts.lint_rejected += 1;
            return (Some(Row::Failed("lint".to_owned())), counts);
        }
    }
    let (compaction, t) = timed(|| {
        let (_, vars) = smart_models::label_vars(&circuit);
        let extra = boundary_extra_loads(&circuit, boundary);
        compact(&circuit, flow.lib, &vars, &extra, flow.opts).map(|c| (c, extra))
    });
    led.compact_calls += 1;
    led.compact_ms += t;
    let (compaction, extra) = match compaction {
        Ok(c) => c,
        Err(e) => return (fail(e), counts),
    };
    led.compact_raw_paths += compaction.raw_paths as f64;
    led.compact_classes += compaction.classes.len() as u64;
    counts.classes += compaction.classes.len() as u64;

    let sized = SizeLoop {
        circuit: &circuit,
        boundary,
        compaction: &compaction,
        extra: &extra,
        spec: target,
        flow,
    }
    .run(led, &mut counts);
    match sized {
        Ok(width) => (Some(Row::Width(width.to_bits())), counts),
        Err(End::Failed(e)) => (fail(e), counts),
        Err(End::Unreplayable) => (None, counts),
    }
}

struct SizeLoop<'a> {
    circuit: &'a Circuit,
    boundary: &'a Boundary,
    compaction: &'a Compaction,
    extra: &'a std::collections::HashMap<smart_netlist::NetId, f64>,
    spec: &'a DelaySpec,
    flow: &'a Flow<'a>,
}

impl SizeLoop<'_> {
    /// The Fig.-4 loop against the target: build (then retarget), audit,
    /// solve from the previous iteration's optimum, verify, retarget.
    fn run(&self, led: &mut Ledger, counts: &mut Counts) -> Result<f64, End> {
        let (flow, opts) = (self.flow, self.flow.opts);
        let mut working = self.spec.clone();
        let mut gp: Option<SizingGp> = None;
        let mut chain: Option<Vec<f64>> = None;
        let mut last_data = f64::INFINITY;
        for _ in 1..=opts.max_outer_iters {
            match gp.as_mut() {
                Some(b) => {
                    let (r, t) = timed(|| b.retarget(&working));
                    led.constraints_retargets += 1;
                    led.constraints_ms += t;
                    r.map_err(FlowError::from)?;
                }
                None => {
                    let (r, t) = timed(|| {
                        build_sizing_gp(
                            self.circuit,
                            flow.lib,
                            self.compaction,
                            self.boundary,
                            self.extra,
                            &working,
                            opts,
                        )
                    });
                    led.constraints_builds += 1;
                    led.constraints_ms += t;
                    let built = r?;
                    led.constraints_rows += built.gp.constraints().len() as u64;
                    gp = Some(built);
                }
            }
            let Some(built) = gp.as_ref() else {
                unreachable!("sizing GP assembled above")
            };
            let initial = chain.take().unwrap_or_else(|| {
                let p = flow.lib.process();
                vec![(p.w_min * p.w_max).sqrt(); built.gp.dim()]
            });
            let (audit, t) = timed(|| {
                smart_audit::audit_problem(
                    &built.gp,
                    "sizing",
                    &smart_audit::AuditConfig::default(),
                )
            });
            led.audit_calls += 1;
            led.audit_ms += t;
            led.audit_prunable += audit.prunable.len() as u64;
            if let Some(cert) = audit.certificate {
                led.audit_certificates += 1;
                counts.certificates += 1;
                return Err(End::Failed(FlowError::InfeasibleCertificate {
                    constraints: cert.labels,
                    detail: cert.detail,
                }));
            }
            let solver = SolverOptions {
                initial_x: Some(initial),
                ..Default::default()
            };
            let (solved, t) = timed(|| built.gp.solve(&solver));
            led.gp_solves += 1;
            led.gp_ms += t;
            let sol = match solved {
                Ok(s) => s,
                Err(e @ GpError::Infeasible { .. }) => {
                    led.gp_infeasible += 1;
                    return Err(End::Failed(e.into()));
                }
                Err(GpError::Numerical { .. } | GpError::NonFinite { .. })
                    if opts.gp_retries > 0 =>
                {
                    return Err(End::Unreplayable)
                }
                Err(e) => return Err(End::Failed(e.into())),
            };
            let steps = (sol.phase1_newton_steps + sol.phase2_newton_steps) as u64;
            led.gp_newton_steps += steps;
            counts.newton_steps += steps;
            let sizing = Sizing::from_widths(
                (0..self.circuit.labels().len())
                    .map(|i| sol.x[built.vars[i].index()])
                    .collect(),
            );
            chain = Some(sol.x);
            let (r, t) = timed(|| {
                measure(
                    self.circuit,
                    flow.lib,
                    &sizing,
                    self.boundary,
                    self.compaction,
                )
            });
            led.sta_calls += 1;
            led.sta_ms += t;
            let (data, pre) = r?;
            led.sta_outer_iters += 1;
            counts.iterations += 1;
            last_data = data;
            let data_ok = data <= self.spec.data * (1.0 + opts.timing_tolerance);
            let pre_ok = pre <= self.spec.precharge_budget() * (1.0 + opts.timing_tolerance);
            if data_ok && pre_ok {
                led.gp_useful += 1;
                let (_, t) = timed(|| {
                    smart_power::estimate(
                        self.circuit,
                        flow.lib,
                        &sizing,
                        &smart_power::ActivityProfile::default(),
                    )
                });
                led.power_calls += 1;
                led.power_ms += t;
                return Ok(self.circuit.total_width(&sizing));
            }
            if !data_ok && data > 0.0 {
                working.data *= (self.spec.data / data).min(0.98);
            }
            if !pre_ok && pre > 0.0 {
                let budget = working.precharge_budget();
                working.precharge = Some(budget * (self.spec.precharge_budget() / pre).min(0.98));
            }
        }
        Err(End::Failed(FlowError::NoConvergence {
            measured: last_data,
            spec: self.spec.data,
        }))
    }
}

/// The program's own trace of one candidate, digested: the same counts
/// [`replay`] produces, from the instant events the flow emits.
pub fn trace_counts(report: &TraceReport) -> BTreeMap<(u64, u64), Counts> {
    let mut out: BTreeMap<(u64, u64), Counts> = BTreeMap::new();
    let field = |e: &smart_trace::Event, k: &str| -> u64 {
        e.fields
            .iter()
            .find(|(n, _)| *n == k)
            .map_or(0, |(_, v)| match v {
                Value::U64(n) => *n,
                Value::Bool(b) => u64::from(*b),
                _ => 0,
            })
    };
    for e in &report.events {
        if e.scope.kind != "candidate" || e.kind != EventKind::Instant {
            continue;
        }
        let c = out.entry((e.scope.major, e.scope.minor)).or_default();
        match e.name {
            "gp/solve" => c.newton_steps += field(e, "phase1_steps") + field(e, "phase2_steps"),
            "size/compact" => c.classes += field(e, "classes"),
            "audit/certificate" => c.certificates += 1,
            "lint/gate" => c.lint_rejected += field(e, "rejected"),
            "size/iteration" => c.iterations += 1,
            _ => {}
        }
    }
    out
}

/// Durations (ms) of the spans named `name`, pairing each begin with the
/// next end of the same name in the same scope.
pub fn span_ms(report: &TraceReport, name: &str) -> Vec<f64> {
    let mut open: BTreeMap<smart_trace::ScopeId, Vec<u64>> = BTreeMap::new();
    let mut out = Vec::new();
    for e in report.events.iter().filter(|e| e.name == name) {
        match e.kind {
            EventKind::Begin => open.entry(e.scope).or_default().push(e.t_ns),
            EventKind::End => {
                if let Some(t0) = open.get_mut(&e.scope).and_then(Vec::pop) {
                    out.push(e.t_ns.saturating_sub(t0) as f64 / 1e6);
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

/// Instant events whose name starts with `prefix`.
pub fn instant_count(report: &TraceReport, prefix: &str) -> u64 {
    report
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name.starts_with(prefix))
        .count() as u64
}
