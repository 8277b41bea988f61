//! `sweep-db`: cold, single-corner Fig.-1 exploration of the macro
//! database, as a designer sizing every topology of every macro would.

use std::time::Instant;

use smart_core::{
    baseline_sizing, explore_parallel, measure_phase_delays, BaselineMargins, DelaySpec,
    Exploration, ParallelOptions, SizingOptions,
};
use smart_macros::{representative_database, MacroSpec};
use smart_models::ModelLibrary;
use smart_prng::Prng;
use smart_sta::{max_delay, Boundary};
use smart_trace::Trace;

use crate::ledger::{self, Flow, Ledger, Row};
use crate::util::{geomean, median, quantile, timed, Metrics, Pace, WEYL};
use crate::{Outcome, FAILED_TAGS};

/// The row the program produced for one candidate.
fn row(c: &smart_core::Candidate) -> Row {
    match &c.result {
        Ok(m) => Row::Width(m.outcome.total_width.to_bits()),
        Err(e) => Row::Failed(e.taxonomy().to_owned()),
    }
}

/// Output loads (fF) every database macro is explored at.
const LOADS: [f64; 3] = [8.0, 16.0, 32.0];
/// Target range, as a factor of the hand-design delay.
const FACTOR_LO: f64 = 0.8;
const FACTOR_SPAN: f64 = 0.5;
/// Target strata: a cycle of this many passes covers the factor range.
const STRATA: usize = 15;
/// Nominal time of one pass (s) at the reference host's speed (see
/// `util::Pace`), which sizes a run's number of passes from `--seconds`:
/// one cycle of 15 passes at 40 s.
const PASS_S: f64 = 2.4;
/// Set-ups before the first pass; `setup_s` is the median of these and
/// of one more after every pass.
const SETUPS: usize = 3;

/// One exploration point: a database macro at one output load, with the
/// hand-designed (baseline) sizing's delay and width as reference.
struct Point {
    spec: MacroSpec,
    boundary: Boundary,
    hand_delay: f64,
    hand_width: f64,
    /// Seeded stratum order, and the seeded in-stratum start position of
    /// its target in each stratum.
    rotation: usize,
    phases: [f64; STRATA],
}

struct Setup {
    seed: u64,
    lib: ModelLibrary,
    opts: SizingOptions,
    points: Vec<Point>,
}

impl Setup {
    /// The target of point `i` in pass `pass`. The factor range is cut into
    /// [`STRATA`] strata and every point visits each stratum once per
    /// cycle of [`STRATA`] passes, in a seeded order. Within each stratum
    /// the target starts at its own seeded position and moves along a
    /// golden-ratio sequence from cycle to cycle. A cycle therefore holds
    /// one target per stratum for every seed, and runs of whole cycles
    /// stay comparable while the seed sets every target. The positions
    /// are independent because a solve's cost is not smooth in its
    /// target: `cla64` takes 0.36 s at one target and 0.59 s at a target
    /// 2% away, so targets that moved together would make a run's cost
    /// hinge on one draw per point.
    fn target(&self, i: usize, pass: usize) -> DelaySpec {
        let p = &self.points[i];
        let stratum = (pass + p.rotation) % STRATA;
        let position = (p.phases[stratum] + (pass / STRATA) as f64 * WEYL).fract();
        let u = (stratum as f64 + position) / STRATA as f64;
        DelaySpec::uniform(p.hand_delay * (FACTOR_LO + FACTOR_SPAN * u))
    }
}

pub fn boundary_for(circuit: &smart_netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for port in circuit.output_ports() {
        b.output_loads.insert(port.name.clone(), load);
    }
    b
}

/// Library load, database elaboration, hand-design reference per point
/// and target derivation.
fn setup(seed: u64) -> Result<Setup, String> {
    let lib = ModelLibrary::reference();
    let mut rng = Prng::new(seed ^ 0x4442_0000);
    let mut points = Vec::new();
    for spec in representative_database() {
        let circuit = spec.generate();
        for load in LOADS {
            let boundary = boundary_for(&circuit, load);
            let base = baseline_sizing(&circuit, &lib, &boundary, &BaselineMargins::default());
            let hand_delay = max_delay(&circuit, &lib, &base, &boundary)
                .map_err(|e| format!("{spec} hand design: {e}"))?;
            points.push(Point {
                hand_width: circuit.total_width(&base),
                spec: spec.clone(),
                boundary,
                hand_delay,
                rotation: rng.usize_in(0, STRATA),
                phases: std::array::from_fn(|_| rng.f64()),
            });
        }
    }
    let opts = SizingOptions {
        trace: Trace::disabled(),
        ..SizingOptions::default()
    };
    Ok(Setup {
        seed,
        lib,
        opts,
        points,
    })
}

/// One explore call of a pass, with its wall time.
struct Call {
    point: usize,
    target: DelaySpec,
    ms: f64,
    table: Exploration,
}

/// Runs one pass, handing each call to `each` as soon as it returns, so
/// no more than one call's table is held at a time.
fn explore_pass(s: &Setup, pass: usize, opts: &SizingOptions, mut each: impl FnMut(Call)) {
    for (i, p) in s.points.iter().enumerate() {
        let target = s.target(i, pass);
        let (table, ms) = timed(|| {
            explore_parallel(
                &p.spec,
                &s.lib,
                &p.boundary,
                &target,
                opts,
                &ParallelOptions::serial(),
            )
        });
        each(Call {
            point: i,
            target,
            ms,
            table,
        });
    }
}

/// Row tallies and correctness over explore calls.
#[derive(Default)]
struct Tally {
    rows: usize,
    feasible: usize,
    failed: usize,
    violations: Vec<String>,
    width_ratios: Vec<f64>,
}

impl Tally {
    /// Checks every row of `call`: a success row must meet its spec,
    /// unrelaxed, under an independent STA measurement, and carry the
    /// width of its own sizing; an error row counts as failed when it is a
    /// panic or budget row.
    fn check(&mut self, s: &Setup, call: &Call) {
        let p = &s.points[call.point];
        let tol = 1.0 + s.opts.timing_tolerance;
        let mut best = f64::INFINITY;
        for c in &call.table.candidates {
            self.rows += 1;
            let m = match &c.result {
                Ok(m) => m,
                Err(e) => {
                    if FAILED_TAGS.contains(&e.taxonomy()) {
                        self.failed += 1;
                        self.violations
                            .push(format!("{}: {} row: {e}", c.spec, e.taxonomy()));
                    }
                    continue;
                }
            };
            let o = &m.outcome;
            let spec = &call.target;
            let mut ok = true;
            if o.spec_relaxation != 0.0 {
                ok = false;
                self.violations.push(format!(
                    "{}: spec relaxed by {} with no ladder set",
                    c.spec, o.spec_relaxation
                ));
            }
            let circuit = c.circuit.as_ref();
            if circuit
                .is_none_or(|ckt| ckt.total_width(&o.sizing).to_bits() != o.total_width.to_bits())
            {
                ok = false;
                self.violations
                    .push(format!("{}: width is not its sizing's width", c.spec));
            }
            if let Some(ckt) = circuit {
                match measure_phase_delays(ckt, &s.lib, &o.sizing, &p.boundary, &s.opts) {
                    Ok((d, pre)) => {
                        if d > spec.data * tol || pre > spec.precharge_budget() * tol {
                            ok = false;
                            self.violations.push(format!(
                                "{}: {d:.3}/{pre:.3} ps over spec {:.3} ps",
                                c.spec, spec.data
                            ));
                        }
                    }
                    Err(e) => {
                        ok = false;
                        self.violations.push(format!("{}: re-verify: {e}", c.spec));
                    }
                }
            }
            if ok {
                self.feasible += 1;
                best = best.min(o.total_width);
            } else {
                self.failed += 1;
            }
        }
        if best.is_finite() {
            self.width_ratios.push(best / p.hand_width);
        }
    }
}

/// `setups` holds (pace mark, ms) per set-up made so far.
fn untraced(
    s: &Setup,
    seconds: f64,
    mut setups: Vec<(usize, f64)>,
    mut pace: Pace,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    // (pace mark, ms) per explore call.
    let mut calls = Vec::new();
    // A fixed number of whole cycles of passes, sized from `seconds`, so
    // every run of a workload measures the same mix of macros and targets
    // however fast the host runs it.
    let cycles = (seconds / (PASS_S * STRATA as f64)).round().max(1.0) as usize;
    let passes = cycles * STRATA;
    for pass in 0..passes {
        explore_pass(s, pass, &s.opts, |call| {
            calls.push((pace.mark(), call.ms));
            tally.check(s, &call);
        });
        // One more set-up sample per pass, so the median spans the run.
        let ms = timed(|| setup(s.seed)).1;
        setups.push((pace.mark(), ms));
    }
    let raw_secs = calls.iter().map(|c| c.1).sum::<f64>() / 1e3;
    let call_ms: Vec<f64> = calls.iter().map(|&(k, ms)| pace.scale(k, ms)).collect();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(k, ms)| pace.scale(k, ms) / 1e3)
        .collect();
    let secs = call_ms.iter().sum::<f64>() / 1e3;
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s), "s");
    m.set(
        "ok_frac",
        1.0 - tally.failed as f64 / tally.rows.max(1) as f64,
        "frac",
    );
    m.set(
        "feasible_frac",
        tally.feasible as f64 / tally.rows.max(1) as f64,
        "frac",
    );
    m.set("cand_per_s", tally.rows as f64 / secs, "1/s");
    m.set("explore_p50_ms", median(&call_ms), "ms");
    m.set("explore_p95_ms", quantile(&call_ms, 0.95), "ms");
    m.set("width_vs_baseline", geomean(&tally.width_ratios), "ratio");
    // A sweep's request is one explore call.
    m.set("req_per_s", call_ms.len() as f64 / secs, "1/s");
    m.set("req_p50_ms", median(&call_ms), "ms");
    m.set("req_p99_ms", quantile(&call_ms, 0.99), "ms");
    println!(
        "sweep: {passes} passes, {} explore calls, {} rows in {secs:.2} s",
        call_ms.len(),
        tally.rows
    );
    println!(
        "pace: times scaled to the reference host by a median factor of {:.4}; unscaled {raw_secs:.2} s, {:.4} candidates/s",
        pace.median_factor(),
        tally.rows as f64 / raw_secs
    );
    Ok(Outcome {
        attempted: tally.rows,
        failed: tally.failed,
        violations: tally.violations,
        metrics: m,
        exact: Vec::new(),
    })
}

/// The traced run: one pass untraced, the same pass under the program's
/// own `Trace`, then the same pass replayed through the layers.
fn traced(s: &Setup) -> Outcome {
    // Both passes are paced, so the tracing overhead compares like with
    // like; the per-layer times stay as measured.
    let mut pace = Pace::new();
    let (mut plain, mut plain_marks) = (Vec::new(), Vec::new());
    explore_pass(s, 0, &s.opts, |call| {
        plain_marks.push(pace.mark());
        plain.push(call);
    });
    let trace = Trace::with_capacity(1 << 20);
    let traced_opts = SizingOptions {
        trace: trace.clone(),
        ..s.opts.clone()
    };
    let (mut with_trace, mut traced_marks) = (Vec::new(), Vec::new());
    explore_pass(s, 0, &traced_opts, |call| {
        traced_marks.push(pace.mark());
        with_trace.push(call);
    });
    let report = trace.collect();
    let paced = |calls: &[Call], marks: &[usize]| -> f64 {
        calls
            .iter()
            .zip(marks)
            .map(|(c, &k)| pace.scale(k, c.ms))
            .sum()
    };
    let plain_ms = paced(&plain, &plain_marks);
    let traced_ms = paced(&with_trace, &traced_marks);

    let mut tally = Tally::default();
    let mut violations = Vec::new();
    for (a, b) in plain.iter().zip(&with_trace) {
        tally.check(s, a);
        let (ra, rb): (Vec<Row>, Vec<Row>) = (
            a.table.candidates.iter().map(row).collect(),
            b.table.candidates.iter().map(row).collect(),
        );
        if ra != rb {
            violations.push(format!(
                "{}: traced rows differ from untraced rows",
                s.points[a.point].spec
            ));
        }
    }

    // Candidate scopes are keyed (sweep id, index); sweep ids are handed
    // out serially, one per explore call, in call order.
    let by_candidate = ledger::trace_counts(&report);
    let sweeps: Vec<u64> = report
        .events
        .iter()
        .filter(|e| e.scope.kind == "sweep" && e.kind == smart_trace::EventKind::Begin)
        .map(|e| e.scope.major)
        .collect();
    let flow = Flow {
        lib: &s.lib,
        opts: &s.opts,
        lint: true,
    };
    let mut led = Ledger::default();
    for (k, call) in plain.iter().enumerate() {
        let p = &s.points[call.point];
        for (idx, c) in call.table.candidates.iter().enumerate() {
            let (got, counts) = ledger::replay(&c.spec, &p.boundary, &call.target, &flow, &mut led);
            if got.as_ref() != Some(&row(c)) {
                continue;
            }
            led.reconciled += 1;
            let key = sweeps.get(k).map(|&sweep| (sweep, idx as u64));
            match key.and_then(|key| by_candidate.get(&key)) {
                Some(seen) if *seen == counts => {}
                seen => violations.push(format!(
                    "{}: replay counts {counts:?} differ from the program's trace {seen:?}",
                    c.spec
                )),
            }
        }
    }

    let mut m = Metrics::default();
    led.write(&mut m);
    m.set(
        "ledger.trace_overhead_frac",
        traced_ms / plain_ms - 1.0,
        "frac",
    );
    crate::zero_serve_layers(&mut m);
    crate::trace_spans(&mut m, &report);
    println!(
        "ledger: {} candidates replayed, {} reconciled; layers {:.1} ms of {:.1} ms replay wall; program pass {plain_ms:.1} ms untraced, {traced_ms:.1} ms traced",
        led.replayed,
        led.reconciled,
        led.layer_ms(),
        led.wall_ms
    );
    violations.extend(tally.violations);
    Outcome {
        attempted: tally.rows,
        failed: tally.failed,
        exact: vec![
            ("gp.newton_steps", led.gp_newton_steps),
            ("constraints.rows", led.constraints_rows),
            ("compact.classes", led.compact_classes),
            ("audit.certificates", led.audit_certificates),
            ("lint.rejected", led.lint_rejected),
            ("cache.hits", 0),
            ("cache.failure_resolves", 0),
        ],
        violations,
        metrics: m,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        return Ok(traced(&setup(seed)?));
    }
    let mut pace = Pace::new();
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        s = Some(setup(seed)?);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        setups.push((pace.mark(), ms));
    }
    let s = s.ok_or("no set-up")?;
    untraced(&s, seconds, setups, pace)
}
