//! The SMART benchmark: one command that runs a seeded workload, checks
//! every answer, and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path smartbench/Cargo.toml -- \
//!     --workload sweep-db --seed 1 --seconds 45 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! pass and prints the per-layer ledger. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. Any
//! failed row or violated check makes the command exit with code 1. See
//! `smartbench/README.md` for the workloads and what each metric predicts.

mod ledger;
mod serve;
mod sweep;
mod util;

use std::process::ExitCode;

use smart_trace::TraceReport;
use util::Metrics;

/// Failure classes that count as failed rows: a contained panic, or a
/// budget/admission refusal. Every other error row is an answer (for
/// example a certified-infeasible spec).
pub const FAILED_TAGS: [&str; 3] = ["panic", "internal", "budget"];

/// What one run measured and checked.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Checks that failed, one line each.
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Counts that must repeat exactly between runs of the same code on
    /// the same seed (traced runs only).
    pub exact: Vec<(&'static str, u64)>,
}

/// Per-layer metrics of the serving layers, zero on the sweeps, which use
/// neither a cache nor the daemon.
pub fn zero_serve_layers(m: &mut Metrics) {
    for (name, unit) in [
        ("cache.lookups", "count"),
        ("cache.hits", "count"),
        ("cache.hit_ratio", "ratio"),
        ("cache.failure_resolves", "count"),
        ("cache.entries", "count"),
        ("cache.evictions", "count"),
        ("persist.snapshot_ms", "ms"),
        ("persist.restore_ms", "ms"),
        ("persist.snapshot_bytes", "bytes"),
        ("serve.parse_us_p50", "us"),
        ("serve.server_ms_p50", "ms"),
        ("serve.server_ms_p99", "ms"),
        ("serve.transport_us_p50", "us"),
        ("serve.size_p50_ms", "ms"),
        ("serve.batch_p50_ms", "ms"),
        ("serve.explore_p50_ms", "ms"),
        ("serve.snapshot_p50_ms", "ms"),
        ("serve.size_p99_ms", "ms"),
        ("serve.refused", "count"),
    ] {
        m.set(name, 0.0, unit);
    }
}

/// What the program's own trace recorded: span time and the instant
/// events the sizing loop emits.
pub fn trace_spans(m: &mut Metrics, report: &TraceReport) {
    let sum = |name: &str| ledger::span_ms(report, name).iter().sum::<f64>();
    m.set("trace.sweep_ms", sum("sweep"), "ms");
    m.set("trace.candidate_ms", sum("candidate"), "ms");
    m.set("trace.rung_ms", sum("size/rung"), "ms");
    m.set(
        "trace.rungs",
        ledger::span_ms(report, "size/rung").len() as f64,
        "count",
    );
    m.set(
        "trace.compactions",
        ledger::instant_count(report, "size/compact") as f64,
        "count",
    );
    m.set(
        "trace.iterations",
        ledger::instant_count(report, "size/iteration") as f64,
        "count",
    );
    m.set(
        "trace.corner_checks",
        ledger::instant_count(report, "size/corner") as f64,
        "count",
    );
    m.set(
        "trace.audit_events",
        ledger::instant_count(report, "audit/") as f64,
        "count",
    );
    m.set("trace.dropped", report.dropped as f64, "count");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Compares this run's exact counts with the record an earlier run of the
/// same code and seed left, and leaves one if there is none.
fn exact_repeat(args: &Args, source_hash: u64, exact: &[(&'static str, u64)]) -> Option<String> {
    let body: String = exact.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    let dir = std::path::Path::new("target/smartbench-run");
    let path = dir.join(format!(
        "exact-{}-{}-{source_hash:016x}.txt",
        args.workload, args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != body => Some(format!(
            "exact-repeat counts differ from an earlier run of the same code and seed ({})",
            path.display()
        )),
        Ok(_) => None,
        Err(_) => {
            let _ = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body));
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smartbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = util::pin_to_current_cpu();
    let prov = util::provenance(&args.workload, args.seed, args.trace, nproc, pinned);
    println!("provenance {}", prov.json);
    let run = match args.workload.as_str() {
        "sweep-db" => sweep::run(args.seed, args.seconds, args.trace),
        "serve-zipf" => serve::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}` (sweep-db, serve-zipf)")),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("smartbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        out.metrics.set("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    if !out.exact.is_empty() {
        let fields: Vec<String> = out
            .exact
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("exact {{{}}}", fields.join(", "));
        out.violations
            .extend(exact_repeat(&args, prov.source_hash, &out.exact));
    }
    for (name, (value, unit)) in &out.metrics.0 {
        println!("metric {name:<28} {value:>16.6} {unit}");
    }
    for v in out.violations.iter().take(20) {
        eprintln!("violation: {v}");
    }
    if out.violations.len() > 20 {
        eprintln!("violation: ... {} more", out.violations.len() - 20);
    }
    let correct = out.failed == 0 && out.violations.is_empty();
    println!(
        "{}",
        util::result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
