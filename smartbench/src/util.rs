//! Statistics, host provenance and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Golden-ratio conjugate: the step of the quasi-random (Weyl) sequences
/// that spread seeded inputs evenly over their range.
pub const WEYL: f64 = 0.618_033_988_749_894_9;

/// Harrell–Davis estimate of quantile `q` (in `[0, 1]`) of `values`; 0
/// when empty. It averages every order statistic, weighted by a Beta
/// distribution centred on `q`, so a tail percentile of a few hundred
/// samples does not hinge on which single sample lands at its rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n <= 1 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = q.clamp(1e-9, 1.0 - 1e-9);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf((i + 1) as f64 / n as f64, a, b);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// Regularized incomplete beta function `I_x(a, b)`, by Lentz's continued
/// fraction.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_fraction(x, a, b) / a
    } else {
        1.0 - ln_front.exp() * beta_fraction(1.0 - x, b, a) / b
    }
}

fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered metric set: name → (value, unit).
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }
}

/// JSON number for a metric value: every digit as measured, `0` for a
/// non-finite value (which the correctness gate reports separately).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, (value, unit))) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            escape(name),
            num(*value),
            escape(unit)
        );
    }
    s.push_str("}}");
    s
}

/// Runs a command to completion and returns its trimmed stdout, if it
/// succeeded.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a over the sources the benchmark builds from, so a result names
/// the exact code it measured even outside a git checkout.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "smartbench/src"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("smartbench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in name.bytes().chain([0u8]).chain(body).chain([0u8]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Keeps this process, and every thread it starts from now on, on the CPU
/// it runs on, and returns that CPU. The serve workload's client and
/// daemon threads take turns, so they lose no parallelism; sharing a CPU
/// spares each round trip a cross-CPU wake-up, and the pace kernel then
/// runs on the CPU that does the work it calibrates. The vCPUs of a shared
/// host can differ in speed at the same moment.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live CPU set of the size passed; pid 0 is this
    // thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// Host and code provenance stamped on every result.
pub struct Provenance {
    pub source_hash: u64,
    pub json: String,
}

/// `nproc` is the number of CPUs the process may use before pinning.
pub fn provenance(
    workload: &str,
    seed: u64,
    trace: bool,
    nproc: usize,
    cpu_pin: Option<usize>,
) -> Provenance {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let commit = command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".to_owned());
    let source_hash = source_hash(Path::new("."));
    let json = format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"pinned_cpu\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_hash\": \"{source_hash:016x}\", \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}}}",
        escape(&cpu),
        cpu_pin.map_or("null".to_owned(), |c| c.to_string()),
        escape(&rustc),
        escape(&commit),
        escape(workload),
    );
    Provenance { source_hash, json }
}

/// Wall time of `f`, in ms, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// One run of the pace kernel: dense Cholesky factorisations of matrices
/// built from `exp` terms, the floating-point mix of a GP Newton step. It
/// calls no code of the program, so no change to the program moves it.
fn pace_kernel(scale: f64) -> f64 {
    const N: usize = 32;
    let mut a = [0.0f64; N * N];
    let mut acc = 0.0;
    for rep in 0..24 {
        let s = scale + f64::from(rep) * 1e-3;
        for i in 0..N {
            for j in 0..=i {
                let d = s * (i as f64 - j as f64);
                a[i * N + j] = (-d * d).exp();
            }
            a[i * N + i] += N as f64;
        }
        for j in 0..N {
            let mut d = a[j * N + j];
            for k in 0..j {
                d -= a[j * N + k] * a[j * N + k];
            }
            let d = d.sqrt();
            a[j * N + j] = d;
            for i in j + 1..N {
                let mut v = a[i * N + j];
                for k in 0..j {
                    v -= a[i * N + k] * a[j * N + k];
                }
                a[i * N + j] = v / d;
            }
        }
        acc += (0..N).map(|i| a[i * N + i].ln()).sum::<f64>();
    }
    acc
}

/// Time of one pace-kernel run on the reference host (2-vCPU 2.1 GHz
/// Xeon, quiet), in ms.
const REFERENCE_PACE_MS: f64 = 0.16;
/// Kernel runs on each side of a timed operation whose median gives the
/// host's speed during it.
const PACE_REACH: usize = 2;

/// The host's speed, sampled between timed operations.
///
/// A shared host runs the same code up to 1.7× slower at some moments
/// than at others, and switches between speeds within a second. The
/// benchmark runs a fixed kernel of its own right after every timed
/// operation, on the same CPU (see [`pin_to_current_cpu`]), and reports
/// each time scaled to the reference host's speed: measured ms ×
/// reference kernel ms / median of the kernel runs within
/// [`PACE_REACH`] of the operation. Two runs of the same requests differ
/// per request by 23% (sd of the log ratio) unscaled and by 13% scaled.
pub struct Pace {
    samples: Vec<f64>,
}

impl Pace {
    /// A pace with the kernel runs that precede the first operation.
    pub fn new() -> Pace {
        let mut p = Pace {
            samples: Vec::new(),
        };
        for _ in 0..PACE_REACH {
            p.mark();
        }
        p
    }

    /// Runs the kernel once, right after a timed operation, and returns
    /// the operation's mark for [`Pace::scale`].
    pub fn mark(&mut self) -> usize {
        let scale = std::hint::black_box(0.37);
        let (acc, ms) = timed(|| pace_kernel(scale));
        std::hint::black_box(acc);
        self.samples.push(ms);
        self.samples.len() - 1
    }

    /// `ms` of the operation marked `mark`, scaled to the reference host's
    /// speed.
    pub fn scale(&self, mark: usize, ms: f64) -> f64 {
        ms * self.factor(mark)
    }

    fn factor(&self, mark: usize) -> f64 {
        let lo = mark.saturating_sub(PACE_REACH);
        let hi = (mark + PACE_REACH + 1).min(self.samples.len());
        let mut w = self.samples[lo..hi].to_vec();
        w.sort_by(f64::total_cmp);
        REFERENCE_PACE_MS / w[w.len() / 2]
    }

    /// Median factor over every marked operation: reference speed / host
    /// speed.
    pub fn median_factor(&self) -> f64 {
        let f: Vec<f64> = (PACE_REACH..self.samples.len())
            .map(|m| self.factor(m))
            .collect();
        median(&f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_known_values() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 51.0).abs() < 1e-9);
        let q95 = quantile(&v, 0.95);
        assert!((94.0..97.0).contains(&q95), "{q95}");
        assert!((beta_cdf(0.3, 2.0, 5.0) - 0.579_825).abs() < 1e-6);
        assert!((ln_gamma(10.0) - 362_880f64.ln()).abs() < 1e-10);
    }

    #[test]
    fn pace_scales_by_the_median_kernel_time_around_each_mark() {
        let p = Pace {
            samples: vec![0.32, 0.16, 0.16, 0.08, 0.32, 0.32, 0.32],
        };
        // Mark 3 sees samples 1..=5; their median is 0.32 / 2.
        assert!((p.scale(3, 10.0) - 10.0).abs() < 1e-12);
        // Mark 6 sees samples 4..=6 only.
        assert!((p.scale(6, 10.0) - 5.0).abs() < 1e-12);
    }
}
