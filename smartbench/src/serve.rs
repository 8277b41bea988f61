//! `serve-zipf`: a resident advisor behind its Unix-socket transport, with
//! one closed-loop client that waits for every reply — a designer or a
//! sweep script asking about popular macros again and again.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smart_core::{
    baseline_sizing, cache_key, measure_phase_delays, BaselineMargins, DelaySpec, ParallelOptions,
    SizingOptions,
};
use smart_macros::MacroSpec;
use smart_models::ModelLibrary;
use smart_prng::Prng;
use smart_serve::json::Json;
use smart_serve::{Advisor, ServeOptions};
use smart_trace::{EventKind, Trace, TraceReport, Value};

use crate::ledger::{self, Flow, Ledger, Row};
use crate::sweep::boundary_for;
use crate::util::{geomean, median, quantile, Metrics, Pace, WEYL};
use crate::{Outcome, FAILED_TAGS};

/// The request grammar's macro set, one or two members per family.
const MACROS: [&str; 18] = [
    "mux8:pass",
    "mux8:dom",
    "mux4:tri",
    "inc8",
    "inc13",
    "dec8",
    "zd16",
    "zd16:domino",
    "decoder3",
    "decoder4",
    "penc3",
    "cmp32",
    "cla8",
    "cla16",
    "shift8",
    "shift16:sll",
    "rf8x8",
    "rf16x8",
];
const LOADS: [f64; 3] = [8.0, 16.0, 32.0];
const DELAYS: [f64; 5] = [250.0, 300.0, 400.0, 600.0, 900.0];
/// Op mix per deck of 100 requests: size, batch, explore, stats,
/// snapshot-or-restore, malformed. Each deck is shuffled, so every 100
/// requests carry exactly this mix.
const DECK_SIZE: usize = 100;
const DECK: [(Op, usize); 6] = [
    (Op::Size, 75),
    (Op::Batch, 15),
    (Op::Explore, 6),
    (Op::Stats, 2),
    (Op::Persist, 1),
    (Op::Malformed, 1),
];
const BATCH_ITEMS: usize = 4;
/// Requests in the traced run's fixed unit of work.
const TRACED_REQUESTS: usize = 300;
/// Nominal request rate, warm-up included, at the reference host's speed
/// (see `util::Pace`), which sizes a run's number of decks from
/// `--seconds`: 13 decks at 40 s.
const NOMINAL_REQ_PER_S: f64 = 33.0;
/// Set-ups before the session; `setup_s` is the median of these and of
/// one more after every deck.
const SETUPS: usize = 5;
/// Failure classes a row of a well-formed work request may carry. The
/// failed classes (`FAILED_TAGS`) are listed so they are recognised, and
/// then counted as failures.
const TAGS: [&str; 15] = [
    "infeasible",
    "unbounded",
    "non-finite",
    "budget",
    "numerical",
    "sta",
    "paths",
    "no-convergence",
    "no-endpoints",
    "pin",
    "panic",
    "internal",
    "lint",
    "no-feasible",
    "ok",
];
const MALFORMED: [&str; 5] = [
    "{\"op\":\"size\",\"macro\":\"mux8:pass\",\"load\":",
    "{\"op\":\"resize\",\"id\":\"m\"}",
    "{\"op\":\"size\",\"id\":\"m\",\"macro\":\"mux7:enc\"}",
    "{\"op\":\"size\",\"id\":\"m\",\"macro\":\"inc8\",\"load\":-3}",
    "{\"op\":\"batch\",\"id\":\"m\"}",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Size,
    Batch,
    Explore,
    Stats,
    Persist,
    Malformed,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Size => "size",
            Op::Batch => "batch",
            Op::Explore => "explore",
            Op::Stats => "stats",
            Op::Persist => "persist",
            Op::Malformed => "malformed",
        }
    }
}

/// One (macro, load, delay) point of the grammar.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
struct Point {
    mac: usize,
    load: usize,
    delay: usize,
}

impl Point {
    fn json(self) -> String {
        format!(
            "\"macro\":\"{}\",\"load\":{:?},\"delay\":{:?}",
            MACROS[self.mac], LOADS[self.load], DELAYS[self.delay]
        )
    }
}

/// One generated request: its line without the id, and what it asks.
#[derive(Clone)]
struct Request {
    op: Op,
    body: String,
    points: Vec<Point>,
}

impl Request {
    fn line(&self, id: usize) -> String {
        match self.op {
            Op::Malformed => self.body.clone(),
            _ => format!("{{\"id\":\"r{id}\",{}", &self.body[1..]),
        }
    }
}

/// The seeded request stream, dealt in decks of 100 requests.
///
/// Popularity is Zipf(s = 1) over the grammar's points in a fixed rank
/// order: which macros designers ask about most is a property of the
/// workload. Each op draws its points from its own golden-ratio (Weyl)
/// quasi-random sequence through the Zipf distribution, so every deck asks
/// for each point close to its expected number of times. The seed only
/// shuffles each deck and picks the malformed lines: it sets the order
/// requests arrive in, while the set of requests a run sends is the same
/// for every seed. Seeded draw sequences did not stay steady: a run holds
/// 78 explore requests, too few to absorb a change of which points they
/// ask about, and the points `size` and `batch` ask about move the
/// quality metrics by half their bounds.
#[derive(Clone)]
struct Stream {
    rng: Prng,
    ranked: Vec<Point>,
    cdf: Vec<f64>,
    /// Draw position per op: size, batch, explore.
    phase: [f64; 3],
    deck: Vec<Request>,
    persists: usize,
    snapshot: String,
}

/// Fixes the popularity rank order of the grammar's points.
const RANK_SEED: u64 = 0x5a49_5046;

impl Stream {
    fn new(seed: u64, snapshot: &Path) -> Stream {
        let mut ranked = Vec::new();
        for mac in 0..MACROS.len() {
            for load in 0..LOADS.len() {
                for delay in 0..DELAYS.len() {
                    ranked.push(Point { mac, load, delay });
                }
            }
        }
        let mut order = Prng::new(RANK_SEED);
        for i in (1..ranked.len()).rev() {
            ranked.swap(i, order.usize_in(0, i + 1));
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=ranked.len())
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Stream {
            rng: Prng::new(seed ^ 0x5345_5256),
            ranked,
            cdf,
            phase: [0.0, 1.0 / 3.0, 2.0 / 3.0],
            deck: Vec::new(),
            persists: 0,
            snapshot: snapshot.to_string_lossy().into_owned(),
        }
    }

    /// The next point of op `k`'s draw sequence.
    fn point(&mut self, k: usize) -> Point {
        self.phase[k] = (self.phase[k] + WEYL).fract();
        let u = self.phase[k];
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.ranked.len() - 1);
        self.ranked[i]
    }

    /// A `size` or `explore` request for one point.
    fn single(op: Op, p: Point) -> Request {
        Request {
            op,
            body: format!("{{\"op\":\"{}\",{}}}", op.name(), p.json()),
            points: vec![p],
        }
    }

    fn make(&mut self, op: Op) -> Request {
        let (body, points) = match op {
            Op::Size | Op::Explore => {
                let p = self.point(if op == Op::Size { 0 } else { 2 });
                return Stream::single(op, p);
            }
            Op::Batch => {
                let points: Vec<Point> = (0..BATCH_ITEMS).map(|_| self.point(1)).collect();
                let items: Vec<String> =
                    points.iter().map(|p| format!("{{{}}}", p.json())).collect();
                (
                    format!("{{\"op\":\"batch\",\"requests\":[{}]}}", items.join(",")),
                    points,
                )
            }
            Op::Stats => ("{\"op\":\"stats\"}".to_owned(), Vec::new()),
            Op::Persist => {
                // One per deck: snapshot, then restore it in the next deck.
                let what = if self.persists.is_multiple_of(2) {
                    "snapshot"
                } else {
                    "restore"
                };
                self.persists += 1;
                let path = crate::util::escape(&self.snapshot);
                (format!("{{\"op\":\"{what}\",\"path\":{path}}}"), Vec::new())
            }
            Op::Malformed => {
                let line = MALFORMED[self.rng.usize_in(0, MALFORMED.len())];
                (line.to_owned(), Vec::new())
            }
        };
        Request { op, body, points }
    }

    fn next(&mut self) -> Request {
        if self.deck.is_empty() {
            for (op, n) in DECK {
                for _ in 0..n {
                    let req = self.make(op);
                    self.deck.push(req);
                }
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.usize_in(0, i + 1);
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("a dealt deck holds 100 requests")
    }

    /// The warm-up for the next `requests` requests: one `size` request
    /// for every distinct point their `size` and `batch` requests ask
    /// about, then one `explore` request for every distinct point they
    /// explore, in point order. Sent untimed before the session, it leaves
    /// every answer the advisor caches in its cache, so a timed request
    /// costs the same whatever order the seed deals it in: a success is a
    /// cache hit and a failure is solved again.
    fn warm_up(&self, requests: usize) -> Vec<Request> {
        let mut preview = self.clone();
        let (mut sized, mut explored) = (BTreeSet::new(), BTreeSet::new());
        for _ in 0..requests {
            let req = preview.next();
            match req.op {
                Op::Size | Op::Batch => sized.extend(req.points),
                Op::Explore => explored.extend(req.points),
                Op::Stats | Op::Persist | Op::Malformed => {}
            }
        }
        let sizes = sized.into_iter().map(|p| Stream::single(Op::Size, p));
        let explores = explored.into_iter().map(|p| Stream::single(Op::Explore, p));
        sizes.chain(explores).collect()
    }
}

/// A running daemon: the advisor, its listener thread and one client
/// connection.
struct Daemon {
    advisor: Arc<Advisor>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Daemon {
    /// Library load, advisor construction, socket bind, and the first
    /// round trip on the client connection.
    fn start(socket: &Path, trace: Trace) -> Result<Daemon, String> {
        let advisor = Arc::new(Advisor::new(ServeOptions {
            parallel: Some(ParallelOptions::serial()),
            trace,
            ..ServeOptions::default()
        }));
        let _ = std::fs::remove_file(socket);
        let served = Arc::clone(&advisor);
        let path = socket.to_path_buf();
        let thread = std::thread::spawn(move || smart_serve::serve_unix(served, &path));
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if Instant::now() > deadline || thread.is_finished() => {
                    return Err(format!("connect {}: {e}", socket.display()));
                }
                Err(_) => std::thread::yield_now(),
            }
        };
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut d = Daemon {
            advisor,
            thread: Some(thread),
            reader: BufReader::new(stream),
            writer,
        };
        let pong = d.call("{\"op\":\"ping\",\"id\":\"setup\"}")?;
        if !pong.contains("\"ok\":true") {
            return Err(format!("ping failed: {pong}"));
        }
        Ok(d)
    }

    /// One closed-loop round trip: write a line, read one reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_owned()),
            Ok(_) => Ok(reply.trim_end_matches('\n').to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Sends `shutdown` and waits for the listener thread to end.
    fn stop(mut self) -> Result<(), String> {
        let bye = self.call("{\"op\":\"shutdown\",\"id\":\"bye\"}");
        let joined = self.thread.take().map(JoinHandle::join);
        bye?;
        match joined {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("listener: {e}")),
            Some(Err(_)) => Err("listener thread panicked".to_owned()),
        }
    }
}

/// One answered candidate: the exact width of a success row or the
/// failure class.
type Key = (String, u64, u64);

fn key(spec: &MacroSpec, load: f64, delay: f64) -> Key {
    (spec.to_string(), load.to_bits(), delay.to_bits())
}

/// Reply checks and tallies over a request stream.
#[derive(Default)]
struct Check {
    rows: usize,
    feasible: usize,
    failed: usize,
    refused: usize,
    violations: Vec<String>,
    /// First reply per request body (id removed), for repeat identity.
    first_reply: HashMap<String, String>,
    /// First answer per candidate.
    answers: HashMap<Key, Row>,
    /// Success rows still to re-verify against the cached sizing.
    successes: BTreeMap<Key, (MacroSpec, f64, f64, f64)>,
    failure_resolves: usize,
    /// Candidates the advisor computed (not served from its cache), in
    /// order, with the row it produced and whether it was lint-gated.
    computed: Vec<(MacroSpec, f64, f64, Row, bool)>,
    /// Cache lookups the advisor served from memory, as this model of
    /// its cache predicts them.
    predicted_hits: usize,
    width_ratios: Vec<f64>,
    hand: HashMap<(usize, usize), f64>,
}

fn as_bool(v: Option<&Json>) -> Option<bool> {
    match v {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

impl Check {
    /// Clears the tallies of the warm-up; what it answered stays, for the
    /// repeat-identity and re-verification checks and the cache model.
    fn start_timing(&mut self) {
        self.rows = 0;
        self.feasible = 0;
        self.refused = 0;
        self.failure_resolves = 0;
        self.computed.clear();
        self.predicted_hits = 0;
        self.width_ratios.clear();
    }

    fn violation(&mut self, what: String) {
        self.violations.push(what);
        self.failed += 1;
    }

    /// One candidate row of a size, batch or explore reply.
    fn row(&mut self, spec: &MacroSpec, p: Point, row: &Json, lint_gated: bool, rated: bool) {
        self.rows += 1;
        let (load, delay) = (LOADS[p.load], DELAYS[p.delay]);
        let status = row.get("status").and_then(Json::as_str).unwrap_or("ok");
        let answer = if status == "ok" {
            let (Some(w), Some(d)) = (
                row.get("width").and_then(Json::as_f64),
                row.get("delay").and_then(Json::as_f64),
            ) else {
                return self.violation(format!("{spec}: success row without width/delay"));
            };
            let relax = row.get("relaxation").and_then(Json::as_f64).unwrap_or(0.0);
            let tol = 1.0 + SizingOptions::default().timing_tolerance;
            if !(w > 0.0 && relax == 0.0 && d <= delay * tol) {
                return self.violation(format!("{spec}: row {w}/{d} ps misses {delay} ps"));
            }
            self.feasible += 1;
            if rated {
                if let Some(h) = self.hand.get(&(p.mac, p.load)) {
                    self.width_ratios.push(w / h);
                }
            }
            self.successes
                .entry(key(spec, load, delay))
                .or_insert((spec.clone(), load, delay, w));
            Row::Width(w.to_bits())
        } else {
            if !TAGS.contains(&status) {
                return self.violation(format!("{spec}: unknown status `{status}`"));
            }
            if FAILED_TAGS.contains(&status) {
                return self.violation(format!("{spec}: {status} row"));
            }
            Row::Failed(status.to_owned())
        };
        let k = key(spec, load, delay);
        match self.answers.get(&k) {
            Some(first) => {
                if *first != answer {
                    return self.violation(format!(
                        "{spec}: repeat answered {answer:?}, first {first:?}"
                    ));
                }
                match first {
                    Row::Width(_) => self.predicted_hits += 1,
                    Row::Failed(tag) if tag == "lint" => {}
                    Row::Failed(_) => {
                        self.failure_resolves += 1;
                        self.computed
                            .push((spec.clone(), load, delay, answer, lint_gated));
                    }
                }
            }
            None => {
                self.answers.insert(k, answer.clone());
                self.computed
                    .push((spec.clone(), load, delay, answer, lint_gated));
            }
        }
    }

    /// Checks one reply against its request.
    fn reply(&mut self, req: &Request, id: usize, reply: &str) {
        let Ok(v) = Json::parse(reply) else {
            return self.violation(format!("reply is not one JSON line: {reply}"));
        };
        let ok = as_bool(v.get("ok"));
        let want_id = if req.op == Op::Malformed {
            None
        } else {
            Some(format!("r{id}"))
        };
        let got_id = v.get("id").and_then(Json::as_str);
        if want_id.is_some() && got_id != want_id.as_deref() {
            return self.violation(format!("reply id {got_id:?} for request r{id}"));
        }
        if req.op == Op::Malformed {
            if ok != Some(false) || v.get("error").and_then(Json::as_str) != Some("invalid-request")
            {
                self.violation(format!("malformed request not refused as invalid: {reply}"));
            }
            return;
        }
        if ok != Some(true) {
            let tag = v.get("error").and_then(Json::as_str).unwrap_or("");
            if tag == "budget" {
                self.refused += 1;
            }
            if req.op != Op::Size || !TAGS.contains(&tag) || FAILED_TAGS.contains(&tag) {
                return self.violation(format!("{} refused: {reply}", req.op.name()));
            }
        }
        if matches!(req.op, Op::Size | Op::Batch | Op::Explore) {
            let stripped = reply.replacen(&format!("\"id\":\"r{id}\""), "\"id\":\"\"", 1);
            match self.first_reply.get(&req.body) {
                Some(first) if *first != stripped => {
                    return self.violation(format!("repeat of {} answered differently", req.body));
                }
                Some(_) => {}
                None => {
                    self.first_reply.insert(req.body.clone(), stripped);
                }
            }
        }
        match req.op {
            Op::Size => {
                let p = req.points[0];
                let spec = MacroSpec::parse(MACROS[p.mac]).expect("grammar macros parse");
                let row = if ok == Some(true) {
                    v.clone()
                } else {
                    let tag = v.get("error").and_then(Json::as_str).unwrap_or("");
                    Json::parse(&format!("{{\"status\":{}}}", crate::util::escape(tag)))
                        .expect("status row")
                };
                self.row(&spec, p, &row, false, true);
            }
            Op::Batch => {
                let rows = v.get("rows").and_then(Json::as_array).unwrap_or(&[]);
                if rows.len() != req.points.len() {
                    return self.violation(format!(
                        "batch answered {} rows for {}",
                        rows.len(),
                        req.points.len()
                    ));
                }
                for (p, r) in req.points.iter().zip(rows) {
                    let spec = MacroSpec::parse(MACROS[p.mac]).expect("grammar macros parse");
                    self.row(&spec, *p, r, false, true);
                }
            }
            Op::Explore => {
                let p = req.points[0];
                let request = MacroSpec::parse(MACROS[p.mac]).expect("grammar macros parse");
                let mut alts = request.alternatives();
                if let Some(pos) = alts.iter().position(|s| *s == request) {
                    alts.swap(0, pos);
                }
                let rows = v.get("rows").and_then(Json::as_array).unwrap_or(&[]);
                if rows.len() != alts.len() {
                    return self.violation(format!(
                        "explore answered {} rows for {}",
                        rows.len(),
                        alts.len()
                    ));
                }
                for (spec, r) in alts.iter().zip(rows) {
                    self.row(spec, p, r, true, false);
                }
            }
            Op::Stats | Op::Persist | Op::Malformed => {}
        }
    }

    /// Re-verifies every success row against the sizing the advisor
    /// cached for it: the same width bit for bit, and the spec met under
    /// an independent STA measurement.
    fn reverify(&mut self, advisor: &Advisor, lib: &ModelLibrary) {
        let opts = SizingOptions {
            trace: Trace::disabled(),
            ..SizingOptions::default()
        };
        let evicted = advisor.cache().evicted() > 0;
        let successes = std::mem::take(&mut self.successes);
        for (spec, load, delay, width) in successes.values() {
            let circuit = spec.generate();
            let boundary = boundary_for(&circuit, *load);
            let target = DelaySpec::uniform(*delay);
            let k = cache_key(&circuit, lib, &boundary, &target, &opts);
            let Some(outcome) = advisor.cache().lookup(&k) else {
                if !evicted {
                    self.violation(format!(
                        "{spec}@{load}/{delay}: success row not in the cache"
                    ));
                }
                continue;
            };
            if outcome.total_width.to_bits() != width.to_bits()
                || circuit.total_width(&outcome.sizing).to_bits() != width.to_bits()
            {
                self.violation(format!(
                    "{spec}@{load}/{delay}: width differs from its sizing"
                ));
                continue;
            }
            match measure_phase_delays(&circuit, lib, &outcome.sizing, &boundary, &opts) {
                Ok((d, pre))
                    if d <= delay * (1.0 + opts.timing_tolerance)
                        && pre <= delay * (1.0 + opts.timing_tolerance) => {}
                Ok((d, pre)) => {
                    self.violation(format!("{spec}@{load}/{delay}: re-measured {d}/{pre} ps"))
                }
                Err(e) => self.violation(format!("{spec}@{load}/{delay}: re-verify: {e}")),
            }
        }
    }
}

/// Round trips of one closed-loop session.
#[derive(Default)]
struct Session {
    /// Per request, in order: its op (`snapshot` or `restore` for a
    /// persist request) and round-trip ms.
    times: Vec<(&'static str, f64)>,
    /// Pace mark of each request, when the session is paced.
    marks: Vec<usize>,
    /// Work requests in order: (id, index into `times`).
    work: Vec<(String, usize)>,
}

impl Session {
    fn requests(&self) -> usize {
        self.times.len()
    }

    fn total_ms(&self) -> f64 {
        self.times.iter().map(|t| t.1).sum()
    }

    fn all_ms(&self) -> Vec<f64> {
        self.times.iter().map(|t| t.1).collect()
    }

    fn ms(&self, op: &str) -> Vec<f64> {
        self.times
            .iter()
            .filter(|t| t.0 == op)
            .map(|t| t.1)
            .collect()
    }

    /// Total round-trip ms at the reference host's speed.
    fn scaled_total_ms(&self, pace: &Pace) -> f64 {
        self.times
            .iter()
            .zip(&self.marks)
            .map(|(t, &mark)| pace.scale(mark, t.1))
            .sum()
    }

    /// Scales every round trip to the reference host's speed.
    fn scale(&mut self, pace: &Pace) {
        for (t, &mark) in self.times.iter_mut().zip(&self.marks) {
            t.1 = pace.scale(mark, t.1);
        }
    }
}

/// Drives `daemon` with the requests `next` hands out, adding to `s`,
/// until `stop(s)` or `next` runs out. With a `pace`, the kernel runs
/// after every round trip, for [`Session::scale`].
fn drive(
    daemon: &mut Daemon,
    mut next: impl FnMut() -> Option<Request>,
    check: &mut Check,
    s: &mut Session,
    mut pace: Option<&mut Pace>,
    stop: impl Fn(&Session) -> bool,
) -> Result<(), String> {
    while !stop(s) {
        let Some(req) = next() else {
            break;
        };
        let id = s.requests();
        let line = req.line(id);
        let t = Instant::now();
        let reply = daemon.call(&line)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(p) = pace.as_deref_mut() {
            s.marks.push(p.mark());
        }
        let op = if req.op == Op::Persist && req.body.contains("\"restore\"") {
            "restore"
        } else if req.op == Op::Persist {
            "snapshot"
        } else {
            req.op.name()
        };
        if matches!(req.op, Op::Size | Op::Batch | Op::Explore) {
            s.work.push((format!("r{id}"), s.times.len()));
        }
        s.times.push((op, ms));
        check.reply(&req, id, &reply);
    }
    Ok(())
}

struct Paths {
    socket: PathBuf,
    /// Socket of the throwaway daemons that sample set-up time.
    spare: PathBuf,
    snapshot: PathBuf,
    /// The traced run's warm-up cache.
    warm: PathBuf,
}

fn paths() -> Result<Paths, String> {
    let dir = PathBuf::from("target/smartbench-run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pid = std::process::id();
    Ok(Paths {
        socket: dir.join(format!("serve-{pid}.sock")),
        spare: dir.join(format!("spare-{pid}.sock")),
        snapshot: dir.join(format!("serve-{pid}.snapshot")),
        warm: dir.join(format!("warm-{pid}.snapshot")),
    })
}

/// Hand-design width per (macro, load), the reference `width_vs_baseline`
/// divides by.
fn hand_widths(lib: &ModelLibrary) -> HashMap<(usize, usize), f64> {
    let mut out = HashMap::new();
    for (m, name) in MACROS.iter().enumerate() {
        let circuit = MacroSpec::parse(name)
            .expect("grammar macros parse")
            .generate();
        for (l, &load) in LOADS.iter().enumerate() {
            let boundary = boundary_for(&circuit, load);
            let base = baseline_sizing(&circuit, lib, &boundary, &BaselineMargins::default());
            out.insert((m, l), circuit.total_width(&base));
        }
    }
    out
}

fn untraced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let paths = paths()?;
    let lib = ModelLibrary::reference();
    let mut check = Check {
        hand: hand_widths(&lib),
        ..Check::default()
    };
    // Set-up is sampled before the session and again after every deck,
    // on a throwaway daemon, so its median spans the whole run.
    let setup = || -> Result<f64, String> {
        let t = Instant::now();
        let d = Daemon::start(&paths.spare, Trace::disabled())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        d.stop()?;
        Ok(ms)
    };
    let mut pace = Pace::new();
    // (pace mark, ms) per set-up.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let ms = setup()?;
        setups.push((pace.mark(), ms));
    }
    let mut daemon = Daemon::start(&paths.socket, Trace::disabled())?;
    let mut stream = Stream::new(seed, &paths.snapshot);
    // A fixed number of whole decks, sized from `seconds`, so every run
    // sends the same requests however fast the host answers them.
    let decks = (seconds * NOMINAL_REQ_PER_S / DECK_SIZE as f64)
        .round()
        .max(1.0) as usize;
    let mut warm = stream.warm_up(decks * DECK_SIZE).into_iter();
    let warmed = Instant::now();
    let mut driven = drive(
        &mut daemon,
        || warm.next(),
        &mut check,
        &mut Session::default(),
        None,
        |_| false,
    );
    let warm_s = warmed.elapsed().as_secs_f64();
    let (warm_hits, warm_misses) = daemon.advisor.cache().stats();
    check.start_timing();
    let mut session = Session::default();
    for deck in 1..=decks {
        if driven.is_err() {
            break;
        }
        driven = drive(
            &mut daemon,
            || Some(stream.next()),
            &mut check,
            &mut session,
            Some(&mut pace),
            |s| s.requests() >= deck * DECK_SIZE,
        );
        let ms = setup()?;
        setups.push((pace.mark(), ms));
    }
    let advisor = Arc::clone(&daemon.advisor);
    let stopped = daemon.stop();
    driven?;
    stopped?;
    let (hits, misses) = advisor.cache().stats();
    let (hits, misses) = (hits - warm_hits, misses - warm_misses);
    check.reverify(&advisor, &lib);
    let _ = std::fs::remove_file(&paths.snapshot);

    let raw_secs = session.total_ms() / 1e3;
    session.scale(&pace);
    let secs = session.total_ms() / 1e3;
    let explore = session.ms("explore");
    let all = session.all_ms();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(k, ms)| pace.scale(k, ms) / 1e3)
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s), "s");
    let requests = session.requests();
    let failed = check.failed.min(requests);
    m.set(
        "ok_frac",
        1.0 - failed as f64 / requests.max(1) as f64,
        "frac",
    );
    m.set(
        "feasible_frac",
        check.feasible as f64 / check.rows.max(1) as f64,
        "frac",
    );
    m.set("cand_per_s", check.rows as f64 / secs, "1/s");
    m.set("explore_p50_ms", median(&explore), "ms");
    m.set("explore_p95_ms", quantile(&explore, 0.95), "ms");
    m.set("width_vs_baseline", geomean(&check.width_ratios), "ratio");
    m.set("req_per_s", requests as f64 / secs, "1/s");
    m.set("req_p50_ms", median(&all), "ms");
    m.set("req_p99_ms", quantile(&all, 0.99), "ms");
    println!(
        "serve: warm-up {warm_s:.2} s; {requests} requests ({} explore) in {secs:.2} s; {} rows, cache {hits} hits / {misses} misses, {} failure re-solves",
        explore.len(),
        check.rows,
        check.failure_resolves
    );
    println!(
        "pace: times scaled to the reference host by a median factor of {:.4}; unscaled {raw_secs:.2} s, {:.4} req/s",
        pace.median_factor(),
        requests as f64 / raw_secs
    );
    Ok(Outcome {
        attempted: requests,
        failed: check.failed,
        violations: check.violations,
        metrics: m,
        exact: Vec::new(),
    })
}

/// `serve-request` span durations (ms) by request id.
fn server_spans(report: &TraceReport) -> HashMap<String, f64> {
    let mut begun: HashMap<smart_trace::ScopeId, (String, u64)> = HashMap::new();
    let mut out = HashMap::new();
    for e in report.events.iter().filter(|e| e.name == "serve-request") {
        match e.kind {
            EventKind::Begin => {
                let id = e
                    .fields
                    .iter()
                    .find(|(k, _)| *k == "id")
                    .and_then(|(_, v)| match v {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    });
                begun.insert(e.scope, (id.unwrap_or_default(), e.t_ns));
            }
            EventKind::End => {
                if let Some((id, t0)) = begun.remove(&e.scope) {
                    out.insert(id, e.t_ns.saturating_sub(t0) as f64 / 1e6);
                }
            }
            EventKind::Instant => {}
        }
    }
    out
}

/// The traced run: the warm-up of the first [`TRACED_REQUESTS`]
/// requests, then those requests untraced; the same requests against a
/// traced advisor restored from the warm-up's cache; then every candidate
/// the traced advisor computed replayed through the layers.
fn traced(seed: u64) -> Result<Outcome, String> {
    let paths = paths()?;
    let lib = ModelLibrary::reference();
    let fixed = |s: &Session| s.requests() >= TRACED_REQUESTS;
    let mut check = Check {
        hand: hand_widths(&lib),
        ..Check::default()
    };

    // Both sessions are paced, so the tracing overhead compares like with
    // like; the per-layer times stay as measured.
    let mut pace = Pace::new();
    let mut plain = Session::default();
    let mut d = Daemon::start(&paths.socket, Trace::disabled())?;
    let mut warm = Stream::new(seed, &paths.snapshot)
        .warm_up(TRACED_REQUESTS)
        .into_iter();
    let mut driven = drive(
        &mut d,
        || warm.next(),
        &mut check,
        &mut Session::default(),
        None,
        |_| false,
    );
    if driven.is_ok() {
        driven = d
            .advisor
            .cache()
            .save_snapshot(&paths.warm)
            .map_err(|e| format!("{}: {e}", paths.warm.display()));
    }
    check.start_timing();
    if driven.is_ok() {
        let mut stream = Stream::new(seed, &paths.snapshot);
        driven = drive(
            &mut d,
            || Some(stream.next()),
            &mut Check::default(),
            &mut plain,
            Some(&mut pace),
            fixed,
        );
    }
    let stopped = d.stop();
    driven?;
    stopped?;

    let trace = Trace::with_capacity(1 << 20);
    let mut d = Daemon::start(&paths.socket, trace.clone())?;
    let mut session = Session::default();
    let mut stream = Stream::new(seed, &paths.snapshot);
    let driven = match d.advisor.cache().load_snapshot(&paths.warm) {
        Some(_) => drive(
            &mut d,
            || Some(stream.next()),
            &mut check,
            &mut session,
            Some(&mut pace),
            fixed,
        ),
        None => Err(format!(
            "{}: warm-up snapshot unreadable",
            paths.warm.display()
        )),
    };
    let _ = std::fs::remove_file(&paths.warm);
    let advisor = Arc::clone(&d.advisor);
    let stopped = d.stop();
    driven?;
    stopped?;
    let report = trace.collect();
    let (hits, misses) = advisor.cache().stats();
    let (entries, evictions) = (advisor.cache().len(), advisor.cache().evicted());
    let snapshot_bytes = std::fs::metadata(&paths.snapshot).map_or(0, |m| m.len());
    check.reverify(&advisor, &lib);
    let _ = std::fs::remove_file(&paths.snapshot);

    // Parse cost of every request line, through the daemon's own codec.
    let mut stream = Stream::new(seed, &paths.snapshot);
    let parse_us: Vec<f64> = (0..TRACED_REQUESTS)
        .map(|i| {
            let line = stream.next().line(i);
            let t = Instant::now();
            let parsed = Json::parse(std::hint::black_box(&line));
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(parsed.is_ok());
            us
        })
        .collect();

    let spans = server_spans(&report);
    let mut server_ms = Vec::new();
    let mut transport_us = Vec::new();
    for (id, k) in &session.work {
        let rt = session.times[*k].1;
        if let Some(&s) = spans.get(id) {
            server_ms.push(s);
            transport_us.push((rt - s) * 1e3);
        }
    }

    let flow_opts = SizingOptions {
        trace: Trace::disabled(),
        ..SizingOptions::default()
    };
    let mut led = Ledger::default();
    for (spec, load, delay, row, lint) in &check.computed {
        let flow = Flow {
            lib: &lib,
            opts: &flow_opts,
            lint: *lint,
        };
        let boundary = boundary_for(&spec.generate(), *load);
        let (got, _) = ledger::replay(
            spec,
            &boundary,
            &DelaySpec::uniform(*delay),
            &flow,
            &mut led,
        );
        if got.as_ref() == Some(row) {
            led.reconciled += 1;
        }
    }
    let mut violations = std::mem::take(&mut check.violations);
    if check.predicted_hits != hits {
        violations.push(format!(
            "cache model predicted {} hits, the advisor counted {hits}",
            check.predicted_hits
        ));
    }

    let mut m = Metrics::default();
    led.write(&mut m);
    let lookups = hits + misses;
    m.set("cache.lookups", lookups as f64, "count");
    m.set("cache.hits", hits as f64, "count");
    m.set(
        "cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    );
    m.set(
        "cache.failure_resolves",
        check.failure_resolves as f64,
        "count",
    );
    m.set("cache.entries", entries as f64, "count");
    m.set("cache.evictions", evictions as f64, "count");
    m.set("persist.snapshot_ms", median(&session.ms("snapshot")), "ms");
    m.set("persist.restore_ms", median(&session.ms("restore")), "ms");
    m.set("persist.snapshot_bytes", snapshot_bytes as f64, "bytes");
    m.set("serve.parse_us_p50", median(&parse_us), "us");
    m.set("serve.server_ms_p50", median(&server_ms), "ms");
    m.set("serve.server_ms_p99", quantile(&server_ms, 0.99), "ms");
    m.set("serve.transport_us_p50", median(&transport_us), "us");
    m.set("serve.size_p50_ms", median(&session.ms("size")), "ms");
    m.set("serve.batch_p50_ms", median(&session.ms("batch")), "ms");
    m.set("serve.explore_p50_ms", median(&session.ms("explore")), "ms");
    m.set(
        "serve.snapshot_p50_ms",
        median(&session.ms("snapshot")),
        "ms",
    );
    m.set(
        "serve.size_p99_ms",
        quantile(&session.ms("size"), 0.99),
        "ms",
    );
    m.set("serve.refused", check.refused as f64, "count");
    m.set(
        "ledger.trace_overhead_frac",
        session.scaled_total_ms(&pace) / plain.scaled_total_ms(&pace) - 1.0,
        "frac",
    );
    crate::trace_spans(&mut m, &report);
    println!(
        "ledger: {} computed candidates replayed, {} reconciled; layers {:.1} ms of {:.1} ms replay wall; session {:.1} ms untraced, {:.1} ms traced; {} work spans",
        led.replayed,
        led.reconciled,
        led.layer_ms(),
        led.wall_ms,
        plain.total_ms(),
        session.total_ms(),
        server_ms.len()
    );
    Ok(Outcome {
        attempted: session.requests(),
        failed: check.failed,
        exact: vec![
            ("gp.newton_steps", led.gp_newton_steps),
            ("constraints.rows", led.constraints_rows),
            ("compact.classes", led.compact_classes),
            ("audit.certificates", led.audit_certificates),
            ("lint.rejected", led.lint_rejected),
            ("cache.hits", hits as u64),
            ("cache.failure_resolves", check.failure_resolves as u64),
        ],
        violations,
        metrics: m,
    })
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        traced(seed)
    } else {
        untraced(seed, seconds)
    }
}
