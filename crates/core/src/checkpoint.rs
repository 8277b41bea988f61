//! Sweep checkpoint/resume — salvage for interrupted explorations.
//!
//! An exploration sweep is a pure function of its inputs, evaluated one
//! candidate at a time; killing it an hour in used to discard every
//! completed row. The [`Checkpointer`] persists completed *successful*
//! rows periodically (every [`Checkpointer::with_interval`] completions,
//! atomically via write-to-temp + rename), keyed by a **sweep
//! fingerprint** — the [`StableHasher`] digest of everything that
//! determines the table: the candidate database (spec list, in order),
//! the delay spec, the boundary conditions, the process corner, and the
//! outcome-relevant sizing options. A resumed sweep with a matching
//! fingerprint replays the stored rows (re-deriving the cheap per-row
//! metrics from the stored widths) and computes only the missing
//! candidates; a stale fingerprint is ignored wholesale — a checkpoint
//! can never leak rows into a sweep it does not describe.
//!
//! Only successful rows are stored. (The [`crate::SizingCache`] also
//! stores deterministic failures; a resumed sweep recomputes its failed
//! rows, which a shared cache then answers without re-solving.) Because
//! the flow is deterministic, a resumed sweep is byte-identical to an
//! uninterrupted one — the chaos suite's invariant (c).
//!
//! # File format
//!
//! Byte-stable JSON: rows sorted by candidate index, every `f64` encoded
//! as the 16-hex-digit big-endian bit pattern of `f64::to_bits` (decimal
//! formatting would round-trip imprecisely and is locale-adjacent;
//! bit patterns are exact and grep-able), `u128` path counts as 32 hex
//! digits. The loader accepts exactly the writer's canonical form;
//! anything else — truncated write, hand edit, non-finite width bits — is
//! treated as *no checkpoint*, never as an error that could take down the
//! sweep that tried to resume.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use smart_models::ModelLibrary;
use smart_netlist::StableHasher;
use smart_sta::Boundary;

use smart_macros::MacroSpec;

use crate::persist::{hex64, parse_outcome_fields, render_outcome_fields, Parser};
use crate::sizing::SizingOutcome;
use crate::{DelaySpec, SizingOptions};

/// The digest binding a checkpoint file to one exact sweep: candidate
/// database (order included — index is the row key), delay spec, boundary,
/// process corner, and the outcome-relevant options fingerprint (the same
/// one the sizing cache keys on, so anything excluded there — budgets,
/// tracing, chaos, the checkpointer itself — is excluded here for the
/// same reason: it cannot change a successful row).
pub fn sweep_fingerprint(
    specs: &[MacroSpec],
    lib: &ModelLibrary,
    boundary: &Boundary,
    spec: &DelaySpec,
    opts: &SizingOptions,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_usize(specs.len());
    for s in specs {
        h.write_str(&s.to_string());
    }
    h.write_u64(lib.process().fingerprint());
    h.write_f64_bits(spec.data);
    match spec.precharge {
        Some(p) => {
            h.write_bool(true);
            h.write_f64_bits(p);
        }
        None => h.write_bool(false),
    }
    h.write_u64(crate::cache::boundary_fingerprint(boundary));
    h.write_u64(crate::cache::options_fingerprint(opts));
    h.finish()
}

#[derive(Debug, Default)]
struct State {
    /// Fingerprint of the sweep this checkpointer is currently bound to
    /// (`None` before the first [`Checkpointer::begin`]).
    fingerprint: Option<u64>,
    rows: BTreeMap<usize, SizingOutcome>,
    /// Rows recorded since the last save.
    unsaved: usize,
}

/// A persistent store of completed sweep rows; share one via `Arc` in
/// [`SizingOptions::checkpoint`] and the [`crate::explore_with`] family
/// does the rest. One checkpointer serves one sweep at a time (it is
/// re-bound to each sweep's fingerprint as the sweep starts).
#[derive(Debug)]
pub struct Checkpointer {
    path: PathBuf,
    interval: usize,
    state: Mutex<State>,
}

impl Checkpointer {
    /// A checkpointer persisting to `path`, saving every 4 completed
    /// rows (and always at sweep end).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Checkpointer {
            path: path.into(),
            interval: 4,
            state: Mutex::new(State::default()),
        }
    }

    /// Sets the save cadence: persist after every `interval` newly
    /// completed rows (minimum 1). Smaller = less loss on a kill, more
    /// write traffic.
    #[must_use]
    pub fn with_interval(mut self, interval: usize) -> Self {
        self.interval = interval.max(1);
        self
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn guard(&self) -> std::sync::MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Binds this checkpointer to a sweep: loads the file, keeps its rows
    /// if the stored fingerprint matches, and returns the rows available
    /// for resume (empty for a fresh, stale, or unreadable checkpoint).
    pub(crate) fn begin(&self, fingerprint: u64) -> BTreeMap<usize, SizingOutcome> {
        let loaded = match load_file(&self.path) {
            Some((fp, rows)) if fp == fingerprint => rows,
            _ => BTreeMap::new(),
        };
        let mut state = self.guard();
        state.fingerprint = Some(fingerprint);
        state.rows = loaded.clone();
        state.unsaved = 0;
        loaded
    }

    /// Records one completed successful row, saving when the cadence is
    /// due. A no-op before [`Checkpointer::begin`] (a direct
    /// `size_circuit` call has no sweep to checkpoint).
    pub(crate) fn record(&self, idx: usize, outcome: &SizingOutcome) {
        let mut state = self.guard();
        if state.fingerprint.is_none() {
            return;
        }
        if state.rows.insert(idx, outcome.clone()).is_none() {
            state.unsaved += 1;
            if state.unsaved >= self.interval {
                save_locked(&self.path, &mut state);
            }
        }
    }

    /// Persists any unsaved rows (called at sweep end; also useful before
    /// a planned shutdown).
    pub(crate) fn flush(&self) {
        let mut state = self.guard();
        if state.fingerprint.is_some() && state.unsaved > 0 {
            save_locked(&self.path, &mut state);
        }
    }

    /// Rows currently held (resumed + recorded) for the bound sweep.
    pub fn rows_held(&self) -> usize {
        self.guard().rows.len()
    }
}

/// Serializes and atomically replaces the checkpoint file (uniquely named
/// temp file + rename — see [`crate::persist::atomic_write`]; the old
/// fixed `*.tmp` name let two writers clobber each other's partial file).
/// A failed write (disk full, permissions) is swallowed: checkpointing is
/// salvage, and salvage must never be the thing that kills the sweep.
fn save_locked(path: &Path, state: &mut State) {
    let Some(fp) = state.fingerprint else { return };
    let json = render(fp, &state.rows);
    if crate::persist::atomic_write(path, &json).is_ok() {
        state.unsaved = 0;
    }
}

fn render(fingerprint: u64, rows: &BTreeMap<usize, SizingOutcome>) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"version\":2,\"fingerprint\":\"{}\",\"rows\":[", hex64(fingerprint));
    for (n, (idx, row)) in rows.iter().enumerate() {
        if n > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"idx\":{idx},");
        render_outcome_fields(&mut s, row);
        s.push('}');
    }
    s.push_str("]}\n");
    s
}

/// Parses a checkpoint file written by [`render`]. Any deviation from the
/// canonical form yields `None` — "no checkpoint", never a panic.
fn load_file(path: &Path) -> Option<(u64, BTreeMap<usize, SizingOutcome>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut p = Parser::new(&text);
    p.lit("{\"version\":2,\"fingerprint\":\"")?;
    let fingerprint = p.hex_u64()?;
    p.lit("\",\"rows\":[")?;
    let mut rows = BTreeMap::new();
    if !p.peek(']') {
        loop {
            let (idx, row) = parse_row(&mut p)?;
            // A duplicate index means the file was not written by us.
            if rows.insert(idx, row).is_some() {
                return None;
            }
            if !p.comma() {
                break;
            }
        }
    }
    p.lit("]}")?;
    Some((fingerprint, rows))
}

fn parse_row(p: &mut Parser<'_>) -> Option<(usize, SizingOutcome)> {
    p.lit("{\"idx\":")?;
    let idx = p.number()?;
    p.lit(",")?;
    let outcome = parse_outcome_fields(p)?;
    p.lit("}")?;
    Some((idx, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::CornerDelay;
    use smart_netlist::Sizing;

    fn outcome(seed: f64, widths: usize) -> SizingOutcome {
        SizingOutcome {
            sizing: Sizing::from_widths((0..widths).map(|i| seed + i as f64).collect()),
            measured_delay: 123.456 + seed,
            measured_precharge: 78.9,
            total_width: 40.0 * seed,
            iterations: 3,
            constraint_paths: 12,
            raw_paths: 1u128 << 80,
            spec_relaxation: 0.05,
            gp_restarts: 1,
            corner_delays: vec![
                CornerDelay {
                    corner: "slow".to_owned(),
                    data: 130.0 + seed,
                    precharge: 90.1,
                },
                CornerDelay {
                    corner: "typical".to_owned(),
                    data: 123.456 + seed,
                    precharge: 78.9,
                },
            ],
            binding_corner: "slow".to_owned(),
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("smart-ckpt-test-{}-{name}.json", std::process::id()));
        p
    }

    #[test]
    fn round_trips_byte_stably() {
        let mut rows = BTreeMap::new();
        rows.insert(0, outcome(1.5, 3));
        rows.insert(7, outcome(2.25, 5));
        let json = render(0xDEAD_BEEF_0000_0001, &rows);
        let path = tmp_path("roundtrip");
        std::fs::write(&path, &json).unwrap();
        let (fp, loaded) = load_file(&path).expect("canonical file must load");
        assert_eq!(fp, 0xDEAD_BEEF_0000_0001);
        assert_eq!(loaded.len(), 2);
        // Byte-stability: re-rendering the loaded rows reproduces the file.
        assert_eq!(render(fp, &loaded), json);
        let got = &loaded[&7];
        let want = &rows[&7];
        assert_eq!(got.measured_delay.to_bits(), want.measured_delay.to_bits());
        assert_eq!(got.sizing.as_slice(), want.sizing.as_slice());
        assert_eq!(got.raw_paths, want.raw_paths);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_or_foreign_files_read_as_no_checkpoint() {
        let path = tmp_path("damaged");
        for text in [
            "",
            // A pre-corner (version 1) file is a foreign format now: it
            // has no per-corner fields, so it must degrade to
            // "no checkpoint" rather than resurrect corner-less rows.
            "{\"version\":1,\"fingerprint\":\"0000000000000000\",\"rows\":[]}",
            "{\"version\":3,\"fingerprint\":\"0000000000000000\",\"rows\":[]}",
            "{\"version\":2,\"fingerprint\":\"00\",\"rows\":[]}",
            "not json at all",
            // Truncated mid-row.
            "{\"version\":2,\"fingerprint\":\"0000000000000000\",\"rows\":[{\"idx\":0,\"iters\":1",
            // Non-finite width bits (all-ones exponent): must be rejected
            // before reaching `Sizing::from_widths`.
            "{\"version\":2,\"fingerprint\":\"0000000000000000\",\"rows\":[{\"idx\":0,\
             \"iters\":1,\"paths\":1,\"restarts\":0,\
             \"raw_paths\":\"00000000000000000000000000000001\",\
             \"delay\":\"3ff0000000000000\",\"precharge\":\"3ff0000000000000\",\
             \"width\":\"3ff0000000000000\",\"relax\":\"0000000000000000\",\
             \"binding\":\"typical\",\"corners\":[{\"name\":\"typical\",\
             \"data\":\"3ff0000000000000\",\"pre\":\"3ff0000000000000\"}],\
             \"sizing\":[\"7ff0000000000000\"]}]}",
            // An empty corner list or blank binding name is not ours.
            "{\"version\":2,\"fingerprint\":\"0000000000000000\",\"rows\":[{\"idx\":0,\
             \"iters\":1,\"paths\":1,\"restarts\":0,\
             \"raw_paths\":\"00000000000000000000000000000001\",\
             \"delay\":\"3ff0000000000000\",\"precharge\":\"3ff0000000000000\",\
             \"width\":\"3ff0000000000000\",\"relax\":\"0000000000000000\",\
             \"binding\":\"typical\",\"corners\":[],\
             \"sizing\":[\"3ff0000000000000\"]}]}",
        ] {
            std::fs::write(&path, text).unwrap();
            assert!(load_file(&path).is_none(), "accepted: {text:.60}");
        }
        std::fs::remove_file(&path).ok();
        assert!(load_file(&path).is_none(), "missing file is no checkpoint");
    }

    #[test]
    fn begin_record_flush_resume_cycle() {
        let path = tmp_path("cycle");
        std::fs::remove_file(&path).ok();
        let ckpt = Checkpointer::new(&path).with_interval(2);
        let resumed = ckpt.begin(42);
        assert!(resumed.is_empty());
        ckpt.record(0, &outcome(1.5, 2));
        // Below the cadence: nothing on disk yet.
        assert!(load_file(&path).is_none());
        ckpt.record(1, &outcome(2.5, 2));
        // Cadence hit: saved.
        assert_eq!(load_file(&path).expect("saved").1.len(), 2);
        ckpt.record(2, &outcome(3.5, 2));
        ckpt.flush();
        assert_eq!(load_file(&path).expect("flushed").1.len(), 3);

        // Same fingerprint resumes all rows; a different one resumes none
        // (and the stale file is simply ignored, not deleted).
        let again = Checkpointer::new(&path);
        assert_eq!(again.begin(42).len(), 3);
        assert_eq!(again.rows_held(), 3);
        let stale = Checkpointer::new(&path);
        assert!(stale.begin(43).is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// Regression (PR 9): the temp file used for the atomic replace must
    /// be unique per save attempt. The old fixed `*.tmp` name let two
    /// writers (two processes, or two serve requests sharing a target
    /// path) truncate each other's partial file between its write and its
    /// rename — publishing a torn checkpoint. With pid + counter in the
    /// name, concurrent saves each own their temp file.
    #[test]
    fn tmp_names_are_unique_per_save_attempt() {
        use crate::persist::unique_tmp;
        let target = Path::new("/some/dir/sweep.ckpt");
        let a = unique_tmp(target);
        let b = unique_tmp(target);
        assert_ne!(a, b, "two save attempts must never share a temp file");
        let pid = std::process::id().to_string();
        for t in [&a, &b] {
            let name = t.file_name().and_then(|n| n.to_str()).unwrap_or("");
            assert!(
                name.contains(&pid),
                "temp name '{name}' must embed the pid so concurrent \
                 processes cannot collide"
            );
            assert_eq!(t.parent(), target.parent(), "rename must stay on one filesystem");
        }
    }

    /// Regression (PR 9): two checkpointers hammering the same target path
    /// concurrently. Every save is an atomic whole-file replace, so after
    /// any interleaving the file on disk must be a *complete* checkpoint
    /// from one of the writers — a torn or truncated file (the fixed-tmp
    /// failure mode) reads back as "no checkpoint" and fails this test.
    #[test]
    fn two_writers_never_publish_a_torn_file() {
        let path = tmp_path("two-writers");
        std::fs::remove_file(&path).ok();
        let rounds = 40;
        std::thread::scope(|s| {
            for writer in 0u64..2 {
                let path = path.clone();
                s.spawn(move || {
                    let ckpt = Checkpointer::new(&path).with_interval(1);
                    ckpt.begin(1000 + writer);
                    for i in 0..rounds {
                        // Distinct row sets per writer so a torn mix of the
                        // two files cannot accidentally parse.
                        ckpt.record(i, &outcome(writer as f64 + 1.5, 4));
                    }
                    ckpt.flush();
                });
            }
        });
        let (fp, rows) = load_file(&path).expect("the surviving file must be a complete checkpoint");
        assert!(fp == 1000 || fp == 1001, "fingerprint must be one writer's, got {fp}");
        assert_eq!(rows.len(), rounds, "the published file must hold one writer's full row set");
        // No temp debris left behind (`with_extension` strips `.json`, so
        // match on the extension-less stem).
        let dir = path.parent().expect("temp dir");
        let stem = path.file_stem().and_then(|n| n.to_str()).expect("file stem");
        let published = path.file_name().and_then(|n| n.to_str()).expect("file name");
        let debris: Vec<String> = std::fs::read_dir(dir)
            .expect("read temp dir")
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with(stem) && n != published)
            .collect();
        assert!(debris.is_empty(), "leftover temp files: {debris:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_recording_is_idempotent() {
        let path = tmp_path("dup");
        std::fs::remove_file(&path).ok();
        let ckpt = Checkpointer::new(&path).with_interval(1);
        ckpt.begin(7);
        ckpt.record(0, &outcome(1.5, 2));
        ckpt.record(0, &outcome(1.5, 2));
        assert_eq!(ckpt.rows_held(), 1);
        assert_eq!(load_file(&path).expect("saved").1.len(), 1);
        std::fs::remove_file(&path).ok();
    }
}
