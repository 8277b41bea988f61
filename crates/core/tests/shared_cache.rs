//! Concurrent shared-cache suite (PR 9 tentpole): one sharded
//! [`SizingCache`] serving several racing exploration sweeps — the serve
//! daemon's workload — must change latency only, never bytes, and the
//! per-sweep hit/miss attribution must stay *exact* under the race (the
//! saturating-delta scheme it replaced blurred concurrent sweeps into
//! each other).

use std::sync::Arc;

use smart_core::{
    explore_parallel, exploration_report, CachedFailure, DelaySpec, ParallelOptions, SizingCache,
    SizingOptions,
};
use smart_macros::{MacroSpec, MuxTopology, ZeroDetectStyle};
use smart_models::ModelLibrary;
use smart_sta::Boundary;

fn boundary(circuit: &smart_netlist::Circuit, load: f64) -> Boundary {
    let mut b = Boundary::default();
    for p in circuit.output_ports() {
        b.output_loads.insert(p.name.clone(), load);
    }
    b
}

struct SweepResult {
    /// The rendered exploration table *without* its `cache:` stats line:
    /// the determinism contract pins result bytes; the stats line
    /// legitimately reflects how warm the shared cache was.
    report: String,
    hits: usize,
    negative_hits: usize,
    misses: usize,
    feasible: usize,
    /// Failed rows whose error the cache stores ([`CachedFailure`]).
    memoizable_failures: usize,
}

fn strip_stats(report: &str) -> String {
    report
        .lines()
        .filter(|l| !l.starts_with("cache"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn sweep(spec: &MacroSpec, cache: &Arc<SizingCache>, workers: usize) -> SweepResult {
    let lib = ModelLibrary::reference();
    let circuit = spec.generate();
    let opts = SizingOptions {
        cache: Some(Arc::clone(cache)),
        ..SizingOptions::default()
    };
    let table = explore_parallel(
        spec,
        &lib,
        &boundary(&circuit, 18.0),
        &DelaySpec::uniform(400.0),
        &opts,
        &ParallelOptions::with_workers(workers),
    );
    SweepResult {
        report: strip_stats(&exploration_report(&table)),
        hits: table.cache_hits,
        negative_hits: table.cache_negative_hits,
        misses: table.cache_misses,
        feasible: table.feasible_count(),
        memoizable_failures: table
            .candidates
            .iter()
            .filter(|c| {
                c.result
                    .as_ref()
                    .is_err_and(|e| CachedFailure::try_from(e).is_ok())
            })
            .count(),
    }
}

fn mux8() -> MacroSpec {
    MacroSpec::Mux {
        topology: MuxTopology::UnsplitDomino,
        width: 8,
    }
}

fn zd16() -> MacroSpec {
    MacroSpec::ZeroDetect {
        width: 16,
        style: ZeroDetectStyle::Domino,
    }
}

/// Two different macros racing on one shared cache: each sweep's report
/// and its per-sweep stats must be byte-identical to the same sweep run
/// alone on a private cache — no cross-request key bleed in either
/// direction (results or attribution).
#[test]
fn racing_sweeps_on_a_shared_cache_match_private_cache_runs() {
    let solo_mux = sweep(&mux8(), &Arc::new(SizingCache::bounded(4, None)), 1);
    let solo_zd = sweep(&zd16(), &Arc::new(SizingCache::bounded(4, None)), 1);

    for round in 0..3 {
        let shared = Arc::new(SizingCache::bounded(4, None));
        let (raced_mux, raced_zd) = std::thread::scope(|s| {
            let a = s.spawn(|| sweep(&mux8(), &shared, 2));
            let b = s.spawn(|| sweep(&zd16(), &shared, 2));
            (a.join().expect("mux sweep"), b.join().expect("zd sweep"))
        });
        assert_eq!(solo_mux.report, raced_mux.report, "round {round}");
        assert_eq!(solo_zd.report, raced_zd.report, "round {round}");
        // Disjoint key spaces: neither sweep can touch the other's
        // entries, so per-sweep stats equal the solo runs exactly.
        assert_eq!((solo_mux.hits, solo_mux.misses), (raced_mux.hits, raced_mux.misses));
        assert_eq!((solo_zd.hits, solo_zd.misses), (raced_zd.hits, raced_zd.misses));
        // Exact attribution: the two sweeps' traffic sums to the cache's
        // global counters — nothing double-counted, nothing leaked.
        let (hits, misses) = shared.stats();
        assert_eq!(raced_mux.hits + raced_zd.hits, hits, "round {round}");
        assert_eq!(raced_mux.misses + raced_zd.misses, misses, "round {round}");
    }
}

/// Two racing sweeps of the *same* macro: which one inserts first is a
/// race, but each sweep's lookup count is its own, and the total traffic
/// still sums exactly to the global counters.
#[test]
fn same_macro_races_keep_attribution_exact() {
    let cold = sweep(&mux8(), &Arc::new(SizingCache::new()), 1);
    let lookups = cold.hits + cold.misses;
    assert!(lookups > 0, "the sweep must exercise the cache");

    let shared = Arc::new(SizingCache::bounded(8, None));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| sweep(&mux8(), &shared, 2));
        let b = s.spawn(|| sweep(&mux8(), &shared, 2));
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });
    // Bytes never depend on the race.
    assert_eq!(a.report, b.report);
    assert_eq!(a.report, cold.report);
    // Each sweep performed exactly its own lookups (which of them hit is
    // the race; how many it made is not)...
    assert_eq!(a.hits + a.misses, lookups);
    assert_eq!(b.hits + b.misses, lookups);
    // ...and the global counters saw exactly the union.
    let (hits, misses) = shared.stats();
    assert_eq!(a.hits + b.hits, hits);
    assert_eq!(a.misses + b.misses, misses);
}

/// Warm racing sweeps over a pre-populated cache never miss and are
/// byte-identical to the cold run — the daemon's steady state: every
/// success replays as a hit, every stored failure as a negative hit.
#[test]
fn warm_racing_sweeps_are_all_hits_with_identical_bytes() {
    let shared = Arc::new(SizingCache::bounded(4, None));
    let cold = sweep(&mux8(), &shared, 1);
    assert!(cold.memoizable_failures > 0, "fixture must have failed rows");
    assert_eq!(cold.hits + cold.negative_hits, 0, "cold sweep replays nothing");
    assert_eq!(cold.misses, cold.feasible + cold.memoizable_failures);

    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| sweep(&mux8(), &shared, 2));
        let b = s.spawn(|| sweep(&mux8(), &shared, 2));
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });
    for warm in [&a, &b] {
        assert_eq!(warm.report, cold.report);
        assert_eq!(warm.hits, cold.feasible, "every cached success replays");
        assert_eq!(
            warm.negative_hits, cold.memoizable_failures,
            "every stored failure replays"
        );
        assert_eq!(warm.misses, 0, "nothing re-solves warm");
    }
}

/// Snapshot → fresh cache (different shard count) → restore → replay:
/// the warm sweep is byte-identical to the cold one, performs zero
/// misses, and re-snapshotting reproduces the snapshot byte-for-byte.
#[test]
fn snapshot_restart_replay_is_byte_identical() {
    let cold_cache = Arc::new(SizingCache::bounded(4, None));
    let cold = sweep(&zd16(), &cold_cache, 2);
    let cold_lookups = cold.hits + cold.misses;
    let snap = cold_cache.snapshot();

    let warm_cache = Arc::new(SizingCache::bounded(3, Some(1024)));
    let restored = warm_cache.restore(&snap).expect("snapshot restores");
    assert_eq!(restored, cold_cache.len());

    let warm = sweep(&zd16(), &warm_cache, 2);
    assert_eq!(warm.report, cold.report);
    assert_eq!(warm.hits, cold.feasible, "every snapshotted success replays");
    assert_eq!(
        warm.negative_hits, cold.memoizable_failures,
        "every snapshotted failure replays"
    );
    assert_eq!(
        warm.misses,
        cold_lookups - cold.feasible - cold.memoizable_failures
    );
    assert_eq!(warm_cache.snapshot(), snap, "restart must be lossless");
}

/// A bounded shared cache under racing sweeps never exceeds its entry
/// budget — eviction holds under concurrency, and evicted entries only
/// cost re-solves (misses), never wrong bytes.
#[test]
fn eviction_budget_holds_under_racing_sweeps() {
    let solo = sweep(&mux8(), &Arc::new(SizingCache::new()), 1);
    let shared = Arc::new(SizingCache::bounded(2, Some(3)));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| sweep(&mux8(), &shared, 2));
        let b = s.spawn(|| sweep(&zd16(), &shared, 2));
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });
    assert!(shared.len() <= 4, "per-shard rounding: 2 shards x 2 budget");
    assert_eq!(a.report, solo.report, "eviction must never change result bytes");
    assert_eq!(
        b.report,
        sweep(&zd16(), &Arc::new(SizingCache::new()), 1).report
    );
}
