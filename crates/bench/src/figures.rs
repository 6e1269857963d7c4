//! One function per figure of the paper's evaluation. Each prints a
//! markdown table with exactly the series the paper plots.

use crate::{
    count_metrics, count_metrics_skyey, header, row, run_skyey, run_stellar, secs, table_header,
    HarnessArgs, JsonRecord,
};
use skycube_datagen::{generate, nba_table_sized, Distribution, NBA_PLAYERS};
use skycube_types::Dataset;

/// Deterministic seed for all workloads, so runs are reproducible.
const SEED: u64 = 20070415;

/// The NBA-like table used by Figures 8 and 9.
fn nba(full: bool) -> (Dataset, Vec<usize>) {
    let players = NBA_PLAYERS;
    let max_d = if full { 17 } else { 13 };
    (nba_table_sized(players, SEED), (1..=max_d).collect())
}

/// Figure 8: Scalability w.r.t. dimensionality on the (synthetic) NBA data
/// set — runtime of Skyey and Stellar using the first `d` dimensions.
pub fn fig08(args: &HarnessArgs) -> Vec<JsonRecord> {
    let (ds, dims) = nba(args.full);
    header(
        &format!(
            "Figure 8 — runtime vs dimensionality, NBA-like data set ({} players)",
            ds.len()
        ),
        args.full,
    );
    let mut records = Vec::new();
    table_header(&["d", "Skyey (s)", "Stellar (s)", "Skyey/Stellar"]);
    for &d in &dims {
        let slice = ds.prefix_dims(d).unwrap();
        let sk = run_skyey(&slice);
        let st = run_stellar(&slice);
        if args.verify {
            assert_eq!(sk.groups, st.groups, "group counts diverged at d={d}");
        }
        row(&[
            d.to_string(),
            secs(sk.seconds),
            secs(st.seconds),
            format!("{:.1}×", sk.seconds / st.seconds.max(1e-9)),
        ]);
        records.push(
            JsonRecord::new()
                .str("figure", "fig08")
                .int("n", ds.len() as i64)
                .int("d", d as i64)
                .num("skyey_seconds", sk.seconds)
                .num("stellar_seconds", st.seconds)
                .int("groups", st.groups as i64),
        );
    }
    println!();
    records
}

/// Figure 9: Numbers of skyline groups and subspace skyline objects in the
/// NBA data set, by dimensionality.
pub fn fig09(args: &HarnessArgs) -> Vec<JsonRecord> {
    let (ds, dims) = nba(args.full);
    header(
        &format!(
            "Figure 9 — #skyline groups vs #subspace skyline objects, NBA-like data set ({} players)",
            ds.len()
        ),
        args.full,
    );
    let mut records = Vec::new();
    table_header(&["d", "skyline groups", "subspace skyline objects"]);
    for &d in &dims {
        let slice = ds.prefix_dims(d).unwrap();
        let (groups, objects) = count_metrics(&slice);
        if args.verify {
            assert_eq!((groups, objects), count_metrics_skyey(&slice));
        }
        row(&[d.to_string(), groups.to_string(), objects.to_string()]);
        records.push(
            JsonRecord::new()
                .str("figure", "fig09")
                .int("n", ds.len() as i64)
                .int("d", d as i64)
                .int("groups", groups as i64)
                .int("subspace_skyline_objects", objects as i64),
        );
    }
    println!();
    records
}

/// Workload grid of Figures 10 and 11: tuples count and dimensionalities per
/// distribution, at paper scale or scaled down.
fn synthetic_grid(full: bool) -> Vec<(Distribution, usize, Vec<usize>)> {
    if full {
        vec![
            (
                Distribution::Correlated,
                100_000,
                (2..=14).step_by(2).collect(),
            ),
            (Distribution::Independent, 100_000, (1..=6).collect()),
            (Distribution::AntiCorrelated, 100_000, (1..=6).collect()),
        ]
    } else {
        vec![
            (
                Distribution::Correlated,
                50_000,
                (2..=12).step_by(2).collect(),
            ),
            (Distribution::Independent, 50_000, (1..=5).collect()),
            (Distribution::AntiCorrelated, 20_000, (1..=5).collect()),
        ]
    }
}

/// Figure 10: skyline distribution (group count vs subspace-skyline-object
/// count) in the three synthetic distributions.
pub fn fig10(args: &HarnessArgs) -> Vec<JsonRecord> {
    header(
        "Figure 10 — skyline distribution in three synthetic data sets",
        args.full,
    );
    let mut records = Vec::new();
    for (dist, n, dims) in synthetic_grid(args.full) {
        println!(
            "### ({}) {} distributed, {} tuples",
            panel(dist),
            dist.name(),
            n
        );
        table_header(&["d", "skyline groups", "subspace skyline objects"]);
        for &d in &dims {
            let ds = generate(dist, n, d, SEED ^ d as u64);
            let (groups, objects) = count_metrics(&ds);
            if args.verify {
                assert_eq!((groups, objects), count_metrics_skyey(&ds));
            }
            row(&[d.to_string(), groups.to_string(), objects.to_string()]);
            records.push(
                JsonRecord::new()
                    .str("figure", "fig10")
                    .str("distribution", dist.name())
                    .int("n", n as i64)
                    .int("d", d as i64)
                    .int("groups", groups as i64)
                    .int("subspace_skyline_objects", objects as i64),
            );
        }
        println!();
    }
    records
}

/// Figure 11: runtime vs dimensionality in the three synthetic data sets.
pub fn fig11(args: &HarnessArgs) -> Vec<JsonRecord> {
    header(
        "Figure 11 — runtime vs dimensionality in three synthetic data sets",
        args.full,
    );
    let mut records = Vec::new();
    for (dist, n, dims) in synthetic_grid(args.full) {
        println!(
            "### ({}) {} distributed, {} tuples",
            panel(dist),
            dist.name(),
            n
        );
        table_header(&["d", "Skyey (s)", "Stellar (s)", "Skyey/Stellar"]);
        for &d in &dims {
            let ds = generate(dist, n, d, SEED ^ d as u64);
            let sk = run_skyey(&ds);
            let st = run_stellar(&ds);
            if args.verify {
                assert_eq!(sk.groups, st.groups);
            }
            row(&[
                d.to_string(),
                secs(sk.seconds),
                secs(st.seconds),
                format!("{:.1}×", sk.seconds / st.seconds.max(1e-9)),
            ]);
            records.push(
                JsonRecord::new()
                    .str("figure", "fig11")
                    .str("distribution", dist.name())
                    .int("n", n as i64)
                    .int("d", d as i64)
                    .num("skyey_seconds", sk.seconds)
                    .num("stellar_seconds", st.seconds)
                    .int("groups", st.groups as i64),
            );
        }
        println!();
    }
    records
}

/// Figure 12: scalability w.r.t. database size — correlated 6-d,
/// independent 4-d, anti-correlated 4-d.
pub fn fig12(args: &HarnessArgs) -> Vec<JsonRecord> {
    header(
        "Figure 12 — runtime vs database size in three synthetic data sets",
        args.full,
    );
    let mut records = Vec::new();
    let grid: Vec<(Distribution, usize, Vec<usize>)> = if args.full {
        vec![
            (
                Distribution::Correlated,
                6,
                (1..=5).map(|k| k * 100_000).collect(),
            ),
            (
                Distribution::Independent,
                4,
                (1..=5).map(|k| k * 100_000).collect(),
            ),
            (
                Distribution::AntiCorrelated,
                4,
                (1..=5).map(|k| k * 100_000).collect(),
            ),
        ]
    } else {
        vec![
            (
                Distribution::Correlated,
                6,
                (1..=5).map(|k| k * 20_000).collect(),
            ),
            (
                Distribution::Independent,
                4,
                (1..=5).map(|k| k * 20_000).collect(),
            ),
            (
                Distribution::AntiCorrelated,
                4,
                (1..=5).map(|k| k * 20_000).collect(),
            ),
        ]
    };
    for (dist, d, sizes) in grid {
        println!(
            "### ({}) {} distributed, {} dimensions",
            panel(dist),
            dist.name(),
            d
        );
        table_header(&["tuples", "Skyey (s)", "Stellar (s)", "Skyey/Stellar"]);
        // Generate once at the largest size; prefixes keep the sweep
        // consistent (smaller sets are strict subsets, as with a generator
        // emitting a stream).
        let biggest = generate(dist, *sizes.last().unwrap(), d, SEED ^ d as u64);
        for &n in &sizes {
            let ds = biggest.prefix_rows(n);
            let sk = run_skyey(&ds);
            let st = run_stellar(&ds);
            if args.verify {
                assert_eq!(sk.groups, st.groups);
            }
            row(&[
                n.to_string(),
                secs(sk.seconds),
                secs(st.seconds),
                format!("{:.1}×", sk.seconds / st.seconds.max(1e-9)),
            ]);
            records.push(
                JsonRecord::new()
                    .str("figure", "fig12")
                    .str("distribution", dist.name())
                    .int("n", n as i64)
                    .int("d", d as i64)
                    .num("skyey_seconds", sk.seconds)
                    .num("stellar_seconds", st.seconds)
                    .int("groups", st.groups as i64),
            );
        }
        println!();
    }
    records
}

/// Threads ablation: the Figure 11/12 anti-correlated workload re-run at
/// increasing worker-thread counts, reporting speedup over the sequential
/// (1-thread) pipeline. The parallel pipeline is bit-identical to the
/// sequential one, so the group counts in every row must agree.
///
/// On a single-core machine the ablation cannot show a speedup, so it is
/// skipped gracefully with a note instead of reporting meaningless numbers.
pub fn threads_ablation(args: &HarnessArgs) -> Vec<JsonRecord> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (n, d) = if args.full { (100_000, 4) } else { (20_000, 4) };
    header(
        &format!("Threads ablation — Stellar build, anti-correlated {d}-d, {n} tuples"),
        args.full,
    );
    let mut records = Vec::new();
    if cores < 2 {
        println!(
            "_skipped: only {cores} hardware thread available — \
             the ablation needs a multi-core machine to show a speedup_"
        );
        println!();
        return records;
    }
    let ds = generate(Distribution::AntiCorrelated, n, d, SEED ^ d as u64);
    let mut threads: Vec<usize> = std::iter::successors(Some(1usize), |&t| Some(t * 2))
        .take_while(|&t| t <= cores)
        .collect();
    if *threads.last().unwrap() != cores {
        threads.push(cores);
    }
    table_header(&["threads", "Stellar (s)", "speedup", "groups"]);
    let base = crate::run_stellar_threads(&ds, 1);
    for &t in &threads {
        let m = if t == 1 {
            base
        } else {
            crate::run_stellar_threads(&ds, t)
        };
        assert_eq!(
            m.groups, base.groups,
            "parallel pipeline diverged from sequential at {t} threads"
        );
        row(&[
            t.to_string(),
            secs(m.seconds),
            format!("{:.2}×", base.seconds / m.seconds.max(1e-9)),
            m.groups.to_string(),
        ]);
        records.push(
            JsonRecord::new()
                .str("figure", "threads")
                .int("n", n as i64)
                .int("d", d as i64)
                .int("threads", t as i64)
                .num("stellar_seconds", m.seconds)
                .num("speedup", base.seconds / m.seconds.max(1e-9))
                .int("groups", m.groups as i64),
        );
    }
    println!();
    records
}

/// Query-layer ablation — the serving-path acceptance workloads:
/// (a) the **all-subspaces sweep** (every non-empty subspace skyline of an
/// independent 6-d set, the Figure 10 query grid) answered by the scan
/// baseline vs the `CubeIndex` path, and (b) a **repeated-query workload**
/// (the sweep replayed several rounds) answered by the cold indexed path vs
/// the indexed path behind the LRU subspace cache. All paths must produce
/// identical answers (asserted, not optional); the timings quantify what
/// the posting-list prefilter and the cache each buy.
pub fn queries_ablation(args: &HarnessArgs) -> Vec<JsonRecord> {
    use skycube_parallel::Parallelism;
    use skycube_serve::{
        run_batch, CachedSource, FallbackSource, IndexedCubeSource, Query, ScanCubeSource,
        SkylineSource,
    };
    use skycube_stellar::compute_cube;
    use skycube_types::DimMask;

    let (n, d) = if args.full {
        (100_000, 6)
    } else if args.smoke {
        (4_000, 6)
    } else {
        (20_000, 6)
    };
    let rounds = if args.full {
        8
    } else if args.smoke {
        3
    } else {
        5
    };
    header(
        &format!("Queries ablation — scan vs CubeIndex vs CubeIndex+cache, independent {d}-d, {n} tuples"),
        args.full,
    );
    let mut records = Vec::new();
    let ds = generate(Distribution::Independent, n, d, SEED ^ d as u64);
    let cube = compute_cube(&ds);

    let t = std::time::Instant::now();
    let index = cube.index();
    let build_seconds = t.elapsed().as_secs_f64();
    println!(
        "cube: {} groups; index build: {} ({} interned antichains)\n",
        cube.num_groups(),
        secs(build_seconds),
        index.num_interned_antichains()
    );

    // (a) All-subspaces sweep: every one of the 2^d − 1 subspace skylines,
    // `rounds` times over, scan path vs indexed path.
    let sweep: Vec<Query> = DimMask::full(d).subsets().map(Query::Skyline).collect();
    let repeated: Vec<Query> = (0..rounds).flat_map(|_| sweep.iter().copied()).collect();
    println!(
        "### (a) all-subspaces sweep — {} subspaces × {rounds} rounds",
        sweep.len()
    );
    table_header(&["path", "seconds", "queries/s", "groups touched"]);
    // One warm-up sweep, then best-of-3 timing: a container-level
    // contention spike during a single rep must not flip the comparison.
    let time_sweep = |source: &dyn SkylineSource| {
        let _ = run_batch(source, &sweep, Parallelism::sequential());
        let mut best = run_batch(source, &repeated, Parallelism::sequential());
        for _ in 0..2 {
            let rep = run_batch(source, &repeated, Parallelism::sequential());
            if rep.stats.seconds < best.stats.seconds {
                best = rep;
            }
        }
        best
    };
    let scan = ScanCubeSource::new(&cube);
    let scan_out = time_sweep(&scan);
    let indexed = IndexedCubeSource::new(&cube);
    // The timed indexed path runs behind the production degradation ladder
    // (indexed → scan), so the headline speedup prices in the wrapper. Any
    // demotion on this workload would mean the ladder is not free on the
    // happy path — asserted under --verify below.
    let scan_rung = ScanCubeSource::new(&cube);
    let ladder = FallbackSource::new(&indexed).then(&scan_rung);
    let indexed_out = time_sweep(&ladder);
    assert_eq!(
        scan_out.answers, indexed_out.answers,
        "indexed path diverged from the scan path"
    );
    assert_eq!(scan_out.stats.errors, 0);
    for (label, stats) in [("scan", &scan_out.stats), ("indexed", &indexed_out.stats)] {
        row(&[
            label.to_string(),
            secs(stats.seconds),
            format!("{:.0}", stats.queries as f64 / stats.seconds.max(1e-9)),
            stats.groups_touched.to_string(),
        ]);
        records.push(
            JsonRecord::new()
                .str("figure", "queries")
                .str("workload", "all-subspaces-sweep")
                .str("path", label)
                .int("n", n as i64)
                .int("d", d as i64)
                .int("queries", stats.queries as i64)
                .num("seconds", stats.seconds)
                .int("groups_touched", stats.groups_touched as i64),
        );
    }
    let sweep_speedup = scan_out.stats.seconds / indexed_out.stats.seconds.max(1e-9);
    println!();
    println!("scan/indexed: {sweep_speedup:.2}×");
    println!();

    // (b) Repeated-query workload: the same sweep replayed, cold indexed
    // path vs indexed path behind an LRU cache big enough to hold it.
    println!("### (b) repeated-query workload — cold index vs index + LRU cache");
    table_header(&["path", "seconds", "queries/s", "cache hits", "cache misses"]);
    let cold = IndexedCubeSource::new(&cube);
    let cold_out = run_batch(&cold, &repeated, Parallelism::sequential());
    let cached = CachedSource::new(IndexedCubeSource::new(&cube), sweep.len());
    let cached_out = run_batch(&cached, &repeated, Parallelism::sequential());
    assert_eq!(
        cold_out.answers, cached_out.answers,
        "cached path diverged from the cold indexed path"
    );
    let cache_stats = cached.cache_stats().expect("cached source reports stats");
    assert_eq!(
        cache_stats.misses as usize,
        sweep.len(),
        "every subspace must miss exactly once"
    );
    for (label, stats, hits, misses) in [
        ("indexed-cold", &cold_out.stats, 0, 0),
        (
            "indexed+cache",
            &cached_out.stats,
            cache_stats.hits,
            cache_stats.misses,
        ),
    ] {
        row(&[
            label.to_string(),
            secs(stats.seconds),
            format!("{:.0}", stats.queries as f64 / stats.seconds.max(1e-9)),
            hits.to_string(),
            misses.to_string(),
        ]);
        records.push(
            JsonRecord::new()
                .str("figure", "queries")
                .str("workload", "repeated-queries")
                .str("path", label)
                .int("n", n as i64)
                .int("d", d as i64)
                .int("queries", stats.queries as i64)
                .num("seconds", stats.seconds)
                .int("cache_hits", hits as i64)
                .int("cache_misses", misses as i64),
        );
    }
    let cache_speedup = cold_out.stats.seconds / cached_out.stats.seconds.max(1e-9);
    println!();
    println!("cold/cached: {cache_speedup:.2}×");
    println!();

    // Lattice-memo outcomes of one timed sweep: the per-batch `IndexStats`
    // delta of the best rep in (a), so they describe exactly one
    // `repeated` pass.
    let istats = indexed_out
        .stats
        .index
        .expect("indexed source reports index stats");
    println!(
        "memo exact={} ancestor={} miss={}",
        istats.memo_exact, istats.memo_ancestor, istats.memo_miss
    );
    println!();

    if args.verify {
        assert!(
            sweep_speedup > 1.0,
            "indexed path must beat the scan baseline (got {sweep_speedup:.2}×)"
        );
        assert!(
            cache_speedup > 1.0,
            "cache must beat the cold index on repeats (got {cache_speedup:.2}×)"
        );
        assert!(
            istats.memo_exact > 0,
            "the warmed sweep must hit the lattice memo"
        );
        assert_eq!(
            ladder.demotions(),
            0,
            "the fallback wrapper must cost nothing on the happy path"
        );
    }
    let memo = index.memo_stats();
    records.push(
        JsonRecord::new()
            .str("figure", "queries")
            .str("workload", "summary")
            .num("index_build_seconds", build_seconds)
            .num("scan_over_indexed", sweep_speedup)
            .num("cold_over_cached", cache_speedup)
            .int("demotions", ladder.demotions() as i64)
            .int("memo_exact", istats.memo_exact as i64)
            .int("memo_ancestor", istats.memo_ancestor as i64)
            .int("memo_miss", istats.memo_miss as i64)
            .int("memo_entries", memo.entries as i64)
            .int("memo_stores", memo.stores as i64)
            .int("memo_evictions", memo.evictions as i64),
    );
    records
}

/// Maintenance ablation — delta patching vs rebuild-the-world:
/// (a) a **single dominated insert** through the engine's patch path
/// (seed lattice reused, extension chunks re-extended selectively, the
/// built `CubeIndex` spliced in place) timed against the full pipeline on
/// the same data, and (b) a **mixed insert/delete stream** against a warm
/// `SubspaceCache` synchronized through a `GenerationGate`, measuring how
/// many cached subspace answers survive selective invalidation. Patched
/// answers are asserted identical to a from-scratch recompute.
pub fn maintenance_ablation(args: &HarnessArgs) -> Vec<JsonRecord> {
    use skycube_serve::{GateOutcome, GenerationGate, SubspaceCache};
    use skycube_stellar::{compute_cube, StellarEngine};
    use skycube_types::{normalize_groups, DimMask};

    let (n, d) = if args.full {
        (100_000, 5)
    } else if args.smoke {
        (3_000, 5)
    } else {
        (30_000, 5)
    };
    header(
        &format!("Maintenance ablation — patch vs rebuild, independent {d}-d, {n} tuples"),
        args.full,
    );
    let mut records = Vec::new();
    let ds = generate(Distribution::Independent, n, d, SEED ^ 0x3a11);
    let mut engine = StellarEngine::new(&ds);
    // Force the serving index so every fast-path mutation exercises the
    // in-place splice instead of a lazy rebuild.
    engine.cube().index();

    // A row strictly dominated by the first seed: +1 on every dimension.
    let seed_row: Vec<i64> = {
        let s = engine.cube().seeds()[0];
        ds.row(s).to_vec()
    };
    let dominated: Vec<i64> = seed_row.iter().map(|v| v + 1).collect();

    // (a) Single-mutation latency: patch path (insert then delete restores
    // the state, so reps are identical) vs the full pipeline.
    println!("### (a) single dominated insert — patch path vs full rebuild");
    let mut patch_insert = f64::MAX;
    let mut patch_delete = f64::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let id = engine
            .insert(dominated.clone())
            .expect("row is well formed");
        patch_insert = patch_insert.min(t.elapsed().as_secs_f64());
        let delta = engine.last_delta().expect("mutation records a delta");
        assert!(!delta.is_full(), "dominated insert must take the fast path");
        assert!(
            delta.spliced(),
            "a built index must be spliced, not dropped"
        );
        let t = std::time::Instant::now();
        engine.delete(id).expect("id was just inserted");
        patch_delete = patch_delete.min(t.elapsed().as_secs_f64());
    }
    let mut ds_plus_rows: Vec<Vec<i64>> = ds.ids().map(|o| ds.row(o).to_vec()).collect();
    ds_plus_rows.push(dominated.clone());
    let ds_plus = skycube_types::Dataset::from_rows(d, ds_plus_rows).unwrap();
    let mut rebuild = f64::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let cube = compute_cube(&ds_plus);
        cube.index();
        rebuild = rebuild.min(t.elapsed().as_secs_f64());
    }
    let speedup = rebuild / patch_insert.max(1e-9);
    table_header(&["path", "seconds"]);
    row(&["patch-insert".to_string(), secs(patch_insert)]);
    row(&["patch-delete".to_string(), secs(patch_delete)]);
    row(&["full-rebuild".to_string(), secs(rebuild)]);
    println!();
    println!("rebuild/patch-insert: {speedup:.1}×");
    println!();
    for (path, seconds) in [
        ("patch-insert", patch_insert),
        ("patch-delete", patch_delete),
        ("full-rebuild", rebuild),
    ] {
        records.push(
            JsonRecord::new()
                .str("figure", "maintenance")
                .str("workload", "single-insert")
                .str("path", path)
                .int("n", n as i64)
                .int("d", d as i64)
                .num("seconds", seconds),
        );
    }
    // Patched ≡ recomputed, on the cube left behind by a timed insert.
    engine.insert(dominated.clone()).unwrap();
    let fresh = compute_cube(engine.rows());
    assert_eq!(
        normalize_groups(engine.cube().groups().to_vec()),
        normalize_groups(fresh.groups().to_vec()),
        "patched cube diverged from recomputation"
    );
    assert_eq!(engine.cube().seeds(), fresh.seeds());

    // (b) Mixed stream against a warm subspace cache: dominated inserts
    // derived from seed rows (one coordinate +1, the rest tied, so every
    // insert joins real groups and genuinely reshapes the lattice)
    // interleaved with deletes of the inserted ids, synchronized through a
    // GenerationGate.
    println!("### (b) mixed stream — warm cache + generation-aware selective invalidation");
    let subspaces: Vec<DimMask> = DimMask::full(d).subsets().collect();
    let cache = SubspaceCache::new(subspaces.len());
    for &space in &subspaces {
        cache.put(space, engine.cube().subspace_skyline(space));
    }
    let warm_entries = cache.stats().entries;
    let gate = GenerationGate::new(engine.generation());
    let seeds: Vec<u32> = engine.cube().seeds().to_vec();
    let mut inserted_ids = Vec::new();
    let mut patched_syncs = 0usize;
    let stream_len = 8usize;
    let t = std::time::Instant::now();
    for k in 0..stream_len {
        if k % 3 == 2 {
            let id = inserted_ids.pop().expect("inserts precede deletes");
            engine.delete(id).expect("inserted id is live");
        } else {
            let s = seeds[k % seeds.len()];
            let mut row: Vec<i64> = engine.row(s).to_vec();
            row[k % d] += 1;
            inserted_ids.push(engine.insert(row).expect("row is well formed"));
        }
        if gate.sync(engine.generation(), engine.last_delta(), &cache) == GateOutcome::Patched {
            patched_syncs += 1;
        }
    }
    let stream_seconds = t.elapsed().as_secs_f64();
    let stats = engine.maintenance_stats();
    let survivors = cache.stats().entries;
    // Every surviving entry must equal the fresh answer (counts as hits).
    let mut survivor_hits = 0usize;
    for &space in &subspaces {
        if let Some(sky) = cache.get(space) {
            assert_eq!(
                sky,
                engine.cube().subspace_skyline(space),
                "stale cache survivor in {space} after the stream"
            );
            survivor_hits += 1;
        }
    }
    let hit_rate = survivor_hits as f64 / subspaces.len() as f64;
    table_header(&["metric", "value"]);
    row(&["mutations".to_string(), stream_len.to_string()]);
    row(&["stream seconds".to_string(), secs(stream_seconds)]);
    row(&["patched syncs".to_string(), patched_syncs.to_string()]);
    row(&[
        "cache entries warm → after".to_string(),
        format!("{warm_entries} → {survivors}"),
    ]);
    row(&["survivor hit rate".to_string(), format!("{hit_rate:.2}")]);
    println!();
    records.push(
        JsonRecord::new()
            .str("figure", "maintenance")
            .str("workload", "mixed-stream")
            .int("n", n as i64)
            .int("d", d as i64)
            .int("mutations", stream_len as i64)
            .num("seconds", stream_seconds)
            .int("patched_syncs", patched_syncs as i64)
            .int("warm_entries", warm_entries as i64)
            .int("survivor_entries", survivors as i64)
            .num("cache_hit_rate", hit_rate),
    );

    if args.verify {
        assert!(
            stats.fast() >= stream_len,
            "the stream must ride the fast path (stats: {stats:?})"
        );
        assert!(
            survivor_hits > 0,
            "selective invalidation must let some cached answers survive"
        );
        if args.full {
            assert!(
                speedup >= 50.0,
                "patch path must be ≥50× cheaper than rebuild at n={n} (got {speedup:.1}×)"
            );
        } else {
            assert!(
                speedup > 1.0,
                "patch path must beat the rebuild (got {speedup:.1}×)"
            );
        }
    }
    assert!(
        stats.spliced >= 1,
        "at least one mutation must splice the built index (stats: {stats:?})"
    );
    records.push(
        JsonRecord::new()
            .str("figure", "maintenance")
            .str("workload", "summary")
            .int("n", n as i64)
            .int("d", d as i64)
            .num("patch_insert_seconds", patch_insert)
            .num("patch_delete_seconds", patch_delete)
            .num("rebuild_seconds", rebuild)
            .num("speedup", speedup)
            .int("spliced_mutations", stats.spliced as i64)
            .int("fast_inserts", stats.fast_inserts as i64)
            .int("fast_deletes", stats.fast_deletes as i64)
            .int("full_recomputes", stats.full() as i64)
            .int("survivor_entries", survivors as i64)
            .num("cache_hit_rate", hit_rate),
    );
    records
}

/// Persistence ablation — first-query latency from a cold artifact:
/// **text** (parse the group lines, build the serving `CubeIndex` from
/// scratch, answer) vs **binary** (validate the section directory and
/// answer straight from zero-copy views into the file bytes — zero index
/// construction). Both paths are timed from `load_cube` on a real file
/// through the same first query (a top-k frequency ranking, the kind of
/// interactive probe a dashboard fires on open); full-space skylines are
/// compared outside the timed region, and `--verify` asserts the loaded
/// cubes answer every subspace, membership count, and top-k identically
/// to the cube they were written from.
pub fn persist_ablation(args: &HarnessArgs) -> Vec<JsonRecord> {
    use skycube_stellar::{compute_cube, load_cube, save_cube, save_cube_binary};
    use skycube_types::DimMask;

    let d = 5usize;
    let sizes: Vec<usize> = if args.full {
        vec![100_000, 1_000_000]
    } else if args.smoke {
        vec![5_000]
    } else {
        vec![100_000]
    };
    header(
        &format!(
            "Persistence ablation — text load+index vs binary zero-copy load, \
             anti-correlated, {d}-d"
        ),
        args.full,
    );
    let dir = std::env::temp_dir().join(format!("skycube_persist_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut records = Vec::new();
    table_header(&[
        "tuples",
        "text bytes",
        "binary bytes",
        "text load+build (s)",
        "binary first-query (s)",
        "text/binary",
    ]);
    for &n in &sizes {
        let ds = generate(Distribution::AntiCorrelated, n, d, SEED ^ 0x9e45);
        let cube = compute_cube(&ds);
        cube.index(); // the binary format ships the built index
        let tpath = dir.join(format!("cube_{n}.txt"));
        let bpath = dir.join(format!("cube_{n}.bin"));
        save_cube(&cube, &tpath).expect("write text cube");
        save_cube_binary(&cube, &bpath).expect("write binary cube");
        let text_bytes = std::fs::metadata(&tpath).expect("text metadata").len();
        let bin_bytes = std::fs::metadata(&bpath).expect("binary metadata").len();
        let full_space = DimMask::full(d);
        let reps = if args.full { 7 } else { 5 };

        // First-query latency, text: parse + index build + the query.
        let mut text_seconds = f64::MAX;
        let mut text_topk = Vec::new();
        let mut text_loaded = None;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let loaded = load_cube(&tpath).expect("text cube loads");
            text_topk = loaded.index().top_k_frequent(16);
            text_seconds = text_seconds.min(t.elapsed().as_secs_f64());
            text_loaded = Some(loaded);
        }
        // First-query latency, binary: validate + the query, no build.
        let mut bin_seconds = f64::MAX;
        let mut bin_topk = Vec::new();
        let mut bin_loaded = None;
        for _ in 0..reps {
            let t = std::time::Instant::now();
            let loaded = load_cube(&bpath).expect("binary cube loads");
            bin_topk = loaded.index().top_k_frequent(16);
            bin_seconds = bin_seconds.min(t.elapsed().as_secs_f64());
            bin_loaded = Some(loaded);
        }
        let text_loaded = text_loaded.expect("at least one rep ran");
        let bin_loaded = bin_loaded.expect("at least one rep ran");
        assert!(
            bin_loaded.is_loaded() && bin_loaded.index().is_loaded(),
            "binary load must serve from borrowed sections, not a rebuild"
        );
        assert_eq!(text_topk, bin_topk, "first answers diverged at n={n}");
        assert_eq!(
            text_loaded.subspace_skyline(full_space),
            bin_loaded.subspace_skyline(full_space),
            "full-space skylines diverged at n={n}"
        );
        let speedup = text_seconds / bin_seconds.max(1e-9);
        row(&[
            n.to_string(),
            text_bytes.to_string(),
            bin_bytes.to_string(),
            secs(text_seconds),
            secs(bin_seconds),
            format!("{speedup:.1}×"),
        ]);

        if args.verify {
            // Loaded ≡ rebuilt on every subspace, membership, and ranking.
            for space in full_space.subsets() {
                assert_eq!(
                    bin_loaded.subspace_skyline(space),
                    cube.subspace_skyline(space),
                    "binary-loaded cube diverged in {space} at n={n}"
                );
            }
            for o in (0..ds.len() as u32).step_by((ds.len() / 64).max(1)) {
                assert_eq!(
                    bin_loaded.membership_count(o),
                    cube.membership_count(o),
                    "membership count diverged for object {o} at n={n}"
                );
            }
            assert_eq!(bin_loaded.top_k_frequent(16), cube.top_k_frequent(16));
            if n >= 1_000_000 {
                assert!(
                    speedup >= 10.0,
                    "binary first answer must be ≥ 10× faster than \
                     text-load-and-rebuild at n={n} (got {speedup:.1}×)"
                );
            }
        }
        records.push(
            JsonRecord::new()
                .str("figure", "persist")
                .str("workload", "first-answer")
                .int("n", n as i64)
                .int("d", d as i64)
                .int("text_bytes", text_bytes as i64)
                .int("binary_bytes", bin_bytes as i64)
                .num("text_load_rebuild_seconds", text_seconds)
                .num("binary_first_query_seconds", bin_seconds)
                .num("speedup", speedup)
                .int("verified_subspaces", if args.verify { 31 } else { 0 }),
        );
    }
    println!();
    std::fs::remove_dir_all(&dir).ok();
    records
}

fn panel(dist: Distribution) -> &'static str {
    match dist {
        Distribution::Correlated => "a",
        Distribution::Independent => "b",
        Distribution::AntiCorrelated => "c",
        // Not part of the paper's grids.
        Distribution::Clustered => "x",
    }
}
