//! Property-based tests (proptest) over the core invariants of the paper:
//! skyline-algorithm agreement, skyline-group structure (Definitions 1–2),
//! Theorem 1 (every group contains a seed), Theorem 2 (the seed lattice is a
//! quotient of the full lattice), and cube-query consistency.

use proptest::collection::vec;
use proptest::prelude::*;
use skycube::prelude::*;
use skycube_stellar::{quotient_map, seed_skyline_groups, SeedView};

/// Strategy: a small dataset with a tunable tie density.
fn dataset(max_dims: usize, max_n: usize, domain: Value) -> impl Strategy<Value = Dataset> {
    (1..=max_dims).prop_flat_map(move |dims| {
        vec(vec(0..domain, dims), 1..=max_n)
            .prop_map(move |rows| Dataset::from_rows(dims, rows).unwrap())
    })
}

/// Strategy: a dataset drawn from one of the paper's three synthetic
/// distributions (correlated, independent, anti-correlated).
fn paper_dataset() -> impl Strategy<Value = Dataset> {
    (0u8..3, 1usize..=4, 4usize..=40, 0u64..1024).prop_map(|(d, dims, n, seed)| {
        let dist = match d {
            0 => Distribution::Correlated,
            1 => Distribution::Independent,
            _ => Distribution::AntiCorrelated,
        };
        generate(dist, n, dims, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skyline_algorithms_agree(ds in dataset(4, 24, 5)) {
        let full = ds.full_space();
        prop_assert_eq!(Algorithm::Less.run(&ds, full), Algorithm::Naive.run(&ds, full));
    }

    #[test]
    fn skyline_members_are_undominated(ds in dataset(4, 24, 4)) {
        let full = ds.full_space();
        let sky = skyline(&ds, full);
        for &u in &sky {
            for v in ds.ids() {
                prop_assert!(!ds.dominates(v, u, full));
            }
        }
        // Completeness: everything outside is dominated by someone.
        for u in ds.ids() {
            if sky.binary_search(&u).is_err() {
                prop_assert!(ds.ids().any(|v| ds.dominates(v, u, full)));
            }
        }
    }

    #[test]
    fn group_structure_invariants(ds in dataset(4, 20, 3)) {
        let cube = compute_cube(&ds);
        prop_assert!(cube.validate_against(&ds).is_ok());
        for g in cube.groups() {
            // Members share exactly the maximal subspace: no other object
            // shares the projection, and no shared dimension is missing.
            let rep = g.members[0];
            for o in ds.ids() {
                if !g.members.contains(&o) {
                    prop_assert!(
                        !ds.coincides(rep, o, g.subspace),
                        "outsider {o} coincides with {g:?}"
                    );
                }
            }
            if g.members.len() > 1 {
                let mut shared = ds.full_space();
                for &m in &g.members[1..] {
                    shared = shared & ds.co_mask(rep, m);
                }
                prop_assert_eq!(shared, g.subspace, "closure mismatch for {:?}", g);
            }
            // Decisive subspaces: exclusive, skyline, and minimal.
            for &c in &g.decisive {
                for o in ds.ids() {
                    if !g.members.contains(&o) {
                        prop_assert!(!ds.coincides(rep, o, c));
                        prop_assert!(!ds.dominates(o, rep, c));
                    }
                }
                for sub in c.proper_subsets() {
                    let exclusive = ds.ids().all(|o| {
                        g.members.contains(&o) || !ds.coincides(rep, o, sub)
                    });
                    let undominated =
                        ds.ids().all(|o| !ds.dominates(o, rep, sub));
                    prop_assert!(
                        !(exclusive && undominated),
                        "decisive {} of {:?} not minimal (sub {})",
                        c, g, sub
                    );
                }
            }
        }
    }

    #[test]
    fn theorem_1_every_group_contains_a_seed(ds in dataset(4, 20, 3)) {
        let cube = compute_cube(&ds);
        let seeds = cube.seeds();
        for g in cube.groups() {
            prop_assert!(
                g.members.iter().any(|m| seeds.binary_search(m).is_ok()),
                "group without seed: {:?}", g
            );
        }
    }

    #[test]
    fn theorem_2_seed_lattice_is_quotient(ds in dataset(4, 18, 3)) {
        let (bound, _) = ds.bind_duplicates();
        let seeds = skyline(&bound, bound.full_space());
        let view = SeedView::new(&bound, seeds.clone());
        let seed_lattice: Vec<SkylineGroup> = seed_skyline_groups(&view)
            .into_iter()
            .map(|sg| SkylineGroup::new(
                sg.members.iter().map(|&i| view.id(i)).collect(),
                sg.subspace,
                sg.decisive,
            ))
            .collect();
        let cube = compute_cube(&bound);
        let map = quotient_map(cube.groups(), &seed_lattice, &seeds);
        prop_assert!(map.is_some(), "no quotient map onto the seed lattice");
        // Order preservation.
        let map = map.unwrap();
        let groups = cube.groups();
        for i in 0..groups.len() {
            for j in 0..groups.len() {
                let sub_ij = groups[i].members.iter()
                    .all(|m| groups[j].members.contains(m));
                if sub_ij {
                    let si = &seed_lattice[map[i]].members;
                    let sj = &seed_lattice[map[j]].members;
                    prop_assert!(si.iter().all(|m| sj.contains(m)));
                }
            }
        }
    }

    #[test]
    fn cube_answers_subspace_skylines(ds in dataset(4, 20, 4)) {
        let cube = compute_cube(&ds);
        for space in ds.full_space().subsets() {
            prop_assert_eq!(
                cube.subspace_skyline(space),
                skycube::algorithms::skyline_naive(&ds, space),
                "subspace {}", space
            );
        }
    }

    #[test]
    fn cube_membership_agrees_with_direct_check(ds in dataset(4, 16, 3)) {
        let cube = compute_cube(&ds);
        for o in ds.ids() {
            let mut count = 0u64;
            for space in ds.full_space().subsets() {
                let direct = skycube::algorithms::skyline_naive(&ds, space)
                    .binary_search(&o)
                    .is_ok();
                prop_assert_eq!(cube.is_skyline_in(o, space), direct);
                count += direct as u64;
            }
            prop_assert_eq!(cube.membership_count(o), count);
        }
    }

    #[test]
    fn maintenance_insert_equals_recompute(
        base in dataset(3, 10, 3),
        extra in vec(vec(0..3i64, 3), 1..6)
    ) {
        // Fix dimensionality mismatches by projecting the extras.
        let dims = base.dims();
        let mut engine = StellarEngine::new(&base);
        for row in extra {
            let row: Vec<Value> = row.into_iter().take(dims)
                .chain(std::iter::repeat(0))
                .take(dims)
                .collect();
            engine.insert(row).unwrap();
            let scratch = compute_cube(&engine.dataset());
            prop_assert_eq!(
                skycube_types::normalize_groups(engine.cube().groups().to_vec()),
                skycube_types::normalize_groups(scratch.groups().to_vec())
            );
        }
    }

    #[test]
    fn mixed_mutation_stream_patched_equals_rebuilt(
        ds in paper_dataset(),
        ops in vec((0u8..2, vec(0..6i64, 4), 0usize..4096), 1..10),
    ) {
        // The incremental-maintenance contract, end to end: a mixed
        // insert/delete stream driven through StellarEngine — under
        // sequential and parallel runners — leaves the
        // patched cube identical (groups, seeds, every subspace skyline) to
        // a from-scratch rebuild, and a generation-gated SubspaceCache never
        // serves a pre-mutation skyline after selective invalidation.
        use skycube::serve::{GenerationGate, SubspaceCache};
        let dims = ds.dims();
        for threads in [1usize, 4] {
            let runner = Stellar::new().with_threads(threads);
            let mut engine = StellarEngine::with_runner(&ds, runner);
            engine.cube().index(); // so fast paths splice rather than drop
            let cache = SubspaceCache::new(1 << dims);
            let gate = GenerationGate::new(engine.generation());
            let warm = |cache: &SubspaceCache, engine: &StellarEngine| {
                for space in ds.full_space().subsets() {
                    cache.put(space, engine.cube().subspace_skyline(space));
                }
            };
            warm(&cache, &engine);
            for (is_insert, row, pick) in &ops {
                if *is_insert == 1 || engine.len() <= 1 {
                    let row: Vec<Value> = row.iter().copied().take(dims)
                        .chain(std::iter::repeat(0))
                        .take(dims)
                        .collect();
                    engine.insert(row).unwrap();
                } else {
                    engine.delete((pick % engine.len()) as ObjId).unwrap();
                }
                gate.sync(engine.generation(), engine.last_delta(), &cache);
                // Patched cube == from-scratch rebuild.
                let scratch = compute_cube(&engine.dataset());
                prop_assert_eq!(engine.cube().seeds(), scratch.seeds(),
                    "seeds, {} threads", threads);
                prop_assert_eq!(
                    skycube_types::normalize_groups(engine.cube().groups().to_vec()),
                    skycube_types::normalize_groups(scratch.groups().to_vec()),
                    "groups, {} threads", threads
                );
                // Cache freshness: whatever survived selective
                // invalidation (or the clear) must equal the
                // post-mutation skyline — stale answers are forbidden.
                for space in ds.full_space().subsets() {
                    if let Some(sky) = cache.get(space) {
                        prop_assert_eq!(
                            sky, engine.cube().subspace_skyline(space),
                            "stale cache entry for {} at generation {}, {} threads",
                            space, engine.generation(), threads
                        );
                    }
                }
                warm(&cache, &engine);
            }
        }
    }

    /// The seed-changing writes re-derive the seeds from the old ones
    /// (DRed) instead of recomputing the skyline. Over a 3-value domain,
    /// where ties and duplicate rows are everywhere, every write is checked
    /// against the definition: the engine's seeds are the naive full-space
    /// skyline of its rows, and its groups are a from-scratch build's. Half
    /// the cases adopt a built cube (the recovery path), and their first
    /// write always changes the seeds.
    #[test]
    fn seed_changing_writes_rederive_the_skyline(
        ds in dataset(4, 16, 3),
        adopt in 0u8..2,
        ops in vec((0u8..6, 0usize..4096, vec(0..3i64, 4)), 1..12),
    ) {
        use skycube::algorithms::skyline_naive;
        let dims = ds.dims();
        let adopt = adopt == 1;
        let mut engine = match adopt {
            true => StellarEngine::with_cube(&ds, compute_cube(&ds), Stellar::new()).unwrap(),
            false => StellarEngine::new(&ds),
        };
        for (step, (kind, pick, row)) in ops.iter().enumerate() {
            let seeds = engine.cube().seeds().to_vec();
            let seed = seeds[pick % seeds.len()];
            let full_before = engine.maintenance_stats().full();
            // The first write of an adopted engine changes the seeds.
            let kind = if adopt && step == 0 { kind % 4 } else { *kind };
            let label = match kind {
                // Ties a seed exactly: the copy joins the seeds.
                0 => {
                    engine.insert(engine.row(seed).to_vec()).unwrap();
                    "insert tying a seed"
                }
                // The minimum of two seeds, one lower in one dimension:
                // strictly dominates both (and maybe more), and no seed
                // dominates it, or that seed would dominate both.
                1 => {
                    let other = seeds[(pick / 7) % seeds.len()];
                    let (a, b) = (engine.row(seed), engine.row(other));
                    let mut low: Vec<Value> = a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect();
                    low[pick % dims] -= 1;
                    engine.insert(low).unwrap();
                    "insert dominating seeds"
                }
                // A seed delete: with a duplicate when the data has one.
                2 => {
                    engine.delete(seed).unwrap();
                    "seed delete"
                }
                // A seed delete that another object's copy survives.
                3 => {
                    engine.insert(engine.row(seed).to_vec()).unwrap();
                    engine.delete(seed).unwrap();
                    "seed delete with a duplicate"
                }
                4 => {
                    engine.insert(row[..dims].to_vec()).unwrap();
                    "insert"
                }
                _ => {
                    engine.delete((pick % engine.len()) as ObjId).unwrap();
                    "delete"
                }
            };
            if kind < 4 {
                prop_assert!(
                    engine.maintenance_stats().full() > full_before,
                    "step {}: {} took a fast path", step, label
                );
            }
            let rows = engine.rows();
            prop_assert_eq!(
                engine.cube().seeds().to_vec(),
                skyline_naive(rows, rows.full_space()),
                "step {}: seeds after {}", step, label
            );
            let scratch = compute_cube(rows);
            prop_assert_eq!(
                skycube_types::normalize_groups(engine.cube().groups().to_vec()),
                skycube_types::normalize_groups(scratch.groups().to_vec()),
                "step {}: groups after {}", step, label
            );
            if engine.is_empty() {
                break;
            }
        }
    }

    /// The duplicate bind equals a naive one: distinct rows in order of
    /// first occurrence, each listing its objects ascending, and every
    /// distinct row found again by value.
    #[test]
    fn bind_duplicates_equals_a_naive_bind(ds in dataset(4, 40, 3)) {
        let mut rows: Vec<&[Value]> = Vec::new();
        let mut objects: Vec<Vec<ObjId>> = Vec::new();
        for o in ds.ids() {
            match rows.iter().position(|&r| r == ds.row(o)) {
                Some(b) => objects[b].push(o),
                None => {
                    rows.push(ds.row(o));
                    objects.push(vec![o]);
                }
            }
        }
        let (bound, binding) = ds.bind_duplicates();
        prop_assert_eq!(bound.len(), rows.len());
        prop_assert_eq!(binding.len(), rows.len());
        for (b, (&row, ids)) in rows.iter().zip(&objects).enumerate() {
            prop_assert_eq!(bound.row(b as ObjId), row);
            prop_assert_eq!(&binding[b], &ids[..]);
            prop_assert_eq!(binding.find(&bound, row), Some(b as ObjId));
        }
        let all: Vec<ObjId> = (0..bound.len() as ObjId).collect();
        prop_assert_eq!(binding.expand(&all), ds.ids().collect::<Vec<_>>());
    }

    #[test]
    fn lattice_is_antitone(ds in dataset(4, 16, 3)) {
        let cube = compute_cube(&ds);
        let lat = GroupLattice::new(cube.groups().to_vec());
        prop_assert!(lat.check_antitone());
    }

    #[test]
    fn csv_roundtrip_is_lossless(ds in dataset(5, 30, 1000)) {
        let mut buf = Vec::new();
        skycube::datagen::write_csv(&ds, &mut buf).unwrap();
        let back = skycube::datagen::read_csv(&buf[..]).unwrap();
        prop_assert_eq!(back, ds);
    }

    #[test]
    fn cube_persistence_roundtrip_preserves_queries(ds in dataset(4, 18, 4)) {
        let cube = compute_cube(&ds);
        let mut buf = Vec::new();
        skycube::stellar::write_cube(&cube, &mut buf).unwrap();
        let back = skycube::stellar::read_cube(&buf[..]).unwrap();
        prop_assert_eq!(back.seeds(), cube.seeds());
        prop_assert_eq!(back.num_groups(), cube.num_groups());
        for space in ds.full_space().subsets() {
            prop_assert_eq!(
                back.subspace_skyline(space),
                cube.subspace_skyline(space)
            );
        }
    }

    #[test]
    fn computed_cubes_pass_the_deep_audit(ds in dataset(4, 14, 3)) {
        let cube = compute_cube(&ds);
        let errors = skycube::stellar::audit_cube(
            &cube,
            &ds,
            skycube::stellar::AuditConfig::default(),
        );
        prop_assert!(errors.is_empty(), "audit failed: {:?}", errors);
    }

    #[test]
    fn parallel_stellar_cube_equals_sequential(ds in paper_dataset()) {
        // The parallel Stellar pipeline is order-preserving, so seeds,
        // groups, and decisive subspaces must be Vec-identical — not merely
        // equal as sets — for every thread count.
        let seq = Stellar::new().with_threads(1).compute(&ds);
        for threads in [2usize, 4] {
            let par = Stellar::new().with_threads(threads).compute(&ds);
            prop_assert_eq!(par.seeds(), seq.seeds(), "threads {}", threads);
            prop_assert_eq!(par.groups(), seq.groups(), "threads {}", threads);
        }
    }

    #[test]
    fn seed_view_rank_rows_match_scalar(ds in dataset(5, 30, 4), pick in 0usize..4096) {
        // Every object is a seed here, so rows cover tied and dominated
        // pairs alike; the dominance row sweeps rank columns and the
        // coincidence row is the sparse partner list.
        let view = SeedView::new(&ds, ds.ids().collect());
        let i = pick % view.len();
        let u = view.id(i);
        let (mut dom, mut partners) = (Vec::new(), Vec::new());
        view.dom_row(i, &mut dom);
        view.partners(i, &mut partners);
        let mut co = vec![DimMask::EMPTY; view.len()];
        for &(j, m) in &partners {
            prop_assert!(j != i && !m.is_empty());
            co[j] = m;
        }
        for j in 0..view.len() {
            let v = view.id(j);
            prop_assert_eq!(dom[j], ds.dom_mask(u, v), "dom u={} v={}", u, v);
            if j != i {
                prop_assert_eq!(co[j], ds.co_mask(u, v), "co u={} v={}", u, v);
            }
        }
    }

    #[test]
    fn skyline_engines_agree_on_any_subspace(ds in paper_dataset(), raw in 0u32..64) {
        let space = match DimMask(raw) & ds.full_space() {
            m if m.is_empty() => ds.full_space(),
            m => m,
        };
        prop_assert_eq!(skyline(&ds, space), Algorithm::Naive.run(&ds, space));
    }

    #[test]
    fn skyline_sources_agree_on_random_datasets(ds in paper_dataset()) {
        // The serve-layer contract: every SkylineSource implementation —
        // indexed cube, scan-path cube, direct computation — and the legacy
        // cube query path answer every query family identically, and
        // Skyey's materialized SkyCube holds the same skylines.
        use skycube::serve::{DirectSource, IndexedCubeSource, ScanCubeSource, SkylineSource};
        let cube = compute_cube(&ds);
        let skycube = SkyCube::compute(&ds);
        let indexed = IndexedCubeSource::new(&cube);
        let scan = ScanCubeSource::new(&cube);
        let direct = DirectSource::new(&ds);
        let sources: [&dyn SkylineSource; 3] = [&indexed, &scan, &direct];
        for space in ds.full_space().subsets() {
            // Oracle: the naive skyline; legacy scan path must match too.
            let expect = skycube::algorithms::skyline_naive(&ds, space);
            prop_assert_eq!(&cube.subspace_skyline(space), &expect);
            prop_assert_eq!(
                skycube.skyline(space), Some(expect.as_slice()),
                "skycube subspace {}", space
            );
            for s in sources {
                prop_assert_eq!(
                    &s.subspace_skyline(space).unwrap(), &expect,
                    "{} subspace {}", s.label(), space
                );
            }
        }
        // Membership probes on a sample of objects (direct pays a full
        // subspace enumeration per count).
        let probes = [0, (ds.len() as ObjId) / 2, ds.len() as ObjId - 1];
        let space = ds.full_space();
        for &o in &probes {
            let expect = cube.is_skyline_in(o, space);
            let count = cube.membership_count(o);
            for s in sources {
                prop_assert_eq!(
                    s.is_skyline_in(o, space).unwrap(), expect,
                    "{} object {}", s.label(), o
                );
                prop_assert_eq!(
                    s.membership_count(o).unwrap(), count,
                    "{} object {}", s.label(), o
                );
            }
        }
        let expect = cube.top_k_frequent(5);
        for s in sources {
            prop_assert_eq!(
                s.top_k_frequent(5), expect.clone(),
                "{}", s.label()
            );
        }
    }

    #[test]
    fn cold_and_memo_warm_index_agree_with_scan(ds in paper_dataset()) {
        // The index's contract: for every subspace of a cube built at any
        // thread count, the cold index
        // (memo emptied before each query, so the posting prefilter runs)
        // and the memo-warm index equal the cube's scan path, through
        // both merge routes, and the scan path equals the naive skyline.
        // The warming sweep runs parents first so ancestor hits seed the
        // children; the repeat is served by exact hits.
        use skycube::stellar::{CubeIndex, IndexScratch, MemoOutcome};
        let mut spaces: Vec<DimMask> = ds.full_space().subsets().collect();
        spaces.reverse();
        let naive: Vec<Vec<ObjId>> = spaces
            .iter()
            .map(|&space| skycube::algorithms::skyline_naive(&ds, space))
            .collect();
        for threads in [1usize, 4] {
            let cube = Stellar::new().with_threads(threads).compute(&ds);
            for (&space, expect) in spaces.iter().zip(&naive) {
                prop_assert_eq!(
                    &cube.subspace_skyline(space), expect,
                    "scan on {} at {} threads", space, threads
                );
            }
            let index = CubeIndex::build(&cube);
            let mut scratch = IndexScratch::default();
            let mut out = Vec::new();
            for pass in ["cold", "warming", "memo-warm"] {
                for (&space, expect) in spaces.iter().zip(&naive) {
                    if pass == "cold" {
                        index.invalidate_memo();
                    }
                    let probe = index
                        .try_subspace_skyline_into(space, &mut scratch, &mut out)
                        .unwrap();
                    if pass == "cold" {
                        prop_assert_eq!(probe.memo, MemoOutcome::Miss);
                    }
                    prop_assert_eq!(
                        &out, expect,
                        "{} (route {}, memo {}) on {} at {} threads",
                        pass, probe.route.name(), probe.memo.name(), space, threads
                    );
                }
            }
        }
    }

    #[test]
    fn batched_queries_identical_across_sources_threads_and_cache(ds in paper_dataset()) {
        // run_batch preserves workload order and answers identically for
        // every source, thread count, and with or without the LRU cache.
        use skycube::serve::{
            run_batch, CachedSource, DirectSource, IndexedCubeSource, Query, ScanCubeSource,
            SkylineSource,
        };
        let cube = compute_cube(&ds);
        let mut queries: Vec<Query> = ds.full_space().subsets().map(Query::Skyline).collect();
        // Repeat the sweep so the cache sees hits, then mix in the other
        // query families.
        queries.extend(ds.full_space().subsets().map(Query::Skyline));
        queries.push(Query::Member(0, ds.full_space()));
        queries.push(Query::Count(0));
        queries.push(Query::Top(3));
        let baseline = {
            let source = ScanCubeSource::new(&cube);
            run_batch(&source, &queries, Parallelism::sequential()).answers
        };
        for threads in [1usize, 2, 4] {
            let par = Parallelism::new(threads);
            let indexed = IndexedCubeSource::new(&cube);
            let direct = DirectSource::new(&ds);
            let sources: [&dyn SkylineSource; 2] = [&indexed, &direct];
            for s in sources {
                prop_assert_eq!(
                    &run_batch(s, &queries, par).answers, &baseline,
                    "{} at {} threads", s.label(), threads
                );
            }
            let cached = CachedSource::new(IndexedCubeSource::new(&cube), 4);
            let outcome = run_batch(&cached, &queries, par);
            prop_assert_eq!(&outcome.answers, &baseline, "cached at {} threads", threads);
            prop_assert_eq!(
                outcome.stats.cache_hits + outcome.stats.cache_misses,
                2 * (1u64 << ds.dims()) - 2,
                "every skyline query must hit or miss the cache"
            );
        }
    }

    #[test]
    fn parallel_skyey_equals_sequential(ds in paper_dataset()) {
        let mut seq_visits: Vec<(DimMask, Vec<ObjId>)> = Vec::new();
        skycube::skyey::for_each_subspace_skyline(&ds, |space, sky| {
            seq_visits.push((space, sky.to_vec()));
        });
        let seq_groups = skycube_types::normalize_groups(skyey_groups(&ds));
        let seq_total = skycube::skyey::skycube_total_size(&ds);
        let seq_by_k = skycube::skyey::skycube_sizes_by_dimensionality(&ds);
        for threads in [1usize, 2, 4] {
            let par = Parallelism::new(threads);
            // The branch fan-out visits the same subspaces with the same
            // skylines in the same scan order.
            prop_assert_eq!(
                skycube::skyey::subspace_skylines_par(&ds, par),
                seq_visits.clone(),
                "visitation, {} threads", threads
            );
            prop_assert_eq!(
                skycube_types::normalize_groups(skycube::skyey::skyey_groups_par(&ds, par)),
                seq_groups.clone(),
                "threads {}", threads
            );
            prop_assert_eq!(
                skycube::skyey::skycube_total_size_par(&ds, par),
                seq_total,
                "threads {}", threads
            );
            prop_assert_eq!(
                skycube::skyey::skycube_sizes_by_dimensionality_par(&ds, par),
                seq_by_k.clone(),
                "threads {}", threads
            );
        }
    }

    /// Robustness: an arbitrarily mutated or truncated serialized cube must
    /// load to a structured error or to a cube whose queries run without
    /// panicking — never to a process abort in construction or downstream.
    #[test]
    fn corrupted_cube_files_never_panic(
        ds in paper_dataset(),
        flips in vec((0usize..8192, 1u8..=255), 1..8),
        cut in 0usize..8192,
    ) {
        let cube = compute_cube(&ds);
        let mut bytes = Vec::new();
        skycube::stellar::write_cube(&cube, &mut bytes).unwrap();
        // Truncate roughly half the time (the strategy range is wider than
        // most serialized cubes), then flip a handful of bytes.
        if cut < bytes.len() {
            bytes.truncate(cut);
        }
        for &(at, xor) in &flips {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] ^= xor;
            }
        }
        match skycube::stellar::read_cube(&bytes[..]) {
            Err(_) => {} // a classified Parse/Corrupt/BadDimensionality error
            Ok(loaded) => {
                // Validation accepted it, so every query must be panic-free
                // (answers may differ from the original — the bytes did).
                let dims = loaded.dims().min(6);
                for space in DimMask::full(dims).subsets() {
                    let _ = loaded.try_subspace_skyline(space);
                }
                for o in 0..loaded.num_objects().min(64) as ObjId {
                    let _ = loaded.membership_count(o);
                }
                let _ = loaded.top_k_frequent(4);
            }
        }
    }

    /// The binary analogue of [`corrupted_cube_files_never_panic`]: bit
    /// flips and truncations of a binary cube+index image must load to a
    /// structured error — [`skycube::types::Error::Corrupt`] when the magic
    /// still says binary — or to a cube whose queries are panic-free (flips
    /// confined to inter-section padding are invisible to the checksums).
    #[test]
    fn corrupted_binary_cube_files_never_panic(
        ds in paper_dataset(),
        flips in vec((0usize..1 << 16, 1u8..=255), 1..8),
        cut in 0usize..1 << 16,
    ) {
        let cube = compute_cube(&ds);
        let mut bytes = Vec::new();
        skycube::stellar::write_cube_binary(&cube, &mut bytes).unwrap();
        if cut < bytes.len() {
            bytes.truncate(cut);
        }
        for &(at, xor) in &flips {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] ^= xor;
            }
        }
        let still_binary = bytes.len() >= 8 && &bytes[..8] == b"SKYBIN01";
        match skycube::stellar::read_cube(&bytes[..]) {
            Err(e) => {
                if still_binary {
                    prop_assert!(
                        matches!(e, skycube::types::Error::Corrupt { .. }),
                        "binary load failed with a non-Corrupt error: {e}"
                    );
                }
            }
            Ok(loaded) => {
                let dims = loaded.dims().min(6);
                for space in DimMask::full(dims).subsets() {
                    let _ = loaded.try_subspace_skyline(space);
                }
                for o in 0..loaded.num_objects().min(64) as ObjId {
                    let _ = loaded.membership_count(o);
                }
                let _ = loaded.top_k_frequent(4);
            }
        }
    }

    /// Load ↔ build equivalence (the zero-copy contract): a binary-loaded
    /// cube — whose index is *validated*, never rebuilt — must answer every
    /// subspace skyline, membership, count, and top-k exactly like the cube
    /// it was written from, with identical per-query routing; the
    /// text-loaded cube (which rebuilds) must agree too. Holds across the
    /// paper's distributions, and survives post-load maintenance (insert +
    /// delete) on the adopted engine.
    #[test]
    fn binary_loaded_cube_equals_built(ds in paper_dataset()) {
        use skycube::stellar::IndexScratch;
        let cube = compute_cube(&ds);

        let mut bin = Vec::new();
        skycube::stellar::write_cube_binary(&cube, &mut bin).unwrap();
        let loaded = skycube::stellar::read_cube(&bin[..]).unwrap();
        prop_assert!(loaded.is_loaded() && loaded.index().is_loaded());
        let mut text = Vec::new();
        skycube::stellar::write_cube(&cube, &mut text).unwrap();
        let from_text = skycube::stellar::read_cube(&text[..]).unwrap();
        prop_assert!(!from_text.is_loaded());

        prop_assert_eq!(loaded.seeds(), cube.seeds());
        prop_assert_eq!(loaded.num_groups(), cube.num_groups());
        let (mut sa, mut sb) = (IndexScratch::default(), IndexScratch::default());
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        for space in ds.full_space().subsets() {
            // Same query order on fresh indexes: the probes (route, memo
            // outcome, merge workload) must be bit-identical, not just the
            // answers.
            let pa = cube.index().try_subspace_skyline_into(space, &mut sa, &mut oa).unwrap();
            let pb = loaded.index().try_subspace_skyline_into(space, &mut sb, &mut ob).unwrap();
            prop_assert_eq!(&oa, &ob, "skyline {} diverged", space);
            prop_assert_eq!(pa, pb, "probe {} diverged", space);
            prop_assert_eq!(
                from_text.subspace_skyline(space),
                oa.clone(),
                "text-loaded {} diverged", space
            );
            for o in 0..ds.len().min(24) as ObjId {
                prop_assert_eq!(
                    loaded.is_skyline_in(o, space),
                    cube.is_skyline_in(o, space),
                    "member {} {}", o, space
                );
            }
        }
        for o in 0..ds.len() as ObjId {
            prop_assert_eq!(loaded.membership_count(o), cube.membership_count(o));
        }
        prop_assert_eq!(loaded.top_k_frequent(8), cube.top_k_frequent(8));

        // Post-load maintenance: a dominated insert and a delete through the
        // adopted engine stay equivalent to recomputation from scratch.
        let mut engine = StellarEngine::with_cube(&ds, loaded, Stellar::new()).unwrap();
        let worst = 1 + ds.ids().flat_map(|o| ds.row(o).iter().copied())
            .fold(Value::MIN, Value::max);
        if worst > Value::MIN {
            engine.insert(vec![worst; ds.dims()]).unwrap();
        }
        if engine.len() > 1 {
            engine.delete(0).unwrap();
        }
        let fresh = compute_cube(&engine.dataset());
        for space in ds.full_space().subsets() {
            prop_assert_eq!(
                engine.cube().subspace_skyline(space),
                fresh.subspace_skyline(space),
                "post-maintenance {} diverged", space
            );
        }
    }
}

/// Persistence round-trip at the extremes of the `Value` domain: i64
/// endpoints and long tie runs (one group with many members) survive
/// save/load with identical groups and query answers.
#[test]
fn persist_roundtrip_with_extreme_values_and_long_ties() {
    let mut rows: Vec<Vec<Value>> = vec![
        vec![Value::MIN, Value::MAX, 0],
        vec![Value::MAX, Value::MIN, 1],
        vec![0, 0, Value::MIN],
        vec![Value::MIN, Value::MIN, Value::MAX],
    ];
    // A long tie run: 40 objects identical on every dimension.
    for _ in 0..40 {
        rows.push(vec![Value::MIN, Value::MIN, Value::MIN]);
    }
    let ds = Dataset::from_rows(3, rows).unwrap();
    let cube = compute_cube(&ds);
    let mut bytes = Vec::new();
    skycube::stellar::write_cube(&cube, &mut bytes).unwrap();
    let back = skycube::stellar::read_cube(&bytes[..]).unwrap();
    assert_eq!(back.dims(), cube.dims());
    assert_eq!(back.num_objects(), cube.num_objects());
    assert_eq!(back.seeds(), cube.seeds());
    assert_eq!(
        skycube_types::normalize_groups(back.groups().to_vec()),
        skycube_types::normalize_groups(cube.groups().to_vec())
    );
    for space in ds.full_space().subsets() {
        assert_eq!(
            back.subspace_skyline(space),
            cube.subspace_skyline(space),
            "{space}"
        );
    }
    for o in 0..ds.len() as ObjId {
        assert_eq!(back.membership_count(o), cube.membership_count(o));
    }
}
