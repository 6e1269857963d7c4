//! The definition-level oracle at workload scale, run with
//! `cargo test --release --test oracle_scale -- --ignored`.
//!
//! The benchmark checks its replies against a cube that the same seed
//! lattice and extension code built, so a fault in a stage that both
//! share would go unseen there. Here every build pipeline — Stellar at one
//! and two threads, the engine, and the engine's cube after a binary save
//! and load — is compared with Skyey's groups, which come straight from
//! Definitions 1–2, on datasets of the benchmark's size. The stream tests
//! then drive the engine's maintenance paths with seeded mutation streams
//! and compare the patched cube with Skyey's groups of the final rows; the
//! seed-changing streams drive only the writes that re-derive the seeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycube::prelude::*;
use skycube::skyey::skyey_groups_par;
use skycube::stellar::{read_cube_binary, write_cube_binary};
use skycube_types::normalize_groups;

/// Skyey's groups of `ds`, the definition-level answer.
fn oracle(ds: &Dataset) -> Vec<SkylineGroup> {
    normalize_groups(skyey_groups_par(ds, Parallelism::new(2)))
}

/// Panic unless `cube`'s groups equal `expect`, naming the first
/// difference: the group lists run to tens of thousands of entries.
fn check(label: &str, pipeline: &str, cube: &CompressedSkylineCube, expect: &[SkylineGroup]) {
    let got = normalize_groups(cube.groups().to_vec());
    if got != expect {
        let at = got.iter().zip(expect).take_while(|(a, b)| a == b).count();
        panic!(
            "{label}: {pipeline} built {} groups, Skyey {}; \
             first difference at {at}: {:?} vs {:?}",
            got.len(),
            expect.len(),
            got.get(at),
            expect.get(at)
        );
    }
}

fn assert_pipelines_match_oracle(label: &str, ds: &Dataset) {
    let expect = oracle(ds);
    for threads in [1, 2] {
        let cube = Stellar::new().with_threads(threads).compute(ds);
        check(
            label,
            &format!("Stellar at {threads} threads"),
            &cube,
            &expect,
        );
    }
    let engine = StellarEngine::new(ds);
    check(label, "StellarEngine::new", engine.cube(), &expect);
    let mut bytes = Vec::new();
    write_cube_binary(engine.cube(), &mut bytes).expect("in-memory write");
    let loaded = read_cube_binary(&bytes).expect("the bytes just written load");
    check(label, "the binary-loaded engine cube", &loaded, &expect);
}

fn assert_matches_oracle(dist: Distribution, n: usize, dims: usize) {
    let ds = generate(dist, n, dims, 1);
    assert_pipelines_match_oracle(&format!("{} {n} × {dims}", dist.name()), &ds);
}

/// `ds` with every value divided by `by`: a coarse domain, so duplicates
/// and ties with seed values are everywhere.
fn quantized(ds: &Dataset, by: Value) -> Dataset {
    let values = ds.ids().flat_map(|o| ds.row(o).iter().map(move |v| v / by));
    Dataset::from_flat(ds.dims(), values.collect()).expect("same shape")
}

/// Run a seeded stream of `steps` mutations on an engine over `ds` whose
/// index is kept built, as a serving daemon's is, then compare its cube
/// with Skyey's groups of the rows it ends with and its spliced index with
/// its groups on every subspace. Each step deletes a random live id,
/// inserts a copy of a random live row (the duplicate path), or inserts a
/// row that takes a random seed's values on a random subset of the
/// dimensions and another row's value + 1 on the rest (ties with seed
/// values; sometimes a new seed, so a recompute).
fn assert_stream_matches_oracle(label: &str, ds: &Dataset, steps: usize, seed: u64) {
    let dims = ds.dims();
    let mut engine = StellarEngine::new(ds);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        // A recompute drops the index; rebuild it so that every patch
        // splices one.
        engine.cube().index();
        let live = engine.len() as ObjId;
        match rng.gen_range(0..3) {
            0 if live > 1 => {
                engine.delete(rng.gen_range(0..live)).expect("live id");
            }
            1 => {
                let row = engine.row(rng.gen_range(0..live)).to_vec();
                engine.insert(row).expect("row of the engine's width");
            }
            _ => {
                let seeds = engine.cube().seeds();
                let s = engine.row(seeds[rng.gen_range(0..seeds.len())]).to_vec();
                let other = engine.row(rng.gen_range(0..live)).to_vec();
                let row = (0..dims)
                    .map(|d| {
                        if rng.gen_bool(0.5) {
                            s[d]
                        } else {
                            other[d] + 1
                        }
                    })
                    .collect();
                engine.insert(row).expect("row of the engine's width");
            }
        }
    }
    let stats = engine.maintenance_stats();
    assert!(
        stats.fast_inserts > 0 && stats.fast_deletes > 0,
        "{label}: the stream never took a fast path: {stats:?}"
    );
    check(
        label,
        &format!("the engine after {steps} mutations ({stats:?})"),
        engine.cube(),
        &oracle(engine.rows()),
    );
    for space in DimMask::full(dims).subsets() {
        assert_eq!(
            engine.cube().index().subspace_skyline(space),
            engine.cube().subspace_skyline(space),
            "{label}: the spliced index disagrees with the groups in {space}"
        );
    }
}

/// Run a seeded stream of `steps` writes on an engine over `ds` in which
/// every write changes the seed set, so each one re-derives the seeds from
/// the old ones and rebuilds the seed lattice. A write inserts a new
/// skyline row (a seed's row, or the minimum of two seeds' rows, lowered
/// by one in one dimension: it dominates them and no seed dominates it),
/// deletes a random seed, or copies a seed's row and then deletes the
/// seed (the delete of a duplicated seed). The cube is compared with a
/// from-scratch build every `steps / 5` steps and with Skyey's groups at
/// the end.
fn assert_seed_stream_matches_oracle(label: &str, ds: &Dataset, steps: usize, seed: u64) {
    let dims = ds.dims();
    let mut engine = StellarEngine::new(ds);
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        let seeds = engine.cube().seeds().to_vec();
        let s = seeds[rng.gen_range(0..seeds.len())];
        let full_before = engine.maintenance_stats().full();
        let writes = match rng.gen_range(0..3) {
            0 => {
                let t = seeds[rng.gen_range(0..seeds.len())];
                let mut row: Vec<Value> = (0..dims)
                    .map(|d| engine.row(s)[d].min(engine.row(t)[d]))
                    .collect();
                row[rng.gen_range(0..dims)] -= 1;
                engine.insert(row).expect("row of the engine's width");
                1
            }
            1 => {
                engine.delete(s).expect("a live seed");
                1
            }
            _ => {
                engine
                    .insert(engine.row(s).to_vec())
                    .expect("row of the engine's width");
                engine.delete(s).expect("a live seed");
                2
            }
        };
        assert_eq!(
            engine.maintenance_stats().full(),
            full_before + writes,
            "{label}: step {step} did not change the seeds"
        );
        if (step + 1) % (steps / 5).max(1) == 0 {
            let fresh = compute_cube(engine.rows());
            assert_eq!(engine.cube().seeds(), fresh.seeds(), "{label}: step {step}");
            check(
                label,
                &format!("the engine after {} seed-changing steps", step + 1),
                engine.cube(),
                &normalize_groups(fresh.groups().to_vec()),
            );
        }
    }
    check(
        label,
        &format!(
            "the engine after {steps} seed-changing steps ({:?})",
            engine.maintenance_stats()
        ),
        engine.cube(),
        &oracle(engine.rows()),
    );
}

#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn anti_correlated_100k_by_5() {
    assert_matches_oracle(Distribution::AntiCorrelated, 100_000, 5);
}

#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn independent_100k_by_5() {
    assert_matches_oracle(Distribution::Independent, 100_000, 5);
}

#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn correlated_20k_by_10() {
    assert_matches_oracle(Distribution::Correlated, 20_000, 10);
}

#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn mutation_stream_on_independent_100k_by_5() {
    let ds = generate(Distribution::Independent, 100_000, 5, 1);
    assert_stream_matches_oracle("independent 100k × 5", &ds, 400, 11);
}

#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn seed_changing_stream_on_independent_100k_by_5() {
    let ds = generate(Distribution::Independent, 100_000, 5, 1);
    assert_seed_stream_matches_oracle("independent 100k × 5", &ds, 60, 21);
}

#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn mutation_stream_on_anti_correlated_50k_by_5() {
    let ds = generate(Distribution::AntiCorrelated, 50_000, 5, 1);
    assert_stream_matches_oracle("anti-correlated 50k × 5", &ds, 200, 12);
}

/// Ten values per dimension: almost every non-seed ties some seed value,
/// and many rows are exact duplicates.
#[test]
#[ignore = "workload scale: run with --release --ignored"]
fn tied_independent_100k_by_5_and_its_mutation_stream() {
    let ds = quantized(&generate(Distribution::Independent, 100_000, 5, 1), 1_000);
    let label = "independent 100k × 5 over 10 values";
    assert_pipelines_match_oracle(label, &ds);
    assert_stream_matches_oracle(label, &ds, 400, 13);
    assert_seed_stream_matches_oracle(label, &ds, 60, 22);
}
