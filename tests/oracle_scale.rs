//! The definition-level oracle at workload scale, run with
//! `cargo test --release --test oracle_scale -- --ignored`.
//!
//! The benchmark checks its replies against a cube that the same seed
//! lattice and extension code built, so a fault in a stage that both
//! share would go unseen there. Here every build pipeline — Stellar at one
//! and two threads, the engine, and the engine's cube after a binary save
//! and load — is compared with Skyey's groups, which come straight from
//! Definitions 1–2, on datasets of the benchmark's size.

use skycube::prelude::*;
use skycube::skyey::skyey_groups_par;
use skycube::stellar::{read_cube_binary, write_cube_binary};
use skycube_types::normalize_groups;

fn assert_matches_oracle(dist: Distribution, n: usize, dims: usize) {
    let ds = generate(dist, n, dims, 1);
    let oracle = normalize_groups(skyey_groups_par(&ds, Parallelism::new(2)));
    let check = |pipeline: &str, cube: &CompressedSkylineCube| {
        let got = normalize_groups(cube.groups().to_vec());
        if got != oracle {
            // The group lists run to tens of thousands of entries, so name
            // the first difference instead of printing both.
            let at = got.iter().zip(&oracle).take_while(|(a, b)| a == b).count();
            panic!(
                "{} {n} × {dims}: {pipeline} built {} groups, Skyey {}; \
                 first difference at {at}: {:?} vs {:?}",
                dist.name(),
                got.len(),
                oracle.len(),
                got.get(at),
                oracle.get(at)
            );
        }
    };
    for threads in [1, 2] {
        let cube = Stellar::new().with_threads(threads).compute(&ds);
        check(&format!("Stellar at {threads} threads"), &cube);
    }
    let engine = StellarEngine::new(&ds);
    check("StellarEngine::new", engine.cube());
    let mut bytes = Vec::new();
    write_cube_binary(engine.cube(), &mut bytes).expect("in-memory write");
    let loaded = read_cube_binary(&bytes).expect("the bytes just written load");
    check("the binary-loaded engine cube", &loaded);
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
