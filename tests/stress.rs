//! Heavier randomized cross-validation, run with
//! `cargo test --release --test stress -- --ignored`. These push the same
//! Stellar ≡ Skyey equivalence as `tests/equivalence.rs` to larger object
//! counts, higher dimensionality and long maintenance streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycube::prelude::*;
use skycube_types::normalize_groups;

fn assert_equivalent(ds: &Dataset, label: &str) {
    let cube = compute_cube(ds);
    cube.validate_against(ds)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        normalize_groups(cube.groups().to_vec()),
        normalize_groups(skyey_groups(ds)),
        "{label}"
    );
}

#[test]
#[ignore = "heavy: run with --ignored in release mode"]
fn stress_dense_ties_six_dims() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for trial in 0..40 {
        let dims = rng.gen_range(4..=6);
        let n = rng.gen_range(100..=600);
        let domain = rng.gen_range(2..=5);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| (0..dims).map(|_| rng.gen_range(0..domain)).collect())
            .collect();
        let ds = Dataset::from_rows(dims, rows).unwrap();
        assert_equivalent(&ds, &format!("dense 6d trial {trial}"));
    }
}

#[test]
#[ignore = "heavy: run with --ignored in release mode"]
fn stress_generated_distributions_at_scale() {
    for dist in [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::AntiCorrelated,
        Distribution::Clustered,
    ] {
        for dims in [4, 5, 6] {
            let base = generate(dist, 4_000, dims, 99);
            // Coarsen to induce heavy grouping.
            let rows: Vec<Vec<Value>> = base
                .ids()
                .map(|o| base.row(o).iter().map(|v| v / 250).collect())
                .collect();
            let ds = Dataset::from_rows(dims, rows).unwrap();
            assert_equivalent(&ds, &format!("{} {dims}-d", dist.name()));
        }
    }
}

#[test]
#[ignore = "heavy: run with --ignored in release mode"]
fn stress_nba_like_prefixes() {
    let full = nba_table_sized(2_000, 5);
    for dims in [4, 6, 8] {
        let ds = full.prefix_dims(dims).unwrap();
        assert_equivalent(&ds, &format!("nba {dims}-d"));
    }
}

#[test]
#[ignore = "heavy: run with --ignored in release mode"]
fn stress_long_maintenance_stream() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let base = generate(Distribution::Independent, 300, 4, 1);
    let rows: Vec<Vec<Value>> = base
        .ids()
        .map(|o| base.row(o).iter().map(|v| v / 500).collect())
        .collect();
    let ds = Dataset::from_rows(4, rows).unwrap();
    let mut engine = StellarEngine::new(&ds);
    for step in 0..300 {
        if engine.len() > 50 && rng.gen_bool(0.45) {
            let id = rng.gen_range(0..engine.len() as u32);
            engine.delete(id).unwrap();
        } else {
            let row: Vec<Value> = (0..4).map(|_| rng.gen_range(0..20)).collect();
            engine.insert(row).unwrap();
        }
        if step % 25 == 0 {
            let fresh = compute_cube(&engine.dataset());
            assert_eq!(
                normalize_groups(engine.cube().groups().to_vec()),
                normalize_groups(fresh.groups().to_vec()),
                "step {step}"
            );
        }
    }
}

#[test]
#[ignore = "heavy: run with --ignored in release mode"]
fn stress_all_skyline_algorithms_at_scale() {
    for dist in Distribution::ALL {
        let ds = generate(dist, 30_000, 5, 3);
        let full = ds.full_space();
        assert_eq!(
            Algorithm::Less.run(&ds, full),
            Algorithm::Naive.run(&ds, full),
            "{}",
            dist.name()
        );
    }
}
