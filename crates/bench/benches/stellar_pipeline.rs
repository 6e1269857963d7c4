//! Criterion micro-benchmarks of the Stellar pipeline stages:
//!
//! - seed-lattice construction (steps 2–4) in isolation;
//! - end-to-end Stellar vs Skyey at a fixed moderate scale;
//! - single-mutation maintenance, fast path and recompute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use skycube_datagen::{generate, Distribution};
use skycube_skyline::skyline;
use skycube_stellar::{maximal_cgroups, seed_skyline_groups, SeedView, Stellar};

fn bench_seed_lattice_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("seed_lattice");
    group.sample_size(10);
    for dist in Distribution::ALL {
        let ds = generate(dist, 20_000, 5, 17);
        let seeds = skyline(&ds, ds.full_space());
        let view = SeedView::new(&ds, seeds);
        group.bench_with_input(
            BenchmarkId::new("max_cgroups", dist.name()),
            &view,
            |b, view| b.iter(|| maximal_cgroups(view)),
        );
        group.bench_with_input(
            BenchmarkId::new("seed_groups_with_decisives", dist.name()),
            &view,
            |b, view| b.iter(|| seed_skyline_groups(view)),
        );
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let ds = generate(Distribution::Correlated, 20_000, 8, 23);
    group.bench_function("stellar_corr_8d_20k", |b| {
        b.iter(|| Stellar::new().compute(&ds))
    });
    group.bench_function("skyey_corr_8d_20k", |b| {
        b.iter(|| skycube_skyey::skyey_groups(&ds))
    });
    group.finish();
}

fn bench_maintenance(c: &mut Criterion) {
    use skycube_stellar::StellarEngine;
    let mut group = c.benchmark_group("maintenance");
    group.sample_size(10);
    let base = generate(Distribution::Independent, 10_000, 4, 51);
    // A dominated row (worst possible values) exercises the pure fast path.
    let dominated = vec![i64::MAX / 2; 4];
    group.bench_function("insert_dominated_fast_path", |b| {
        b.iter_batched(
            || StellarEngine::new(&base),
            |mut engine| {
                engine.insert(dominated.clone()).unwrap();
                engine
            },
            criterion::BatchSize::LargeInput,
        )
    });
    // An all-minima row evicts nothing but forces the full recomputation.
    let new_seed = vec![-1i64; 4];
    group.bench_function("insert_new_seed_recompute", |b| {
        b.iter_batched(
            || StellarEngine::new(&base),
            |mut engine| {
                engine.insert(new_seed.clone()).unwrap();
                engine
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_seed_lattice_stages,
    bench_end_to_end,
    bench_maintenance
);
criterion_main!(benches);
