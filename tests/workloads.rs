//! Moderate-scale consistency tests over the paper's generated workloads:
//! all three skycube paths (Stellar-derived, shared-sort DFS, TDS) must
//! report the same sizes, the engine must track batch recomputation, and the
//! on-disk formats must round-trip across crates.

use skycube::prelude::*;
use skycube::{datagen, skyey, stellar};

#[test]
fn three_skycube_paths_agree_on_all_distributions() {
    for dist in Distribution::ALL {
        let ds = generate(dist, 2_000, 4, 11);
        let cube = compute_cube(&ds);
        let from_cube = cube.skycube_size();
        let from_dfs = skyey::skycube_total_size(&ds);
        let from_tds = skyey::tds_total_size(&ds);
        assert_eq!(from_cube, from_dfs, "{}", dist.name());
        assert_eq!(from_cube, from_tds, "{}", dist.name());
    }
}

#[test]
fn nba_like_table_has_the_papers_character() {
    // The paper reports: few full-space skyline players, group count bounded
    // by seed count (no sharing on decisive subspaces), skycube size much
    // larger than group count at higher dimensionality.
    let ds = nba_table_sized(5_000, 13).prefix_dims(10).unwrap();
    let cube = compute_cube(&ds);
    let seeds = cube.seeds().len();
    let groups = cube.num_groups();
    let skycube = cube.skycube_size();
    assert!(seeds < 500, "skyline unexpectedly large: {seeds}");
    assert!(
        groups < seeds * 3,
        "groups ({groups}) should stay near seed count ({seeds})"
    );
    assert!(
        skycube > groups as u64 * 10,
        "compression must be substantial: {skycube} entries vs {groups} groups"
    );
}

#[test]
fn thirty_two_dimensions_count_without_enumerating() {
    // Five rows in 32 dimensions: groups with |B| up to 32 and over a
    // hundred decisives. Enumerating the 2^32 subsets of each B took over a
    // minute; the covered-subspace counter keeps the index build and the
    // size analytics cheap.
    let ds = generate(Distribution::Independent, 5, 32, 7);
    let cube = compute_cube(&ds);
    let index = stellar::CubeIndex::build(&cube);
    assert_eq!(index.num_groups(), cube.num_groups());
    let by_k = cube.skycube_sizes_by_dimensionality();
    assert_eq!(by_k.len(), 32);
    assert_eq!(by_k.iter().sum::<u64>(), cube.skycube_size());
    for o in 0..ds.len() as ObjId {
        assert_eq!(index.membership_count(o), cube.membership_count(o));
    }
}

#[test]
fn correlated_data_compresses_much_better_than_anti_correlated() {
    // Figure 10's message: group count ≪ skycube size on correlated data;
    // the two stay within a small factor on anti-correlated data.
    let corr = generate(Distribution::Correlated, 5_000, 6, 17);
    let anti = generate(Distribution::AntiCorrelated, 5_000, 6, 17);
    let c = compute_cube(&corr);
    let a = compute_cube(&anti);
    let corr_ratio = c.skycube_size() as f64 / c.num_groups() as f64;
    let anti_ratio = a.skycube_size() as f64 / a.num_groups() as f64;
    assert!(
        corr_ratio > anti_ratio,
        "correlated compression ratio ({corr_ratio:.1}) must exceed anti-correlated ({anti_ratio:.1})"
    );
    // And anti-correlated data has far more groups in absolute terms.
    assert!(a.num_groups() > 10 * c.num_groups());
}

#[test]
fn csv_and_cube_formats_roundtrip_at_scale() {
    let dir = std::env::temp_dir().join("skycube_workloads_test");
    std::fs::create_dir_all(&dir).unwrap();
    let data_path = dir.join("data.csv");
    let cube_path = dir.join("cube.txt");

    let ds = generate(Distribution::Independent, 3_000, 5, 23);
    datagen::save_csv(&ds, &data_path).unwrap();
    let loaded = datagen::load_csv(&data_path).unwrap();
    assert_eq!(loaded, ds);

    let cube = compute_cube(&loaded);
    stellar::save_cube(&cube, &cube_path).unwrap();
    let reloaded = stellar::load_cube(&cube_path).unwrap();
    assert_eq!(reloaded.num_groups(), cube.num_groups());
    for space in [
        DimMask::parse("AC").unwrap(),
        DimMask::parse("BDE").unwrap(),
    ] {
        assert_eq!(
            reloaded.subspace_skyline(space),
            cube.subspace_skyline(space)
        );
    }
    std::fs::remove_file(data_path).ok();
    std::fs::remove_file(cube_path).ok();
}

#[test]
fn engine_batch_stream_at_scale() {
    let base = generate(Distribution::Independent, 1_000, 3, 29);
    let extra = generate(Distribution::Independent, 60, 3, 31);
    let mut engine = StellarEngine::new(&base);
    for o in extra.ids() {
        engine.insert(extra.row(o).to_vec()).unwrap();
    }
    let fresh = compute_cube(&engine.dataset());
    assert_eq!(engine.cube().num_groups(), fresh.num_groups());
    assert_eq!(engine.cube().seeds(), fresh.seeds());
    let stats = engine.maintenance_stats();
    let (fast, full) = (stats.fast(), stats.full());
    assert_eq!(fast + full, 60);
    assert!(
        fast > full,
        "most random inserts are dominated: {fast}/{full}"
    );
}

#[test]
fn prefix_protocols_match_fresh_generation() {
    // The harness sweeps database size via row prefixes; a prefix of a
    // generated stream must equal generating fewer rows with the same seed.
    let big = generate(Distribution::Correlated, 2_000, 4, 37);
    let small = generate(Distribution::Correlated, 700, 4, 37);
    assert_eq!(big.prefix_rows(700), small);
}
