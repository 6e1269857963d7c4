//! Building a hotel shortlist with the skyline operator: the full-space
//! skyline, the k-skyband of backups, and the compressed cube's view of
//! where one hotel wins.
//!
//! ```sh
//! cargo run --release --example hotel_shortlist
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycube::algorithms::k_skyband;
use skycube::prelude::*;

const ATTRS: [&str; 4] = ["price", "beach_m", "center_km", "noise"];

fn main() {
    // price €/night, distance to the beach (m), distance to the centre
    // (km, scaled ×10), street noise (dB) — all minimized.
    let mut rng = StdRng::seed_from_u64(7);
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for _ in 0..5_000 {
        let beach: i64 = rng.gen_range(0..3_000);
        // Beachfront property is pricey and far from the centre.
        let price = (240 - beach / 25 + rng.gen_range(-40..160)).max(35);
        let center = (30 - beach / 150 + rng.gen_range(0..60)).max(1);
        let noise = rng.gen_range(30..75);
        rows.push(vec![price, beach, center, noise]);
    }
    let ds = Dataset::from_rows(4, rows)
        .and_then(|d| d.with_names(ATTRS.to_vec()))
        .expect("static shape");
    let full = ds.full_space();

    let sky = skyline(&ds, full);
    println!(
        "{} hotels; {} on the 4-attribute skyline",
        ds.len(),
        sky.len()
    );

    // Need backups? The 3-skyband adds hotels beaten by at most 2 others —
    // the exact candidate set for any top-3 ranking with monotone weights.
    let band = k_skyband(&ds, full, 3);
    println!(
        "3-skyband (top-3 candidates under any monotone scoring): {}",
        band.len()
    );

    // And the full multidimensional view: in which attribute combinations
    // does the overall cheapest skyline hotel win?
    let cube = compute_cube(&ds);
    let cheapest = *cube
        .subspace_skyline(full)
        .iter()
        .min_by_key(|&&h| ds.value(h, 0))
        .expect("non-empty skyline");
    println!(
        "\n{}",
        skycube::stellar::explain_text(&cube, &ds, cheapest, DimMask::parse("AB").unwrap())
    );
    println!(
        "hotel #{cheapest} is a skyline member in {} of the 15 attribute combinations",
        cube.membership_count(cheapest)
    );
}
