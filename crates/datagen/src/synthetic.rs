//! Re-implementation of the Börzsönyi et al. synthetic data generator used by
//! the paper's evaluation: independent ("equally distributed"), correlated
//! and anti-correlated distributions, with the paper's 4-decimal-digit
//! truncation ("to introduce a moderate coincidence in dimensions").
//!
//! All values are fixed point at scale 10⁴ in `[0, 10000)`, smaller is
//! better.

use crate::rng::{normal_clamped, std_normal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycube_types::{truncate4, Dataset, Value};

/// The three synthetic distributions of the evaluation (Section 6.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Distribution {
    /// Attribute values i.i.d. uniform — "equally distributed".
    Independent,
    /// A record good in one dimension is likely good in the others.
    Correlated,
    /// A record good in one dimension is unlikely to be good in the others.
    AntiCorrelated,
    /// Points concentrate around a handful of Gaussian cluster centres — a
    /// common extension workload in the skyline literature (not part of the
    /// paper's evaluation grid, hence absent from [`Distribution::ALL`]).
    Clustered,
}

impl Distribution {
    /// Short name used by the benchmark harness and file names.
    pub fn name(self) -> &'static str {
        match self {
            Distribution::Independent => "independent",
            Distribution::Correlated => "correlated",
            Distribution::AntiCorrelated => "anti-correlated",
            Distribution::Clustered => "clustered",
        }
    }

    /// All three distributions, in the paper's figure order (corr, indep, anti).
    pub const ALL: [Distribution; 3] = [
        Distribution::Correlated,
        Distribution::Independent,
        Distribution::AntiCorrelated,
    ];
}

/// Deterministically generate `count` tuples in `dims` dimensions.
///
/// # Panics
/// Panics if `dims` is zero or exceeds [`skycube_types::MAX_DIMS`].
pub fn generate(dist: Distribution, count: usize, dims: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Cluster centres for Distribution::Clustered (unused otherwise).
    let centres: Vec<Vec<f64>> = (0..CLUSTERS)
        .map(|_| (0..dims).map(|_| 0.15 + 0.7 * rng.gen::<f64>()).collect())
        .collect();
    let mut values: Vec<Value> = Vec::with_capacity(count * dims);
    let mut row = vec![0.0f64; dims];
    for _ in 0..count {
        match dist {
            Distribution::Independent => independent_row(&mut rng, &mut row),
            Distribution::Correlated => correlated_row(&mut rng, &mut row),
            Distribution::AntiCorrelated => anti_correlated_row(&mut rng, &mut row),
            Distribution::Clustered => clustered_row(&mut rng, &centres, &mut row),
        }
        values.extend(row.iter().map(|&x| truncate4(x)));
    }
    Dataset::from_flat(dims, values).expect("generator produces well-formed rows")
}

/// Each attribute i.i.d. uniform in `[0, 1)`.
fn independent_row<R: Rng + ?Sized>(rng: &mut R, row: &mut [f64]) {
    for x in row.iter_mut() {
        *x = rng.gen::<f64>();
    }
}

/// Correlated: all attributes cluster around a shared latent position on the
/// diagonal — the Börzsönyi recipe of a plane position plus small normal
/// "peak" offsets per dimension, rejecting points outside the unit cube.
fn correlated_row<R: Rng + ?Sized>(rng: &mut R, row: &mut [f64]) {
    loop {
        let latent = normal_clamped(rng, 0.5, 0.25, 0.0, 1.0 - f64::EPSILON);
        let mut ok = true;
        for x in row.iter_mut() {
            let v = latent + 0.1 * std_normal(rng);
            if !(0.0..1.0).contains(&v) {
                ok = false;
                break;
            }
            *x = v;
        }
        if ok {
            return;
        }
    }
}

/// Number of Gaussian centres for [`Distribution::Clustered`].
const CLUSTERS: usize = 5;

/// Clustered: pick a centre uniformly, perturb each coordinate with a small
/// normal offset, clamp into the unit cube.
fn clustered_row<R: Rng + ?Sized>(rng: &mut R, centres: &[Vec<f64>], row: &mut [f64]) {
    let centre = &centres[rng.gen_range(0..centres.len())];
    for (x, &c) in row.iter_mut().zip(centre) {
        *x = (c + 0.05 * std_normal(rng)).clamp(0.0, 1.0 - f64::EPSILON);
    }
}

/// Anti-correlated: points concentrate near the hyperplane `Σ xᵢ = d/2`; a
/// gain in one dimension is paid for in another. Following the original
/// generator, the plane position is normal around 0.5, all coordinates start
/// at it and mass is then shuffled between random coordinate pairs, which
/// preserves the sum while decorrelating the coordinates negatively.
fn anti_correlated_row<R: Rng + ?Sized>(rng: &mut R, row: &mut [f64]) {
    let d = row.len();
    let plane = normal_clamped(rng, 0.5, 0.0625, 0.0, 1.0 - f64::EPSILON);
    row.fill(plane);
    if d == 1 {
        return;
    }
    // Enough pairwise transfers to mix every coordinate a few times.
    for _ in 0..d * 4 {
        let i = rng.gen_range(0..d);
        let mut j = rng.gen_range(0..d);
        while j == i {
            j = rng.gen_range(0..d);
        }
        let headroom = row[i].min((1.0 - f64::EPSILON) - row[j]);
        if headroom <= 0.0 {
            continue;
        }
        let t = rng.gen::<f64>() * headroom;
        row[i] -= t;
        row[j] += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycube_types::SCALE_4;

    fn mean_pairwise_corr(ds: &Dataset) -> f64 {
        // Average Pearson correlation over all dimension pairs.
        let n = ds.len() as f64;
        let d = ds.dims();
        let mut means = vec![0.0; d];
        for o in ds.ids() {
            for (k, m) in means.iter_mut().enumerate() {
                *m += ds.value(o, k) as f64;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut total = 0.0;
        let mut pairs = 0;
        for a in 0..d {
            for b in a + 1..d {
                let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
                for o in ds.ids() {
                    let xa = ds.value(o, a) as f64 - means[a];
                    let xb = ds.value(o, b) as f64 - means[b];
                    cov += xa * xb;
                    va += xa * xa;
                    vb += xb * xb;
                }
                total += cov / (va.sqrt() * vb.sqrt());
                pairs += 1;
            }
        }
        total / pairs as f64
    }

    #[test]
    fn shapes_and_ranges() {
        for dist in Distribution::ALL {
            let ds = generate(dist, 500, 5, 42);
            assert_eq!(ds.len(), 500);
            assert_eq!(ds.dims(), 5);
            for o in ds.ids() {
                for d in 0..5 {
                    let v = ds.value(o, d);
                    assert!((0..SCALE_4).contains(&v), "{dist:?} value {v}");
                }
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate(Distribution::AntiCorrelated, 200, 4, 7);
        let b = generate(Distribution::AntiCorrelated, 200, 4, 7);
        let c = generate(Distribution::AntiCorrelated, 200, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn correlation_signs_match_distributions() {
        let corr = mean_pairwise_corr(&generate(Distribution::Correlated, 3_000, 4, 1));
        let ind = mean_pairwise_corr(&generate(Distribution::Independent, 3_000, 4, 1));
        let anti = mean_pairwise_corr(&generate(Distribution::AntiCorrelated, 3_000, 4, 1));
        assert!(corr > 0.5, "correlated ρ̄ = {corr}");
        assert!(ind.abs() < 0.1, "independent ρ̄ = {ind}");
        assert!(anti < -0.1, "anti-correlated ρ̄ = {anti}");
    }

    #[test]
    fn anti_correlated_sum_concentrates() {
        let d = 4;
        let ds = generate(Distribution::AntiCorrelated, 2_000, d, 3);
        let full = ds.full_space();
        let mean_sum: f64 =
            ds.ids().map(|o| ds.sum_over(o, full) as f64).sum::<f64>() / ds.len() as f64;
        let expect = 0.5 * d as f64 * SCALE_4 as f64;
        assert!(
            (mean_sum - expect).abs() < 0.05 * expect,
            "mean sum {mean_sum} vs plane {expect}"
        );
    }

    #[test]
    fn truncation_produces_value_sharing() {
        // With 100k values into 10k buckets per dim, collisions are certain;
        // that's the coincidence the paper engineers.
        let ds = generate(Distribution::Independent, 20_000, 2, 5);
        let mut seen = std::collections::HashSet::new();
        let mut collision = false;
        for o in ds.ids() {
            if !seen.insert(ds.value(o, 0)) {
                collision = true;
                break;
            }
        }
        assert!(collision, "4-digit truncation must induce shared values");
    }

    #[test]
    fn distribution_names() {
        assert_eq!(Distribution::Correlated.name(), "correlated");
        assert_eq!(Distribution::Independent.name(), "independent");
        assert_eq!(Distribution::AntiCorrelated.name(), "anti-correlated");
        assert_eq!(Distribution::Clustered.name(), "clustered");
    }

    #[test]
    fn clustered_data_has_clusters() {
        let ds = generate(Distribution::Clustered, 3_000, 3, 9);
        assert_eq!(ds.len(), 3_000);
        for o in ds.ids() {
            for d in 0..3 {
                assert!((0..SCALE_4).contains(&ds.value(o, d)));
            }
        }
        // Multimodality check: mass sits in ≤5 tight blobs, so a coarse
        // histogram over one dimension is strongly non-uniform.
        let mut bins = [0usize; 20];
        for o in ds.ids() {
            bins[(ds.value(o, 0) * 20 / SCALE_4).clamp(0, 19) as usize] += 1;
        }
        let min_bin = *bins.iter().min().unwrap();
        let max_bin = *bins.iter().max().unwrap();
        assert!(
            max_bin > 8 * min_bin.max(1),
            "expected strongly non-uniform histogram, got {bins:?}"
        );
    }
}
