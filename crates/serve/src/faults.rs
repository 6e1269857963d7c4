//! Deterministic fault injection for the serving tier.
//!
//! Enabled by the `faults` cargo feature only — nothing in this module is
//! compiled into a normal build. A [`FaultPlan`] is parsed from a compact
//! spec string (the CLI's `--inject-faults` argument) and describes which
//! failures to force:
//!
//! ```text
//! panic-route            panic on every skyline query
//! panic-route=3          panic on every 3rd skyline query (1-based)
//! slow-route=50          sleep 50 ms inside every skyline query
//! corrupt-cube           flip bytes in a serialized cube before loading
//! poison-cache           poison the subspace cache's lock before the batch
//! kill-mid-mutation      abort the process after the 1st WAL append,
//!                        before the engine patches (kill-mid-mutation=N
//!                        for the Nth) — the crash-recovery worst case
//! torn-wal-tail=13       append 13 garbage bytes to the WAL before the
//!                        daemon opens it, forcing the truncation path
//! slow-client=50         sleep 50 ms after each chunk read from a
//!                        connection, simulating a dribbling client
//! seed=42                seed for the deterministic corruption rng
//! ```
//!
//! Faults are driven from two hooks: [`FaultySource`] wraps any
//! [`SkylineSource`] and injects the route faults, and [`corrupt_bytes`]
//! deterministically garbles a serialized cube. Determinism matters: the
//! same spec must reproduce the same failure in CI and at a keyboard.

use crate::error::ServeError;
use crate::source::SkylineSource;
use crate::{CacheStats, IndexStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skycube_types::{DimMask, ObjId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which faults to force, parsed from a `--inject-faults` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic inside every `period`-th skyline query (1 = every query).
    pub panic_route: Option<u64>,
    /// Sleep this long inside every skyline query.
    pub slow_route: Option<Duration>,
    /// Garble the serialized cube before it is loaded.
    pub corrupt_cube: bool,
    /// Poison the subspace cache's lock before running the batch.
    pub poison_cache: bool,
    /// `kill -9` the process (via `std::process::abort`) right after the
    /// `n`-th WAL record is fsync'd and *before* the engine patches — the
    /// worst-case crash point the recovery contract must survive.
    pub kill_mid_mutation: Option<u64>,
    /// Append this many garbage bytes to the WAL before opening it, so the
    /// torn-tail truncation path provably fires.
    pub torn_wal_tail: Option<u64>,
    /// Dribble: sleep this long after every chunk read from a connection,
    /// simulating a slow client pinning a pool worker.
    pub slow_client: Option<Duration>,
    /// Seed for the deterministic corruption rng.
    pub seed: u64,
}

impl FaultPlan {
    /// Parse a comma-separated spec (`panic-route=2,slow-route=50,seed=7`).
    /// Unknown faults and malformed values are rejected with the offending
    /// token, so a typo cannot silently disable a planned fault.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = match token.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (token, None),
            };
            let number = |what: &str| -> Result<u64, String> {
                value
                    .ok_or_else(|| format!("fault {key:?} needs a value: {key}=<{what}>"))?
                    .parse::<u64>()
                    .map_err(|_| format!("fault {key:?} has a malformed {what}: {token:?}"))
            };
            match key {
                "panic-route" => {
                    let period = match value {
                        Some(_) => number("period")?,
                        None => 1,
                    };
                    if period == 0 {
                        return Err("fault \"panic-route\" period must be >= 1".to_owned());
                    }
                    plan.panic_route = Some(period);
                }
                "slow-route" => plan.slow_route = Some(Duration::from_millis(number("ms")?)),
                "corrupt-cube" => plan.corrupt_cube = true,
                "poison-cache" => plan.poison_cache = true,
                "kill-mid-mutation" => {
                    let nth = match value {
                        Some(_) => number("nth")?,
                        None => 1,
                    };
                    if nth == 0 {
                        return Err("fault \"kill-mid-mutation\" nth must be >= 1".to_owned());
                    }
                    plan.kill_mid_mutation = Some(nth);
                }
                "torn-wal-tail" => {
                    plan.torn_wal_tail = Some(match value {
                        Some(_) => number("bytes")?,
                        None => 13,
                    });
                }
                "slow-client" => plan.slow_client = Some(Duration::from_millis(number("ms")?)),
                "seed" => plan.seed = number("seed")?,
                _ => return Err(format!("unknown fault {key:?} in spec {spec:?}")),
            }
        }
        Ok(plan)
    }

    /// Whether any fault is planned at all.
    pub fn is_active(&self) -> bool {
        self.faults().next().is_some()
    }

    /// The spec names of the planned faults, in spec-vocabulary order
    /// (`seed` is a setting of the faults, not one of them).
    pub fn faults(&self) -> impl Iterator<Item = &'static str> {
        [
            ("panic-route", self.panic_route.is_some()),
            ("slow-route", self.slow_route.is_some()),
            ("corrupt-cube", self.corrupt_cube),
            ("poison-cache", self.poison_cache),
            ("kill-mid-mutation", self.kill_mid_mutation.is_some()),
            ("torn-wal-tail", self.torn_wal_tail.is_some()),
            ("slow-client", self.slow_client.is_some()),
        ]
        .into_iter()
        .filter_map(|(name, planned)| planned.then_some(name))
    }
}

/// Deterministically garble a serialized artifact: flip several bytes (and
/// truncate the tail when the seed says so) using the plan's seed. The
/// same `(bytes, seed)` pair always yields the same corruption.
pub fn corrupt_bytes(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    if out.is_empty() {
        return out;
    }
    if rng.gen_bool(0.5) {
        // Truncate somewhere inside the payload.
        let keep = rng.gen_range(0..out.len());
        out.truncate(keep);
    }
    let flips = rng.gen_range(1..=4usize);
    for _ in 0..flips {
        if out.is_empty() {
            break;
        }
        let at = rng.gen_range(0..out.len());
        let bit = rng.gen_range(0..8u32);
        out[at] ^= 1 << bit;
    }
    out
}

/// A [`SkylineSource`] wrapper that injects the plan's route faults into
/// skyline queries: a panic every `panic-route` periods and/or a
/// `slow-route` sleep before delegating. Point queries and analytics pass
/// through untouched, so a faulty plan degrades exactly the query family
/// the plan names.
pub struct FaultySource<'a> {
    inner: &'a dyn SkylineSource,
    plan: FaultPlan,
    skyline_queries: AtomicU64,
}

impl<'a> FaultySource<'a> {
    /// Wrap `inner` with the route faults of `plan`.
    pub fn new(inner: &'a dyn SkylineSource, plan: FaultPlan) -> Self {
        FaultySource {
            inner,
            plan,
            skyline_queries: AtomicU64::new(0),
        }
    }

    fn inject(&self) {
        let n = self.skyline_queries.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(ms) = self.plan.slow_route {
            std::thread::sleep(ms);
        }
        if let Some(period) = self.plan.panic_route {
            if n.is_multiple_of(period) {
                panic!("fault injection: panic-route fired on skyline query {n}");
            }
        }
    }
}

impl SkylineSource for FaultySource<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn dims(&self) -> usize {
        self.inner.dims()
    }

    fn num_objects(&self) -> usize {
        self.inner.num_objects()
    }

    fn subspace_skyline(&self, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        self.inject();
        self.inner.subspace_skyline(space)
    }

    fn subspace_skyline_within(
        &self,
        space: DimMask,
        deadline: Option<Instant>,
    ) -> Result<Vec<ObjId>, ServeError> {
        self.inject();
        self.inner.subspace_skyline_within(space, deadline)
    }

    fn skyband(&self, k: usize, space: DimMask) -> Result<Vec<ObjId>, ServeError> {
        self.inner.skyband(k, space)
    }

    fn is_skyline_in(&self, o: ObjId, space: DimMask) -> Result<bool, ServeError> {
        self.inner.is_skyline_in(o, space)
    }

    fn membership_count(&self, o: ObjId) -> Result<u64, ServeError> {
        self.inner.membership_count(o)
    }

    fn top_k_frequent(&self, k: usize) -> Vec<(ObjId, u64)> {
        self.inner.top_k_frequent(k)
    }

    fn groups_touched(&self) -> u64 {
        self.inner.groups_touched()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn index_stats(&self) -> Option<IndexStats> {
        self.inner.index_stats()
    }

    fn demotions(&self) -> u64 {
        self.inner.demotions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_reject() {
        let plan = FaultPlan::parse("panic-route").unwrap();
        assert_eq!(plan.panic_route, Some(1));
        let plan = FaultPlan::parse("panic-route=3,slow-route=50,seed=7").unwrap();
        assert_eq!(plan.panic_route, Some(3));
        assert_eq!(plan.slow_route, Some(Duration::from_millis(50)));
        assert_eq!(plan.seed, 7);
        assert!(plan.is_active());
        assert_eq!(
            plan.faults().collect::<Vec<_>>(),
            ["panic-route", "slow-route"]
        );
        let plan = FaultPlan::parse("corrupt-cube,poison-cache").unwrap();
        assert!(plan.corrupt_cube && plan.poison_cache);
        assert!(!FaultPlan::parse("").unwrap().is_active());
        assert_eq!(FaultPlan::parse("seed=3").unwrap().faults().count(), 0);

        let plan = FaultPlan::parse("kill-mid-mutation,torn-wal-tail,slow-client=25").unwrap();
        assert_eq!(plan.kill_mid_mutation, Some(1));
        assert_eq!(plan.torn_wal_tail, Some(13));
        assert_eq!(plan.slow_client, Some(Duration::from_millis(25)));
        assert!(plan.is_active());
        let plan = FaultPlan::parse("kill-mid-mutation=3,torn-wal-tail=64").unwrap();
        assert_eq!(plan.kill_mid_mutation, Some(3));
        assert_eq!(plan.torn_wal_tail, Some(64));

        assert!(FaultPlan::parse("panic-route=0").is_err());
        assert!(FaultPlan::parse("panic-route=x").is_err());
        assert!(FaultPlan::parse("slow-route").is_err());
        assert!(FaultPlan::parse("kill-mid-mutation=0").is_err());
        assert!(FaultPlan::parse("slow-client").is_err());
        assert!(FaultPlan::parse("warp-core-breach").is_err());
        assert!(FaultPlan::parse("seed=").is_err());
    }

    #[test]
    fn corruption_is_deterministic_and_changes_the_bytes() {
        let bytes: Vec<u8> = (0..200u8).collect();
        for seed in 0..32 {
            let a = corrupt_bytes(&bytes, seed);
            let b = corrupt_bytes(&bytes, seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert_ne!(a, bytes, "seed {seed} left the bytes intact");
        }
        assert!(corrupt_bytes(&[], 1).is_empty());
    }
}
