//! Workload definitions and their seeded request streams.
//!
//! Every input is a pure function of `(workload, seed, seconds)`: the same
//! arguments give the same dataset, the same WAL tail and the same request
//! stream, so counts repeat from run to run. The daemon only ever sees the
//! generated rows and request lines.

use skycube_datagen::{generate, Distribution};
use skycube_serve::Query;
use skycube_types::{DimMask, ObjId, Value};

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Anti-correlated n=100k d=5, Zipf-skewed reads that all fit the cache.
    HotReads,
    /// Correlated n=100k d=10, uniform skylines over all 1,023 subspaces.
    WideReads,
    /// Independent n=100k d=5, 90% reads and 10% durable writes.
    MixedWrites,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::HotReads,
        Workload::WideReads,
        Workload::MixedWrites,
    ];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot-reads",
            Workload::WideReads => "wide-reads",
            Workload::MixedWrites => "mixed-writes",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes and mix of one workload at one scale.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Data distribution of the rows (and of inserted rows).
    pub dist: Distribution,
    /// Objects at generation time.
    pub objects: usize,
    /// Dimensions.
    pub dims: usize,
    /// Untimed read requests sent before the measured stream.
    pub warmup: usize,
    /// Measured stream length.
    pub requests: usize,
    /// Read-only workloads, traced runs: patching inserts (and as many
    /// patching deletes) sent after the measured stream, followed by one
    /// recomputing insert and one recomputing delete.
    pub probe_writes: usize,
    /// Mixed-writes: records in the WAL tail that set-up recovers.
    pub wal_tail: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Requests per second each workload's measured stream sustains on the
/// reference machine (2 cores); the stream is `seconds × rate` requests
/// long, so it takes about `--seconds` and its length is fixed by the
/// arguments alone.
fn nominal_rate(workload: Workload) -> f64 {
    match workload {
        Workload::HotReads => 25_000.0,
        Workload::WideReads => 15_000.0,
        Workload::MixedWrites => 1_000.0,
    }
}

impl Spec {
    /// The workload at full size (`seconds` sets the stream length) or at
    /// smoke size (tiny data and streams, for tests).
    pub fn new(workload: Workload, seconds: f64, smoke: bool) -> Spec {
        let (dist, dims) = match workload {
            Workload::HotReads => (Distribution::AntiCorrelated, 5),
            Workload::WideReads => (Distribution::Correlated, 10),
            Workload::MixedWrites => (Distribution::Independent, 5),
        };
        let mixed = workload == Workload::MixedWrites;
        if smoke {
            return Spec {
                workload,
                dist,
                objects: 2_000,
                dims,
                warmup: 50,
                requests: if mixed { 600 } else { 1_500 },
                probe_writes: if mixed { 0 } else { 20 },
                wal_tail: if mixed { 6 } else { 0 },
                setups: 2,
            };
        }
        // Mixed-writes sends at least 500 writes of each verb; with 2% of
        // them recomputing, each write p99 falls inside the recompute class.
        let floor = if mixed { 10_000 } else { 1 };
        let requests = ((seconds * nominal_rate(workload)).round() as usize).max(floor);
        Spec {
            workload,
            dist,
            objects: 100_000,
            dims,
            warmup: match workload {
                Workload::HotReads => 500,
                Workload::WideReads => 3_000,
                Workload::MixedWrites => 500,
            },
            requests,
            probe_writes: if mixed { 0 } else { 300 },
            wal_tail: if mixed { 20 } else { 0 },
            setups: 5,
        }
    }
}

/// SplitMix64: a tiny seeded generator for streams (the datasets come from
/// the repository's own generator).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose tag, so every stream of one run
    /// draws from its own sequence.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seed derivations, one per input of a run.
pub mod tag {
    /// The base dataset.
    pub const DATA: u64 = 1;
    /// The WAL tail recovered at set-up.
    pub const TAIL: u64 = 2;
    /// The warm-up reads.
    pub const WARMUP: u64 = 3;
    /// The measured stream.
    pub const STREAM: u64 = 4;
    /// Rows inserted by the stream or the probe.
    pub const ROWS: u64 = 5;
    /// The write probe.
    pub const PROBE: u64 = 6;
}

/// One request of a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A query line.
    Read(Query),
    /// `insert v1 … vd`.
    Insert(Vec<Value>),
    /// `delete id`.
    Delete(ObjId),
}

/// Request classes the latency metrics are split by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Any query verb.
    Read,
    /// `insert`.
    Insert,
    /// `delete`.
    Delete,
}

/// Verbs in report order (`Op::verb` indexes this).
pub const VERBS: [&str; 6] = ["skyline", "member", "count", "top", "insert", "delete"];

impl Op {
    /// The protocol line (without the newline).
    pub fn line(&self) -> String {
        match self {
            Op::Read(q) => q.to_string(),
            Op::Insert(row) => {
                let values: Vec<String> = row.iter().map(Value::to_string).collect();
                format!("insert {}", values.join(" "))
            }
            Op::Delete(id) => format!("delete {id}"),
        }
    }

    /// The latency class.
    pub fn class(&self) -> Class {
        match self {
            Op::Read(_) => Class::Read,
            Op::Insert(_) => Class::Insert,
            Op::Delete(_) => Class::Delete,
        }
    }

    /// Index into [`VERBS`].
    pub fn verb(&self) -> usize {
        match self {
            Op::Read(Query::Skyline(_) | Query::Skyband(..)) => 0,
            Op::Read(Query::Member(..)) => 1,
            Op::Read(Query::Count(_)) => 2,
            Op::Read(Query::Top(_)) => 3,
            Op::Insert(_) => 4,
            Op::Delete(_) => 5,
        }
    }
}

/// Every non-empty subspace of `dims` dimensions, in mask order.
pub fn subspaces(dims: usize) -> Vec<DimMask> {
    (1..(1u32 << dims)).map(DimMask).collect()
}

/// The base rows of the workload.
pub fn base_rows(spec: &Spec, seed: u64) -> skycube_types::Dataset {
    generate(
        spec.dist,
        spec.objects,
        spec.dims,
        Rng::new(seed, tag::DATA).next_u64(),
    )
}

/// The seeded WAL tail recovered at set-up, over the `base` rows:
/// alternating same-distribution inserts and deletes of uniformly chosen
/// live ids, all of them patching writes. Recovery then always pays the
/// checkpoint load, the seed-lattice rebuild of the first replayed write
/// and `spec.wal_tail` patches; with a recomputing write left to chance,
/// about a third of the seeds paid one more full build and set-up time
/// split into two modes.
pub fn wal_tail(spec: &Spec, seed: u64, base: &[Vec<Value>]) -> Vec<Op> {
    let mut model = SkylineModel::new(base.to_vec());
    let mut rows = RowSource::new(spec, seed, tag::TAIL);
    let mut rng = Rng::new(seed, tag::TAIL);
    (0..spec.wal_tail)
        .map(|i| {
            if i % 2 == 0 {
                let row = model.draw_insert(&mut rows, false);
                model.insert(row.clone());
                Op::Insert(row)
            } else {
                let id = model.draw_delete(&mut rng, false);
                model.delete(id);
                Op::Delete(id as ObjId)
            }
        })
        .collect()
}

/// Zipf(1) over `spaces` in mask order (A, B, AB, C, …): the popularity
/// ranking is fixed, so every seed sends the same mix of small and large
/// skylines and only the sampled sequence and the data change.
struct Zipf {
    order: Vec<DimMask>,
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(spaces: &[DimMask]) -> Zipf {
        let order = spaces.to_vec();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..order.len())
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { order, cdf }
    }

    fn sample(&self, rng: &mut Rng) -> DimMask {
        let u = rng.unit();
        let at = self.cdf.partition_point(|&c| c <= u);
        self.order[at.min(self.order.len() - 1)]
    }
}

/// Warm-up reads: every subspace of the workload's read mix once (so the
/// cache starts warm), then mix reads up to `spec.warmup`.
pub fn warmup(spec: &Spec, seed: u64) -> Vec<Op> {
    let spaces = subspaces(spec.dims);
    let mut rng = Rng::new(seed, tag::WARMUP);
    let mut ops: Vec<Op> = match spec.workload {
        Workload::WideReads => Vec::new(),
        _ => spaces
            .iter()
            .map(|&s| Op::Read(Query::Skyline(s)))
            .collect(),
    };
    while ops.len() < spec.warmup {
        ops.push(Op::Read(Query::Skyline(spaces[rng.below(spaces.len())])));
    }
    ops
}

/// The measured stream of `spec.requests` requests against the `live`
/// rows the daemon holds when it is ready.
pub fn stream(spec: &Spec, seed: u64, live: &[Vec<Value>]) -> Vec<Op> {
    let spaces = subspaces(spec.dims);
    let mut rng = Rng::new(seed, tag::STREAM);
    match spec.workload {
        Workload::HotReads => {
            let zipf = Zipf::new(&spaces);
            let n = live.len();
            (0..spec.requests)
                .map(|_| {
                    let u = rng.unit();
                    Op::Read(if u < 0.70 {
                        Query::Skyline(zipf.sample(&mut rng))
                    } else if u < 0.85 {
                        Query::Member(rng.below(n) as ObjId, zipf.sample(&mut rng))
                    } else if u < 0.97 {
                        Query::Count(rng.below(n) as ObjId)
                    } else {
                        Query::Top(10)
                    })
                })
                .collect()
        }
        Workload::WideReads => (0..spec.requests)
            .map(|_| Op::Read(Query::Skyline(spaces[rng.below(spaces.len())])))
            .collect(),
        Workload::MixedWrites => mixed_stream(spec, seed, live, &spaces, &mut rng),
    }
}

/// Request kinds of the mixed stream, placed in seeded random order with
/// exact counts so every seed sends the same mix.
#[derive(Clone, Copy)]
enum Slot {
    Skyline,
    Member,
    Insert { full: bool },
    Delete { full: bool },
}

/// Share of mixed-stream inserts (and of deletes) that recompute the cube.
pub const FULL_SHARE: f64 = 0.02;

/// The measured stream is read as this many equal slices: read percentiles
/// and throughput are medians over the slices, so a burst of interference
/// that hits one slice does not move them.
pub const SLICES: usize = 5;

fn mixed_stream(
    spec: &Spec,
    seed: u64,
    live: &[Vec<Value>],
    spaces: &[DimMask],
    rng: &mut Rng,
) -> Vec<Op> {
    // Each of the SLICES equal parts of the stream gets the same mix, so
    // the per-slice statistics the benchmark takes medians over compare
    // like with like.
    let mut slots: Vec<Slot> = Vec::with_capacity(spec.requests);
    for k in 0..SLICES {
        let len = (k + 1) * spec.requests / SLICES - k * spec.requests / SLICES;
        let writes = len / 10;
        let inserts = writes / 2;
        let deletes = writes - inserts;
        let full_inserts = (inserts as f64 * FULL_SHARE).round() as usize;
        let full_deletes = (deletes as f64 * FULL_SHARE).round() as usize;
        let reads = len - writes;
        let skylines = reads * 2 / 3;
        let start = slots.len();
        slots.extend(std::iter::repeat_n(Slot::Skyline, skylines));
        slots.extend(std::iter::repeat_n(Slot::Member, reads - skylines));
        slots.extend((0..inserts).map(|i| Slot::Insert {
            full: i < full_inserts,
        }));
        slots.extend((0..deletes).map(|i| Slot::Delete {
            full: i < full_deletes,
        }));
        let slice = &mut slots[start..];
        for i in (1..slice.len()).rev() {
            slice.swap(i, rng.below(i + 1));
        }
    }
    let mut model = SkylineModel::new(live.to_vec());
    let mut rows = RowSource::new(spec, seed, tag::ROWS);
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Skyline => Op::Read(Query::Skyline(spaces[rng.below(spaces.len())])),
            Slot::Member => {
                let id = rng.below(model.len()) as ObjId;
                Op::Read(Query::Member(id, spaces[rng.below(spaces.len())]))
            }
            Slot::Insert { full } => {
                let row = model.draw_insert(&mut rows, full);
                model.insert(row.clone());
                Op::Insert(row)
            }
            Slot::Delete { full } => {
                let id = model.draw_delete(rng, full);
                model.delete(id);
                Op::Delete(id as ObjId)
            }
        })
        .collect()
}

/// Same-distribution rows on demand, in seeded chunks.
struct RowSource {
    dist: Distribution,
    dims: usize,
    seed: u64,
    chunk: u64,
    buf: std::vec::IntoIter<Vec<Value>>,
}

impl RowSource {
    fn new(spec: &Spec, seed: u64, tag: u64) -> RowSource {
        RowSource {
            dist: spec.dist,
            dims: spec.dims,
            seed: Rng::new(seed, tag).next_u64(),
            chunk: 0,
            buf: Vec::new().into_iter(),
        }
    }

    fn next_row(&mut self) -> Vec<Value> {
        loop {
            if let Some(row) = self.buf.next() {
                return row;
            }
            let ds = generate(
                self.dist,
                4096,
                self.dims,
                Rng::new(self.seed, self.chunk).next_u64(),
            );
            self.chunk += 1;
            let rows: Vec<Vec<Value>> = ds.ids().map(|o| ds.row(o).to_vec()).collect();
            self.buf = rows.into_iter();
        }
    }
}

/// `a` dominates `b`: no worse anywhere, better somewhere (smaller is
/// better).
fn dominates(a: &[Value], b: &[Value]) -> bool {
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        strict |= x < y;
    }
    strict
}

/// The live rows and their full-space skyline, kept current through
/// inserts and deletes. A write keeps the skyline (and the engine patches)
/// exactly when an insert is dominated by a skyline row or a delete removes
/// a non-skyline row; otherwise the engine recomputes. The generators use
/// this to place each write in the maintenance class they want.
pub struct SkylineModel {
    rows: Vec<Vec<Value>>,
    in_skyline: Vec<bool>,
    skyline_rows: Vec<Vec<Value>>,
}

impl SkylineModel {
    /// Model `rows`, computing their skyline.
    pub fn new(rows: Vec<Vec<Value>>) -> SkylineModel {
        let mut in_skyline = vec![false; rows.len()];
        if let Some(dims) = rows.first().map(Vec::len) {
            let ds = skycube_types::Dataset::from_rows(dims, rows.clone())
                .expect("rows are well formed");
            for id in skycube_skyline::Algorithm::default().run(&ds, ds.full_space()) {
                in_skyline[id as usize] = true;
            }
        }
        let skyline_rows = rows
            .iter()
            .zip(&in_skyline)
            .filter(|(_, &s)| s)
            .map(|(r, _)| r.clone())
            .collect();
        SkylineModel {
            rows,
            in_skyline,
            skyline_rows,
        }
    }

    /// Live objects.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no object is live.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The live rows, by object id.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Whether object `id` is in the full-space skyline.
    pub fn in_skyline(&self, id: usize) -> bool {
        self.in_skyline[id]
    }

    /// Whether some skyline row dominates `row`.
    pub fn dominated(&self, row: &[Value]) -> bool {
        self.skyline_rows.iter().any(|s| dominates(s, row))
    }

    /// Append `row`.
    pub fn insert(&mut self, row: Vec<Value>) {
        let enters = !self.dominated(&row);
        if enters {
            for (r, s) in self.rows.iter().zip(self.in_skyline.iter_mut()) {
                if *s && dominates(&row, r) {
                    *s = false;
                }
            }
            self.skyline_rows.retain(|s| !dominates(&row, s));
            self.skyline_rows.push(row.clone());
        }
        self.rows.push(row);
        self.in_skyline.push(enters);
    }

    /// Remove object `id` (ids above it shift down). Removing a skyline
    /// row promotes the rows only it dominated.
    pub fn delete(&mut self, id: usize) {
        let row = self.rows.remove(id);
        if !self.in_skyline.remove(id) {
            return;
        }
        if let Some(at) = self.skyline_rows.iter().position(|s| *s == row) {
            self.skyline_rows.swap_remove(at);
        }
        let candidates: Vec<usize> = (0..self.rows.len())
            .filter(|&o| dominates(&row, &self.rows[o]) && !self.dominated(&self.rows[o]))
            .collect();
        let promoted: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| {
                !candidates
                    .iter()
                    .any(|&o| o != c && dominates(&self.rows[o], &self.rows[c]))
            })
            .collect();
        for c in promoted {
            self.in_skyline[c] = true;
            self.skyline_rows.push(self.rows[c].clone());
        }
    }

    /// A same-distribution row from `rows` that enters the skyline
    /// (`full`) or that a skyline row dominates. When no drawn row enters
    /// within a bounded number of draws, a skyline row moved one step
    /// closer on one dimension is used: it dominates that row and nothing
    /// dominates it.
    fn draw_insert(&self, rows: &mut RowSource, full: bool) -> Vec<Value> {
        for _ in 0..200_000 {
            let row = rows.next_row();
            if self.dominated(&row) != full {
                return row;
            }
        }
        let (base, dim) = self
            .skyline_rows
            .iter()
            .find_map(|r| r.iter().position(|&v| v > 0).map(|d| (r, d)))
            .expect("some skyline row has a positive coordinate");
        let mut row = base.clone();
        row[dim] -= 1;
        row
    }

    /// A uniformly chosen live id inside (`full`) or outside the skyline.
    fn draw_delete(&self, rng: &mut Rng, full: bool) -> usize {
        if full {
            let ids: Vec<usize> = (0..self.rows.len())
                .filter(|&o| self.in_skyline[o])
                .collect();
            return ids[rng.below(ids.len())];
        }
        loop {
            let id = rng.below(self.rows.len());
            if !self.in_skyline[id] {
                return id;
            }
        }
    }
}

/// The write probe of a read-only workload, sent after its read stream:
/// `spec.probe_writes` inserts, each followed by the delete of the object
/// it created, on the cheapest patch path, then one insert that enters the
/// skyline and one delete of a skyline object (both recompute). The `k`-th
/// probe insert is the row `(MAX + k, …, MAX + k)` past every generated
/// value: every live row dominates it in every subspace, so it ties nothing
/// and joins no group, and deleting it (the newest id) shifts no other id.
/// Both costs are then fixed by the data size rather than by which groups a
/// drawn row happens to touch, so the probe's percentiles repeat.
pub fn probe(spec: &Spec, seed: u64, live: &[Vec<Value>]) -> Vec<Op> {
    if spec.probe_writes == 0 {
        return Vec::new();
    }
    let mut model = SkylineModel::new(live.to_vec());
    let mut ops = Vec::with_capacity(2 * spec.probe_writes + 2);
    for k in 0..spec.probe_writes {
        ops.push(Op::Insert(vec![
            skycube_types::SCALE_4 + k as Value;
            spec.dims
        ]));
        ops.push(Op::Delete(model.len() as ObjId));
    }
    let mut rows = RowSource::new(spec, seed, tag::PROBE);
    let mut rng = Rng::new(seed, tag::PROBE);
    let row = model.draw_insert(&mut rows, true);
    model.insert(row.clone());
    ops.push(Op::Insert(row));
    ops.push(Op::Delete(model.draw_delete(&mut rng, true) as ObjId));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let spec = Spec::new(w, 1.0, true);
            let live: Vec<Vec<Value>> = {
                let ds = base_rows(&spec, 7);
                ds.ids().map(|o| ds.row(o).to_vec()).collect()
            };
            let a = stream(&spec, 7, &live);
            assert_eq!(a, stream(&spec, 7, &live));
            assert_ne!(a, stream(&spec, 8, &live));
            assert_eq!(a.len(), spec.requests);
        }
    }

    #[test]
    fn mixed_stream_ids_stay_live() {
        let spec = Spec::new(Workload::MixedWrites, 1.0, true);
        let ds = base_rows(&spec, 3);
        let rows: Vec<Vec<Value>> = ds.ids().map(|o| ds.row(o).to_vec()).collect();
        let mut live = spec.objects;
        for op in stream(&spec, 3, &rows) {
            match op {
                Op::Insert(row) => {
                    assert_eq!(row.len(), spec.dims);
                    live += 1;
                }
                Op::Delete(id) => {
                    assert!((id as usize) < live);
                    live -= 1;
                }
                Op::Read(Query::Member(id, _)) => assert!((id as usize) < live),
                Op::Read(_) => {}
            }
        }
    }

    #[test]
    fn skyline_model_tracks_promotions() {
        let mut m = SkylineModel::new(vec![vec![1, 1], vec![2, 2], vec![3, 0]]);
        assert!(m.in_skyline(0) && !m.in_skyline(1) && m.in_skyline(2));
        m.delete(0);
        // (2,2) was dominated only by (1,1): it is promoted.
        assert!(m.in_skyline(0) && m.in_skyline(1));
        m.insert(vec![0, 0]);
        assert!(!m.in_skyline(0) && !m.in_skyline(1) && m.in_skyline(2));
        assert!(m.dominated(&[5, 5]));
    }
}
