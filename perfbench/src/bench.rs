//! One benchmark run: repeated set-ups, the measured closed-loop stream over
//! the daemon socket, verification of every reply, and, with tracing on, the
//! staged build, the decomposed recovery and the traced in-process pass
//! that split the same work by layer.

use crate::host::{self, CpuSet, CpuTicks};
use crate::served::{daemon_from, engine_for, Client, Served, WAL_FILE};
use crate::staged::{same_cube, staged_build, Staged};
use crate::stats::{self, Latencies};
use crate::trace::{span_cost_ns, NameTotals, Tracer};
use crate::workload::{self, Class, Op, SkylineModel, Spec, Workload, SLICES, VERBS};
use skycube_parallel::Parallelism;
use skycube_serve::{
    format_answer, parse_query_line, run_batch, wal, Answer, Daemon, DaemonConfig, GateOutcome,
    GenerationGate, Query, ScanCubeSource, SubspaceCache, Wal, WalOpen, WalRecord,
};
use skycube_stellar::{
    compute_cube, CompressedSkylineCube, MaintenanceStats, MemoStats, Stellar, StellarEngine,
};
use skycube_types::{Dataset, ObjId, SkylineGroup, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Target length of the measured stream, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from the traced passes instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Tiny sizes, for tests.
    pub smoke: bool,
    /// Directory (inside the checkout) for scratch files and the span dump.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Counts that must repeat exactly for the same workload, seed and size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepeatCounts {
    /// Cache hits over the socket session.
    pub cache_hits: u64,
    /// Cache misses over the socket session.
    pub cache_misses: u64,
    /// Maintenance class counts of the replayed writes
    /// `[fast inserts, full inserts, fast deletes, full deletes]`.
    pub maintenance: [u64; 4],
    /// Records in the daemon's WAL at the end of the session.
    pub wal_records: u64,
    /// Reply bytes received over the socket session.
    pub reply_bytes: u64,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every reply, ack and cross-check matched.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed (error reply, refusal or dropped connection).
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Exact-repeat counts.
    pub repeat: RepeatCounts,
    /// Whether the staged build equalled the engine's cube (traced runs).
    pub staged_matches: Option<bool>,
    /// Every mismatch or failure found.
    pub problems: Vec<String>,
}

/// How far (in percent of the untraced time) the traced layer times may
/// sum away from the untraced end-to-end time. A traced run whose set-up,
/// read or write residual falls outside fails its check.
pub const RESIDUAL_TOLERANCE_PCT: f64 = 25.0;

/// Request id of the `k`-th set-up's spans (stream requests use their
/// stream position).
const SETUP_REQUEST: u64 = 1 << 40;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A reply fingerprint: FNV-1a of its bytes and its length.
type Print = (u64, u32);

fn print_of(reply: &str) -> Print {
    (fnv(reply.as_bytes()), reply.len() as u32)
}

fn is_failure(reply: &str) -> bool {
    reply.starts_with("error:") || reply.contains(" -> error:")
}

/// Every request line, newline-terminated, in one buffer.
struct Lines {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl Lines {
    fn new(ops: &[Op]) -> Lines {
        let mut buf = Vec::new();
        let mut ends = Vec::with_capacity(ops.len());
        for op in ops {
            buf.extend_from_slice(op.line().as_bytes());
            buf.push(b'\n');
            ends.push(buf.len());
        }
        Lines { buf, ends }
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }
}

/// Scratch directory of one run, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(out: &Path) -> Result<WorkDir, String> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = out.join(format!("run-{}-{nonce}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh copy of the pristine recovery files in `name`.
    fn restore(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let pristine = self.0.join("pristine");
        for entry in std::fs::read_dir(&pristine).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            std::fs::copy(entry.path(), dir.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn rows_of(ds: &Dataset) -> Vec<Vec<Value>> {
    ds.ids().map(|o| ds.row(o).to_vec()).collect()
}

/// The rows of `base` after `writes`.
fn rows_after<'a>(base: &Dataset, writes: impl IntoIterator<Item = &'a Op>) -> Vec<Vec<Value>> {
    let mut rows = rows_of(base);
    for op in writes {
        apply(&mut rows, op);
    }
    rows
}

fn dataset(dims: usize, rows: Vec<Vec<Value>>) -> Dataset {
    Dataset::from_rows(dims, rows).expect("generated rows are well formed")
}

/// Apply one write to a plain row list (the model the acks are checked
/// against).
fn apply(rows: &mut Vec<Vec<Value>>, op: &Op) {
    match op {
        Op::Insert(row) => rows.push(row.clone()),
        Op::Delete(id) => {
            rows.remove(*id as usize);
        }
        Op::Read(_) => {}
    }
}

/// The daemon's scrapeable counters.
fn counters(daemon: &Daemon) -> HashMap<String, u64> {
    daemon
        .metrics_text()
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

fn delta(after: &HashMap<String, u64>, before: &HashMap<String, u64>, name: &str) -> u64 {
    let a = after.get(name).copied().unwrap_or(0);
    a.saturating_sub(before.get(name).copied().unwrap_or(0))
}

/// The reply a reference source gives for one query.
fn reference_reply(cube: &CompressedSkylineCube, q: Query) -> String {
    let source = ScanCubeSource::new(cube);
    let outcome = run_batch(&source, &[q], Parallelism::sequential());
    format_answer(&q, &outcome.answers[0])
}

/// Reference fingerprints of every distinct read in `ops`, computed with
/// `run_batch` over the scan path of `cube`.
fn reference_prints(cube: &CompressedSkylineCube, ops: &[Op]) -> HashMap<Query, Print> {
    let mut distinct: Vec<Query> = Vec::new();
    let mut seen: HashMap<Query, ()> = HashMap::new();
    for op in ops {
        if let Op::Read(q) = op {
            if seen.insert(*q, ()).is_none() {
                distinct.push(*q);
            }
        }
    }
    let source = ScanCubeSource::new(cube);
    let outcome = run_batch(&source, &distinct, Parallelism::available());
    distinct
        .iter()
        .zip(&outcome.answers)
        .map(|(q, a)| (*q, print_of(&format_answer(q, a))))
        .collect()
}

/// The expected ack of a write applied to a store of `live` objects that
/// ends at `generation`.
fn expected_ack(op: &Op, live: usize, generation: u64) -> String {
    match op {
        Op::Insert(_) => format!("insert -> id {live} generation {generation}"),
        Op::Delete(id) => format!("delete -> id {id} generation {generation}"),
        Op::Read(_) => unreachable!("reads have no ack"),
    }
}

/// What the socket session measured.
struct Session {
    prints: Vec<Print>,
    /// Every measured read, in stream order.
    read: Latencies,
    /// Seconds from the stream start to each measured reply.
    done: Vec<f64>,
    insert: Latencies,
    delete: Latencies,
    sent: [u64; 6],
    failed: [u64; 6],
    before: HashMap<String, u64>,
    after: HashMap<String, u64>,
    reply_bytes: u64,
    protocol_floor: Latencies,
    final_prints: Vec<(Query, Print)>,
    broken: Option<String>,
}

/// Drive `ops` through one connection in a closed loop. Only `measured`
/// reads and every write are timed; after each reply, untimed, `step` gets
/// the request's index and the reply's fingerprint. `floor` malformed
/// lines are timed afterwards as the protocol floor, then every subspace's
/// skyline is fetched for the final cross-check.
#[allow(clippy::too_many_arguments)]
fn session(
    served: &Served,
    ops: &[Op],
    lines: &Lines,
    measured: Range<usize>,
    floor: usize,
    dims: usize,
    step: &mut dyn FnMut(usize, Print) -> Result<(), String>,
) -> Session {
    let daemon = &served.daemon;
    let mut s = Session {
        prints: Vec::with_capacity(ops.len()),
        read: Latencies::default(),
        done: Vec::with_capacity(measured.len()),
        insert: Latencies::default(),
        delete: Latencies::default(),
        sent: [0; 6],
        failed: [0; 6],
        before: counters(daemon),
        after: HashMap::new(),
        reply_bytes: 0,
        protocol_floor: Latencies::default(),
        final_prints: Vec::new(),
        broken: None,
    };
    let mut client = match Client::connect(&served.socket) {
        Ok(c) => c,
        Err(e) => {
            s.broken = Some(format!("connecting to the daemon: {e}"));
            return s;
        }
    };
    let mut stream_start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if i == measured.start {
            stream_start = Instant::now();
        }
        let verb = op.verb();
        s.sent[verb] += 1;
        let t0 = Instant::now();
        let reply = match client.call(lines.get(i)) {
            Ok(r) => r,
            Err(e) => {
                s.failed[verb] += 1;
                s.broken = Some(format!("request {i} ({}): {e}", op.line()));
                return s;
            }
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        if measured.contains(&i) {
            s.done.push(stream_start.elapsed().as_secs_f64());
        }
        match op.class() {
            Class::Read if measured.contains(&i) => s.read.push(nanos),
            Class::Read => {}
            Class::Insert => s.insert.push(nanos),
            Class::Delete => s.delete.push(nanos),
        }
        if is_failure(reply) {
            s.failed[verb] += 1;
        }
        s.reply_bytes += reply.len() as u64 + 1;
        let print = print_of(reply);
        s.prints.push(print);
        if let Err(e) = step(i, print) {
            s.broken = Some(e);
            return s;
        }
    }
    s.after = counters(daemon);
    for _ in 0..floor {
        let t0 = Instant::now();
        if client.call(b"skyline\n").is_err() {
            s.broken = Some("protocol floor probe lost the connection".to_owned());
            return s;
        }
        s.protocol_floor.push(t0.elapsed().as_nanos() as u64);
    }
    for space in workload::subspaces(dims).into_iter().take(31) {
        let q = Query::Skyline(space);
        match client.call(format!("{q}\n").as_bytes()) {
            Ok(reply) => s.final_prints.push((q, print_of(reply))),
            Err(e) => {
                s.broken = Some(format!("final check {q}: {e}"));
                return s;
            }
        }
    }
    s
}

impl Session {
    /// Requests per second of each of [`SLICES`] equal slices of the
    /// measured stream.
    fn slice_rates(&self) -> Vec<f64> {
        let n = self.done.len();
        (0..SLICES)
            .filter_map(|k| {
                let (lo, hi) = (k * n / SLICES, (k + 1) * n / SLICES);
                let since = if lo == 0 { 0.0 } else { self.done[lo - 1] };
                (hi > lo).then(|| (hi - lo) as f64 / (self.done[hi - 1] - since).max(1e-9))
            })
            .collect()
    }
}

/// Check a session's replies by replaying every write through `engine`
/// (a second recovery of the same files) and answering every read from the
/// scan path of its cube at that point. That cube is patched by the same
/// maintenance code as the daemon's, so it is also compared whole with an
/// independent `compute_cube` over the model rows (`rows`, the live rows at
/// set-up, kept current through the writes) before every write that
/// recomputes, since a recompute would erase an earlier patch error, and
/// before every request index in `checkpoints` (`ops.len()` for the end).
fn verify_by_replay(
    mut engine: StellarEngine,
    rows: Vec<Vec<Value>>,
    ops: &[Op],
    prints: &[Print],
    checkpoints: &[usize],
    problems: &mut Vec<String>,
) {
    let dims = engine.dims();
    let mut model = SkylineModel::new(rows);
    let check = |engine: &StellarEngine, model: &SkylineModel, at: usize| {
        let fresh = compute_cube(&dataset(dims, model.rows().to_vec()));
        (!same_cube(engine.cube(), fresh.seeds(), fresh.groups())).then(|| {
            format!("before request {at}: the replayed cube differs from compute_cube over the same rows")
        })
    };
    let mut memo: HashMap<Query, Print> = HashMap::new();
    for (i, (op, got)) in ops.iter().zip(prints).enumerate() {
        let recomputes = match op {
            Op::Insert(row) => !model.dominated(row),
            Op::Delete(id) => model.in_skyline(*id as usize),
            Op::Read(_) => false,
        };
        if recomputes || checkpoints.contains(&i) {
            problems.extend(check(&engine, &model, i));
        }
        let want = match op {
            Op::Read(q) => *memo
                .entry(*q)
                .or_insert_with(|| print_of(&reference_reply(engine.cube(), *q))),
            Op::Insert(row) => {
                let live = engine.len();
                let applied = engine.insert(row.clone());
                model.insert(row.clone());
                memo.clear();
                match applied {
                    Ok(_) => print_of(&expected_ack(op, live, engine.generation())),
                    Err(e) => print_of(&format!("insert -> error: {e}")),
                }
            }
            Op::Delete(id) => {
                let applied = engine.delete(*id);
                model.delete(*id as usize);
                memo.clear();
                match applied {
                    Ok(_) => print_of(&expected_ack(op, 0, engine.generation())),
                    Err(e) => print_of(&format!("delete -> error: {e}")),
                }
            }
        };
        if *got != want {
            problems.push(format!(
                "request {i} `{}`: reply differs from the reference",
                op.line()
            ));
        }
        if problems.len() > 20 {
            return;
        }
    }
    if checkpoints.contains(&ops.len()) {
        problems.extend(check(&engine, &model, ops.len()));
    }
}

/// Check read replies against precomputed reference prints and write acks
/// against the row-count/generation model.
fn verify_by_reference(
    refs: &HashMap<Query, Print>,
    ops: &[Op],
    prints: &[Print],
    mut live: usize,
    mut generation: u64,
    problems: &mut Vec<String>,
) {
    for (i, (op, got)) in ops.iter().zip(prints).enumerate() {
        let want = match op {
            Op::Read(q) => refs[q],
            Op::Insert(_) => {
                generation += 1;
                live += 1;
                print_of(&expected_ack(op, live - 1, generation))
            }
            Op::Delete(_) => {
                generation += 1;
                live -= 1;
                print_of(&expected_ack(op, live, generation))
            }
        };
        if *got != want {
            problems.push(format!(
                "request {i} `{}`: reply differs from the reference",
                op.line()
            ));
            if problems.len() > 20 {
                return;
            }
        }
    }
}

/// Per-layer numbers of the traced passes.
#[derive(Default)]
struct Layers {
    durable: bool,
    staged_matches: bool,
    staged: Option<Staged>,
    /// Spans of the set-ups and of the layers timed next to them.
    setup_spans: BTreeMap<&'static str, NameTotals>,
    /// Every span.
    spans: BTreeMap<&'static str, NameTotals>,
    gate_patched: u64,
    gate_cleared: u64,
    invalidated: u64,
    writes: u64,
    memo_dropped: u64,
    memo_evictions: u64,
    maintenance: [u64; 4],
    spliced: u64,
    reply_bytes: u64,
    reads: u64,
}

/// An engine recovered step by step, with its log.
struct Recovered {
    engine: StellarEngine,
    wal: Wal,
    replayed: u64,
    /// The checkpoint's rows and cube, when there was one.
    checkpoint: Option<(Dataset, Vec<ObjId>, Vec<SkylineGroup>)>,
}

/// Recover the set-up files in `dir` one step at a time (`read_checkpoint`,
/// engine construction, `Wal::open`, replay), each step a span under
/// `request`. Without a checkpoint the engine is built from `base`.
fn decomposed_recovery(
    dir: &Path,
    dims: usize,
    base: &Dataset,
    tracer: &mut Tracer,
    request: u64,
) -> Result<Recovered, String> {
    let wal_path = dir.join(WAL_FILE);
    let checkpoint = tracer
        .span("persist.read_checkpoint", request, |_| {
            wal::read_checkpoint(&wal_path, dims)
        })
        .map_err(|e| format!("reading the checkpoint: {e}"))?;
    let view = checkpoint.as_ref().map(|c| {
        (
            c.dataset.clone(),
            c.cube.seeds().to_vec(),
            c.cube.groups().to_vec(),
        )
    });
    let (mut engine, base_generation) =
        tracer.span("engine.construct", request, |_| match checkpoint {
            Some(c) => StellarEngine::with_cube(&c.dataset, c.cube, Stellar::new())
                .map(|e| (e, c.generation))
                .map_err(|e| e.to_string()),
            None => Ok((StellarEngine::with_runner(base, Stellar::new()), 0)),
        })?;
    let WalOpen { wal, records, .. } = tracer
        .span("wal.open", request, |_| {
            Wal::open(&wal_path, dims, base_generation)
        })
        .map_err(|e| format!("opening the wal: {e}"))?;
    let replayed = tracer.span("wal.replay", request, |_| -> Result<u64, String> {
        let mut n = 0;
        for record in records.iter().filter(|r| r.generation() > base_generation) {
            match record {
                WalRecord::Insert { row, .. } => engine.insert(row.clone()).map(|_| ()),
                WalRecord::Delete { id, .. } => engine.delete(*id).map(|_| ()),
            }
            .map_err(|e| format!("replaying: {e}"))?;
            n += 1;
        }
        Ok(n)
    })?;
    Ok(Recovered {
        engine,
        wal,
        replayed,
        checkpoint: view,
    })
}

/// Requests per batch of the traced pass: the socket session sends a batch,
/// then the traced pass repeats it, so both run on warm caches and host
/// drift between a request's round trip and its layer times stays small.
/// (Repeating each request right after its reply put the two daemons'
/// data in each other's way: hot-reads' layer times rose by a third.)
const TRACE_BATCH: usize = 1_000;

/// The traced in-process pass of a `--trace 1` run, run in batches
/// interleaved with the socket session.
///
/// [`TracedPass::new`], before the session:
/// 1. decomposed recovery of a fresh copy (`read_checkpoint`, engine
///    construction, `Wal::open`, replay), checked against `recover`;
/// 2. the staged build over the rows that recovery builds from (taken from
///    the set-ups when they already ran it), checked against the engine's
///    (or the checkpoint's) cube;
/// 3. a second daemon set up like the served one.
///
/// [`TracedPass::step`] sends each request to that daemon: reads
/// in-process (`parse_query_line`, `Daemon::serve_wave`, `format_answer`),
/// writes over its socket so their untraced client time sits right next to
/// their replay. It checks every reply against the socket session's and
/// replays every write through a benchmark-owned `Wal`, `StellarEngine` and
/// `SubspaceCache` + `GenerationGate`.
struct TracedPass {
    layers: Layers,
    owned: StellarEngine,
    owned_wal: Wal,
    owned_cache: SubspaceCache,
    gate: GenerationGate,
    stats0: MaintenanceStats,
    served: Served,
    client: Client,
    refs: HashMap<Query, Print>,
    index_live: bool,
    memo_pre: MemoStats,
    /// Requests the session has answered and the pass has not yet repeated,
    /// with the session's reply fingerprints.
    pending: Vec<(usize, Print)>,
}

impl TracedPass {
    #[allow(clippy::too_many_arguments)]
    fn new(
        work: &WorkDir,
        spec: &Spec,
        base: &Dataset,
        durable: bool,
        staged: Option<Staged>,
        pin: Option<CpuSet>,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Result<TracedPass, String> {
        let mut layers = Layers {
            durable,
            setup_spans: tracer
                .totals(|r| (SETUP_REQUEST..SETUP_REQUEST + spec.setups as u64).contains(&r)),
            ..Layers::default()
        };
        let req = SETUP_REQUEST + 1_000;
        // 1. Decomposed recovery.
        let Recovered {
            engine: owned,
            wal: owned_wal,
            replayed,
            checkpoint,
        } = decomposed_recovery(&work.restore("owned")?, spec.dims, base, tracer, req)?;
        // 2. Staged build over the rows the engine was built from.
        let (want_seeds, want_groups) = match &checkpoint {
            Some((_, seeds, groups)) => (seeds.clone(), groups.clone()),
            None => (
                owned.cube().seeds().to_vec(),
                owned.cube().groups().to_vec(),
            ),
        };
        let staged = match (staged, checkpoint) {
            (Some(staged), _) => staged,
            (None, Some((input, _, _))) => staged_build(&input, tracer, req),
            (None, None) => staged_build(base, tracer, req),
        };
        layers.staged_matches = same_cube(&staged.cube, &want_seeds, &want_groups);
        if !layers.staged_matches {
            problems.push("the staged build differs from the engine's cube".to_owned());
        }
        layers.staged = Some(staged);
        // 3. A second daemon set up like the served one.
        let dir = work.restore("inproc")?;
        let (engine, wal) = engine_for(&dir, base, durable)?;
        let engine_replayed = wal.as_ref().map_or(0, |(_, n)| *n);
        if engine_replayed != replayed
            || !same_cube(engine.cube(), owned.cube().seeds(), owned.cube().groups())
        {
            problems.push("decomposed recovery differs from the set-up's engine".to_owned());
        }
        let served = Served::serve(Arc::new(daemon_from(engine, wal)), &dir, pin)?;
        let client = Client::connect(&served.socket)
            .map_err(|e| format!("connecting to the traced daemon: {e}"))?;
        owned.cube().index();
        Ok(TracedPass {
            layers,
            owned_cache: SubspaceCache::new(DaemonConfig::default().cache_capacity),
            gate: GenerationGate::new(owned.generation()),
            stats0: owned.maintenance_stats(),
            owned,
            owned_wal,
            served,
            client,
            refs: HashMap::new(),
            index_live: true,
            memo_pre: MemoStats::default(),
            pending: Vec::with_capacity(TRACE_BATCH),
        })
    }

    /// Queue request `i`, answered by the session with `socket_print`, and
    /// repeat the queued batch once it is full.
    fn queue(
        &mut self,
        i: usize,
        socket_print: Print,
        ops: &[Op],
        lines: &Lines,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        self.pending.push((i, socket_print));
        if self.pending.len() < TRACE_BATCH {
            return Ok(());
        }
        self.flush(ops, lines, tracer, problems)
    }

    /// Repeat every queued request.
    fn flush(
        &mut self,
        ops: &[Op],
        lines: &Lines,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        for (i, print) in std::mem::take(&mut self.pending) {
            self.step(i, &ops[i], lines.get(i), print, tracer, problems)?;
        }
        Ok(())
    }

    /// Send request `i` (`op`, protocol line `line`) to the traced daemon
    /// and check its reply against the socket session's `socket_print`.
    fn step(
        &mut self,
        i: usize,
        op: &Op,
        line: &[u8],
        socket_print: Print,
        tracer: &mut Tracer,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        let id = i as u64;
        let text = std::str::from_utf8(line)
            .expect("request lines are UTF-8")
            .trim_end();
        let daemon = &self.served.daemon;
        let layers = &mut self.layers;
        let owned = &mut self.owned;
        let owned_cache = &self.owned_cache;
        let reply = match op {
            Op::Read(q) => {
                let reply = tracer.span("request", id, |t| {
                    let parsed = t.span("workload.parse", id, |_| parse_query_line(text));
                    let q2 = match parsed {
                        Ok(Some(q2)) => q2,
                        _ => return format!("{text} -> error: unparsable"),
                    };
                    let out = t.span("daemon.serve_wave", id, |_| daemon.serve_wave(&[q2]));
                    let reply = t.span("batch.format", id, |_| format_answer(&q2, &out.answers[0]));
                    if let (Query::Skyline(space), Ok(Answer::Skyline(ids))) = (q2, &out.answers[0])
                    {
                        if owned_cache.get(space).is_none() {
                            owned_cache.put(space, ids.clone());
                        }
                    }
                    reply
                });
                self.index_live = true;
                let want = self
                    .refs
                    .entry(*q)
                    .or_insert_with(|| print_of(&reference_reply(owned.cube(), *q)));
                if print_of(&reply) != *want {
                    problems.push(format!(
                        "in-process request {i} `{text}` differs from the reference"
                    ));
                }
                layers.reply_bytes += reply.len() as u64 + 1;
                layers.reads += 1;
                reply
            }
            Op::Insert(_) | Op::Delete(_) => {
                if self.index_live {
                    self.memo_pre = daemon.with_index(|ix| ix.memo_stats());
                }
                // One span, nothing inside: the write's untraced round trip.
                let client = &mut self.client;
                let ack = tracer
                    .span("client.write", id, |_| client.call(line).map(str::to_owned))
                    .map_err(|e| format!("traced request {i} ({text}): {e}"))?;
                let owned_wal = &mut self.owned_wal;
                let before = owned.maintenance_stats();
                tracer.span("replay", id, |t| -> Result<(), String> {
                    match op {
                        Op::Insert(row) => {
                            t.span("wal.append", id, |_| owned_wal.append_insert(row))
                                .map_err(|e| e.to_string())?;
                            t.span("maintenance.insert", id, |_| owned.insert(row.clone()))
                                .map_err(|e| e.to_string())?;
                        }
                        Op::Delete(o) => {
                            t.span("wal.append", id, |_| owned_wal.append_delete(*o))
                                .map_err(|e| e.to_string())?;
                            t.span("maintenance.delete", id, |_| owned.delete(*o))
                                .map_err(|e| e.to_string())?;
                        }
                        Op::Read(_) => {}
                    }
                    Ok(())
                })?;
                let after = owned.maintenance_stats();
                let full = after.full() > before.full();
                let (from, fast_name, full_name) = match op {
                    Op::Insert(_) => (
                        "maintenance.insert",
                        "maintenance.fast_insert",
                        "maintenance.full_insert",
                    ),
                    _ => (
                        "maintenance.delete",
                        "maintenance.fast_delete",
                        "maintenance.full_delete",
                    ),
                };
                tracer.rename_last(from, if full { full_name } else { fast_name });
                if full {
                    tracer.span("replay.index_rebuild", id, |_| {
                        owned.cube().index();
                    });
                }
                let entries = owned_cache.stats().entries;
                let outcome = tracer.span("cache.gate_sync", id, |_| {
                    self.gate
                        .sync(owned.generation(), owned.last_delta(), owned_cache)
                });
                layers.invalidated += entries.saturating_sub(owned_cache.stats().entries) as u64;
                match outcome {
                    GateOutcome::Patched => layers.gate_patched += 1,
                    GateOutcome::Cleared => layers.gate_cleared += 1,
                    GateOutcome::Current => {}
                }
                layers.writes += 1;
                // The daemon drops its index (and memo) on a recomputing
                // write and rebuilds it at the next read; a patching write
                // splices it, purging only the memo entries it touched.
                if full {
                    if self.index_live {
                        layers.memo_dropped += self.memo_pre.entries as u64;
                        layers.memo_evictions += self.memo_pre.evictions;
                    }
                    self.index_live = false;
                    self.memo_pre = MemoStats::default();
                } else if self.index_live {
                    let post = daemon.with_index(|ix| ix.memo_stats());
                    layers.memo_dropped +=
                        self.memo_pre.entries.saturating_sub(post.entries) as u64;
                    self.memo_pre = post;
                }
                self.refs.clear();
                ack
            }
        };
        if print_of(&reply) != socket_print {
            problems.push(format!(
                "in-process request {i} `{text}` differs from its socket reply"
            ));
        }
        if problems.len() > 20 {
            return Err("too many mismatches in the traced pass".to_owned());
        }
        Ok(())
    }

    /// Stop the traced daemon and collect the pass's numbers.
    fn finish(self, tracer: &Tracer) -> Result<Layers, String> {
        let TracedPass {
            mut layers,
            owned,
            served,
            client,
            stats0,
            index_live,
            ..
        } = self;
        if index_live {
            layers.memo_evictions += served.daemon.with_index(|ix| ix.memo_stats()).evictions;
        }
        drop(client);
        served.stop()?;
        let end = owned.maintenance_stats();
        layers.maintenance = [
            (end.fast_inserts - stats0.fast_inserts) as u64,
            (end.full_inserts - stats0.full_inserts) as u64,
            (end.fast_deletes - stats0.fast_deletes) as u64,
            (end.full_deletes - stats0.full_deletes) as u64,
        ];
        layers.spliced = (end.spliced - stats0.spliced) as u64;
        layers.spans = tracer.totals(|_| true);
        Ok(layers)
    }
}

/// Run one workload end to end.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let run_start = Instant::now();
    let cpu0 = host::cpu_seconds();
    let ticks0 = CpuTicks::now();
    let spec = Spec::new(cfg.workload, cfg.seconds, cfg.smoke);
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("creating {}: {e}", cfg.out_dir.display()))?;
    let work = WorkDir::create(&cfg.out_dir)?;
    let mut problems: Vec<String> = Vec::new();
    let mut tracer = if cfg.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };

    // Inputs, all untimed: base rows, the recovery files, the streams.
    // Only what the set-ups and the checks need stays alive past this
    // block, so the harness adds little to the peak resident set.
    let base = workload::base_rows(&spec, cfg.seed);
    let pristine = work.0.join("pristine");
    std::fs::create_dir_all(&pristine).map_err(|e| e.to_string())?;
    let mut tail = Vec::new();
    if spec.wal_tail > 0 {
        tail = workload::wal_tail(&spec, cfg.seed, &rows_of(&base));
        let wal_path = pristine.join(WAL_FILE);
        let engine = StellarEngine::new(&base);
        wal::write_checkpoint(&wal_path, &base, engine.cube(), 0)
            .map_err(|e| format!("writing the checkpoint: {e}"))?;
        drop(engine);
        let mut log = Wal::create(&wal_path, spec.dims, 0).map_err(|e| e.to_string())?;
        for op in &tail {
            match op {
                Op::Insert(row) => log.append_insert(row),
                Op::Delete(id) => log.append_delete(*id),
                Op::Read(_) => unreachable!("the tail holds writes only"),
            }
            .map_err(|e| e.to_string())?;
        }
    }
    let live_rows = rows_after(&base, &tail);
    let live = live_rows.len();
    let read_only = spec.workload != Workload::MixedWrites;
    // Mixed-writes serves from crash recovery with a WAL fsync'd per
    // mutation (`serve --wal`); the read-only workloads build fresh and
    // acknowledge a probe write after the in-memory patch (`serve --data`).
    let durable = !read_only;
    let warm = workload::warmup(&spec, cfg.seed);
    let measured_ops = workload::stream(&spec, cfg.seed, &live_rows);
    // The write probe feeds only the per-layer write metrics.
    let probe = if cfg.trace {
        workload::probe(&spec, cfg.seed, &live_rows)
    } else {
        Vec::new()
    };
    drop(live_rows);
    let measured = warm.len()..warm.len() + measured_ops.len();
    let ops: Vec<Op> = warm.into_iter().chain(measured_ops).chain(probe).collect();
    let lines = Lines::new(&ops);
    // Read-only references come from the parallel pipeline, independent of
    // the engine's sequential build (a read-only set-up has no WAL tail, so
    // its live rows are `base`).
    let refs = read_only.then(|| reference_prints(&compute_cube(&base), &ops));

    // Set-up, several times; the last daemon serves the stream. Its
    // serving threads and the client share one CPU, so every request takes
    // the same same-core hand-off instead of whichever the scheduler picks.
    let affinity = CpuSet::current();
    let pin = affinity.map(|a| a.last_cpu());
    let mut setup_secs = Vec::with_capacity(spec.setups);
    let mut served: Option<Served> = None;
    let mut peak_reset = false;
    let mut staged: Option<Staged> = None;
    for k in 0..spec.setups {
        if let Some(previous) = served.take() {
            previous.stop()?;
        }
        if cfg.trace {
            // The layers a set-up is made of, timed right before it so that
            // host drift stays out of `trace.setup_residual_pct`.
            let request = SETUP_REQUEST + k as u64;
            if durable {
                let dir = work.restore(&format!("d{k}"))?;
                decomposed_recovery(&dir, spec.dims, &base, &mut tracer, request)?;
            } else {
                staged = Some(staged_build(&base, &mut tracer, request));
            }
        }
        let dir = work.restore(&format!("s{k}"))?;
        if k + 1 == spec.setups {
            // `peak_rss_mb` covers the serving daemon's set-up and session,
            // not the earlier set-ups or input generation.
            peak_reset = host::reset_peak_rss();
        }
        let t0 = Instant::now();
        let s = tracer.span("setup", SETUP_REQUEST + k as u64, |t| {
            let last = k + 1 == spec.setups;
            Served::start(
                &dir,
                &base,
                durable,
                pin.filter(|_| last),
                t,
                SETUP_REQUEST + k as u64,
            )
        })?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let replayed = counters(&served.daemon)
        .get("wal_replayed")
        .copied()
        .unwrap_or(0);
    let floor = if cfg.trace {
        if cfg.smoke {
            50
        } else {
            2_000
        }
    } else {
        0
    };
    // The traced pass runs in batches interleaved with the session.
    let mut pass = if cfg.trace {
        Some(TracedPass::new(
            &work,
            &spec,
            &base,
            durable,
            staged.take(),
            pin,
            &mut tracer,
            &mut problems,
        )?)
    } else {
        None
    };
    if let Some(cpu) = pin {
        cpu.apply();
    }
    let s = {
        let mut step = |i: usize, print: Print| match pass.as_mut() {
            Some(p) => p.queue(i, print, &ops, &lines, &mut tracer, &mut problems),
            None => Ok(()),
        };
        session(
            &served,
            &ops,
            &lines,
            measured.clone(),
            floor,
            spec.dims,
            &mut step,
        )
    };
    if let Some(all) = affinity {
        all.apply();
    }
    served.stop()?;
    let peak_rss = host::peak_rss_mb();
    if let Some(broken) = &s.broken {
        problems.push(broken.clone());
    }
    let attempted: u64 = s.sent.iter().sum();
    let failed: u64 = s.failed.iter().sum();

    // Verification.
    if s.broken.is_none() {
        match &refs {
            Some(refs) => verify_by_reference(refs, &ops, &s.prints, live, replayed, &mut problems),
            None if !cfg.trace => {
                let (engine, _) = engine_for(&work.restore("verify")?, &base, durable)?;
                let n = measured.len();
                let boundaries: Vec<usize> = (1..=SLICES)
                    .map(|k| measured.start + k * n / SLICES)
                    .collect();
                verify_by_replay(
                    engine,
                    rows_after(&base, &tail),
                    &ops,
                    &s.prints,
                    &boundaries,
                    &mut problems,
                );
            }
            None => {} // the traced in-process pass replays and checks
        }
        let final_rows = rows_after(&base, tail.iter().chain(&ops));
        let fresh = StellarEngine::new(&dataset(spec.dims, final_rows));
        for (q, got) in &s.final_prints {
            if print_of(&reference_reply(fresh.cube(), *q)) != *got {
                problems.push(format!(
                    "final `{q}` differs from a fresh build over the final rows"
                ));
            }
        }
    }
    let tuner_mismatches = s
        .after
        .get("tuner_ablation_mismatches")
        .copied()
        .unwrap_or(0);
    if tuner_mismatches > 0 {
        problems.push(format!(
            "tuner ablation found {tuner_mismatches} mismatching answers"
        ));
    }

    let mut report = Report {
        attempted,
        failed,
        repeat: RepeatCounts {
            cache_hits: delta(&s.after, &s.before, "cache_hits"),
            cache_misses: delta(&s.after, &s.before, "cache_misses"),
            maintenance: [0; 4],
            wal_records: s.after.get("wal_records").copied().unwrap_or(0),
            reply_bytes: s.reply_bytes,
        },
        ..Report::default()
    };
    let reads = &s.read;
    let (_, _, q_mean) = reads.summary_us();
    let stream_secs = s.done.last().copied().unwrap_or(0.0);
    eprintln!(
        "# {} seed {}: {} objects x {} dims, {} measured requests in {:.2} s, set-ups {:?} s",
        spec.workload.name(),
        cfg.seed,
        spec.objects,
        spec.dims,
        measured.len(),
        stream_secs,
        setup_secs
            .iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    eprintln!(
        "# samples: reads {} ({} beyond p99), inserts {} ({} beyond p99), deletes {} ({} beyond p99)",
        reads.len(),
        stats::beyond(reads.len(), 99.0),
        s.insert.len(),
        stats::beyond(s.insert.len(), 99.0),
        s.delete.len(),
        stats::beyond(s.delete.len(), 99.0)
    );
    for (v, verb) in VERBS.iter().enumerate() {
        if s.sent[v] > 0 {
            eprintln!(
                "# requests {verb}: sent {} succeeded {} failed {}",
                s.sent[v],
                s.sent[v] - s.failed[v],
                s.failed[v]
            );
        }
    }
    let error_ratio = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };

    if !cfg.trace {
        let cpu_s = host::cpu_seconds() - cpu0;
        let steal = CpuTicks::now().steal_pct_since(&ticks0);
        eprintln!(
            "# host: wall {:.2} s, process cpu {:.2} s, steal {:.2}%, peak rss {peak_rss:.1} MB ({})",
            run_start.elapsed().as_secs_f64(),
            cpu_s,
            steal,
            if peak_reset {
                "since the final set-up"
            } else {
                "whole process: the peak could not be reset"
            }
        );
        let m = |name, value, unit| Metric { name, value, unit };
        let (q50, q99) = s.read.sliced_us(SLICES);
        report.metrics = vec![
            m("setup_s", stats::median(&setup_secs), "s"),
            m("query_p50_us", q50, "us"),
            m("query_p99_us", q99, "us"),
            m("ops_per_s", stats::median(&s.slice_rates()), "1/s"),
            m("peak_rss_mb", peak_rss, "MB"),
            m("success_ratio", 1.0 - error_ratio, "ratio"),
        ];
    } else {
        let mut pass = pass.take().expect("a traced run has a traced pass");
        if s.broken.is_none() {
            if let Err(e) = pass.flush(&ops, &lines, &mut tracer, &mut problems) {
                problems.push(e);
            }
        }
        let layers = pass.finish(&tracer)?;
        report.staged_matches = Some(layers.staged_matches);
        report.repeat.maintenance = layers.maintenance;
        let path = cfg.out_dir.join(format!(
            "trace-{}-seed{}.json",
            spec.workload.name(),
            cfg.seed
        ));
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"requests\":{}",
            spec.workload.name(),
            cfg.seed,
            ops.len()
        );
        tracer
            .write_json(&path, &header)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "# trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        let in_measured = |r: u64| measured.contains(&(r as usize));
        layers_metrics(
            &mut report,
            &s,
            &layers,
            &tracer.totals(in_measured),
            stats::median(&setup_secs) * 1e3,
            q_mean,
            error_ratio,
            host::cpu_seconds() - cpu0,
            CpuTicks::now().steal_pct_since(&ticks0),
        );
        // At smoke size every layer takes microseconds and the tests run
        // concurrently, so only full-size runs are held to the tolerance.
        for m in report.metrics.iter().filter(|_| !cfg.smoke) {
            if m.name.starts_with("trace.")
                && m.name.ends_with("_residual_pct")
                && m.value.abs() > RESIDUAL_TOLERANCE_PCT
            {
                problems.push(format!(
                    "{} = {:.1}% is outside the ±{RESIDUAL_TOLERANCE_PCT}% reconciliation tolerance",
                    m.name, m.value
                ));
            }
        }
    }
    report.correct = problems.is_empty() && failed == 0;
    report.problems = problems;
    Ok(report)
}

/// Fill the per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn layers_metrics(
    report: &mut Report,
    s: &Session,
    layers: &Layers,
    reads: &BTreeMap<&'static str, NameTotals>,
    setup_ms: f64,
    round_trip_us: f64,
    error_ratio: f64,
    cpu_s: f64,
    steal_pct: f64,
) {
    let all = &layers.spans;
    let ms = |name: &str| all.get(name).map_or(0.0, |t| t.mean_us() / 1e3);
    let us = |name: &str| all.get(name).map_or(0.0, NameTotals::mean_us);
    let total_us = |name: &str| all.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let at_setup = |name: &str| {
        layers
            .setup_spans
            .get(name)
            .map_or(0.0, |t| t.mean_us() / 1e3)
    };
    let self_us = |name: &str| reads.get(name).map_or(0.0, NameTotals::self_mean_us);
    let staged = layers
        .staged
        .as_ref()
        .expect("traced passes ran the staged build");
    let stages_ms: f64 = [
        "dataset.bind",
        "skyline.full_space",
        "seeds.view",
        "seeds.seed_groups",
        "extend.non_seed",
        "cube.assemble",
    ]
    .iter()
    .map(|n| ms(n))
    .sum();
    // The layers a set-up is made of, each timed on its own right before a
    // set-up: a durable set-up recovers (checkpoint, engine, log, replay)
    // and wraps the engine in a daemon; the others run the build stages,
    // and `Daemon::new` builds the serving index. The engine's own work
    // beyond the stages is what a read-only set-up leaves unexplained.
    let (setup_layers_ms, engine_self_ms) = if layers.durable {
        (
            at_setup("persist.read_checkpoint")
                + at_setup("engine.construct")
                + at_setup("wal.open")
                + at_setup("wal.replay")
                + at_setup("setup.daemon_new"),
            ms("engine.construct") + ms("wal.replay") - stages_ms,
        )
    } else {
        (
            stages_ms + ms("index.build"),
            at_setup("setup.engine") - stages_ms,
        )
    };
    let d = |name: &str| delta(&s.after, &s.before, name) as f64;
    let hits = d("cache_hits");
    let misses = d("cache_misses");
    let routes = ["short", "heap", "gallop", "flat", "winner"];
    let route_q: Vec<f64> = routes
        .iter()
        .map(|r| d(&format!("route_{r}_queries")))
        .collect();
    let route_ns: Vec<f64> = routes
        .iter()
        .map(|r| d(&format!("route_{r}_nanos")))
        .collect();
    let index_q: f64 = route_q.iter().sum();
    let memo_total = d("memo_exact") + d("memo_ancestor") + d("memo_miss");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let parse = self_us("workload.parse");
    let serve = self_us("daemon.serve_wave");
    let format = self_us("batch.format");
    let (_, _, floor_mean) = s.protocol_floor.summary_us();
    let spans_per_read = 4.0;
    let overhead_us = span_cost_ns(100_000) * spans_per_read / 1e3;
    let mut out: Vec<Metric> = Vec::new();
    let mut m = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    };
    // Set-up.
    m("dataset.bind_ms", ms("dataset.bind"), "ms");
    m("skyline.full_space_ms", ms("skyline.full_space"), "ms");
    m("skyline.seeds", staged.seeds as f64, "count");
    m("seeds.view_ms", ms("seeds.view"), "ms");
    m("cgroups.closure_ms", ms("cgroups.closure"), "ms");
    m("cgroups.count", staged.cgroups as f64, "count");
    m(
        "seeds.min_dnf_ms",
        ms("seeds.seed_groups") - ms("cgroups.closure"),
        "ms",
    );
    m("seeds.seed_groups", staged.seed_groups as f64, "count");
    m("extend.non_seed_ms", ms("extend.non_seed"), "ms");
    m("extend.groups", staged.groups as f64, "count");
    m("cube.assemble_ms", ms("cube.assemble"), "ms");
    m("index.build_ms", ms("index.build"), "ms");
    m("maintenance.engine_self_ms", engine_self_ms, "ms");
    m(
        "persist.checkpoint_load_ms",
        ms("persist.read_checkpoint"),
        "ms",
    );
    m("wal.open_ms", ms("wal.open"), "ms");
    m("wal.replay_ms", ms("wal.replay"), "ms");
    m(
        "wal.replayed",
        s.after.get("wal_replayed").copied().unwrap_or(0) as f64,
        "count",
    );
    m("daemon.new_ms", ms("setup.daemon_new"), "ms");
    m(
        "trace.setup_residual_pct",
        100.0 * ratio(setup_ms - setup_layers_ms, setup_ms),
        "%",
    );
    // Read path.
    m(
        "daemon.protocol_us",
        round_trip_us - (parse + serve + format),
        "us",
    );
    m("daemon.protocol_floor_us", floor_mean, "us");
    m("workload.parse_us", parse, "us");
    m("daemon.serve_wave_us", serve, "us");
    m("batch.format_us", format, "us");
    m(
        "batch.reply_bytes",
        ratio(layers.reply_bytes as f64, layers.reads as f64),
        "bytes",
    );
    m("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    m(
        "cache.entries",
        s.after.get("cache_entries").copied().unwrap_or(0) as f64,
        "count",
    );
    m(
        "source.index_us",
        ratio(route_ns.iter().sum::<f64>(), index_q) / 1e3,
        "us",
    );
    m("index.queries", index_q, "count");
    m(
        "index.memo_exact_ratio",
        ratio(d("memo_exact"), memo_total),
        "ratio",
    );
    m(
        "index.memo_ancestor_ratio",
        ratio(d("memo_ancestor"), memo_total),
        "ratio",
    );
    m(
        "index.memo_miss_ratio",
        ratio(d("memo_miss"), memo_total),
        "ratio",
    );
    m(
        "index.memo_evictions",
        layers.memo_evictions as f64,
        "count",
    );
    let share_names = [
        "index.route_short_share",
        "index.route_heap_share",
        "index.route_gallop_share",
        "index.route_flat_share",
        "index.route_winner_share",
    ];
    for (name, q) in share_names.iter().zip(&route_q) {
        m(name, ratio(*q, index_q), "ratio");
    }
    m(
        "index.route_short_us",
        ratio(route_ns[0], route_q[0]) / 1e3,
        "us",
    );
    m(
        "index.route_heap_us",
        ratio(route_ns[1], route_q[1]) / 1e3,
        "us",
    );
    m(
        "index.route_flat_us",
        ratio(route_ns[3], route_q[3]) / 1e3,
        "us",
    );
    m("tuner.explorations", d("tuner_explorations"), "count");
    m("tuner.promotions", d("tuner_promotions"), "count");
    m(
        "tuner.ablation_mismatches",
        d("tuner_ablation_mismatches"),
        "count",
    );
    m("daemon.shed", d("shed_total"), "count");
    m("pool.shed_connections", d("pool_shed_connections"), "count");
    m(
        "trace.read_residual_pct",
        100.0
            * ratio(
                round_trip_us - (floor_mean + parse + serve + format),
                round_trip_us,
            ),
        "%",
    );
    m("trace.overhead_us", overhead_us, "us");
    // Write path.
    let (i50, i99) = s.insert.sliced_us(SLICES);
    let (d50, d99) = s.delete.sliced_us(SLICES);
    m("client.insert_p50_us", i50, "us");
    m("client.insert_p99_us", i99, "us");
    m("client.delete_p50_us", d50, "us");
    m("client.delete_p99_us", d99, "us");
    m("wal.append_us", us("wal.append"), "us");
    m(
        "maintenance.fast_insert_us",
        us("maintenance.fast_insert"),
        "us",
    );
    m(
        "maintenance.full_insert_ms",
        ms("maintenance.full_insert"),
        "ms",
    );
    m(
        "maintenance.fast_delete_us",
        us("maintenance.fast_delete"),
        "us",
    );
    m(
        "maintenance.full_delete_ms",
        ms("maintenance.full_delete"),
        "ms",
    );
    m(
        "maintenance.fast_inserts",
        layers.maintenance[0] as f64,
        "count",
    );
    m(
        "maintenance.full_inserts",
        layers.maintenance[1] as f64,
        "count",
    );
    m(
        "maintenance.fast_deletes",
        layers.maintenance[2] as f64,
        "count",
    );
    m(
        "maintenance.full_deletes",
        layers.maintenance[3] as f64,
        "count",
    );
    m("maintenance.spliced", layers.spliced as f64, "count");
    m("cache.gate_patched", layers.gate_patched as f64, "count");
    m("cache.gate_cleared", layers.gate_cleared as f64, "count");
    m(
        "cache.invalidated_per_write",
        ratio(layers.invalidated as f64, layers.writes as f64),
        "ratio",
    );
    m(
        "index.memo_invalidations",
        layers.memo_dropped as f64,
        "count",
    );
    // Each write's untraced client time against the layers its replay,
    // run right after it, split it into, plus the protocol floor. A daemon
    // without a WAL appends nothing, so the replay's append is left out.
    let client_write_us = total_us("client.write");
    let writes = all.get("client.write").map_or(0, |t| t.count) as f64;
    let wal_us = if layers.durable {
        total_us("wal.append")
    } else {
        0.0
    };
    let write_layers_us = wal_us
        + [
            "maintenance.fast_insert",
            "maintenance.full_insert",
            "maintenance.fast_delete",
            "maintenance.full_delete",
            "cache.gate_sync",
        ]
        .iter()
        .map(|n| total_us(n))
        .sum::<f64>()
        + floor_mean * writes;
    m(
        "trace.write_residual_pct",
        100.0 * ratio(client_write_us - write_layers_us, client_write_us),
        "%",
    );
    // Host and request accounting.
    m("process.cpu_s", cpu_s, "s");
    m("host.steal_pct", steal_pct, "%");
    m("requests.error_ratio", error_ratio, "ratio");
    report.metrics = out;
}
