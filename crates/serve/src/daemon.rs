//! The resident serving daemon behind `skycube serve`.
//!
//! A one-shot `skycube query` process pays cube load, lazy [`CubeIndex`]
//! build, and cache warm-up on every invocation, then throws the warm state
//! away. A [`Daemon`] keeps all of it resident across requests: one
//! [`StellarEngine`] (dataset + cube + serving index + lattice memo), one
//! shared [`SubspaceCache`] synced through a [`GenerationGate`], and a pool
//! of warm [`IndexScratch`] buffers. Clients speak a line protocol over
//! stdin or a Unix socket; concurrent connections multiplex over the same
//! warm state behind an `RwLock` (many readers serve queries; mutations
//! take the write lock).
//!
//! # Protocol
//!
//! One request per line, one reply line per request (except `stats`):
//!
//! ```text
//! skyline ABD            workload grammar (see crate::parse_workload):
//! skyband 2 ABD          skyline / skyband / member / count / top —
//! member 17 ABD          answered with the exact line run_batch prints
//! count 17               ("skyline ABD -> 2 4"), via crate::format_answer
//! top 5
//! insert 3 5 2 9 1       mutate the engine: reply "insert -> id I generation G"
//! delete 17              reply "delete -> id 17 generation G"
//! checkpoint             rewrite the binary cube, truncate the WAL; reply
//!                        "checkpoint -> generation G records N"
//! stats                  multi-line "name value" metrics block, blank-line
//!                        terminated
//! quit                   close this connection
//! shutdown               stop the daemon (all connections, the listener)
//! # ...                  comments and blank lines are ignored
//! ```
//!
//! Consecutive query lines read in one wave are answered as a single batch
//! through [`run_batch_with`], so a pipelining client (write the whole
//! workload, then read) fans out over the daemon's thread pool; control
//! verbs act as barriers so replies stay in request order.
//!
//! # Durability
//!
//! With a WAL attached ([`Daemon::with_wal`], the CLI's `--wal PATH`),
//! every accepted mutation is appended + fsync'd with its generation stamp
//! *before* the engine patches ([`crate::wal`]): the reply line is the
//! durability acknowledgement. `checkpoint` (the verb, or the periodic
//! `--checkpoint-every N` policy) rewrites the rows + binary cube and
//! truncates the log, so restart cost stays bounded.
//!
//! # Admission control
//!
//! When a per-query deadline is configured, the daemon sheds rather than
//! queues: a wave is rejected with [`ServeError::ResourceExhausted`] when
//! the projected queue wait — Σ over verbs of `in-flight × that verb's
//! observed service time` (per-verb EWMAs of per-query nanoseconds, so a
//! cheap `count` burst is not shed because an expensive `skyband` is in
//! flight) — already exceeds the deadline. Work that would blow its
//! budget waiting is refused up front, and the shed is counted in the
//! metrics (`shed_total`).
//!
//! # Connection handling
//!
//! [`Daemon::serve_bound`] runs a bounded worker pool ([`crate::pool`]):
//! fixed workers drain a bounded accept queue fed by the Unix-socket
//! and/or TCP listeners; a full queue sheds the connection with a
//! `ResourceExhausted` reply instead of queueing unboundedly. Every pooled
//! connection has send/recv deadlines, idle connections are reaped, and
//! `shutdown` drains gracefully: listeners stop accepting, in-flight
//! batches flush, queued-but-unserved connections get an explicit
//! draining reply, and the WAL is fsync'd on the way out.

use crate::batch::{format_answer, run_batch_with, BatchOptions, BatchOutcome};
use crate::cache::{GenerationGate, SubspaceCache};
use crate::error::ServeError;
use crate::pool::{PoolConfig, PoolStream, WorkerPool};
use crate::source::{lock_recover, IndexStats, IndexedCubeSource};
use crate::wal::Wal;
use crate::workload::{parse_query_line, Query};
use crate::CachedSource;
use skycube_parallel::Parallelism;
use skycube_stellar::{CubeIndex, IndexScratch, MergeRoute, StellarEngine};
use skycube_types::{ObjId, Value};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// The admission verb classes, in metric order: each gets its own
/// service-time EWMA so mixed workloads shed precisely.
pub const VERBS: [&str; 5] = ["skyline", "skyband", "member", "count", "top"];

fn verb_index(q: &Query) -> usize {
    match q {
        Query::Skyline(_) => 0,
        Query::Skyband(..) => 1,
        Query::Member(..) => 2,
        Query::Count(_) => 3,
        Query::Top(_) => 4,
    }
}

/// Per-verb query counts for one wave.
fn verb_counts(queries: &[Query]) -> [u64; 5] {
    let mut counts = [0u64; 5];
    for q in queries {
        counts[verb_index(q)] += 1;
    }
    counts
}

/// Configuration for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Capacity (entries) of the shared subspace→skyline cache.
    pub cache_capacity: usize,
    /// Optional byte budget for the cache (admission control on inserts).
    pub cache_bytes: Option<usize>,
    /// Threads each request wave fans out over.
    pub threads: Parallelism,
    /// Per-query deadline; also arms the shed-don't-queue admission check.
    pub deadline: Option<Duration>,
    /// Fault plan injected into every wave's source stack (tests/CI only).
    #[cfg(feature = "faults")]
    pub plan: crate::faults::FaultPlan,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            cache_capacity: 256,
            cache_bytes: None,
            threads: Parallelism::available(),
            deadline: None,
            #[cfg(feature = "faults")]
            plan: crate::faults::FaultPlan::default(),
        }
    }
}

/// Why [`Daemon::serve_connection`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionEnd {
    /// The peer closed its side of the stream.
    Eof,
    /// The peer sent `quit`: this connection is done, the daemon lives on.
    Quit,
    /// The peer sent `shutdown`: the whole daemon is stopping.
    Shutdown,
    /// The daemon reaped the connection: idle past the idle timeout, or a
    /// read/write stalled past the per-connection I/O deadline.
    Reaped,
}

/// Shed-don't-queue admission control with per-verb service-time
/// estimates: each verb class keeps its own in-flight count and EWMA of
/// per-query nanoseconds, and a wave is refused when the projected queue
/// wait — Σ over verbs of `in-flight × ewma` — already exceeds the
/// configured deadline. Per-verb estimates make mixed workloads shed
/// precisely: a burst of cheap `count` probes is not refused just because
/// one expensive `skyband` is in flight, and vice versa the skyband's real
/// cost is charged when projecting its queue.
#[derive(Debug, Default)]
struct Admission {
    inflight: [AtomicU64; 5],
    ewma_ns: [AtomicU64; 5],
    /// Verb-blind fallback EWMA, used to project verbs not yet observed.
    overall_ewma_ns: AtomicU64,
    shed: AtomicU64,
}

impl Admission {
    /// Admit a wave (incrementing the per-verb in-flight counts), or
    /// refuse it with the structured shed error.
    fn admit(&self, counts: &[u64; 5], deadline: Option<Duration>) -> Result<(), ServeError> {
        let total: u64 = counts.iter().sum();
        if let Some(d) = deadline {
            let overall = self.overall_ewma_ns.load(Ordering::Relaxed);
            let mut projected = 0u128;
            let mut known = false;
            for (inflight, ewma_ns) in self.inflight.iter().zip(&self.ewma_ns) {
                let depth = inflight.load(Ordering::Relaxed);
                if depth == 0 {
                    continue;
                }
                let ewma = match ewma_ns.load(Ordering::Relaxed) {
                    0 => overall,
                    e => e,
                };
                if ewma > 0 {
                    projected += u128::from(depth) * u128::from(ewma);
                    known = true;
                }
            }
            if known && projected > d.as_nanos() {
                self.shed.fetch_add(total, Ordering::Relaxed);
                return Err(ServeError::ResourceExhausted(format!(
                    "admission shed: projected queue wait {} ns across in-flight verbs \
                     exceeds the {} ms deadline; not queueing past the budget",
                    projected,
                    d.as_millis()
                )));
            }
        }
        for (&count, inflight) in counts.iter().zip(&self.inflight) {
            if count > 0 {
                inflight.fetch_add(count, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Retire an admitted wave: decrement in-flight and fold its service
    /// time into the per-verb EWMAs (new = 7/8 old + 1/8 sample). The
    /// wave's wall time is apportioned across its verbs proportionally to
    /// their current cost estimates — a wave is one `run_batch_with` call,
    /// so per-verb walls are not observable directly.
    fn done(&self, counts: &[u64; 5], wave_nanos: u64) {
        let total: u64 = counts.iter().sum();
        for (&count, inflight) in counts.iter().zip(&self.inflight) {
            if count > 0 {
                inflight.fetch_sub(count, Ordering::Relaxed);
            }
        }
        if total == 0 {
            return;
        }
        let overall_sample = wave_nanos / total;
        let fold = |old: u64, sample: u64| {
            if old == 0 {
                sample
            } else {
                (7 * old + sample) / 8
            }
        };
        let overall_old = self.overall_ewma_ns.load(Ordering::Relaxed);
        self.overall_ewma_ns
            .store(fold(overall_old, overall_sample), Ordering::Relaxed);
        // Apportion the wave: weight each verb by its current estimate
        // (the overall EWMA when unobserved), charge it its share.
        let mut weights = [0u128; 5];
        let mut denom = 0u128;
        for ((&count, ewma_ns), weight) in counts.iter().zip(&self.ewma_ns).zip(&mut weights) {
            if count == 0 {
                continue;
            }
            let est = match ewma_ns.load(Ordering::Relaxed) {
                0 => overall_sample.max(1),
                e => e,
            };
            *weight = u128::from(est);
            denom += u128::from(count) * u128::from(est);
        }
        for ((&count, ewma_ns), &weight) in counts.iter().zip(&self.ewma_ns).zip(&weights) {
            if count == 0 {
                continue;
            }
            let sample = (u128::from(wave_nanos) * weight)
                .checked_div(denom)
                .map_or(overall_sample, |s| s as u64);
            let old = ewma_ns.load(Ordering::Relaxed);
            ewma_ns.store(fold(old, sample), Ordering::Relaxed);
        }
    }
}

/// One scrape of the daemon-level counters (the cache and index keep their
/// own; [`Daemon::metrics_text`] renders all of them together).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonMetrics {
    /// Engine generation currently served.
    pub generation: u64,
    /// Connections accepted (stdin counts as one).
    pub connections: u64,
    /// Query waves executed (one wave = one `run_batch_with` call).
    pub waves: u64,
    /// Queries answered (including errored ones).
    pub queries: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Queries refused by admission control.
    pub shed: u64,
    /// Queries currently in flight.
    pub inflight: u64,
    /// EWMA of per-query service nanoseconds (all verbs folded together).
    pub service_ewma_ns: u64,
    /// Per-verb service EWMAs, in [`VERBS`] order.
    pub verb_ewma_ns: [u64; 5],
    /// Successful engine inserts.
    pub inserts: u64,
    /// Successful engine deletes.
    pub deletes: u64,
    /// Seconds since the daemon was constructed.
    pub uptime_seconds: u64,
    /// Records currently in the WAL (0 when no WAL is attached).
    pub wal_records: u64,
    /// Records replayed from the WAL at startup.
    pub wal_replayed: u64,
    /// Checkpoints taken (verb or periodic policy).
    pub checkpoints: u64,
    /// Connections currently waiting in the worker pool's accept queue.
    pub pool_depth: u64,
    /// Connections shed because the accept queue was full.
    pub pool_shed: u64,
    /// Connections reaped for idling or stalling past their deadlines.
    pub connections_reaped: u64,
}

/// The durability state guarded by one mutex: the log itself plus the
/// periodic-checkpoint policy. Locked *after* the engine write lock.
struct WalState {
    wal: Wal,
    checkpoint_every: Option<u64>,
    since_checkpoint: u64,
}

/// The resident serving daemon. See the module docs for the protocol.
pub struct Daemon {
    engine: RwLock<StellarEngine>,
    cache: Arc<SubspaceCache>,
    gate: GenerationGate,
    scratches: Mutex<Vec<IndexScratch>>,
    index_totals: Mutex<IndexStats>,
    admission: Admission,
    threads: Parallelism,
    deadline: Option<Duration>,
    shutdown: AtomicBool,
    start: Instant,
    wal: Option<Mutex<WalState>>,
    pool: OnceLock<Arc<WorkerPool>>,
    connections: AtomicU64,
    waves: AtomicU64,
    queries: AtomicU64,
    errors: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    wal_replayed: AtomicU64,
    checkpoints: AtomicU64,
    pool_shed: AtomicU64,
    reaped: AtomicU64,
    #[cfg(feature = "faults")]
    plan: crate::faults::FaultPlan,
}

impl Daemon {
    /// Wrap an engine in a daemon, forcing the serving index so the first
    /// request finds everything warm.
    pub fn new(engine: StellarEngine, config: DaemonConfig) -> Self {
        engine.cube().index();
        let cache = match config.cache_bytes {
            Some(bytes) => SubspaceCache::with_byte_budget(config.cache_capacity, bytes),
            None => SubspaceCache::new(config.cache_capacity),
        };
        let gate = GenerationGate::new(engine.generation());
        Daemon {
            engine: RwLock::new(engine),
            cache: Arc::new(cache),
            gate,
            scratches: Mutex::new(Vec::new()),
            index_totals: Mutex::new(IndexStats::default()),
            admission: Admission::default(),
            threads: config.threads,
            deadline: config.deadline,
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            wal: None,
            pool: OnceLock::new(),
            connections: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            wal_replayed: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            pool_shed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            #[cfg(feature = "faults")]
            plan: config.plan,
        }
    }

    /// Attach a write-ahead log: every accepted mutation is appended and
    /// fsync'd *before* the engine patches. `replayed` is how many records
    /// startup recovery replayed into the engine (surfaced as the
    /// `wal_replayed` metric); `checkpoint_every` arms the periodic
    /// checkpoint policy (every N accepted mutations).
    pub fn with_wal(mut self, wal: Wal, replayed: u64, checkpoint_every: Option<u64>) -> Self {
        self.wal_replayed.store(replayed, Ordering::Relaxed);
        self.wal = Some(Mutex::new(WalState {
            wal,
            checkpoint_every,
            since_checkpoint: 0,
        }));
        self
    }

    /// Ask every connection loop and listener to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Engine mutations are transactional (validate, then swap whole
    /// structures), so an engine behind a poisoned lock is still coherent.
    fn engine_read(&self) -> std::sync::RwLockReadGuard<'_, StellarEngine> {
        self.engine.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn engine_write(&self) -> std::sync::RwLockWriteGuard<'_, StellarEngine> {
        self.engine.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answer one wave of queries against the warm state. Concurrent
    /// callers share the engine read lock, the cache, and the scratch
    /// pool; answers come back in input order.
    pub fn serve_wave(&self, queries: &[Query]) -> BatchOutcome {
        self.waves.fetch_add(1, Ordering::Relaxed);
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let counts = verb_counts(queries);
        if let Err(shed) = self.admission.admit(&counts, self.deadline) {
            self.errors
                .fetch_add(queries.len() as u64, Ordering::Relaxed);
            return BatchOutcome {
                answers: queries.iter().map(|_| Err(shed.clone())).collect(),
                stats: crate::QueryStats {
                    queries: queries.len(),
                    errors: queries.len(),
                    ..Default::default()
                },
            };
        }
        let start = Instant::now();
        let outcome = self.run_admitted_wave(queries);
        self.admission
            .done(&counts, start.elapsed().as_nanos() as u64);
        self.errors
            .fetch_add(outcome.stats.errors as u64, Ordering::Relaxed);
        outcome
    }

    /// The post-admission wave: sync the cache to the engine generation,
    /// rebuild the request-scoped source stack around the resident state,
    /// run the batch, then return the warm scratches and fold the index
    /// deltas into the daemon totals.
    fn run_admitted_wave(&self, queries: &[Query]) -> BatchOutcome {
        let engine = self.engine_read();
        let generation = engine.generation();
        self.gate.sync(generation, engine.last_delta(), &self.cache);
        let source = IndexedCubeSource::new(engine.cube());
        source.adopt_scratches(std::mem::take(&mut *lock_recover(&self.scratches)));
        let cached = CachedSource::with_shared(source, Arc::clone(&self.cache));
        let options = BatchOptions {
            deadline: self.deadline,
            generation: Some(generation),
        };
        // The cube holds only the k = 1 layer, so a wave containing a
        // k ≥ 2 skyband gets a fallback rung over the engine's rows, which
        // the read guard lends. Everything else serves straight from the
        // warm indexed stack.
        let needs_rows = queries
            .iter()
            .any(|q| matches!(q, Query::Skyband(k, _) if *k >= 2));
        let direct = needs_rows.then(|| crate::DirectSource::new(engine.rows()));
        #[cfg(feature = "faults")]
        let faulty = self
            .plan
            .is_active()
            .then(|| crate::faults::FaultySource::new(&cached, self.plan));
        #[cfg(feature = "faults")]
        let primary: &dyn crate::SkylineSource = match &faulty {
            Some(f) => f,
            None => &cached,
        };
        #[cfg(not(feature = "faults"))]
        let primary: &dyn crate::SkylineSource = &cached;
        let outcome = match &direct {
            Some(d) => {
                let ladder = crate::FallbackSource::new(primary).then(d);
                run_batch_with(&ladder, queries, self.threads, &options)
            }
            None => run_batch_with(primary, queries, self.threads, &options),
        };
        *lock_recover(&self.scratches) = cached.inner().take_scratches();
        if let Some(delta) = outcome.stats.index {
            lock_recover(&self.index_totals).accumulate(&delta);
        }
        outcome
    }

    /// [`Self::serve_wave`] rendered to protocol reply lines, one per
    /// query, via [`format_answer`] — byte-identical to what `skycube
    /// query` prints for the same workload.
    pub fn serve_queries(&self, queries: &[Query]) -> Vec<String> {
        let outcome = self.serve_wave(queries);
        queries
            .iter()
            .zip(&outcome.answers)
            .map(|(q, a)| format_answer(q, a))
            .collect()
    }

    /// Insert a row (write lock): returns the new object id and the bumped
    /// generation. With a WAL attached the record is appended and fsync'd
    /// *before* the engine patches — the reply is the durability ack. The
    /// next wave's gate sync patches or clears the cache.
    pub fn insert(&self, row: Vec<Value>) -> Result<(ObjId, u64), ServeError> {
        let mut engine = self.engine_write();
        // Validate before logging: a rejected row must not reach the WAL.
        if row.len() != engine.dims() {
            return Err(ServeError::from(skycube_types::Error::RowLengthMismatch {
                row: engine.len(),
                expected: engine.dims(),
                actual: row.len(),
            }));
        }
        self.log_mutation(|state| state.wal.append_insert(&row))?;
        let id = engine
            .insert(row)
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let generation = engine.generation();
        drop(engine);
        self.maybe_checkpoint();
        Ok((id, generation))
    }

    /// Delete an object (write lock): returns the bumped generation. The
    /// WAL record (when attached) is durable before the engine patches.
    pub fn delete(&self, id: ObjId) -> Result<u64, ServeError> {
        let mut engine = self.engine_write();
        if (id as usize) >= engine.len() {
            return Err(ServeError::from(skycube_types::Error::NoSuchObject {
                id,
                len: engine.len(),
            }));
        }
        self.log_mutation(|state| state.wal.append_delete(id))?;
        engine.delete(id).map_err(ServeError::from)?;
        self.deletes.fetch_add(1, Ordering::Relaxed);
        let generation = engine.generation();
        drop(engine);
        self.maybe_checkpoint();
        Ok(generation)
    }

    /// Append one mutation record to the WAL (no-op without one). The
    /// `kill-mid-mutation` fault aborts the process right after the record
    /// is durable and before the engine patches — the crash point the
    /// recovery contract must survive.
    fn log_mutation(
        &self,
        append: impl FnOnce(&mut WalState) -> skycube_types::Result<u64>,
    ) -> Result<(), ServeError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut state = wal.lock().unwrap_or_else(PoisonError::into_inner);
        append(&mut state).map_err(|e| ServeError::Internal(format!("wal append failed: {e}")))?;
        state.since_checkpoint += 1;
        #[cfg(feature = "faults")]
        if let Some(nth) = self.plan.kill_mid_mutation {
            if state.wal.records() >= nth {
                eprintln!(
                    "fault injection: kill-mid-mutation aborting after wal record {}",
                    state.wal.records()
                );
                std::process::abort();
            }
        }
        Ok(())
    }

    /// Whether the periodic checkpoint policy is due, and if so take one.
    fn maybe_checkpoint(&self) {
        let due = match &self.wal {
            Some(wal) => {
                let state = wal.lock().unwrap_or_else(PoisonError::into_inner);
                matches!(state.checkpoint_every, Some(n) if n > 0 && state.since_checkpoint >= n)
            }
            None => false,
        };
        if due {
            if let Err(e) = self.checkpoint() {
                eprintln!("# periodic checkpoint failed (log retained): {e}");
            }
        }
    }

    /// Rewrite the rows + binary cube beside the WAL and truncate the log
    /// (the `checkpoint` verb and the periodic policy). Returns the
    /// checkpointed generation and how many log records were truncated.
    /// Fails cleanly — a failed checkpoint leaves the previous checkpoint
    /// and the full log intact.
    pub fn checkpoint(&self) -> Result<(u64, u64), ServeError> {
        let Some(wal) = &self.wal else {
            return Err(ServeError::Internal(
                "no wal configured (start with --wal PATH)".to_owned(),
            ));
        };
        let engine = self.engine_write();
        let mut state = wal.lock().unwrap_or_else(PoisonError::into_inner);
        let durable = state.wal.next_generation() - 1;
        let truncated = state.wal.records();
        crate::wal::write_checkpoint(state.wal.path(), engine.rows(), engine.cube(), durable)
            .map_err(|e| ServeError::Internal(format!("checkpoint failed: {e}")))?;
        state
            .wal
            .reset(durable)
            .map_err(|e| ServeError::Internal(format!("wal reset failed: {e}")))?;
        state.since_checkpoint = 0;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok((engine.generation(), truncated))
    }

    /// Flush the WAL to disk (graceful-shutdown hook; no-op without one).
    pub fn sync_wal(&self) {
        if let Some(wal) = &self.wal {
            let mut state = wal.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = state.wal.sync();
        }
    }

    /// Current daemon-level counters.
    pub fn metrics(&self) -> DaemonMetrics {
        let mut verb_ewma_ns = [0u64; 5];
        let mut inflight = 0u64;
        for ((slot, ewma_ns), depth) in verb_ewma_ns
            .iter_mut()
            .zip(&self.admission.ewma_ns)
            .zip(&self.admission.inflight)
        {
            *slot = ewma_ns.load(Ordering::Relaxed);
            inflight += depth.load(Ordering::Relaxed);
        }
        let (wal_records, _) = self.wal_status();
        DaemonMetrics {
            generation: self.engine_read().generation(),
            connections: self.connections.load(Ordering::Relaxed),
            waves: self.waves.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.admission.shed.load(Ordering::Relaxed),
            inflight,
            service_ewma_ns: self.admission.overall_ewma_ns.load(Ordering::Relaxed),
            verb_ewma_ns,
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            uptime_seconds: self.start.elapsed().as_secs(),
            wal_records,
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            pool_depth: self.pool.get().map_or(0, |p| p.depth()),
            pool_shed: self.pool_shed.load(Ordering::Relaxed),
            connections_reaped: self.reaped.load(Ordering::Relaxed),
        }
    }

    /// `(records in the WAL, WAL attached)` without holding other locks.
    fn wal_status(&self) -> (u64, bool) {
        match &self.wal {
            Some(wal) => {
                let state = wal.lock().unwrap_or_else(PoisonError::into_inner);
                (state.wal.records(), true)
            }
            None => (0, false),
        }
    }

    /// The scrapeable plain-text metrics block (`name value` per line):
    /// daemon counters, cache counters, and cumulative per-route and memo
    /// index counters. This is the `stats` verb's reply and the
    /// `--metrics` dump.
    pub fn metrics_text(&self) -> String {
        let m = self.metrics();
        let cache = self.cache.stats();
        let index = *lock_recover(&self.index_totals);
        let mut out = String::new();
        let mut put = |name: &str, value: u64| {
            let _ = writeln!(out, "{name} {value}");
        };
        put("generation", m.generation);
        put("connections_total", m.connections);
        put("waves_total", m.waves);
        put("queries_total", m.queries);
        put("errors_total", m.errors);
        put("shed_total", m.shed);
        put("inflight", m.inflight);
        put("service_ewma_ns", m.service_ewma_ns);
        for (verb, ewma) in VERBS.iter().zip(m.verb_ewma_ns) {
            put(&format!("service_ewma_ns_{verb}"), ewma);
        }
        put("inserts_total", m.inserts);
        put("deletes_total", m.deletes);
        put("uptime_seconds", m.uptime_seconds);
        put("wal_records", m.wal_records);
        put("wal_replayed", m.wal_replayed);
        put("checkpoints", m.checkpoints);
        put("pool_depth", m.pool_depth);
        put("pool_shed_connections", m.pool_shed);
        put("connections_reaped", m.connections_reaped);
        put("cache_hits", cache.hits);
        put("cache_misses", cache.misses);
        put("cache_entries", cache.entries as u64);
        put("cache_capacity", cache.capacity as u64);
        put("cache_rejected", cache.rejected);
        put("cache_poison_recoveries", cache.poison_recoveries);
        for route in MergeRoute::ALL {
            let r = index.routes[route.index()];
            put(&format!("route_{}_queries", route.name()), r.queries);
            put(&format!("route_{}_nanos", route.name()), r.nanos);
        }
        put("memo_exact", index.memo_exact);
        put("memo_ancestor", index.memo_ancestor);
        put("memo_miss", index.memo_miss);
        out
    }

    /// Drive one connection: read waves of lines, answer them, until EOF,
    /// `quit`, `shutdown`, or a daemon-wide shutdown. Works for stdin and
    /// for an accepted socket stream alike.
    pub fn serve_connection<R: Read, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> std::io::Result<ConnectionEnd> {
        self.connections.fetch_add(1, Ordering::Relaxed);
        let mut pending: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 8192];
        loop {
            if self.is_shutting_down() {
                return Ok(ConnectionEnd::Shutdown);
            }
            let n = reader.read(&mut chunk)?;
            if n == 0 {
                // EOF: a final line without a trailing newline still counts.
                let lines = take_lines(&mut pending, true);
                if let Some(end) = self.process_lines(&lines, &mut writer)? {
                    return Ok(end);
                }
                return Ok(ConnectionEnd::Eof);
            }
            pending.extend_from_slice(&chunk[..n]);
            let lines = take_lines(&mut pending, false);
            if let Some(end) = self.process_lines(&lines, &mut writer)? {
                return Ok(end);
            }
        }
    }

    /// Process one wave of protocol lines: consecutive query lines batch
    /// into a single [`Self::serve_wave`]; control verbs (and parse
    /// errors) flush the batch first so replies stay in request order.
    fn process_lines(
        &self,
        lines: &[String],
        writer: &mut dyn Write,
    ) -> std::io::Result<Option<ConnectionEnd>> {
        let mut batch: Vec<Query> = Vec::new();
        for line in lines {
            let trimmed = line.trim();
            let mut tokens = trimmed.split_whitespace();
            let verb = match tokens.next() {
                None => continue,
                Some(v) if v.starts_with('#') => continue,
                Some(v) => v,
            };
            match verb {
                "stats" => {
                    self.flush_batch(&mut batch, writer)?;
                    writeln!(writer, "{}", self.metrics_text())?;
                }
                "insert" => {
                    self.flush_batch(&mut batch, writer)?;
                    writeln!(writer, "{}", self.handle_insert(tokens))?;
                }
                "delete" => {
                    self.flush_batch(&mut batch, writer)?;
                    writeln!(writer, "{}", self.handle_delete(tokens))?;
                }
                "checkpoint" => {
                    self.flush_batch(&mut batch, writer)?;
                    let reply = match self.checkpoint() {
                        Ok((generation, records)) => {
                            format!("checkpoint -> generation {generation} records {records}")
                        }
                        Err(e) => format!("checkpoint -> error: {e}"),
                    };
                    writeln!(writer, "{reply}")?;
                }
                "quit" => {
                    self.flush_batch(&mut batch, writer)?;
                    writer.flush()?;
                    return Ok(Some(ConnectionEnd::Quit));
                }
                "shutdown" => {
                    self.flush_batch(&mut batch, writer)?;
                    writer.flush()?;
                    self.request_shutdown();
                    return Ok(Some(ConnectionEnd::Shutdown));
                }
                _ => match parse_query_line(trimmed) {
                    Ok(Some(q)) => batch.push(q),
                    Ok(None) => {}
                    Err(message) => {
                        self.flush_batch(&mut batch, writer)?;
                        writeln!(writer, "{trimmed} -> error: {message}")?;
                    }
                },
            }
        }
        self.flush_batch(&mut batch, writer)?;
        writer.flush()?;
        Ok(None)
    }

    fn flush_batch(&self, batch: &mut Vec<Query>, writer: &mut dyn Write) -> std::io::Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for reply in self.serve_queries(batch) {
            writeln!(writer, "{reply}")?;
        }
        batch.clear();
        Ok(())
    }

    fn handle_insert<'t>(&self, tokens: impl Iterator<Item = &'t str>) -> String {
        let mut row = Vec::new();
        for t in tokens {
            match t.parse::<Value>() {
                Ok(v) => row.push(v),
                Err(_) => return format!("insert -> error: bad value {t:?}"),
            }
        }
        let dims = self.engine_read().cube().dims();
        if row.len() != dims {
            return format!("insert -> error: expected {dims} values, got {}", row.len());
        }
        match self.insert(row) {
            Ok((id, generation)) => format!("insert -> id {id} generation {generation}"),
            Err(e) => format!("insert -> error: {e}"),
        }
    }

    fn handle_delete<'t>(&self, mut tokens: impl Iterator<Item = &'t str>) -> String {
        let id = match tokens.next().map(str::parse::<ObjId>) {
            Some(Ok(id)) => id,
            _ => return "delete -> error: usage: delete <object-id>".to_owned(),
        };
        if tokens.next().is_some() {
            return "delete -> error: usage: delete <object-id>".to_owned();
        }
        match self.delete(id) {
            Ok(generation) => format!("delete -> id {id} generation {generation}"),
            Err(e) => format!("delete -> error: {e}"),
        }
    }

    /// Accept connections on a Unix socket until a shutdown is requested
    /// (the PR 9 entry point, now a thin wrapper over [`Self::serve_bound`]
    /// with the default pool sizing). The socket file is removed on the way
    /// out.
    #[cfg(unix)]
    pub fn listen_unix(self: &Arc<Self>, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        self.serve_bound(
            Some((listener, path.to_path_buf())),
            None,
            PoolConfig::default(),
        )
    }

    /// Serve already-bound listeners through the bounded worker pool until
    /// a shutdown is requested: accept loops feed the queue, `workers`
    /// fixed threads drain it, overflow is shed with a
    /// `ResourceExhausted`-formatted reply instead of queueing unboundedly.
    /// On shutdown the listeners stop, in-flight connections observe the
    /// flag at their next tick, queued-but-unserved connections get an
    /// explicit draining reply, the Unix socket file is removed, and the
    /// WAL is fsync'd. The caller binds (so it can report the bound TCP
    /// port before this call blocks).
    #[cfg(unix)]
    pub fn serve_bound(
        self: &Arc<Self>,
        unix: Option<(std::os::unix::net::UnixListener, std::path::PathBuf)>,
        tcp: Option<std::net::TcpListener>,
        config: PoolConfig,
    ) -> std::io::Result<()> {
        let pool = Arc::clone(
            self.pool
                .get_or_init(|| Arc::new(WorkerPool::new(config.backlog))),
        );
        let mut accepters: Vec<std::thread::JoinHandle<std::io::Result<()>>> = Vec::new();
        let unix_path = unix.as_ref().map(|(_, p)| p.clone());
        if let Some((listener, _)) = unix {
            listener.set_nonblocking(true)?;
            let daemon = Arc::clone(self);
            let q = Arc::clone(&pool);
            accepters.push(std::thread::spawn(move || {
                daemon.accept_loop(&q, || match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        Ok(Some(PoolStream::Unix(s)))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                    Err(e) => Err(e),
                })
            }));
        }
        if let Some(listener) = tcp {
            listener.set_nonblocking(true)?;
            let daemon = Arc::clone(self);
            let q = Arc::clone(&pool);
            accepters.push(std::thread::spawn(move || {
                daemon.accept_loop(&q, || match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        Ok(Some(PoolStream::Tcp(s)))
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                    Err(e) => Err(e),
                })
            }));
        }
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for _ in 0..config.workers.max(1) {
            let daemon = Arc::clone(self);
            let q = Arc::clone(&pool);
            workers.push(std::thread::spawn(move || loop {
                match q.pop(Duration::from_millis(100)) {
                    Some(stream) => {
                        if daemon.is_shutting_down() {
                            daemon.decline(
                                stream,
                                "daemon draining: shutting down before this connection was served",
                            );
                        } else {
                            let _ = daemon.serve_pooled(stream, &config);
                        }
                    }
                    None if daemon.is_shutting_down() => break,
                    None => {}
                }
            }));
        }
        // Accept loops return at shutdown (or on a hard listener error; in
        // that case stop everything so the workers wind down too).
        let mut failure: Option<std::io::Error> = None;
        for a in accepters {
            match a.join() {
                Ok(Err(e)) if failure.is_none() => failure = Some(e),
                _ => {}
            }
        }
        if failure.is_some() {
            self.request_shutdown();
        }
        for w in workers {
            let _ = w.join();
        }
        for stream in pool.drain() {
            self.decline(
                stream,
                "daemon draining: shutting down before this connection was served",
            );
        }
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.sync_wal();
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Poll `accept` until shutdown, pushing accepted connections into the
    /// pool and shedding them with a reply when the backlog is full.
    #[cfg(unix)]
    fn accept_loop(
        &self,
        pool: &WorkerPool,
        mut accept: impl FnMut() -> std::io::Result<Option<PoolStream>>,
    ) -> std::io::Result<()> {
        while !self.is_shutting_down() {
            match accept()? {
                Some(stream) => {
                    if let Err(stream) = pool.push(stream) {
                        self.pool_shed.fetch_add(1, Ordering::Relaxed);
                        self.decline(
                            stream,
                            "connection backlog full; shedding instead of queueing past the bound",
                        );
                    }
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        Ok(())
    }

    /// Refuse a connection with one `ResourceExhausted`-formatted reply
    /// line (best effort, short write deadline) and drop it.
    fn decline(&self, mut stream: PoolStream, what: &str) {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
        let err = ServeError::ResourceExhausted(what.to_owned());
        let _ = writeln!(stream, "error: {err}");
        let _ = stream.flush();
    }

    /// Drive one pooled connection with deadlines: reads tick so the loop
    /// can observe shutdown, a peer idle past `idle_timeout` (or stalled
    /// mid-line / mid-write past `io_timeout`) is reaped, and the
    /// `slow-client` fault dribbles to exercise exactly that path.
    fn serve_pooled(
        &self,
        mut stream: PoolStream,
        config: &PoolConfig,
    ) -> std::io::Result<ConnectionEnd> {
        self.connections.fetch_add(1, Ordering::Relaxed);
        let tick = Duration::from_millis(100)
            .min(config.io_timeout)
            .min(config.idle_timeout)
            .max(Duration::from_millis(1));
        stream.set_read_timeout(Some(tick))?;
        stream.set_write_timeout(Some(config.io_timeout))?;
        let timed_out = |e: &std::io::Error| {
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        };
        let mut pending: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut last_data = Instant::now();
        loop {
            if self.is_shutting_down() {
                return Ok(ConnectionEnd::Shutdown);
            }
            let n = match stream.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if timed_out(&e) => {
                    let quiet = last_data.elapsed();
                    let stalled_mid_line = !pending.is_empty() && quiet >= config.io_timeout;
                    if stalled_mid_line || quiet >= config.idle_timeout {
                        self.reaped.fetch_add(1, Ordering::Relaxed);
                        return Ok(ConnectionEnd::Reaped);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            if n == 0 {
                let lines = take_lines(&mut pending, true);
                return match self.process_lines(&lines, &mut stream) {
                    Ok(Some(end)) => Ok(end),
                    Ok(None) => Ok(ConnectionEnd::Eof),
                    Err(e) if timed_out(&e) => {
                        self.reaped.fetch_add(1, Ordering::Relaxed);
                        Ok(ConnectionEnd::Reaped)
                    }
                    Err(e) => Err(e),
                };
            }
            last_data = Instant::now();
            pending.extend_from_slice(&chunk[..n]);
            #[cfg(feature = "faults")]
            if let Some(dally) = self.plan.slow_client {
                std::thread::sleep(dally);
            }
            let lines = take_lines(&mut pending, false);
            match self.process_lines(&lines, &mut stream) {
                Ok(Some(end)) => return Ok(end),
                Ok(None) => {}
                Err(e) if timed_out(&e) => {
                    self.reaped.fetch_add(1, Ordering::Relaxed);
                    return Ok(ConnectionEnd::Reaped);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The index the daemon currently serves from (lets callers read its
    /// memo counters without a protocol round trip). The reference is only
    /// valid while no mutation swaps the cube, so callers copy what they
    /// need immediately.
    pub fn with_index<T>(&self, f: impl FnOnce(&CubeIndex) -> T) -> T {
        f(self.engine_read().cube().index())
    }
}

/// Split complete `\n`-terminated lines off the front of `pending`
/// (tolerating `\r\n`); with `flush` also take the final unterminated tail.
fn take_lines(pending: &mut Vec<u8>, flush: bool) -> Vec<String> {
    let mut lines = Vec::new();
    while let Some(at) = pending.iter().position(|&b| b == b'\n') {
        let raw: Vec<u8> = pending.drain(..=at).collect();
        lines.push(
            String::from_utf8_lossy(&raw)
                .trim_end_matches(['\n', '\r'])
                .to_string(),
        );
    }
    if flush && !pending.is_empty() {
        let raw = std::mem::take(pending);
        lines.push(String::from_utf8_lossy(&raw).to_string());
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::parse_workload;
    use crate::{run_batch, Answer, IndexedCubeSource};
    use skycube_stellar::compute_cube;
    use skycube_types::running_example;

    fn daemon() -> Daemon {
        let config = DaemonConfig {
            threads: Parallelism::sequential(),
            ..DaemonConfig::default()
        };
        Daemon::new(StellarEngine::new(&running_example()), config)
    }

    /// Run a full protocol exchange against an in-memory "connection".
    fn exchange(daemon: &Daemon, input: &str) -> (String, ConnectionEnd) {
        let mut out = Vec::new();
        let end = daemon
            .serve_connection(input.as_bytes(), &mut out)
            .expect("in-memory I/O cannot fail");
        (String::from_utf8(out).unwrap(), end)
    }

    #[test]
    fn protocol_answers_match_run_batch_byte_for_byte() {
        let d = daemon();
        let workload = "skyline BD\nskyband 1 BD\nmember 4 BD\ncount 4\ntop 2\n";
        let (replies, end) = exchange(&d, workload);
        assert_eq!(end, ConnectionEnd::Eof);
        let ds = running_example();
        let cube = compute_cube(&ds);
        let source = IndexedCubeSource::new(&cube);
        let queries = parse_workload(workload).unwrap();
        let outcome = run_batch(&source, &queries, Parallelism::sequential());
        let expect: String = queries
            .iter()
            .zip(&outcome.answers)
            .map(|(q, a)| format_answer(q, a) + "\n")
            .collect();
        assert_eq!(replies, expect);
    }

    #[test]
    fn control_verbs_barrier_and_classify() {
        let d = daemon();
        let (replies, end) = exchange(
            &d,
            "skyline BD\nquack now\nskyline B\n# a comment\n\nquit\nskyline A\n",
        );
        assert_eq!(end, ConnectionEnd::Quit);
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "skyline BD -> 2 4");
        assert!(
            lines[1].starts_with("quack now -> error:"),
            "{:?}",
            lines[1]
        );
        assert_eq!(lines[2], "skyline B -> 2 3 4");
        // Nothing after quit is served.
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn mutations_bump_the_generation_and_refresh_answers() {
        let d = daemon();
        let (before, _) = exchange(&d, "skyline B\n");
        assert_eq!(before, "skyline B -> 2 3 4\n");
        // The new object takes over subspace B outright (B = 0).
        let (reply, _) = exchange(&d, "insert 9 0 11 9\n");
        assert_eq!(reply, "insert -> id 5 generation 1\n");
        let (after, _) = exchange(&d, "skyline B\n");
        assert_eq!(after, "skyline B -> 5\n", "stale answer after insert");
        let (reply, _) = exchange(&d, "delete 5\n");
        assert_eq!(reply, "delete -> id 5 generation 2\n");
        let (restored, _) = exchange(&d, "skyline B\n");
        assert_eq!(restored, "skyline B -> 2 3 4\n");
        let m = d.metrics();
        assert_eq!((m.inserts, m.deletes, m.generation), (1, 1, 2));
    }

    #[test]
    fn malformed_mutations_reply_with_diagnostics() {
        let d = daemon();
        let (r, _) = exchange(&d, "insert 1 2\n");
        assert_eq!(r, "insert -> error: expected 4 values, got 2\n");
        let (r, _) = exchange(&d, "insert a b c d\n");
        assert!(r.starts_with("insert -> error: bad value"), "{r:?}");
        let (r, _) = exchange(&d, "delete nineteen\n");
        assert!(r.contains("usage: delete"), "{r:?}");
        let (r, _) = exchange(&d, "delete 99\n");
        assert!(r.starts_with("delete -> error:"), "{r:?}");
    }

    #[test]
    fn stats_scrape_is_blank_line_terminated_name_value_pairs() {
        let d = daemon();
        let (_, _) = exchange(&d, "skyline BD\nskyline BD\n");
        let (scrape, _) = exchange(&d, "stats\n");
        assert!(scrape.ends_with("\n\n"), "missing blank-line terminator");
        for needle in [
            "generation 0",
            "queries_total 2",
            "shed_total 0",
            "cache_hits 1",
            "cache_misses 1",
            "service_ewma_ns_skyline",
            "service_ewma_ns_top",
            "uptime_seconds",
            "wal_records 0",
            "wal_replayed 0",
            "checkpoints 0",
            "pool_depth 0",
            "pool_shed_connections 0",
            "connections_reaped 0",
            "route_short_queries",
            "route_flat_queries",
            "memo_exact",
        ] {
            assert!(
                scrape.lines().any(|l| l.starts_with(needle)),
                "missing {needle:?} in:\n{scrape}"
            );
        }
        // Every line of the block body is "name value".
        for line in scrape.trim_end().lines() {
            let mut parts = line.split_whitespace();
            assert!(parts.next().is_some(), "empty metrics line");
            parts
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("non-numeric metrics line {line:?}"));
            assert_eq!(parts.next(), None, "trailing tokens in {line:?}");
        }
    }

    #[test]
    fn shutdown_verb_stops_the_daemon() {
        let d = daemon();
        let (_, end) = exchange(&d, "shutdown\n");
        assert_eq!(end, ConnectionEnd::Shutdown);
        assert!(d.is_shutting_down());
        // A connection opened after the flag is set winds down immediately.
        let (out, end) = exchange(&d, "skyline BD\n");
        assert_eq!(end, ConnectionEnd::Shutdown);
        assert_eq!(out, "");
    }

    #[test]
    fn warm_state_survives_across_waves() {
        let d = daemon();
        let queries = parse_workload("skyline BD\n").unwrap();
        d.serve_wave(&queries);
        d.serve_wave(&queries);
        let cache = d.cache.stats();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // The second wave adopted the first wave's scratch buffer.
        assert_eq!(lock_recover(&d.scratches).len(), 1);
        let m = d.metrics();
        assert_eq!((m.waves, m.queries), (2, 2));
        assert!(m.service_ewma_ns > 0);
    }

    #[test]
    fn admission_sheds_when_projected_wait_exceeds_the_deadline() {
        let config = DaemonConfig {
            threads: Parallelism::sequential(),
            deadline: Some(Duration::from_millis(1)),
            ..DaemonConfig::default()
        };
        let d = Daemon::new(StellarEngine::new(&running_example()), config);
        // Seed the queue-depth and service-time signals directly: 4 skyline
        // queries notionally in flight at 1 ms each projects a 4 ms wait.
        d.admission.inflight[0].store(4, Ordering::Relaxed);
        d.admission.ewma_ns[0].store(1_000_000, Ordering::Relaxed);
        let queries = parse_workload("skyline BD\nskyline B\n").unwrap();
        let outcome = d.serve_wave(&queries);
        for a in &outcome.answers {
            let err = a.clone().unwrap_err();
            assert_eq!(err.kind(), "resource-exhausted");
            assert!(err.to_string().contains("admission shed"), "{err}");
        }
        assert_eq!(d.metrics().shed, 2);
        // Clearing the pressure admits the same wave again.
        d.admission.inflight[0].store(0, Ordering::Relaxed);
        let outcome = d.serve_wave(&queries);
        assert_eq!(outcome.answers[0], Ok(Answer::Skyline(vec![2, 4])));
        assert_eq!(d.metrics().shed, 2);
    }

    #[test]
    fn take_lines_frames_waves_and_flushes_tails() {
        let mut pending = b"skyline A\r\nskyline B\nsky".to_vec();
        let lines = take_lines(&mut pending, false);
        assert_eq!(lines, ["skyline A", "skyline B"]);
        assert_eq!(pending, b"sky");
        let lines = take_lines(&mut pending, true);
        assert_eq!(lines, ["sky"]);
        assert!(pending.is_empty());
    }

    #[test]
    fn admission_projects_per_verb_so_cheap_verbs_are_not_shed_by_expensive_ones() {
        let config = DaemonConfig {
            threads: Parallelism::sequential(),
            deadline: Some(Duration::from_millis(1)),
            ..DaemonConfig::default()
        };
        let d = Daemon::new(StellarEngine::new(&running_example()), config);
        // One expensive skyband (5 ms) in flight; counts are cheap (10 µs).
        d.admission.inflight[1].store(1, Ordering::Relaxed);
        d.admission.ewma_ns[1].store(5_000_000, Ordering::Relaxed);
        d.admission.ewma_ns[3].store(10_000, Ordering::Relaxed);
        // A count wave projects only the skyband's wait — still over the
        // 1 ms deadline, so it sheds...
        let counts = verb_counts(&parse_workload("count 1\n").unwrap());
        assert!(d
            .admission
            .admit(&counts, Some(Duration::from_millis(1)))
            .is_err());
        // ...but once the skyband retires, cheap work flows immediately
        // even though the skyband EWMA is still huge.
        d.admission.inflight[1].store(0, Ordering::Relaxed);
        assert!(d
            .admission
            .admit(&counts, Some(Duration::from_millis(1)))
            .is_ok());
        // And the skyband EWMA alone does not poison count's estimate.
        assert_eq!(d.admission.ewma_ns[3].load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn wave_times_fold_into_per_verb_ewmas() {
        let d = daemon();
        let queries = parse_workload("skyline BD\ncount 4\n").unwrap();
        d.serve_wave(&queries);
        let m = d.metrics();
        assert!(m.service_ewma_ns > 0);
        assert!(m.verb_ewma_ns[0] > 0, "skyline ewma unset");
        assert!(m.verb_ewma_ns[3] > 0, "count ewma unset");
        assert_eq!(m.verb_ewma_ns[1], 0, "skyband never ran");
        assert_eq!(m.inflight, 0, "wave not retired");
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let d =
            std::env::temp_dir().join(format!("skycube-daemon-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn wal_daemon(dir: &std::path::Path) -> Daemon {
        let config = DaemonConfig {
            threads: Parallelism::sequential(),
            ..DaemonConfig::default()
        };
        let ds = running_example();
        let opened = crate::wal::Wal::open(&dir.join("d.wal"), ds.dims(), 0).unwrap();
        let replayed = opened.records.len() as u64;
        Daemon::new(StellarEngine::new(&ds), config).with_wal(opened.wal, replayed, None)
    }

    #[test]
    fn mutations_are_logged_before_they_apply_and_checkpoint_truncates() {
        let dir = scratch_dir("log-and-checkpoint");
        let d = wal_daemon(&dir);
        let (reply, _) = exchange(&d, "insert 9 0 11 9\ndelete 5\n");
        assert!(reply.contains("insert -> id 5 generation 1"), "{reply}");
        assert!(reply.contains("delete -> id 5 generation 2"), "{reply}");
        assert_eq!(d.metrics().wal_records, 2);
        // Rejected mutations must not reach the log.
        let (reply, _) = exchange(&d, "insert 1 2\ndelete 99\n");
        assert!(reply.contains("error"), "{reply}");
        assert_eq!(d.metrics().wal_records, 2);
        let (reply, _) = exchange(&d, "checkpoint\n");
        assert_eq!(reply, "checkpoint -> generation 2 records 2\n");
        let m = d.metrics();
        assert_eq!((m.wal_records, m.checkpoints), (0, 1));
        // The log replays to the same engine the daemon is serving.
        let rec = crate::wal::recover(
            &dir.join("d.wal"),
            &running_example(),
            skycube_stellar::Stellar::default(),
        )
        .unwrap();
        assert!(rec.from_checkpoint, "checkpoint not picked up");
        assert_eq!(rec.base_generation, 2, "durable generation lost");
        assert_eq!(rec.engine.len(), 5);
        assert_eq!(rec.replayed, 0, "checkpoint left nothing to replay");
    }

    #[test]
    fn checkpoint_without_a_wal_is_a_structured_refusal() {
        let d = daemon();
        let (reply, _) = exchange(&d, "checkpoint\n");
        assert_eq!(
            reply,
            "checkpoint -> error: no wal configured (start with --wal PATH)\n"
        );
    }

    #[test]
    fn periodic_checkpoint_policy_fires_every_n_mutations() {
        let dir = scratch_dir("periodic-checkpoint");
        let ds = running_example();
        let opened = crate::wal::Wal::open(&dir.join("d.wal"), ds.dims(), 0).unwrap();
        let config = DaemonConfig {
            threads: Parallelism::sequential(),
            ..DaemonConfig::default()
        };
        let d = Daemon::new(StellarEngine::new(&ds), config).with_wal(opened.wal, 0, Some(2));
        exchange(&d, "insert 9 0 11 9\n");
        assert_eq!(d.metrics().checkpoints, 0);
        exchange(&d, "insert 8 1 10 8\n");
        let m = d.metrics();
        assert_eq!((m.checkpoints, m.wal_records), (1, 0));
        exchange(&d, "delete 6\n");
        assert_eq!(d.metrics().wal_records, 1, "policy resets after firing");
    }
}
