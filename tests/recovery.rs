//! Crash-recovery integration tests for the durable daemon: a `SIGKILL`
//! mid-mutation-stream must lose nothing that was fsync'd — the restarted
//! daemon answers every one of the 31 five-dimensional subspaces exactly
//! as a clean run over the replayed prefix would — and property tests pin
//! replay ≡ rebuild plus never-panic handling of torn/garbled WAL tails.

use proptest::collection::vec;
use proptest::prelude::*;
use skycube::prelude::*;
use skycube::stellar::Stellar;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_skycube")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skycube-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// One client exchange over the daemon's Unix socket: send, half-close,
/// read the full reply.
fn roundtrip(path: &Path, input: &str) -> String {
    let mut stream = UnixStream::connect(path).expect("connect");
    stream.write_all(input.as_bytes()).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("receive");
    out
}

/// Spawn `skycube serve` on `socket` with a WAL and wait until it accepts
/// connections.
fn spawn_serve(data: &Path, wal: &Path, socket: &Path, threads: &str) -> Child {
    let mut child = Command::new(bin())
        .args([
            "serve",
            "--data",
            data.to_str().unwrap(),
            "--wal",
            wal.to_str().unwrap(),
            "--socket",
            socket.to_str().unwrap(),
            "--threads",
            threads,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // The socket file appears at bind(2), before listen(2), and a connect
    // in between is refused; so readiness is a connect that succeeds. The
    // probe sends nothing and reads to the end, which the daemon treats as
    // an empty connection.
    for _ in 0..2000 {
        match UnixStream::connect(socket) {
            Ok(mut probe) => {
                probe
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close probe");
                probe
                    .read_to_string(&mut String::new())
                    .expect("drain probe");
                return child;
            }
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("probing {socket:?}: {e}"),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon never accepted on {socket:?}");
}

/// A mutation as both a protocol line and a library-API application.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Value>),
    Delete(ObjId),
}

impl Op {
    fn line(&self) -> String {
        match self {
            Op::Insert(row) => format!(
                "insert {}\n",
                row.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            Op::Delete(id) => format!("delete {id}\n"),
        }
    }

    fn apply(&self, engine: &mut StellarEngine) {
        match self {
            Op::Insert(row) => {
                engine.insert(row.clone()).expect("reference insert");
            }
            Op::Delete(id) => {
                engine.delete(*id).expect("reference delete");
            }
        }
    }
}

/// The ordered mutation stream the SIGKILL test drives: six acknowledged
/// mutations, then twenty streamed without reading acks (the kill lands
/// somewhere inside those). Deletes only name small ids so every prefix
/// of the stream applies cleanly to the 120-object base dataset.
fn mutation_stream() -> (Vec<Op>, Vec<Op>) {
    let acked = vec![
        Op::Insert(vec![1, 2, 3, 4, 5]),
        Op::Insert(vec![0, 9, 9, 9, 9]),
        Op::Delete(0),
        Op::Insert(vec![3, 3, 3, 3, 3]),
        Op::Delete(5),
        Op::Insert(vec![7, 1, 7, 1, 7]),
    ];
    let mut streamed = Vec::new();
    for i in 0..20i64 {
        if i % 5 == 4 {
            streamed.push(Op::Delete(i as ObjId));
        } else {
            streamed.push(Op::Insert(vec![i, i + 1, i + 2, i + 3, i + 4]));
        }
    }
    (acked, streamed)
}

/// Scrape one integer metric from a `stats` reply.
fn metric(scrape: &str, name: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from scrape:\n{scrape}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

/// `SIGKILL` the daemon mid-mutation-stream, restart it on the same WAL,
/// and require the recovered cube to answer all 31 subspaces exactly as a
/// clean engine run over the replayed prefix — at one and four threads.
#[test]
fn sigkill_mid_mutation_stream_recovers_exactly_on_all_31_subspaces() {
    let dir = tmpdir("sigkill");
    let data = dir.join("data.csv");
    let ds = generate(Distribution::Independent, 120, 5, 23);
    skycube::datagen::save_csv(&ds, &data).expect("write csv");
    let (acked, streamed) = mutation_stream();

    for threads in ["1", "4"] {
        let tag = format!("threads-{threads}");
        let wal = dir.join(format!("{tag}.wal"));
        let socket = dir.join(format!("{tag}.sock"));
        let mut child = spawn_serve(&data, &wal, &socket, threads);

        // Phase 1: mutations the client read acks for — durable, period.
        let lines: String = acked.iter().map(Op::line).collect();
        let replies = roundtrip(&socket, &lines);
        assert_eq!(
            replies.lines().count(),
            acked.len(),
            "not every acked mutation was answered ({tag}):\n{replies}"
        );
        assert!(
            replies.lines().all(|l| l.contains("generation")),
            "a mutation was refused ({tag}):\n{replies}"
        );

        // Phase 2: stream more mutations without reading acks, then
        // SIGKILL the daemon while they are in flight.
        let mut stream = UnixStream::connect(&socket).expect("connect stream");
        for op in &streamed {
            stream.write_all(op.line().as_bytes()).expect("stream op");
        }
        stream.flush().expect("flush stream");
        std::thread::sleep(Duration::from_millis(80));
        child.kill().expect("SIGKILL");
        child.wait().expect("reap child");
        drop(stream);

        // Restart on the same WAL. The daemon replaces the stale socket
        // file the kill left behind, and connects to it are refused until
        // then.
        let mut revived = spawn_serve(&data, &wal, &socket, threads);
        let scrape = roundtrip(&socket, "stats\n");
        let replayed = metric(&scrape, "wal_replayed");
        assert!(
            replayed >= acked.len() as u64,
            "an acknowledged mutation was lost ({tag}): replayed {replayed}"
        );
        assert!(
            replayed <= (acked.len() + streamed.len()) as u64,
            "more records than were ever sent ({tag}): replayed {replayed}"
        );
        assert_eq!(metric(&scrape, "generation"), replayed, "{tag}");

        // Reference: a clean engine run over exactly the durable prefix.
        let mut reference = StellarEngine::new(&ds);
        for op in acked.iter().chain(&streamed).take(replayed as usize) {
            op.apply(&mut reference);
        }
        let spaces: Vec<DimMask> = ds.full_space().subsets().collect();
        assert_eq!(spaces.len(), 31);
        let workload: String = spaces.iter().map(|s| format!("skyline {s}\n")).collect();
        let queries = parse_workload(&workload).unwrap();
        let source = IndexedCubeSource::new(reference.cube());
        let outcome = run_batch(&source, &queries, Parallelism::sequential());
        let expect: String = queries
            .iter()
            .zip(&outcome.answers)
            .map(|(q, a)| format_answer(q, a) + "\n")
            .collect();
        let got = roundtrip(&socket, &workload);
        assert_eq!(
            got, expect,
            "recovered cube diverged from the clean run ({tag})"
        );

        let bye = roundtrip(&socket, "shutdown\n");
        assert_eq!(bye, "", "{tag}");
        revived.wait().expect("clean exit");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered engine takes its seeds from the checkpoint's cube. When the
/// first replayed record changes them — a seed insert in one log, a seed
/// delete in the other — the new seeds are re-derived from the stored
/// ones, and the recovered cube must equal a from-scratch build of the
/// recovered rows.
#[test]
fn first_replayed_seed_change_rederives_from_the_checkpoint_cube() {
    let ds = generate(Distribution::AntiCorrelated, 300, 4, 7);
    for case in ["insert", "delete"] {
        let dir = tmpdir(&format!("seed-{case}"));
        let path = dir.join("d.wal");
        let mut live = StellarEngine::new(&ds);
        // Two writes before the checkpoint, so it is not the base data.
        Op::Insert(vec![900, 900, 900, 900]).apply(&mut live);
        Op::Delete(3).apply(&mut live);
        skycube::serve::wal::write_checkpoint(&path, live.rows(), live.cube(), 2)
            .expect("write checkpoint");
        let mut wal = Wal::create(&path, ds.dims(), 2).expect("create wal");
        let seed = live.cube().seeds()[0];
        let first = match case {
            "insert" => {
                let mut row = live.row(seed).to_vec();
                row[0] -= 1;
                Op::Insert(row)
            }
            _ => Op::Delete(seed),
        };
        // Then a dominated insert and a non-seed delete: the patch paths
        // run on the lattice the first record rebuilt.
        for step in 0..3 {
            let op = match step {
                0 => first.clone(),
                1 => Op::Insert(vec![950, 950, 950, 950]),
                _ => Op::Delete(
                    (0..live.len() as ObjId)
                        .find(|o| live.cube().seeds().binary_search(o).is_err())
                        .expect("a non-seed"),
                ),
            };
            match &op {
                Op::Insert(row) => wal.append_insert(row),
                Op::Delete(id) => wal.append_delete(*id),
            }
            .expect("append");
            op.apply(&mut live);
        }
        drop(wal);
        let rec = skycube::serve::recover(&path, &ds, Stellar::new()).expect("recover");
        assert!(rec.from_checkpoint, "{case}: the checkpoint was not used");
        assert_eq!(rec.replayed, 3, "{case}");
        let stats = rec.engine.maintenance_stats();
        assert_eq!(
            (stats.full(), stats.fast()),
            (1, 2),
            "{case}: only the first record changes the seeds: {stats:?}"
        );
        assert_eq!(rec.engine.rows(), live.rows(), "{case}");
        let fresh = compute_cube(rec.engine.rows());
        assert_eq!(rec.engine.cube().seeds(), fresh.seeds(), "{case}");
        assert_eq!(
            skycube_types::normalize_groups(rec.engine.cube().groups().to_vec()),
            skycube_types::normalize_groups(fresh.groups().to_vec()),
            "{case}: the recovered groups differ from a fresh build"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint written before binary format version 2 still recovers: its
/// cube file is the version-1 test fixture, whose rows the checkpoint
/// holds, and the recovered engine serves that cube and patches it.
#[cfg(target_endian = "little")]
#[test]
fn a_version_1_checkpoint_cube_still_recovers() {
    let ds = generate(Distribution::Independent, 300, 4, 7);
    let dir = tmpdir("v1-checkpoint");
    let path = dir.join("d.wal");
    let cube = compute_cube(&ds);
    skycube::serve::wal::write_checkpoint(&path, &ds, &cube, 1).expect("write checkpoint");
    std::fs::write(
        dir.join("d.wal.ckpt1.cube"),
        include_bytes!("../crates/stellar/testdata/cube-v1-independent-300x4-seed7.bin"),
    )
    .expect("swap in the version-1 cube");
    let mut wal = Wal::create(&path, ds.dims(), 1).expect("create wal");
    wal.append_delete(0).expect("append");
    drop(wal);
    let rec = skycube::serve::recover(&path, &ds, Stellar::new()).expect("recover");
    assert!(rec.from_checkpoint, "the checkpoint was not used");
    assert_eq!(rec.replayed, 1);
    let fresh = compute_cube(rec.engine.rows());
    for space in ds.full_space().subsets() {
        assert_eq!(
            rec.engine.cube().subspace_skyline(space),
            fresh.subspace_skyline(space),
            "{space}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property tests: replay ≡ rebuild, torn tails never panic
// ---------------------------------------------------------------------------

/// Fresh WAL path per proptest case (cases run concurrently).
fn case_path(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("skycube-recovery-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create prop dir");
    dir.join(format!("{name}-{n}.wal"))
}

/// Strategy: a raw mutation stream (`kind == 0` is an insert). Deletes
/// carry an arbitrary draw that is reduced modulo the live object count
/// at apply time (or skipped on an empty dataset), so every generated
/// stream is applicable.
fn raw_ops(dims: usize) -> impl Strategy<Value = Vec<(u8, Vec<Value>, u32)>> {
    vec((0u8..2, vec(0i64..8, dims), 0u32..1024), 0..12)
}

/// Drive `ops` through an engine and its WAL; returns the applied ops.
fn apply_ops(engine: &mut StellarEngine, wal: &mut Wal, ops: &[(u8, Vec<Value>, u32)]) -> Vec<Op> {
    let mut applied = Vec::new();
    for (kind, row, raw) in ops {
        if *kind == 0 {
            wal.append_insert(row).unwrap();
            engine.insert(row.clone()).unwrap();
            applied.push(Op::Insert(row.clone()));
        } else if !engine.is_empty() {
            let id = (raw % engine.len() as u32) as ObjId;
            wal.append_delete(id).unwrap();
            engine.delete(id).unwrap();
            applied.push(Op::Delete(id));
        }
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recovered engine answers every subspace exactly as the engine
    /// that executed the stream live.
    #[test]
    fn replayed_wal_equals_clean_run(ops in raw_ops(3), seed in 0u64..512) {
        let ds = generate(Distribution::Independent, 12, 3, seed);
        let path = case_path("replay");
        let mut reference = StellarEngine::new(&ds);
        let mut wal = Wal::create(&path, ds.dims(), 0).unwrap();
        let applied = apply_ops(&mut reference, &mut wal, &ops);
        drop(wal);
        let rec = skycube::serve::recover(&path, &ds, Stellar::new()).unwrap();
        prop_assert_eq!(rec.replayed, applied.len() as u64);
        prop_assert_eq!(rec.engine.generation(), reference.generation());
        for space in ds.full_space().subsets() {
            prop_assert_eq!(
                rec.engine.cube().subspace_skyline(space),
                reference.cube().subspace_skyline(space),
                "subspace {} diverged after replay", space
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Any truncation and/or byte garbling of the log must be survived
    /// without a panic: either a structured corruption error, or a clean
    /// recovery of exactly the valid record prefix.
    #[test]
    fn torn_or_garbled_wal_tails_never_panic(
        ops in raw_ops(3),
        seed in 0u64..512,
        cut in 0usize..4097,
        flips in vec((0usize..4096, 0u32..8), 0..3),
    ) {
        let ds = generate(Distribution::Independent, 12, 3, seed);
        let path = case_path("torn");
        let mut live = StellarEngine::new(&ds);
        let mut wal = Wal::create(&path, ds.dims(), 0).unwrap();
        let applied = apply_ops(&mut live, &mut wal, &ops);
        drop(wal);

        // Maul the file: truncate somewhere (a cut that lands on the full
        // length leaves the file whole), then flip bits anywhere.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(cut % (bytes.len() + 1));
        for (at, bit) in &flips {
            if !bytes.is_empty() {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
        }
        std::fs::write(&path, &bytes).unwrap();

        match skycube::serve::recover(&path, &ds, Stellar::new()) {
            Ok(rec) => {
                // Whatever survived must be a prefix of the stream,
                // replayed into an engine identical to a clean run over
                // that prefix.
                prop_assert!(rec.replayed <= applied.len() as u64);
                let mut reference = StellarEngine::new(&ds);
                for op in applied.iter().take(rec.replayed as usize) {
                    op.apply(&mut reference);
                }
                for space in ds.full_space().subsets() {
                    prop_assert_eq!(
                        rec.engine.cube().subspace_skyline(space),
                        reference.cube().subspace_skyline(space),
                        "prefix replay diverged in {}", space
                    );
                }
            }
            // Structured refusal is the other legal outcome (e.g. a
            // garbled header) — the contract is only "never a panic,
            // never a silently wrong cube".
            Err(e) => prop_assert_eq!(e.kind(), "corrupt-cube"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
