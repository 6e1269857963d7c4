//! Integration tests for the resident serve daemon: concurrent socket
//! clients must see byte-identical answers to a one-shot [`run_batch`]
//! at any thread count, and a mid-stream mutation must bump the
//! generation and refresh every subsequent answer.

use skycube::prelude::*;
use skycube::stellar::Stellar;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn dataset() -> Dataset {
    generate(Distribution::Independent, 300, 4, 11)
}

/// Every query family the protocol serves, including a k ≥ 2 skyband
/// (answered through the daemon's dataset-backed fallback rung).
const WORKLOAD: &str = "skyline ABD\nskyline BD\nskyband 1 AB\nskyband 2 BD\n\
                        member 17 ABD\ncount 17\ntop 3\nskyline ABCD\n";

/// The reference transcript: the same workload through the one-shot batch
/// path (indexed cube + direct fallback), rendered by [`format_answer`] —
/// exactly what the daemon's protocol replies must equal, byte for byte.
fn expected_transcript(ds: &Dataset) -> String {
    let cube = Stellar::new().compute(ds);
    let indexed = IndexedCubeSource::new(&cube);
    let direct = DirectSource::new(ds);
    let ladder = FallbackSource::new(&indexed).then(&direct);
    let queries = parse_workload(WORKLOAD).unwrap();
    let outcome = run_batch(&ladder, &queries, Parallelism::sequential());
    queries
        .iter()
        .zip(&outcome.answers)
        .map(|(q, a)| format_answer(q, a) + "\n")
        .collect()
}

/// Start a daemon listening on a fresh Unix socket; returns when the
/// socket is accepting.
fn start_daemon(
    ds: &Dataset,
    threads: usize,
    name: &str,
) -> (Arc<Daemon>, PathBuf, std::thread::JoinHandle<()>) {
    let engine = StellarEngine::new(ds);
    let config = DaemonConfig {
        threads: Parallelism::new(threads),
        ..DaemonConfig::default()
    };
    let daemon = Arc::new(Daemon::new(engine, config));
    let path = std::env::temp_dir().join(format!(
        "skycube-daemon-test-{}-{name}.sock",
        std::process::id()
    ));
    let listener = Arc::clone(&daemon);
    let at = path.clone();
    let handle = std::thread::spawn(move || listener.listen_unix(&at).expect("listener failed"));
    // The socket file appears at bind(2), before listen(2), and a connect
    // in between is refused; so readiness is a connect that succeeds. The
    // probe is an empty connection, read to its end so that the daemon has
    // counted it before this returns.
    for _ in 0..1000 {
        match UnixStream::connect(&path) {
            Ok(mut probe) => {
                probe
                    .shutdown(std::net::Shutdown::Write)
                    .expect("half-close probe");
                probe
                    .read_to_string(&mut String::new())
                    .expect("drain probe");
                return (daemon, path, handle);
            }
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("probing {path:?}: {e}"),
        }
    }
    panic!("daemon never accepted on {path:?}");
}

/// One client exchange: send `input`, half-close, read the full reply.
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

fn shut_down(daemon: &Arc<Daemon>, path: &Path, handle: std::thread::JoinHandle<()>) {
    let reply = roundtrip(path, "shutdown\n");
    assert_eq!(reply, "", "shutdown itself answers nothing: {reply:?}");
    handle.join().expect("listener thread");
    assert!(daemon.is_shutting_down());
    assert!(!path.exists(), "socket file survived shutdown");
}

#[test]
fn concurrent_socket_clients_match_run_batch_across_threads() {
    let ds = dataset();
    let expect = expected_transcript(&ds);
    for threads in [1usize, 4] {
        let name = format!("match-{threads}");
        let (daemon, path, handle) = start_daemon(&ds, threads, &name);
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let path = path.clone();
                std::thread::spawn(move || roundtrip(&path, WORKLOAD))
            })
            .collect();
        for client in clients {
            let transcript = client.join().expect("client thread");
            assert_eq!(
                transcript, expect,
                "daemon transcript diverged from run_batch ({threads} threads)"
            );
        }
        let metrics = daemon.metrics();
        // The four clients plus the readiness probe.
        assert_eq!(metrics.connections, 1 + 4);
        assert_eq!(metrics.queries, 4 * 8);
        assert_eq!(metrics.errors, 0);
        shut_down(&daemon, &path, handle);
    }
}

#[test]
fn midstream_insert_bumps_generation_and_refreshes_answers() {
    let ds = dataset();
    let (daemon, path, handle) = start_daemon(&ds, 1, "maintain");
    let before = roundtrip(&path, "skyline A\n");

    // The expected post-insert answer, computed on an independent engine
    // pushed through the same mutation.
    let mut reference = StellarEngine::new(&ds);
    let id = reference.insert(vec![0, 0, 0, 0]).unwrap();
    let sky = reference
        .cube()
        .try_subspace_skyline(DimMask::parse("A").unwrap())
        .unwrap();
    let after_expect = format!(
        "skyline A -> {}\n",
        sky.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    );

    let reply = roundtrip(&path, "insert 0 0 0 0\n");
    assert_eq!(reply, format!("insert -> id {id} generation 1\n"));
    let after = roundtrip(&path, "skyline A\n");
    assert_eq!(after, after_expect, "stale answer served after insert");
    assert!(after.contains(&id.to_string()), "{after:?}");

    let scrape = roundtrip(&path, "stats\n");
    for needle in ["generation 1", "inserts_total 1", "shed_total 0"] {
        assert!(
            scrape.lines().any(|l| l == needle),
            "missing {needle:?} in scrape:\n{scrape}"
        );
    }

    let reply = roundtrip(&path, &format!("delete {id}\n"));
    assert_eq!(reply, format!("delete -> id {id} generation 2\n"));
    let restored = roundtrip(&path, "skyline A\n");
    assert_eq!(
        restored, before,
        "delete did not restore the original answer"
    );
    shut_down(&daemon, &path, handle);
}

#[test]
fn quit_closes_one_connection_and_the_daemon_survives() {
    let ds = dataset();
    let (daemon, path, handle) = start_daemon(&ds, 1, "quit");
    let reply = roundtrip(&path, "skyline A\nquit\nskyline BD\n");
    assert!(reply.starts_with("skyline A -> "), "{reply:?}");
    assert!(
        !reply.contains("skyline BD"),
        "lines after quit were served: {reply:?}"
    );
    assert!(!daemon.is_shutting_down(), "quit must not stop the daemon");
    // The daemon still answers a fresh connection.
    let again = roundtrip(&path, "count 17\n");
    assert_eq!(again, "count 17 -> 0\n");
    shut_down(&daemon, &path, handle);
}

// ---------------------------------------------------------------------------
// Bounded worker pool: TCP + Unix listeners, shed, reap, graceful drain
// ---------------------------------------------------------------------------

/// Start a daemon on a fresh Unix socket AND a loopback TCP port through
/// the bounded worker pool. Both listeners are bound here, before the
/// serving thread spawns, so no readiness polling is needed — the OS
/// queues connections until the accept loops come up.
fn start_bound(
    ds: &Dataset,
    pool: PoolConfig,
    name: &str,
) -> (
    Arc<Daemon>,
    PathBuf,
    SocketAddr,
    std::thread::JoinHandle<()>,
) {
    let engine = StellarEngine::new(ds);
    let daemon = Arc::new(Daemon::new(engine, DaemonConfig::default()));
    let path = std::env::temp_dir().join(format!(
        "skycube-daemon-pool-{}-{name}.sock",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let unix = std::os::unix::net::UnixListener::bind(&path).expect("bind unix");
    let tcp = TcpListener::bind("127.0.0.1:0").expect("bind tcp");
    let addr = tcp.local_addr().expect("tcp local addr");
    let server = Arc::clone(&daemon);
    let at = path.clone();
    let handle = std::thread::spawn(move || {
        server
            .serve_bound(Some((unix, at)), Some(tcp), pool)
            .expect("serve_bound failed");
    });
    (daemon, path, addr, handle)
}

/// One TCP client exchange, mirroring [`roundtrip`].
fn tcp_roundtrip(addr: SocketAddr, input: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect tcp");
    stream.write_all(input.as_bytes()).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("receive");
    out
}

/// Stop a pooled daemon via the protocol and join its serving thread.
fn shut_down_bound(daemon: &Arc<Daemon>, path: &Path, handle: std::thread::JoinHandle<()>) {
    let reply = roundtrip(path, "shutdown\n");
    assert_eq!(reply, "", "shutdown itself answers nothing: {reply:?}");
    handle.join().expect("serving thread");
    assert!(daemon.is_shutting_down());
    assert!(!path.exists(), "socket file survived shutdown");
}

#[test]
fn tcp_and_unix_clients_get_identical_transcripts() {
    let ds = dataset();
    let expect = expected_transcript(&ds);
    let (daemon, path, addr, handle) = start_bound(&ds, PoolConfig::default(), "tcp");
    let over_tcp = tcp_roundtrip(addr, WORKLOAD);
    let over_unix = roundtrip(&path, WORKLOAD);
    assert_eq!(over_tcp, expect, "tcp transcript diverged from run_batch");
    assert_eq!(over_unix, expect, "unix transcript diverged from run_batch");
    let metrics = daemon.metrics();
    assert_eq!(metrics.connections, 2);
    assert_eq!(metrics.queries, 2 * 8);
    assert_eq!(metrics.errors, 0);
    shut_down_bound(&daemon, &path, handle);
}

#[test]
fn overload_burst_sheds_with_resource_exhausted_and_queued_work_survives() {
    let ds = dataset();
    let pool = PoolConfig {
        workers: 1,
        backlog: 1,
        ..PoolConfig::default()
    };
    let (daemon, path, addr, handle) = start_bound(&ds, pool, "shed");
    // A occupies the only worker (it holds the connection open, sending
    // nothing), B fills the one-slot backlog, so C must be shed with a
    // structured refusal instead of queueing past the bound.
    let a = TcpStream::connect(addr).expect("conn a");
    std::thread::sleep(Duration::from_millis(300));
    let mut b = TcpStream::connect(addr).expect("conn b");
    b.write_all(b"count 17\n").expect("send b");
    b.shutdown(std::net::Shutdown::Write).expect("half-close b");
    std::thread::sleep(Duration::from_millis(300));
    let mut c = TcpStream::connect(addr).expect("conn c");
    let mut refusal = String::new();
    c.read_to_string(&mut refusal).expect("read refusal");
    assert!(
        refusal.contains("resource exhausted") && refusal.contains("backlog full"),
        "shed reply not a structured refusal: {refusal:?}"
    );
    assert!(daemon.metrics().pool_shed >= 1, "shed went uncounted");
    // Dropping A frees the worker: the queued connection is served, not
    // dropped — shedding only ever refuses what never fit the bound.
    drop(a);
    let mut reply = String::new();
    b.read_to_string(&mut reply).expect("read b");
    assert_eq!(reply, "count 17 -> 0\n");
    shut_down_bound(&daemon, &path, handle);
}

#[test]
fn idle_connections_are_reaped_after_the_idle_timeout() {
    let ds = dataset();
    let pool = PoolConfig {
        idle_timeout: Duration::from_millis(100),
        ..PoolConfig::default()
    };
    let (daemon, path, addr, handle) = start_bound(&ds, pool, "reap");
    let mut idler = TcpStream::connect(addr).expect("connect");
    let mut out = String::new();
    idler.read_to_string(&mut out).expect("read");
    assert_eq!(out, "", "reaped connection was answered: {out:?}");
    assert_eq!(daemon.metrics().connections_reaped, 1);
    // The reap freed the worker; fresh traffic is unaffected.
    assert_eq!(tcp_roundtrip(addr, "count 17\n"), "count 17 -> 0\n");
    shut_down_bound(&daemon, &path, handle);
}

#[test]
fn shutdown_drains_inflight_connections_without_dropping_queries() {
    let ds = dataset();
    let expect = expected_transcript(&ds);
    let pool = PoolConfig {
        workers: 1,
        ..PoolConfig::default()
    };
    let (daemon, path, addr, handle) = start_bound(&ds, pool, "drain");
    // A is adopted by the only worker; the shutdown arrives on B, queued
    // behind it — the daemon is told to stop while A is mid-flight.
    let mut a = TcpStream::connect(addr).expect("conn a");
    std::thread::sleep(Duration::from_millis(200));
    let mut b = TcpStream::connect(addr).expect("conn b");
    b.write_all(b"shutdown\n").expect("send shutdown");
    b.shutdown(std::net::Shutdown::Write).expect("half-close b");
    std::thread::sleep(Duration::from_millis(200));
    // Every in-flight query still gets its answer before the stop.
    a.write_all(WORKLOAD.as_bytes()).expect("send workload");
    a.shutdown(std::net::Shutdown::Write).expect("half-close a");
    let mut transcript = String::new();
    a.read_to_string(&mut transcript).expect("read a");
    assert_eq!(transcript, expect, "drain dropped in-flight queries");
    let mut out = String::new();
    b.read_to_string(&mut out).expect("read b");
    assert_eq!(out, "", "shutdown itself answers nothing: {out:?}");
    handle.join().expect("serving thread");
    assert!(daemon.is_shutting_down());
    assert!(!path.exists(), "socket file survived shutdown");
    assert_eq!(daemon.metrics().errors, 0);
}
