//! `serve` — the resident daemon against repeated one-shot processes.
//!
//! The tentpole claim of `skycube serve` is that keeping one warm engine —
//! serving index, subspace cache, scratch pool — resident
//! across requests beats paying process start-up, cube load and index
//! validation on every invocation. This harness measures exactly that:
//!
//! - **one-shot (cold)**: R repetitions of `skycube query --data data.csv`,
//!   one process per repetition, each paying the engine build — the state a
//!   daemon exists to keep;
//! - **one-shot (prebuilt)**: the same R processes given a prebuilt binary
//!   cube (`--cube cube.bin`, zero-copy load) — the cheapest possible cold
//!   start, reported alongside so the spawn-and-load floor is visible;
//! - **daemon**: one `skycube serve --data … --socket …`, then the same R
//!   repetitions as socket round trips against the warm state.
//!
//! `--verify` additionally pins correctness: the daemon's protocol replies
//! must be byte-identical to an in-process [`run_batch`] over every
//! non-empty subspace.
//!
//! Defaults are scaled down; `--full` runs the acceptance workload
//! (n = 1 000 000, d = 5).

use skycube_bench::{header, secs, write_json_report, HarnessArgs, JsonRecord};
use skycube_datagen::{generate, save_csv, Distribution};
use skycube_parallel::Parallelism;
use skycube_serve::{format_answer, parse_workload, run_batch, IndexedCubeSource};
use skycube_stellar::Stellar;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The `skycube` binary, expected next to this harness in the target dir.
fn skycube_bin() -> PathBuf {
    let me = std::env::current_exe().unwrap_or_else(|e| die(&format!("current_exe: {e}")));
    let bin = me
        .parent()
        .map(|d| d.join("skycube"))
        .filter(|p| p.exists());
    match bin {
        Some(p) => p,
        None => die("skycube binary not found next to the bench harness; build it first"),
    }
}

/// One `skyline` query per non-empty subspace of a `d`-dimensional space.
fn all_subspaces_workload(d: usize) -> String {
    let mut wl = String::new();
    for mask in 1u32..(1 << d) {
        wl.push_str("skyline ");
        for dim in 0..d {
            if mask & (1 << dim) != 0 {
                wl.push((b'A' + dim as u8) as char);
            }
        }
        wl.push('\n');
    }
    wl
}

/// Send `input` to the daemon, half-close, read the whole reply.
fn roundtrip(socket: &Path, input: &str) -> String {
    let mut stream =
        UnixStream::connect(socket).unwrap_or_else(|e| die(&format!("connect {socket:?}: {e}")));
    stream
        .write_all(input.as_bytes())
        .and_then(|()| stream.shutdown(std::net::Shutdown::Write))
        .unwrap_or_else(|e| die(&format!("send: {e}")));
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .unwrap_or_else(|e| die(&format!("receive: {e}")));
    out
}

/// Spawn `skycube serve` and wait until its socket accepts (the engine
/// build happens before the listener binds, so accept == warm).
// The returned child is reaped by `stop_daemon`; the lint can't see
// across the function boundary.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(bin: &Path, csv: &Path, socket: &Path, extra: &[&str]) -> Child {
    let mut child = Command::new(bin)
        .arg("serve")
        .arg("--data")
        .arg(csv)
        .arg("--socket")
        .arg(socket)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| die(&format!("spawning daemon: {e}")));
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        if UnixStream::connect(socket).is_ok() {
            return child;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            die("daemon never became ready");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn stop_daemon(socket: &Path, mut child: Child) {
    let _ = roundtrip(socket, "shutdown\n");
    let _ = child.wait();
}

/// Scrape one `name value` metric from a `stats` round trip.
fn metric(scrape: &str, name: &str) -> i64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or_else(|| die(&format!("metric {name:?} missing from stats scrape")))
}

fn main() {
    let args = HarnessArgs::parse();
    let (n, d, reps) = if args.full {
        (1_000_000usize, 5usize, 5usize)
    } else if args.smoke {
        (5_000, 4, 3)
    } else {
        (100_000, 5, 3)
    };
    header("Resident daemon vs one-shot processes", args.full);

    let bin = skycube_bin();
    let dir = std::env::temp_dir().join(format!("skycube-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&format!("mkdir {dir:?}: {e}")));
    let csv = dir.join("data.csv");
    let cube = dir.join("cube.bin");
    let wl_path = dir.join("workload.txt");

    let ds = generate(Distribution::Independent, n, d, 42);
    save_csv(&ds, &csv).unwrap_or_else(|e| die(&format!("save_csv: {e}")));
    let workload = all_subspaces_workload(d);
    let queries_per_rep = workload.lines().count();
    std::fs::write(&wl_path, &workload).unwrap_or_else(|e| die(&format!("workload: {e}")));

    // The one-shot side gets its best case: a prebuilt binary cube whose
    // serving index loads zero-copy.
    let t = Instant::now();
    let status = Command::new(&bin)
        .args(["build", "--format", "binary", "--data"])
        .arg(&csv)
        .arg("--out")
        .arg(&cube)
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| die(&format!("build: {e}")));
    if !status.success() {
        die("cube build failed");
    }
    let build_seconds = t.elapsed().as_secs_f64();
    println!(
        "workload: n={n} d={d}, {queries_per_rep} subspace skylines × {reps} reps \
         (cube built in {})",
        secs(build_seconds)
    );

    // --- one-shot: R fresh processes per baseline ------------------------
    let oneshot = |source_args: &[&std::ffi::OsStr]| -> f64 {
        let t = Instant::now();
        for _ in 0..reps {
            let out = Command::new(&bin)
                .arg("query")
                .args(source_args)
                .arg("--workload")
                .arg(&wl_path)
                .stdout(Stdio::piped())
                .output()
                .unwrap_or_else(|e| die(&format!("one-shot query: {e}")));
            if !out.status.success() {
                die("one-shot query failed");
            }
        }
        t.elapsed().as_secs_f64()
    };
    let cold_seconds = oneshot(&["--data".as_ref(), csv.as_os_str()]);
    let prebuilt_seconds = oneshot(&["--cube".as_ref(), cube.as_os_str()]);

    // --- daemon: one warm process, R socket round trips ------------------
    let socket = dir.join("daemon.sock");
    let daemon = spawn_daemon(&bin, &csv, &socket, &[]);
    let t = Instant::now();
    let mut transcript = String::new();
    for _ in 0..reps {
        transcript = roundtrip(&socket, &workload);
    }
    let daemon_seconds = t.elapsed().as_secs_f64();
    let scrape = roundtrip(&socket, "stats\n");
    let served = metric(&scrape, "queries_total");
    let shed = metric(&scrape, "shed_total");

    // --- daemon + WAL: the same reps with durability on ------------------
    // Same read workload (so the numbers are comparable), then two
    // mutations after the clock stops to prove the fsync path is live.
    let socket_wal = dir.join("daemon-wal.sock");
    let wal_path = dir.join("daemon.wal");
    let daemon_wal = spawn_daemon(
        &bin,
        &csv,
        &socket_wal,
        &["--wal", wal_path.to_str().unwrap()],
    );
    let t = Instant::now();
    for _ in 0..reps {
        let _ = roundtrip(&socket_wal, &workload);
    }
    let daemon_wal_seconds = t.elapsed().as_secs_f64();
    let mutation = format!("insert {}\ndelete 0\n", vec!["1"; d].join(" "));
    let _ = roundtrip(&socket_wal, &mutation);
    let scrape_wal = roundtrip(&socket_wal, "stats\n");
    let wal_records = metric(&scrape_wal, "wal_records");
    stop_daemon(&socket_wal, daemon_wal);
    let wal_ratio = daemon_wal_seconds / daemon_seconds;

    // --- overload burst: the bounded pool sheds, never queues unboundedly
    let socket_burst = dir.join("daemon-burst.sock");
    let burst_daemon = spawn_daemon(
        &bin,
        &csv,
        &socket_burst,
        &["--workers", "1", "--backlog", "1"],
    );
    // Barrier: a full served round trip proves the worker is free and the
    // queue is empty (the readiness probe's connection has fully drained)
    // before the pins land — otherwise the pins race daemon startup. A
    // barrier attempt can itself be shed by that same race (read reset or
    // an explicit refusal), so retry until one is actually served.
    for attempt in 0.. {
        let mut stream = UnixStream::connect(&socket_burst)
            .unwrap_or_else(|e| die(&format!("barrier connect: {e}")));
        let sent = stream
            .write_all(b"stats\n")
            .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
        let mut reply = String::new();
        let served = sent.is_ok()
            && stream.read_to_string(&mut reply).is_ok()
            && reply.contains("queries_total");
        if served {
            break;
        }
        if attempt > 100 {
            die("burst daemon never served a barrier round trip");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // One idle connection pins the single worker, a second fills the
    // one-slot backlog; every connection in the burst after that must be
    // refused with a structured reply, not silently queued or hung.
    let pin_worker =
        UnixStream::connect(&socket_burst).unwrap_or_else(|e| die(&format!("pin worker: {e}")));
    std::thread::sleep(Duration::from_millis(300));
    let pin_backlog =
        UnixStream::connect(&socket_burst).unwrap_or_else(|e| die(&format!("pin backlog: {e}")));
    std::thread::sleep(Duration::from_millis(300));
    let mut burst_shed = 0i64;
    for _ in 0..4 {
        if roundtrip(&socket_burst, "").contains("resource exhausted") {
            burst_shed += 1;
        }
    }
    drop(pin_worker);
    drop(pin_backlog);
    std::thread::sleep(Duration::from_millis(200));
    let scrape_burst = roundtrip(&socket_burst, "stats\n");
    let pool_shed = metric(&scrape_burst, "pool_shed_connections");
    stop_daemon(&socket_burst, burst_daemon);

    // --- verify: daemon ≡ batch ------------------------------------------
    let mut verified_subspaces = 0i64;
    if args.verify {
        let queries = parse_workload(&workload).unwrap_or_else(|e| die(&format!("workload: {e}")));
        let stellar_cube = Stellar::new().compute(&ds);
        let source = IndexedCubeSource::new(&stellar_cube);
        let outcome = run_batch(&source, &queries, Parallelism::available());
        let expect: String = queries
            .iter()
            .zip(&outcome.answers)
            .map(|(q, a)| format_answer(q, a) + "\n")
            .collect();
        if transcript != expect {
            die("daemon transcript diverged from in-process run_batch");
        }
        verified_subspaces = queries_per_rep as i64;
        if wal_records != 2 {
            die(&format!(
                "wal daemon logged {wal_records} records, expected 2 (insert + delete)"
            ));
        }
        if burst_shed < 1 || pool_shed < burst_shed {
            die(&format!(
                "overload burst did not shed: {burst_shed} refusals seen, \
                 {pool_shed} counted by the daemon"
            ));
        }
        println!("verified: {verified_subspaces} subspace answers ≡ run_batch");
    }
    stop_daemon(&socket, daemon);

    let per_daemon = daemon_seconds / reps as f64;
    let speedup = cold_seconds / daemon_seconds;
    let speedup_prebuilt = prebuilt_seconds / daemon_seconds;
    let qps = (reps * queries_per_rep) as f64 / daemon_seconds;
    println!();
    println!(
        "one-shot (cold build):    {} per rep ({} total)",
        secs(cold_seconds / reps as f64),
        secs(cold_seconds)
    );
    println!(
        "one-shot (prebuilt cube): {} per rep ({} total)",
        secs(prebuilt_seconds / reps as f64),
        secs(prebuilt_seconds)
    );
    println!(
        "daemon:                   {} per rep ({} total, {} queries served, {qps:.0} q/s)",
        secs(per_daemon),
        secs(daemon_seconds),
        served
    );
    println!(
        "daemon + wal:             {} per rep ({} total, {:.2}× plain daemon, \
         {wal_records} records logged)",
        secs(daemon_wal_seconds / reps as f64),
        secs(daemon_wal_seconds),
        wal_ratio
    );
    println!(
        "speedup:  {speedup:.1}× over cold one-shot, {speedup_prebuilt:.1}× over \
         prebuilt-cube one-shot"
    );
    println!("overload: {burst_shed} of 4 burst connections shed ({pool_shed} counted)");

    let record = JsonRecord::new()
        .str(
            "mode",
            if args.full {
                "full"
            } else if args.smoke {
                "smoke"
            } else {
                "default"
            },
        )
        .int("n", n as i64)
        .int("d", d as i64)
        .int("reps", reps as i64)
        .int("queries_per_rep", queries_per_rep as i64)
        .num("build_seconds", build_seconds)
        .num("oneshot_cold_seconds", cold_seconds)
        .num("oneshot_prebuilt_seconds", prebuilt_seconds)
        .num("daemon_seconds", daemon_seconds)
        .num("daemon_wal_seconds", daemon_wal_seconds)
        .num("wal_ratio", wal_ratio)
        .int("wal_records", wal_records)
        .int("burst_shed", burst_shed)
        .int("pool_shed_connections", pool_shed)
        .num("speedup", speedup)
        .num("speedup_vs_prebuilt", speedup_prebuilt)
        .num("daemon_qps", qps)
        .int("daemon_queries_total", served)
        .int("shed_total", shed)
        .int("verified_subspaces", verified_subspaces);
    write_json_report(&args, "serve", &[record]);
    std::fs::remove_dir_all(&dir).ok();
}
