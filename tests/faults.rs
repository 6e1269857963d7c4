//! The deterministic fault-injection matrix (requires `--features faults`).
//!
//! Every fault the harness can force must end in one of exactly two
//! outcomes: a **classified error** ([`ServeError`], never a process
//! abort) or a **demoted-but-correct** answer through the
//! [`FallbackSource`] ladder. These tests drive each fault in
//! `FaultPlan`'s vocabulary through both paths.

#![cfg(feature = "faults")]

use skycube::prelude::*;
use skycube::serve::faults::{corrupt_bytes, FaultPlan, FaultySource};
use skycube::stellar::{read_cube, write_cube};

fn workload() -> Vec<Query> {
    parse_workload("skyline BD\nskyline A\nskyline ABCD\nmember 4 BD\ncount 4\ntop 2\n").unwrap()
}

/// Expected answers, computed on an unwrapped scan source.
fn expected(cube: &CompressedSkylineCube, queries: &[Query]) -> Vec<Result<Answer, ServeError>> {
    let scan = ScanCubeSource::new(cube);
    run_batch(&scan, queries, Parallelism::sequential()).answers
}

#[test]
fn panic_route_without_fallback_is_classified_per_line() {
    let ds = running_example();
    let cube = compute_cube(&ds);
    let indexed = IndexedCubeSource::new(&cube);
    let plan = FaultPlan::parse("panic-route=2").unwrap();
    let faulty = FaultySource::new(&indexed, plan);
    let queries = workload();
    let outcome = run_batch(&faulty, &queries, Parallelism::sequential());
    // Skyline queries 2 (index 1) panic; the batch itself survives and the
    // other lines answer normally.
    let reference = expected(&cube, &queries);
    let mut panics = 0;
    for (got, want) in outcome.answers.iter().zip(&reference) {
        match got {
            Err(e) if e.kind() == "panic" => {
                assert!(e.to_string().contains("panic-route"), "{e}");
                panics += 1;
            }
            other => assert_eq!(other, want),
        }
    }
    assert!(panics > 0, "the fault never fired");
    assert_eq!(outcome.stats.errors, panics);
}

#[test]
fn panic_route_with_fallback_demotes_to_a_correct_answer() {
    let ds = running_example();
    let cube = compute_cube(&ds);
    let indexed = IndexedCubeSource::new(&cube);
    let plan = FaultPlan::parse("panic-route").unwrap(); // every skyline query
    let faulty = FaultySource::new(&indexed, plan);
    let scan = ScanCubeSource::new(&cube);
    let direct = DirectSource::new(&ds);
    let ladder = FallbackSource::new(&faulty).then(&scan).then(&direct);
    let queries = workload();
    let outcome = run_batch(&ladder, &queries, Parallelism::sequential());
    assert_eq!(outcome.answers, expected(&cube, &queries));
    assert_eq!(outcome.stats.errors, 0);
    // All three skyline queries demoted (point/analytic queries pass through).
    assert_eq!(outcome.stats.demotions, 3);
}

#[test]
fn slow_route_past_a_deadline_is_classified_and_demotable() {
    let ds = running_example();
    let cube = compute_cube(&ds);
    let indexed = IndexedCubeSource::new(&cube);
    let plan = FaultPlan::parse("slow-route=25").unwrap();
    let faulty = FaultySource::new(&indexed, plan);
    let queries = parse_workload("skyline BD\n").unwrap();
    let options = BatchOptions {
        deadline: Some(std::time::Duration::from_millis(1)),
        generation: None,
    };

    // Without fallback: a classified deadline error carrying the budget.
    let outcome = run_batch_with(&faulty, &queries, Parallelism::sequential(), &options);
    assert_eq!(
        outcome.answers[0],
        Err(ServeError::DeadlineExceeded { budget_ms: 1 })
    );

    // With fallback: the scan rung answers unbounded — late but correct.
    let scan = ScanCubeSource::new(&cube);
    let ladder = FallbackSource::new(&faulty).then(&scan);
    let outcome = run_batch_with(&ladder, &queries, Parallelism::sequential(), &options);
    assert_eq!(outcome.answers, expected(&cube, &queries));
    assert_eq!(outcome.stats.demotions, 1);
}

#[test]
fn corrupt_cube_images_load_to_classified_errors_never_panics() {
    let ds = running_example();
    let cube = compute_cube(&ds);
    let mut bytes = Vec::new();
    write_cube(&cube, &mut bytes).unwrap();
    let mut rejected = 0;
    for seed in 0..64 {
        let garbled = corrupt_bytes(&bytes, seed);
        assert_eq!(garbled, corrupt_bytes(&bytes, seed), "seed {seed}");
        // Never a panic: either a structured load error, or — when the
        // corruption happens to keep the file well formed — a cube whose
        // queries still never abort the process.
        match read_cube(&garbled[..]) {
            Err(_) => rejected += 1,
            Ok(loaded) => {
                for space in DimMask::full(loaded.dims()).subsets() {
                    let _ = loaded.try_subspace_skyline(space);
                }
            }
        }
    }
    assert!(
        rejected > 32,
        "only {rejected}/64 corruptions were detected"
    );
}

#[test]
fn poisoned_cache_recovers_and_keeps_answering() {
    let ds = running_example();
    let cube = compute_cube(&ds);
    let cached = CachedSource::new(IndexedCubeSource::new(&cube), 8);
    let queries = workload();
    // Warm it, poison it, and query again: the cache clears itself and the
    // batch still answers correctly.
    let warm = run_batch(&cached, &queries, Parallelism::sequential());
    assert_eq!(warm.stats.errors, 0);
    cached.cache().poison();
    let outcome = run_batch(&cached, &queries, Parallelism::sequential());
    assert_eq!(outcome.answers, expected(&cube, &queries));
    let stats = cached.cache().stats();
    assert_eq!(stats.poison_recoveries, 1);
}

#[test]
fn the_full_fault_matrix_never_aborts_a_fallback_batch() {
    let ds = running_example();
    let cube = compute_cube(&ds);
    let queries = workload();
    let reference = expected(&cube, &queries);
    for spec in [
        "panic-route",
        "panic-route=2",
        "panic-route=3,slow-route=1",
        "slow-route=5",
    ] {
        let plan = FaultPlan::parse(spec).unwrap();
        let indexed = IndexedCubeSource::new(&cube);
        let faulty = FaultySource::new(&indexed, plan);
        let scan = ScanCubeSource::new(&cube);
        let direct = DirectSource::new(&ds);
        let ladder = FallbackSource::new(&faulty).then(&scan).then(&direct);
        for threads in [1, 4] {
            let outcome = run_batch(&ladder, &queries, Parallelism::new(threads));
            assert_eq!(
                outcome.answers, reference,
                "spec {spec:?} threads {threads}"
            );
            assert_eq!(outcome.stats.errors, 0, "spec {spec:?}");
        }
        if plan.panic_route.is_some() {
            assert!(ladder.demotions() > 0, "spec {spec:?} never demoted");
        }
    }
}

/// Overload the resident daemon: a slow route plus a tight deadline must
/// end every query in a *classified* error — DeadlineExceeded for admitted
/// work that blows its budget, ResourceExhausted for waves shed by
/// admission control — never an abort, with the shed count visible in the
/// metrics dump.
#[test]
fn overloaded_daemon_sheds_with_classified_errors_and_counts_it() {
    use std::sync::Arc;
    use std::time::Duration;

    let ds = generate(Distribution::Independent, 200, 4, 3);
    let config = DaemonConfig {
        threads: Parallelism::sequential(),
        deadline: Some(Duration::from_millis(5)),
        plan: FaultPlan::parse("slow-route=30").unwrap(),
        ..DaemonConfig::default()
    };
    let daemon = Arc::new(Daemon::new(StellarEngine::new(&ds), config));
    let queries = parse_workload("skyline A\nskyline B\nskyline AB\nskyline ABD\n").unwrap();

    // Wave 1 is admitted (no service-time signal yet) but every query
    // sleeps 30 ms against a 5 ms budget: classified deadline errors.
    let wave = daemon.serve_wave(&queries);
    for a in &wave.answers {
        let err = a.clone().expect_err("slow route beat a 5 ms deadline?");
        assert_eq!(err.kind(), "deadline", "{err}");
    }

    // Wave 2 occupies the daemon while wave 3 arrives: with ~30 ms
    // observed service time and four queries in flight, the projected
    // wait dwarfs the deadline, so wave 3 is shed, not queued.
    let occupant = Arc::clone(&daemon);
    let q2 = queries.clone();
    let busy = std::thread::spawn(move || occupant.serve_wave(&q2));
    std::thread::sleep(Duration::from_millis(15));
    let shed = daemon.serve_wave(&queries);
    for a in &shed.answers {
        let err = a
            .clone()
            .expect_err("overloaded daemon queued instead of shedding");
        assert_eq!(err.kind(), "resource-exhausted", "{err}");
        assert!(err.to_string().contains("admission shed"), "{err}");
    }
    busy.join().expect("occupant wave aborted");

    let metrics = daemon.metrics();
    assert_eq!(metrics.shed, queries.len() as u64);
    assert_eq!(metrics.inflight, 0, "in-flight count leaked");
    let dump = daemon.metrics_text();
    assert!(
        dump.lines()
            .any(|l| l == format!("shed_total {}", metrics.shed)),
        "shed count missing from metrics dump:\n{dump}"
    );
}

/// The CLI refuses a planned fault that the command would not act on, and
/// names it: a fault that never fires must not pass for one that was
/// survived. `query` acts on route and cube faults through
/// `--source stellar` only, on `poison-cache` behind `--cache` only, and
/// never on the daemon's faults; `serve` never acts on the batch faults,
/// and on the WAL faults only with `--wal`.
#[test]
fn cli_refuses_faults_the_command_does_not_act_on() {
    use std::process::{Command, Stdio};
    let dir = std::env::temp_dir().join(format!("skycube-faults-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    let data = dir.join("d.csv");
    skycube::datagen::save_csv(&running_example(), &data).expect("write csv");
    let data = data.to_str().expect("utf-8 path");
    let cases: [(&[&str], &str, &str); 8] = [
        (
            &["query", "--source", "direct"],
            "panic-route",
            "needs --source stellar",
        ),
        (
            &["query", "--source", "stellar-scan"],
            "slow-route=5",
            "needs --source stellar",
        ),
        (
            &["query", "--source", "direct"],
            "corrupt-cube",
            "needs --source stellar",
        ),
        (&["query"], "poison-cache", "needs --cache"),
        (
            &["query"],
            "kill-mid-mutation=1",
            "is not acted on by query",
        ),
        (&["query"], "slow-client=5", "is not acted on by query"),
        (&["serve"], "corrupt-cube", "is not acted on by serve"),
        (&["serve"], "torn-wal-tail", "needs --wal"),
    ];
    for (command, fault, why) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_skycube"))
            .args(command)
            .args(["--data", data, "--inject-faults", fault])
            .stdin(Stdio::null())
            .output()
            .expect("spawn skycube");
        let err = String::from_utf8_lossy(&out.stderr);
        let name = fault.split('=').next().expect("a fault name");
        assert_eq!(out.status.code(), Some(1), "{command:?} {fault}: {out:?}");
        assert!(
            err.contains(&format!("--inject-faults {name} {why}")),
            "{command:?} {fault}: {err}"
        );
        assert!(out.stdout.is_empty(), "{command:?} {fault}: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
