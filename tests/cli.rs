//! End-to-end tests of the `skycube` CLI binary: generate → build → query,
//! exercising the on-disk CSV and cube formats across crates.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_skycube")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skycube_cli_{name}"));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn skycube binary")
}

fn run_with_stdin(args: &[&str], input: &str) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn skycube binary");
    let written = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    // A command that fails before reading stdin (a refused option) may
    // exit and close the pipe first; its output still tells what happened.
    if let Err(e) = written {
        assert_eq!(
            e.kind(),
            std::io::ErrorKind::BrokenPipe,
            "write workload to stdin: {e}"
        );
    }
    child.wait_with_output().expect("collect output")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn generate_build_query_roundtrip() {
    let dir = tmpdir("roundtrip");
    let data = dir.join("data.csv");
    let cube = dir.join("cube.txt");
    let data_s = data.to_str().unwrap();
    let cube_s = cube.to_str().unwrap();

    let out = run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "500",
        "--dims",
        "4",
        "--seed",
        "9",
        "--out",
        data_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("500 objects × 4 dims"));

    let out = run(&["build", "--data", data_s, "--out", cube_s]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("groups over 500 objects"));

    let out = run(&["stats", "--data", data_s]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("objects:                  500"));
    assert!(text.contains("skyline groups:"));

    let out = run(&["skyline", "--cube", cube_s, "--space", "AB"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("skyline(AB) has"));

    let out = run(&["top", "--cube", cube_s, "--k", "3"]);
    assert!(out.status.success());
    assert!(stdout(&out).lines().count() <= 4);

    // CLI skyline answer must equal a direct computation on the CSV data.
    let ds = skycube::datagen::load_csv(&data).unwrap();
    let direct = skycube::algorithms::skyline(&ds, skycube::types::DimMask::parse("AB").unwrap());
    let text = stdout(&run(&["skyline", "--cube", cube_s, "--space", "AB"]));
    let listed: Vec<u32> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    assert_eq!(listed, direct);
}

#[test]
fn member_query_reports_intervals() {
    let dir = tmpdir("member");
    let data = dir.join("d.csv");
    let cube = dir.join("c.txt");
    run(&[
        "generate",
        "--dist",
        "correlated",
        "--count",
        "200",
        "--dims",
        "3",
        "--out",
        data.to_str().unwrap(),
    ]);
    run(&[
        "build",
        "--data",
        data.to_str().unwrap(),
        "--out",
        cube.to_str().unwrap(),
    ]);
    let out = run(&[
        "member",
        "--cube",
        cube.to_str().unwrap(),
        "--object",
        "0",
        "--space",
        "A",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("IS in") || text.contains("is NOT in"));
}

#[test]
fn nba_generation() {
    let dir = tmpdir("nba");
    let data = dir.join("nba.csv");
    let out = run(&[
        "generate",
        "--nba",
        "--count",
        "300",
        "--out",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let ds = skycube::datagen::load_csv(&data).unwrap();
    assert_eq!(ds.len(), 300);
    assert_eq!(ds.dims(), 17);
    assert_eq!(ds.names()[16], "pts");
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    // Missing required option.
    let out = run(&["build", "--data", "/nonexistent.csv"]);
    assert!(!out.status.success());
    let dir = tmpdir("errors");
    // A dimensionality the generator cannot produce is diagnosed, not a
    // panic (which would exit 101).
    for dims in ["0", "33"] {
        let out = run(&[
            "generate",
            "--dist",
            "independent",
            "--count",
            "10",
            "--dims",
            dims,
            "--out",
            dir.join("bad.csv").to_str().unwrap(),
        ]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "--dims {dims}: {err}");
        assert!(err.contains("--dims must be between 1 and 32"), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
    // Bad subspace letters.
    let data = dir.join("d.csv");
    let cube = dir.join("c.txt");
    run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "50",
        "--dims",
        "3",
        "--out",
        data.to_str().unwrap(),
    ]);
    run(&[
        "build",
        "--data",
        data.to_str().unwrap(),
        "--out",
        cube.to_str().unwrap(),
    ]);
    let out = run(&["skyline", "--cube", cube.to_str().unwrap(), "--space", "Z"]);
    assert!(!out.status.success());
    let out = run(&[
        "member",
        "--cube",
        cube.to_str().unwrap(),
        "--object",
        "9999",
        "--space",
        "A",
    ]);
    assert!(!out.status.success());
}

#[test]
fn unknown_options_are_refused() {
    // An option no command reads (a typo, or one that was removed) is
    // refused with the usage text instead of being silently ignored.
    let dir = tmpdir("unknown_options");
    let data = dir.join("d.csv");
    let data_s = data.to_str().unwrap();
    let cube = dir.join("c.txt");
    let cube_s = cube.to_str().unwrap();
    let out = run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "50",
        "--dims",
        "3",
        "--out",
        data_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    for (args, option) in [
        (
            vec![
                "generate",
                "--dist",
                "independent",
                "--count",
                "50",
                "--dims",
                "3",
                "--out",
                data_s,
                "--threds",
                "4",
            ],
            "--threds",
        ),
        (
            vec!["serve", "--data", data_s, "--no-autotune"],
            "--no-autotune",
        ),
        (
            vec!["serve", "--data", data_s, "--tuner-state", cube_s],
            "--tuner-state",
        ),
        (vec!["query", "--data", data_s, "--autotune"], "--autotune"),
        (
            vec![
                "build",
                "--data",
                data_s,
                "--out",
                cube_s,
                "--partition",
                "hash",
            ],
            "--partition",
        ),
        (
            vec!["build", "--data", data_s, "--out", cube_s, "--shards", "2"],
            "--shards",
        ),
        (vec!["stats", "--data", data_s, "--shards", "2"], "--shards"),
        (vec!["query", "--data", data_s, "--shards", "2"], "--shards"),
        (
            vec!["query", "--data", data_s, "--anchors", "6"],
            "--anchors",
        ),
        (
            vec![
                "build", "--data", data_s, "--out", cube_s, "--kernel", "scalar",
            ],
            "--kernel",
        ),
        (
            vec!["stats", "--data", data_s, "--kernel", "scalar"],
            "--kernel",
        ),
        (
            vec!["query", "--data", data_s, "--kernel", "columnar"],
            "--kernel",
        ),
        (
            vec!["serve", "--data", data_s, "--kernel", "scalar"],
            "--kernel",
        ),
    ] {
        let out = run_with_stdin(&args, "skyline AB\n");
        assert!(!out.status.success(), "{args:?} was accepted: {out:?}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown option {option} ")),
            "{args:?}: {err}"
        );
        assert!(err.contains("commands:"), "{args:?}: usage missing: {err}");
        // Refused before any work: nothing generated, built or served.
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn out_of_range_space_letters_are_diagnosed() {
    // Letters beyond the dataset's dimensionality must fail with a clear
    // diagnostic, not a panic or a silent empty answer.
    let dir = tmpdir("space_range");
    let data = dir.join("d.csv");
    let cube = dir.join("c.txt");
    run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "50",
        "--dims",
        "3",
        "--out",
        data.to_str().unwrap(),
    ]);
    run(&[
        "build",
        "--data",
        data.to_str().unwrap(),
        "--out",
        cube.to_str().unwrap(),
    ]);

    // "ABCDE" parses as a mask but names dimensions D and E that a 3-d
    // dataset does not have.
    let out = run(&[
        "skyline",
        "--cube",
        cube.to_str().unwrap(),
        "--space",
        "ABCDE",
    ]);
    assert!(!out.status.success(), "{out:?}");
    let err = stderr(&out);
    assert!(
        err.contains("ABCDE"),
        "diagnostic must name the bad subspace: {err}"
    );
    assert!(
        err.contains("3-d"),
        "diagnostic must name the dataset dims: {err}"
    );

    // Same rule for membership queries.
    let out = run(&[
        "member",
        "--cube",
        cube.to_str().unwrap(),
        "--object",
        "0",
        "--space",
        "D",
    ]);
    assert!(!out.status.success(), "{out:?}");
    assert!(stderr(&out).contains('D'));

    // A valid in-range space still works on the very same cube.
    let out = run(&[
        "skyline",
        "--cube",
        cube.to_str().unwrap(),
        "--space",
        "ABC",
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn repeated_space_letters_are_refused() {
    // `--space` reads a subspace as the workload grammar does: a repeated
    // letter is a typo, refused rather than collapsed (AA is not A).
    let dir = tmpdir("space_repeat");
    let data = dir.join("d.csv");
    let cube = dir.join("c.txt");
    let cube_s = cube.to_str().unwrap();
    run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "50",
        "--dims",
        "4",
        "--out",
        data.to_str().unwrap(),
    ]);
    run(&["build", "--data", data.to_str().unwrap(), "--out", cube_s]);
    for space in ["AA", "ADA"] {
        for args in [
            vec!["skyline", "--cube", cube_s, "--space", space],
            vec![
                "member", "--cube", cube_s, "--object", "0", "--space", space,
            ],
        ] {
            let out = run(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
            let err = stderr(&out);
            assert!(
                err.contains(&format!("bad subspace \"{space}\""))
                    && err.contains("dimension letters must not repeat"),
                "{args:?}: {err}"
            );
            assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
        }
    }
    // The letters once each still answer.
    let out = run(&["skyline", "--cube", cube_s, "--space", "AD"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("skyline(AD) has"));
}

#[test]
fn threads_option_is_validated_and_honored() {
    let dir = tmpdir("threads");
    let data = dir.join("d.csv");
    let cube1 = dir.join("c1.txt");
    let cube4 = dir.join("c4.txt");
    run(&[
        "generate",
        "--dist",
        "anti-correlated",
        "--count",
        "300",
        "--dims",
        "4",
        "--out",
        data.to_str().unwrap(),
    ]);

    // --threads 0 is rejected with a diagnostic.
    let out = run(&[
        "build",
        "--data",
        data.to_str().unwrap(),
        "--out",
        cube1.to_str().unwrap(),
        "--threads",
        "0",
    ]);
    assert!(!out.status.success(), "{out:?}");
    assert!(stderr(&out).contains("--threads"));

    // Non-numeric thread counts are rejected too.
    let out = run(&[
        "stats",
        "--data",
        data.to_str().unwrap(),
        "--threads",
        "lots",
    ]);
    assert!(!out.status.success(), "{out:?}");

    // Valid thread counts build identical cubes (sequential vs parallel).
    let out = run(&[
        "build",
        "--data",
        data.to_str().unwrap(),
        "--out",
        cube1.to_str().unwrap(),
        "--threads",
        "1",
    ]);
    assert!(out.status.success(), "{out:?}");
    let out = run(&[
        "build",
        "--data",
        data.to_str().unwrap(),
        "--out",
        cube4.to_str().unwrap(),
        "--threads",
        "4",
    ]);
    assert!(out.status.success(), "{out:?}");
    let c1 = std::fs::read_to_string(&cube1).unwrap();
    let c4 = std::fs::read_to_string(&cube4).unwrap();
    assert_eq!(
        c1, c4,
        "cube files must be byte-identical across thread counts"
    );

    // stats accepts --threads as well.
    let out = run(&["stats", "--data", data.to_str().unwrap(), "--threads", "2"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("skyline groups:"));
}

/// Answer lines of a `query` run (everything except the trailing `#` stats
/// summary).
fn answer_lines(out: &Output) -> Vec<String> {
    stdout(out)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

#[test]
fn query_subcommand_agrees_across_all_sources() {
    let dir = tmpdir("query_sources");
    let data = dir.join("d.csv");
    let cube = dir.join("c.txt");
    let workload = dir.join("w.txt");
    let data_s = data.to_str().unwrap();
    run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "250",
        "--dims",
        "4",
        "--seed",
        "11",
        "--out",
        data_s,
    ]);
    run(&["build", "--data", data_s, "--out", cube.to_str().unwrap()]);
    std::fs::write(
        &workload,
        "# mixed workload\nskyline ABD\nskyline AC\nmember 17 ABD\ncount 17\ntop 5\n",
    )
    .unwrap();
    let workload_s = workload.to_str().unwrap();

    let mut answers: Vec<Vec<String>> = Vec::new();
    for source in ["stellar", "stellar-scan", "direct"] {
        let out = run(&[
            "query",
            "--data",
            data_s,
            "--source",
            source,
            "--workload",
            workload_s,
        ]);
        assert!(out.status.success(), "{source}: {out:?}");
        let text = stdout(&out);
        assert!(
            text.contains(&format!("# source={source}")),
            "stats line must name the source: {text}"
        );
        answers.push(answer_lines(&out));
    }
    for pair in answers.windows(2) {
        assert_eq!(pair[0], pair[1], "sources must answer identically");
    }
    assert_eq!(answers[0].len(), 5);

    // Stellar can also serve from a prebuilt cube file.
    let out = run(&[
        "query",
        "--cube",
        cube.to_str().unwrap(),
        "--source",
        "stellar",
        "--workload",
        workload_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(answer_lines(&out), answers[0]);

    // So can the fallback ladder, which answers like the plain source.
    let out = run(&[
        "query",
        "--data",
        data_s,
        "--source",
        "stellar",
        "--fallback",
        "--workload",
        workload_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(answer_lines(&out), answers[0]);
}

#[test]
fn query_refuses_sources_and_options_it_does_not_read() {
    // Exactly three sources answer queries, and each refuses the options
    // it does not read: --fallback belongs to stellar alone, and direct
    // computes from --data, so it has no use for --cube. Both are refused
    // before any work.
    let dir = tmpdir("query_refusals");
    let data = dir.join("d.csv");
    let data_s = data.to_str().unwrap();
    let out = run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "50",
        "--dims",
        "3",
        "--out",
        data_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    for source in ["skyey", "subsky", "subsky-anchored"] {
        let out = run_with_stdin(
            &["query", "--data", data_s, "--source", source],
            "skyline AB\n",
        );
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "--source {source}: {out:?}");
        assert!(
            err.contains(&format!("unknown --source {source:?}")),
            "{source}: {err}"
        );
        assert!(err.contains("stellar, stellar-scan or direct"), "{err}");
        assert!(stdout(&out).is_empty(), "{source}: {}", stdout(&out));
    }
    for (source, extra, option) in [
        ("stellar-scan", vec!["--fallback"], "--fallback"),
        ("direct", vec!["--fallback"], "--fallback"),
        ("direct", vec!["--cube", "/nonexistent/c.txt"], "--cube"),
    ] {
        let mut args = vec!["query", "--data", data_s, "--source", source];
        args.extend(extra);
        let out = run_with_stdin(&args, "skyline AB\n");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(
            err.contains(&format!("{option} is not read by --source {source}")),
            "{args:?}: {err}"
        );
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn query_with_a_cube_refuses_data_unless_the_fallback_ladder_reads_it() {
    // With --cube the cube comes from the file, so only the stellar
    // source's fallback ladder (its direct rung) still reads --data. Any
    // other --data is refused before the workload is read, even a path
    // that does not exist.
    let dir = tmpdir("query_cube_data");
    let data = dir.join("d.csv");
    let cube = dir.join("c.txt");
    let (data_s, cube_s) = (data.to_str().unwrap(), cube.to_str().unwrap());
    let out = run(&[
        "generate",
        "--dist",
        "anti-correlated",
        "--count",
        "80",
        "--dims",
        "3",
        "--seed",
        "4",
        "--out",
        data_s,
    ]);
    assert!(out.status.success(), "{out:?}");
    assert!(run(&["build", "--data", data_s, "--out", cube_s])
        .status
        .success());
    for (source, data) in [
        ("stellar", "/nonexistent/d.csv"),
        ("stellar", data_s),
        ("stellar-scan", data_s),
    ] {
        let args = [
            "query", "--data", data, "--cube", cube_s, "--source", source,
        ];
        let out = run_with_stdin(&args, "skyline AB\n");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(
            err.contains(&format!(
                "--data is not read by --source {source} with --cube"
            )),
            "{args:?}: {err}"
        );
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
    }
    // The cube alone answers, and so does the ladder that reads both.
    let alone = run_with_stdin(&["query", "--cube", cube_s], "skyline AB\ntop 2\n");
    assert!(alone.status.success(), "{alone:?}");
    let ladder = run_with_stdin(
        &["query", "--data", data_s, "--cube", cube_s, "--fallback"],
        "skyline AB\ntop 2\n",
    );
    assert!(ladder.status.success(), "{ladder:?}");
    assert_eq!(answer_lines(&alone), answer_lines(&ladder));
    assert_eq!(answer_lines(&alone).len(), 2);
}

#[test]
fn query_reads_workload_from_stdin() {
    let dir = tmpdir("query_stdin");
    let data = dir.join("d.csv");
    let data_s = data.to_str().unwrap();
    run(&[
        "generate",
        "--dist",
        "correlated",
        "--count",
        "120",
        "--dims",
        "3",
        "--out",
        data_s,
    ]);
    let out = run_with_stdin(&["query", "--data", data_s], "skyline AB\ntop 2\n");
    assert!(out.status.success(), "{out:?}");
    let lines = answer_lines(&out);
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("skyline AB -> "), "{lines:?}");
    assert!(lines[1].starts_with("top 2 -> "), "{lines:?}");
}

#[test]
fn query_cache_and_threads_are_honored() {
    let dir = tmpdir("query_cache");
    let data = dir.join("d.csv");
    let data_s = data.to_str().unwrap();
    run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "200",
        "--dims",
        "4",
        "--out",
        data_s,
    ]);
    // The same skyline three times: a capacity-8 cache answers two of them.
    let workload = "skyline ABCD\nskyline ABCD\nskyline ABCD\n";
    let out = run_with_stdin(
        &["query", "--data", data_s, "--cache", "8", "--threads", "1"],
        workload,
    );
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("cache_hits=2"), "{text}");
    assert!(text.contains("cache_misses=1"), "{text}");

    // Thread counts change execution, never answers.
    let baseline = answer_lines(&out);
    for threads in ["2", "4"] {
        let out = run_with_stdin(&["query", "--data", data_s, "--threads", threads], workload);
        assert!(out.status.success(), "{out:?}");
        assert_eq!(answer_lines(&out), baseline, "threads = {threads}");
    }
    // --threads 0 is rejected like everywhere else.
    let out = run_with_stdin(&["query", "--data", data_s, "--threads", "0"], workload);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--threads"));
}

#[test]
fn query_workload_diagnostics_name_the_line() {
    let dir = tmpdir("query_diag");
    let data = dir.join("d.csv");
    let data_s = data.to_str().unwrap();
    run(&[
        "generate",
        "--dist",
        "independent",
        "--count",
        "50",
        "--dims",
        "3",
        "--out",
        data_s,
    ]);

    // A malformed third line fails the whole batch before execution, and
    // the diagnostic names the line and the offending token.
    let out = run_with_stdin(
        &["query", "--data", data_s],
        "skyline AB\ncount 3\nfetch AB\n",
    );
    assert!(!out.status.success(), "{out:?}");
    let err = stderr(&out);
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("fetch"), "{err}");

    // Missing arguments and bad ids are diagnosed the same way.
    let out = run_with_stdin(&["query", "--data", data_s], "member 4\n");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));
    let out = run_with_stdin(&["query", "--data", data_s], "count twelve\n");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("twelve"), "{}", stderr(&out));

    // A well-formed query that fails at run time (subspace D on 3-d data)
    // reports per-line errors and a failing exit code.
    let out = run_with_stdin(&["query", "--data", data_s], "skyline ABC\nskyline D\n");
    assert!(!out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("skyline D -> error:"), "{text}");
    assert!(
        stderr(&out).contains("1 of 2 queries failed"),
        "{}",
        stderr(&out)
    );

    // An unknown source is rejected with the valid choices.
    let out = run_with_stdin(
        &["query", "--data", data_s, "--source", "oracle"],
        "skyline AB\n",
    );
    assert!(!out.status.success());
    assert!(stderr(&out).contains("oracle"), "{}", stderr(&out));
}

#[test]
fn query_stats_flag_prints_route_and_memo_lines() {
    let dir = tmpdir("query_stats");
    let data = dir.join("d.csv");
    let data_s = data.to_str().unwrap();
    run(&[
        "generate",
        "--dist",
        "anti-correlated",
        "--count",
        "400",
        "--dims",
        "5",
        "--out",
        data_s,
    ]);
    // Sweep every subspace twice: the repeat pass is served by the lattice
    // memo, so the memo line must report exact hits.
    let mut workload = String::new();
    for _ in 0..2 {
        for space in ["A", "B", "AB", "ABC", "ABCD", "ABCDE", "CDE", "BD"] {
            workload.push_str(&format!("skyline {space}\n"));
        }
    }
    let out = run_with_stdin(
        &["query", "--data", data_s, "--threads", "1", "--stats"],
        &workload,
    );
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let routes: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# route="))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert_eq!(routes, ["short", "flat"], "{text}");
    assert!(text.contains("# memo exact="), "{text}");
    assert!(text.contains("# runs_hist="), "{text}");
    assert!(text.contains("# elems_hist="), "{text}");
    let memo_line = text
        .lines()
        .find(|l| l.starts_with("# memo"))
        .expect("memo line");
    assert!(
        !memo_line.contains("exact=0 "),
        "repeat sweep must hit the memo: {memo_line}"
    );

    // Sources without a CubeIndex say so instead of printing zeros.
    let out = run_with_stdin(
        &["query", "--data", data_s, "--source", "direct", "--stats"],
        "skyline AB\n",
    );
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("# index stats unavailable for source=direct"),
        "{}",
        stdout(&out)
    );
}
