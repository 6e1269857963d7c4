//! `skycube` — command-line front end: generate workloads, materialize
//! compressed skyline cubes, and query them.
//!
//! ```text
//! skycube generate --dist correlated --count 10000 --dims 6 --seed 7 --out data.csv
//! skycube generate --nba --out nba.csv
//! skycube build    --data data.csv --out cube.txt
//! skycube stats    --data data.csv
//! skycube skyline  --cube cube.txt --space ACD
//! skycube member   --cube cube.txt --object 42 --space ACD
//! skycube top      --cube cube.txt --k 10
//! skycube query    --data data.csv --source stellar --workload queries.txt
//! ```

use skycube::datagen;
use skycube::prelude::*;
use skycube::stellar;
use skycube::types::MAX_DIMS;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(cmd, rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "build" => cmd_build(&opts),
        "stats" => cmd_stats(&opts),
        "skyline" => cmd_skyline(&opts),
        "member" => cmd_member(&opts),
        "top" => cmd_top(&opts),
        "query" => cmd_query(&opts),
        "serve" => cmd_serve(&opts),
        "connect" => cmd_connect(&opts),
        // help, --help, -h: parse_opts refused every other command name.
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
skycube — compressed multidimensional skyline cubes (ICDE 2007 reproduction)

commands:
  generate --dist <correlated|independent|anti-correlated> --count N --dims D
           [--seed S] --out FILE.csv
  generate --nba [--count N] [--seed S] --out FILE.csv
  build    --data FILE.csv --out CUBE [--threads N]
           [--format text|binary]             materialize the cube (Stellar);
                                              --format binary ships the built
                                              serving index inside the file so
                                              later loads validate instead of
                                              rebuilding (all load paths
                                              auto-detect the format by magic)
  stats    --data FILE.csv [--threads N] [--maintain N]
                                              counts: seeds, groups, skycube size;
                                              --maintain pushes N synthetic
                                              insert+delete pairs through the
                                              incremental maintenance path and
                                              prints fast/full/spliced counters
  skyline  --cube CUBE.txt --space LETTERS    subspace skyline query
  member   --cube CUBE.txt --object ID --space LETTERS
  top      --cube CUBE.txt --k N              most frequent skyline objects
  query    --data FILE.csv | --cube CUBE      run a batch query workload
           [--source stellar|stellar-scan|direct]
           [--workload FILE|-] [--cache N] [--threads N] [--stats]
           [--deadline-ms MS] [--fallback] [--inject-faults SPEC]
           workload lines: 'skyline ABD', 'member 17 ABD', 'count 17',
           'top 5'; blank lines and # comments are ignored; --workload -
           (the default) reads from stdin; --cube (stellar and
           stellar-scan) loads the cube instead of building it from
           --data, so --data is then refused unless the stellar
           source's fallback ladder reads it; --stats prints
           per-merge-route timings and lattice-memo counters for the
           indexed source; --deadline-ms bounds each query; --fallback
           (stellar only) installs the indexed -> scan -> direct
           degradation ladder (the direct rung needs --data);
           --inject-faults (builds with the `faults` feature only) forces
           failures and installs the ladder: panic-route[=N],
           slow-route=MS and corrupt-cube with --source stellar,
           poison-cache with --cache, seed=N; a fault the command would
           not act on is refused
  serve    --data FILE.csv [--socket PATH] [--listen HOST:PORT]
           [--wal PATH] [--checkpoint-every N] [--workers N]
           [--backlog N] [--io-timeout-ms MS] [--idle-timeout-ms MS]
           [--threads N] [--cache N] [--deadline-ms MS] [--metrics]
           [--inject-faults SPEC]   (panic-route[=N], slow-route=MS,
           slow-client=MS; kill-mid-mutation[=N] and torn-wal-tail[=B]
           with --wal; seed=N)
           resident daemon: builds the engine once, keeps the serving
           index, subspace cache and scratch pool warm, and answers
           the query protocol on stdin (and, with --socket /
           --listen, on a Unix socket and/or TCP listener through a
           bounded worker pool: --workers fixed threads, a --backlog
           accept queue that sheds on overflow, per-connection
           --io-timeout-ms send/recv deadlines and --idle-timeout-ms
           reaping). Protocol verbs: the query workload grammar plus
           'skyband k ABD', 'insert v1..vd', 'delete ID', 'checkpoint',
           'stats' (plain-text metrics block), 'quit' (close connection;
           on stdin also stops the daemon) and 'shutdown' (graceful
           drain: stop accepting, flush in-flight, fsync the WAL).
           --wal PATH makes mutations durable: each accepted
           insert/delete is fsync'd to the log before the engine
           patches, and startup replays checkpoint + log tail
           (recovered ≡ rebuilt); 'checkpoint' (or --checkpoint-every N
           mutations) rewrites the snapshot and truncates the log.
           --deadline-ms bounds each query AND arms admission control:
           waves whose projected per-verb queue wait exceeds the
           deadline are shed with a resource-exhausted error instead of
           queueing. --metrics dumps the metrics block to stdout on exit
  connect  --socket PATH | --tcp HOST:PORT [--workload FILE|-]
           [--timeout-ms MS] [--retries N]   client for serve: sends the
           workload (stdin by default) to a resident daemon and streams
           the replies back; --retries N retries refused/reset connects
           with exponential backoff + jitter, --timeout-ms bounds every
           send and recv

Options a command does not read are refused, not ignored.";

type Opts = HashMap<String, String>;

/// The options `cmd` reads, as space-separated `(options taking a value,
/// flags)`; `None` for an unknown command. Anything else on its command
/// line is refused: a mistyped option must not silently fall back to a
/// default.
fn known_options(cmd: &str) -> Option<(&'static str, &'static str)> {
    Some(match cmd {
        "generate" => ("dist count dims seed out", "nba"),
        "build" => ("data out threads format", ""),
        "stats" => ("data threads maintain", ""),
        "skyline" => ("cube space", ""),
        "member" => ("cube object space", ""),
        "top" => ("cube k", ""),
        "query" => (
            "data cube source workload cache threads deadline-ms inject-faults",
            "stats fallback",
        ),
        "serve" => (
            "data socket listen wal checkpoint-every workers backlog io-timeout-ms \
             idle-timeout-ms threads cache deadline-ms inject-faults",
            "metrics",
        ),
        "connect" => ("socket tcp workload timeout-ms retries", ""),
        "help" | "--help" | "-h" => ("", ""),
        _ => return None,
    })
}

fn parse_opts(cmd: &str, rest: &[String]) -> Result<Opts, String> {
    let (valued, flags) = known_options(cmd).ok_or_else(|| format!("unknown command {cmd:?}"))?;
    let lists = |names: &str, key: &str| names.split_whitespace().any(|n| n == key);
    let mut opts = Opts::new();
    let mut it = rest.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return Err(format!("expected --option, got {k:?}"));
        };
        if lists(flags, key) {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        if !lists(valued, key) {
            return Err(format!("unknown option --{key} for {cmd}"));
        }
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key.to_string(), v.clone());
    }
    Ok(opts)
}

fn req<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: {s:?}"))
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let out = req(opts, "out")?;
    let seed: u64 = num(opts.get("seed").map_or("42", String::as_str), "seed")?;
    let ds = if opts.contains_key("nba") {
        let count: usize = num(
            opts.get("count")
                .map_or(&datagen::NBA_PLAYERS.to_string(), |c| c)
                .as_ref(),
            "count",
        )?;
        datagen::nba_table_sized(count, seed)
    } else {
        let dist = match req(opts, "dist")? {
            "correlated" => Distribution::Correlated,
            "independent" => Distribution::Independent,
            "anti-correlated" | "anticorrelated" => Distribution::AntiCorrelated,
            "clustered" => Distribution::Clustered,
            other => return Err(format!("unknown distribution {other:?}")),
        };
        let count: usize = num(req(opts, "count")?, "count")?;
        let dims: usize = num(req(opts, "dims")?, "dims")?;
        if !(1..=MAX_DIMS).contains(&dims) {
            return Err(format!(
                "--dims must be between 1 and {MAX_DIMS}, got {dims}"
            ));
        }
        generate(dist, count, dims, seed)
    };
    datagen::save_csv(&ds, out).map_err(|e| e.to_string())?;
    println!("wrote {} objects × {} dims to {out}", ds.len(), ds.dims());
    Ok(())
}

fn load_data(opts: &Opts) -> Result<Dataset, String> {
    datagen::load_csv(req(opts, "data")?).map_err(|e| e.to_string())
}

fn load_cube(opts: &Opts) -> Result<CompressedSkylineCube, String> {
    stellar::load_cube(req(opts, "cube")?).map_err(|e| e.to_string())
}

/// The Stellar runner for `--threads N` (default: one worker per core;
/// `1` is the exact sequential path).
fn runner(opts: &Opts) -> Result<Stellar, String> {
    let mut runner = Stellar::new();
    if let Some(t) = opts.get("threads") {
        let threads: usize = num(t, "thread count")?;
        if threads == 0 {
            return Err("--threads must be at least 1".to_owned());
        }
        runner = runner.with_threads(threads);
    }
    Ok(runner)
}

/// How `build` writes its cubes, selected by `--format`.
type SaveFn = fn(&CompressedSkylineCube, &str) -> skycube::types::Result<()>;

/// `--format text|binary` (default text): how `build` writes its cubes.
/// Binary ships the fully-built serving index inside the file, so loads
/// validate instead of rebuilding.
fn save_format(opts: &Opts) -> Result<SaveFn, String> {
    match opts.get("format").map_or("text", String::as_str) {
        "text" => Ok(|cube, path| stellar::save_cube(cube, path)),
        "binary" | "bin" => Ok(|cube, path| stellar::save_cube_binary(cube, path)),
        other => Err(format!("bad --format {other:?} (expected text or binary)")),
    }
}

fn cmd_build(opts: &Opts) -> Result<(), String> {
    let ds = load_data(opts)?;
    let out = req(opts, "out")?;
    let save = save_format(opts)?;
    let t = std::time::Instant::now();
    let cube = runner(opts)?.compute(&ds);
    save(&cube, out).map_err(|e| e.to_string())?;
    println!(
        "built cube in {:.2?}: {} groups over {} objects → {out}",
        t.elapsed(),
        cube.num_groups(),
        cube.num_objects()
    );
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let ds = load_data(opts)?;
    let mut engine = StellarEngine::with_runner(&ds, runner(opts)?);
    let cube = engine.cube();
    println!("objects:                  {}", cube.num_objects());
    println!("dimensions:               {}", cube.dims());
    println!("full-space skyline:       {}", cube.seeds().len());
    println!("skyline groups:           {}", cube.num_groups());
    println!("subspace skyline objects: {}", cube.skycube_size());
    println!("by dimensionality:");
    for (k, v) in cube.skycube_sizes_by_dimensionality().iter().enumerate() {
        println!("  {:>2}-d subspaces: {v}", k + 1);
    }
    if let Some(m) = opts.get("maintain") {
        let reps: usize = num(m, "maintenance mutation count")?;
        maintain_report(&ds, &mut engine, reps)?;
    }
    Ok(())
}

/// `--maintain N`: push N synthetic insert+delete pairs — each insert a copy
/// of a seed row worsened on one dimension, each delete removing it again —
/// through the incremental maintenance path, then print the
/// fast/full/spliced counters so the patch-vs-rebuild split is visible from
/// the command line.
fn maintain_report(ds: &Dataset, engine: &mut StellarEngine, reps: usize) -> Result<(), String> {
    let Some(&seed) = engine.cube().seeds().first() else {
        return Err("--maintain needs a non-empty dataset".to_owned());
    };
    let template: Vec<Value> = ds.row(seed).to_vec();
    let dims = ds.dims();
    engine.cube().index(); // warm the index so in-place splices are exercised
    let t = std::time::Instant::now();
    for k in 0..reps {
        let mut row = template.clone();
        row[k % dims] += 1;
        let id = engine.insert(row).map_err(|e| e.to_string())?;
        engine.delete(id).map_err(|e| e.to_string())?;
    }
    let seconds = t.elapsed().as_secs_f64();
    let s = engine.maintenance_stats();
    println!("maintenance ({reps} insert+delete pairs):");
    println!("  seconds:                {seconds:.6}");
    if reps > 0 {
        let per = seconds * 1e6 / (2 * reps) as f64;
        println!("  per mutation:           {per:.1} µs");
    }
    println!("  fast inserts:           {}", s.fast_inserts);
    println!("  full inserts:           {}", s.full_inserts);
    println!("  fast deletes:           {}", s.fast_deletes);
    println!("  full deletes:           {}", s.full_deletes);
    println!("  spliced index updates:  {}", s.spliced);
    println!("  generation:             {}", engine.generation());
    Ok(())
}

/// `--space`: a query subspace token as the workload grammar reads it, that
/// must also lie within the cube's `dims`-dimensional full space.
fn parse_space(s: &str, dims: usize) -> Result<DimMask, String> {
    let m = skycube::serve::parse_space(s)?;
    if !m.is_subset_of(DimMask::full(dims)) {
        return Err(format!("subspace {s:?} not within the {dims}-d full space"));
    }
    Ok(m)
}

fn cmd_skyline(opts: &Opts) -> Result<(), String> {
    let cube = load_cube(opts)?;
    let space = parse_space(req(opts, "space")?, cube.dims())?;
    let sky = cube.try_subspace_skyline(space)?;
    println!("skyline({space}) has {} objects:", sky.len());
    for o in sky {
        println!("  {o}");
    }
    Ok(())
}

fn cmd_member(opts: &Opts) -> Result<(), String> {
    let cube = load_cube(opts)?;
    let space = parse_space(req(opts, "space")?, cube.dims())?;
    let o: ObjId = num(req(opts, "object")?, "object id")?;
    if o as usize >= cube.num_objects() {
        return Err(format!("object {o} out of range"));
    }
    if cube.is_skyline_in(o, space) {
        println!("object {o} IS in the skyline of {space}");
    } else {
        println!("object {o} is NOT in the skyline of {space}");
    }
    for (decisive, maximal) in cube.membership_intervals(o) {
        for c in decisive {
            println!("  member of every subspace between {c} and {maximal}");
        }
    }
    Ok(())
}

fn cmd_top(opts: &Opts) -> Result<(), String> {
    let cube = load_cube(opts)?;
    let k: usize = num(opts.get("k").map_or("10", String::as_str), "k")?;
    println!("top-{k} most frequent subspace-skyline objects:");
    for (o, n) in cube.top_k_frequent(k) {
        println!("  object {o}: {n} subspaces");
    }
    Ok(())
}

/// `query`: parse a workload (file or stdin), answer it through the chosen
/// [`SkylineSource`], print one answer per line plus a `#`-prefixed stats
/// summary.
fn cmd_query(opts: &Opts) -> Result<(), String> {
    // Refuse the source options the chosen source does not read, before
    // any work.
    let source = opts.get("source").map_or("stellar", String::as_str);
    let unread: &[&str] = match source {
        "stellar" => &[],
        "stellar-scan" => &["fallback"],
        "direct" => &["fallback", "cube"],
        other => {
            return Err(format!(
                "unknown --source {other:?} (expected stellar, stellar-scan or direct)"
            ))
        }
    };
    if let Some(opt) = unread.iter().find(|&&opt| opts.contains_key(opt)) {
        return Err(format!("--{opt} is not read by --source {source}"));
    }
    #[cfg(not(feature = "faults"))]
    if opts.contains_key("inject-faults") {
        return Err("--inject-faults needs a build with the `faults` feature \
             (cargo build --release --features faults)"
            .to_owned());
    }
    #[cfg(feature = "faults")]
    let plan = match opts.get("inject-faults") {
        Some(spec) => skycube::serve::faults::FaultPlan::parse(spec)?,
        None => skycube::serve::faults::FaultPlan::default(),
    };
    #[cfg(feature = "faults")]
    refuse_unacted_faults(&plan, |fault| match fault {
        "panic-route" | "slow-route" | "corrupt-cube" if source != "stellar" => {
            Some("needs --source stellar")
        }
        "poison-cache" if !opts.contains_key("cache") => Some("needs --cache"),
        "kill-mid-mutation" | "torn-wal-tail" | "slow-client" => {
            Some("is not acted on by query (it is a serve fault)")
        }
        _ => None,
    })?;
    // An active fault plan runs the stellar source behind the fallback
    // ladder, whose last rung reads --data.
    #[cfg(feature = "faults")]
    let want_fallback = opts.contains_key("fallback") || plan.is_active();
    #[cfg(not(feature = "faults"))]
    let want_fallback = opts.contains_key("fallback");
    // With --cube, the cube comes from the file: only the stellar source's
    // fallback ladder still reads --data.
    if opts.contains_key("cube")
        && opts.contains_key("data")
        && !(source == "stellar" && want_fallback)
    {
        return Err(format!(
            "--data is not read by --source {source} with --cube \
             (only the --fallback ladder of --source stellar reads both)"
        ));
    }
    let text = match opts.get("workload").map(String::as_str) {
        None | Some("-") => {
            use std::io::Read;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading workload from stdin: {e}"))?;
            buf
        }
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading workload {path:?}: {e}"))?
        }
    };
    let queries = parse_workload(&text).map_err(|e| format!("bad workload: {e}"))?;
    let par = match opts.get("threads") {
        Some(t) => {
            let threads: usize = num(t, "thread count")?;
            if threads == 0 {
                return Err("--threads must be at least 1".to_owned());
            }
            Parallelism::new(threads)
        }
        None => Parallelism::available(),
    };
    let cache = match opts.get("cache") {
        Some(n) => Some(num::<usize>(n, "cache capacity")?),
        None => None,
    };
    let stats = opts.contains_key("stats");
    let deadline = match opts.get("deadline-ms") {
        Some(ms) => Some(std::time::Duration::from_millis(num::<u64>(
            ms,
            "deadline (ms)",
        )?)),
        None => None,
    };
    let serving = Serving {
        par,
        cache,
        stats,
        options: BatchOptions {
            deadline,
            generation: None,
        },
        #[cfg(feature = "faults")]
        plan,
    };

    // A stellar cube comes from --cube when given, otherwise it is built
    // from --data.
    let stellar_cube = |opts: &Opts| -> Result<CompressedSkylineCube, String> {
        if opts.contains_key("cube") {
            load_cube(opts)
        } else {
            Ok(runner(opts)?.compute(&load_data(opts)?))
        }
    };
    match source {
        "stellar" => {
            if !want_fallback {
                let cube = stellar_cube(opts)?;
                return serve_workload(IndexedCubeSource::new(&cube), &queries, &serving);
            }
            // The degradation ladder: indexed -> scan (same cube) -> direct
            // (only when --data gives us a dataset to compute from).
            let ds = match opts.contains_key("data") {
                true => Some(load_data(opts)?),
                false => None,
            };
            let cube = stellar_cube_checked(opts, &serving, &stellar_cube, ds.as_ref())?;
            let indexed = IndexedCubeSource::new(&cube);
            let scan = ScanCubeSource::new(&cube);
            let direct = ds.as_ref().map(DirectSource::new);
            #[cfg(feature = "faults")]
            let faulty = skycube::serve::faults::FaultySource::new(&indexed, serving.plan);
            #[cfg(feature = "faults")]
            let primary: &dyn SkylineSource = if serving.plan.is_active() {
                &faulty
            } else {
                &indexed
            };
            #[cfg(not(feature = "faults"))]
            let primary: &dyn SkylineSource = &indexed;
            let mut ladder = FallbackSource::new(primary).then(&scan);
            if let Some(d) = direct.as_ref() {
                ladder = ladder.then(d);
            }
            serve_workload(ladder, &queries, &serving)
        }
        "stellar-scan" => {
            let cube = stellar_cube(opts)?;
            serve_workload(ScanCubeSource::new(&cube), &queries, &serving)
        }
        // "direct", the one other source the check above lets through.
        _ => {
            let ds = load_data(opts)?;
            serve_workload(DirectSource::new(&ds), &queries, &serving)
        }
    }
}

/// Produce the stellar cube for the fallback ladder. Under the
/// `corrupt-cube` fault this garbles the cube's serialized image, shows
/// that loading it yields a classified error (never a panic), and degrades
/// by rebuilding from `--data`; without `--data` the classified error is
/// the final answer.
#[cfg(feature = "faults")]
fn stellar_cube_checked(
    opts: &Opts,
    serving: &Serving,
    stellar_cube: &dyn Fn(&Opts) -> Result<CompressedSkylineCube, String>,
    ds: Option<&Dataset>,
) -> Result<CompressedSkylineCube, String> {
    let clean = stellar_cube(opts)?;
    if !serving.plan.corrupt_cube {
        return Ok(clean);
    }
    // Garble both serialized images — the text cube and the binary
    // cube+index — and require each load to classify the damage (a
    // structured error or a survivable no-op), never panic.
    let mut text = Vec::new();
    stellar::write_cube(&clean, &mut text).map_err(|e| e.to_string())?;
    let mut bin = Vec::new();
    stellar::write_cube_binary(&clean, &mut bin).map_err(|e| e.to_string())?;
    let mut verdict = String::new();
    for (what, bytes) in [("text", text), ("binary", bin)] {
        let garbled = skycube::serve::faults::corrupt_bytes(&bytes, serving.plan.seed);
        verdict = match stellar::read_cube(&garbled[..]) {
            Ok(_) => {
                format!("{what} corruption survived structural validation; discarding the artifact")
            }
            Err(e) => format!("corrupt {what} cube load classified: {e}"),
        };
        eprintln!("# fault: {verdict}");
    }
    match ds {
        Some(ds) => {
            eprintln!("# fault: degraded to rebuilding the cube from --data");
            Ok(runner(opts)?.compute(ds))
        }
        None => Err(format!("{verdict}; no --data to rebuild from")),
    }
}

#[cfg(not(feature = "faults"))]
fn stellar_cube_checked(
    opts: &Opts,
    _serving: &Serving,
    stellar_cube: &dyn Fn(&Opts) -> Result<CompressedSkylineCube, String>,
    _ds: Option<&Dataset>,
) -> Result<CompressedSkylineCube, String> {
    stellar_cube(opts)
}

/// Refuse the first planned fault that `why_not` says the command will not
/// act on: a fault that never fires must not pass for one that was
/// survived.
#[cfg(feature = "faults")]
fn refuse_unacted_faults(
    plan: &skycube::serve::faults::FaultPlan,
    why_not: impl Fn(&str) -> Option<&'static str>,
) -> Result<(), String> {
    match plan.faults().find_map(|f| why_not(f).map(|why| (f, why))) {
        Some((fault, why)) => Err(format!("--inject-faults {fault} {why}")),
        None => Ok(()),
    }
}

/// `serve`: build the engine once from `--data` (or recover it from a
/// checkpoint + WAL with `--wal`), then answer the daemon protocol on
/// stdin and — with `--socket PATH` and/or `--listen HOST:PORT` — through
/// a bounded worker pool on the listeners, all sharing the same warm
/// index, cache and scratch pool. See
/// [`skycube::serve::daemon`] for the protocol and durability contract.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    use skycube::serve::daemon::ConnectionEnd;
    use std::sync::Arc;

    let ds = load_data(opts)?;
    let t = std::time::Instant::now();
    let run = runner(opts)?;
    let threads = match opts.get("threads") {
        Some(t) => {
            let threads: usize = num(t, "thread count")?;
            if threads == 0 {
                return Err("--threads must be at least 1".to_owned());
            }
            Parallelism::new(threads)
        }
        None => Parallelism::available(),
    };
    let deadline = match opts.get("deadline-ms") {
        Some(ms) => Some(std::time::Duration::from_millis(num::<u64>(
            ms,
            "deadline (ms)",
        )?)),
        None => None,
    };
    #[cfg(not(feature = "faults"))]
    if opts.contains_key("inject-faults") {
        return Err("--inject-faults needs a build with the `faults` feature \
             (cargo build --release --features faults)"
            .to_owned());
    }
    #[cfg(feature = "faults")]
    let plan = match opts.get("inject-faults") {
        Some(spec) => skycube::serve::faults::FaultPlan::parse(spec)?,
        None => skycube::serve::faults::FaultPlan::default(),
    };
    #[cfg(feature = "faults")]
    refuse_unacted_faults(&plan, |fault| match fault {
        "corrupt-cube" | "poison-cache" => Some("is not acted on by serve (it is a query fault)"),
        "torn-wal-tail" | "kill-mid-mutation" if !opts.contains_key("wal") => Some("needs --wal"),
        _ => None,
    })?;
    let wal_path = opts.get("wal").map(std::path::PathBuf::from);
    let checkpoint_every = match opts.get("checkpoint-every") {
        Some(n) => {
            let every: u64 = num(n, "checkpoint interval")?;
            if every == 0 {
                return Err("--checkpoint-every must be at least 1".to_owned());
            }
            if wal_path.is_none() {
                return Err("--checkpoint-every needs --wal".to_owned());
            }
            Some(every)
        }
        None => None,
    };
    let config = DaemonConfig {
        cache_capacity: match opts.get("cache") {
            Some(n) => num::<usize>(n, "cache capacity")?,
            None => DaemonConfig::default().cache_capacity,
        },
        threads,
        deadline,
        #[cfg(feature = "faults")]
        plan,
        ..DaemonConfig::default()
    };
    // With --wal the engine comes out of crash recovery: committed
    // checkpoint (if any) + replayed log tail ≡ a clean rebuild. Without
    // one it is built fresh from --data.
    let daemon = match &wal_path {
        Some(path) => {
            #[cfg(feature = "faults")]
            if let Some(bytes) = plan.torn_wal_tail {
                tear_wal_tail(path, bytes, plan.seed)?;
            }
            let rec = skycube::serve::recover(path, &ds, run).map_err(|e| e.to_string())?;
            if let Some(torn) = &rec.torn {
                eprintln!("# wal: {torn}");
            }
            eprintln!(
                "# recovered: wal_replayed={} base_generation={} from_checkpoint={}",
                rec.replayed, rec.base_generation, rec.from_checkpoint
            );
            Arc::new(Daemon::new(rec.engine, config).with_wal(
                rec.wal,
                rec.replayed,
                checkpoint_every,
            ))
        }
        None => Arc::new(Daemon::new(StellarEngine::with_runner(&ds, run), config)),
    };
    // Status goes to stderr so protocol replies own stdout; the "ready"
    // line is what smoke scripts wait for.
    eprintln!(
        "# warm in {:.2?}: {} objects × {} dims, generation {}",
        t.elapsed(),
        ds.len(),
        ds.dims(),
        daemon.metrics().generation
    );
    let pool = PoolConfig {
        workers: match opts.get("workers") {
            Some(n) => {
                let w: usize = num(n, "worker count")?;
                if w == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
                w
            }
            None => PoolConfig::default().workers,
        },
        backlog: match opts.get("backlog") {
            Some(n) => num(n, "backlog size")?,
            None => PoolConfig::default().backlog,
        },
        io_timeout: match opts.get("io-timeout-ms") {
            Some(ms) => std::time::Duration::from_millis(num(ms, "io timeout (ms)")?),
            None => PoolConfig::default().io_timeout,
        },
        idle_timeout: match opts.get("idle-timeout-ms") {
            Some(ms) => std::time::Duration::from_millis(num(ms, "idle timeout (ms)")?),
            None => PoolConfig::default().idle_timeout,
        },
    };
    let socket = opts.get("socket");
    let tcp = match opts.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("binding tcp {addr:?}: {e}"))?;
            let bound = listener.local_addr().map_err(|e| e.to_string())?;
            // The bound address (port 0 resolves here) is what smoke
            // scripts and tests parse to find the daemon.
            eprintln!("# ready: listening on tcp {bound}");
            Some(listener)
        }
        None => None,
    };
    if socket.is_some() || tcp.is_some() {
        let unix = match socket {
            Some(path) => {
                let p = std::path::PathBuf::from(path);
                let _ = std::fs::remove_file(&p);
                let listener = std::os::unix::net::UnixListener::bind(&p)
                    .map_err(|e| format!("binding {path:?}: {e}"))?;
                eprintln!("# ready: listening on {path} (and stdin)");
                Some((listener, p))
            }
            None => None,
        };
        // stdin is one more connection; `quit` there stops the whole
        // daemon (there is no second chance to type into stdin), while
        // EOF just detaches it and the listeners keep serving.
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let end = d.serve_connection(std::io::stdin().lock(), std::io::stdout().lock());
            if matches!(end, Ok(ConnectionEnd::Quit)) {
                d.request_shutdown();
            }
        });
        daemon
            .serve_bound(unix, tcp, pool)
            .map_err(|e| format!("serving listeners: {e}"))?;
    } else {
        eprintln!("# ready: serving on stdin");
        daemon
            .serve_connection(std::io::stdin().lock(), std::io::stdout().lock())
            .map_err(|e| e.to_string())?;
        daemon.sync_wal();
    }
    if opts.contains_key("metrics") {
        print!("{}", daemon.metrics_text());
    }
    Ok(())
}

/// The `torn-wal-tail` fault: append deterministic garbage to the WAL
/// before the daemon opens it, so recovery provably exercises the
/// truncation path (and reports the [`skycube::serve::TornTail`]
/// diagnostic).
#[cfg(feature = "faults")]
fn tear_wal_tail(path: &std::path::Path, bytes: u64, seed: u64) -> Result<(), String> {
    use std::io::Write;
    if !path.exists() {
        eprintln!(
            "# fault: torn-wal-tail skipped (no wal at {})",
            path.display()
        );
        return Ok(());
    }
    // A cheap deterministic byte stream; xorshift so the garbage is
    // reproducible from the plan's seed alone.
    let mut x = seed | 1;
    let garbage: Vec<u8> = (0..bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| format!("tearing wal tail: {e}"))?;
    f.write_all(&garbage)
        .map_err(|e| format!("tearing wal tail: {e}"))?;
    eprintln!(
        "# fault: appended {bytes} garbage bytes to {}",
        path.display()
    );
    Ok(())
}

/// The two transports `connect` speaks, behind one read/write surface.
enum ClientStream {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl ClientStream {
    fn set_timeouts(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            ClientStream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.shutdown(std::net::Shutdown::Write),
            ClientStream::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }
}

impl std::io::Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl std::io::Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// Whether a connect failure is worth retrying: the daemon may still be
/// binding (refused / socket file not there yet) or shedding (reset).
fn transient_connect_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::NotFound
    )
}

/// Connect with `--retries` exponential backoff + jitter. The jitter is a
/// cheap xorshift seeded from the clock and pid — its only job is to keep
/// a fleet of retrying clients from re-stampeding in lockstep.
fn connect_with_retries(
    dial: &dyn Fn() -> std::io::Result<ClientStream>,
    what: &str,
    retries: u64,
) -> Result<ClientStream, String> {
    let mut jitter = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.subsec_nanos() as u64)
        ^ u64::from(std::process::id())
        | 1;
    let mut roll = |bound: u64| {
        jitter ^= jitter << 13;
        jitter ^= jitter >> 7;
        jitter ^= jitter << 17;
        if bound == 0 {
            0
        } else {
            jitter % bound
        }
    };
    let mut attempt = 0u64;
    loop {
        match dial() {
            Ok(stream) => return Ok(stream),
            Err(e) if attempt < retries && transient_connect_error(&e) => {
                let backoff = std::time::Duration::from_millis(50)
                    .saturating_mul(1u32 << attempt.min(10) as u32)
                    .min(std::time::Duration::from_secs(2));
                let delay = backoff
                    + std::time::Duration::from_millis(roll(
                        (backoff.as_millis() as u64 / 2).max(1),
                    ));
                eprintln!(
                    "# retry {}/{retries}: connecting to {what}: {e}; backing off {delay:.0?}",
                    attempt + 1
                );
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) => return Err(format!("connecting to {what}: {e}")),
        }
    }
}

/// `connect`: client for `serve` — send a workload (file or stdin) to a
/// resident daemon over its Unix socket (`--socket`) or TCP endpoint
/// (`--tcp`), half-close, and stream the reply lines to stdout until the
/// daemon is done with us. `--retries N` retries refused/reset connects
/// with exponential backoff + jitter; `--timeout-ms` bounds every send and
/// recv on the wire.
fn cmd_connect(opts: &Opts) -> Result<(), String> {
    use std::io::{Read, Write};

    let retries = match opts.get("retries") {
        Some(n) => num::<u64>(n, "retry count")?,
        None => 0,
    };
    let timeout = match opts.get("timeout-ms") {
        Some(ms) => {
            let ms: u64 = num(ms, "timeout (ms)")?;
            if ms == 0 {
                return Err("--timeout-ms must be at least 1".to_owned());
            }
            Some(std::time::Duration::from_millis(ms))
        }
        None => None,
    };
    let text = match opts.get("workload").map(String::as_str) {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading workload from stdin: {e}"))?;
            buf
        }
        Some(file) => {
            std::fs::read_to_string(file).map_err(|e| format!("reading workload {file:?}: {e}"))?
        }
    };
    let mut stream = match (opts.get("socket"), opts.get("tcp")) {
        (Some(path), None) => {
            let path = path.clone();
            connect_with_retries(
                &move || std::os::unix::net::UnixStream::connect(&path).map(ClientStream::Unix),
                &format!("{:?}", req(opts, "socket")?),
                retries,
            )?
        }
        (None, Some(addr)) => {
            let addr = addr.clone();
            connect_with_retries(
                &move || std::net::TcpStream::connect(&addr).map(ClientStream::Tcp),
                &format!("tcp {:?}", req(opts, "tcp")?),
                retries,
            )?
        }
        (Some(_), Some(_)) => return Err("--socket and --tcp are mutually exclusive".to_owned()),
        (None, None) => return Err("missing --socket (or --tcp HOST:PORT)".to_owned()),
    };
    stream.set_timeouts(timeout).map_err(|e| e.to_string())?;
    stream
        .write_all(text.as_bytes())
        .map_err(|e| e.to_string())?;
    if !text.ends_with('\n') {
        stream.write_all(b"\n").map_err(|e| e.to_string())?;
    }
    // Half-close so the daemon sees EOF after the workload and finishes
    // the connection once every reply has been written.
    stream.shutdown_write().map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout().lock();
    std::io::copy(&mut stream, &mut stdout).map_err(|e| e.to_string())?;
    Ok(())
}

/// Everything `serve_workload` needs besides the source and the queries.
struct Serving {
    par: Parallelism,
    cache: Option<usize>,
    stats: bool,
    options: BatchOptions,
    #[cfg(feature = "faults")]
    plan: skycube::serve::faults::FaultPlan,
}

fn serve_workload<S: SkylineSource>(
    source: S,
    queries: &[Query],
    serving: &Serving,
) -> Result<(), String> {
    match serving.cache {
        Some(n) => {
            let cached = CachedSource::new(source, n);
            #[cfg(feature = "faults")]
            if serving.plan.poison_cache {
                cached.cache().poison();
                eprintln!("# fault: poisoned the subspace cache lock");
            }
            report_batch(&cached, queries, serving)
        }
        None => report_batch(&source, queries, serving),
    }
}

fn report_batch(
    source: &dyn SkylineSource,
    queries: &[Query],
    serving: &Serving,
) -> Result<(), String> {
    let stats = serving.stats;
    let outcome = run_batch_with(source, queries, serving.par, &serving.options);
    for (query, answer) in queries.iter().zip(&outcome.answers) {
        // The one canonical rendering, shared with the daemon's protocol
        // replies — what `serve` sends over a socket is byte-identical to
        // what a one-shot `query` prints.
        println!("{}", skycube::serve::format_answer(query, answer));
    }
    let s = outcome.stats;
    println!(
        "# source={} queries={} errors={} seconds={:.6} groups_touched={} cache_hits={} cache_misses={} demotions={}",
        source.label(),
        s.queries,
        s.errors,
        s.seconds,
        s.groups_touched,
        s.cache_hits,
        s.cache_misses,
        s.demotions
    );
    if stats {
        match s.index {
            Some(index) => report_index_stats(&index),
            None => println!("# index stats unavailable for source={}", source.label()),
        }
    }
    if s.errors > 0 {
        return Err(format!("{} of {} queries failed", s.errors, s.queries));
    }
    Ok(())
}

/// Print the `--stats` breakdown: one line per merge route, the lattice-memo
/// outcome counters, and the log₂ workload histograms.
fn report_index_stats(index: &skycube::serve::IndexStats) {
    for route in stellar::MergeRoute::ALL {
        let r = index.routes[route.index()];
        println!(
            "# route={} queries={} nanos={}",
            route.name(),
            r.queries,
            r.nanos
        );
    }
    println!(
        "# memo exact={} ancestor={} miss={}",
        index.memo_exact, index.memo_ancestor, index.memo_miss
    );
    let join = |hist: &[u64; 16]| {
        hist.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("# runs_hist={}", join(&index.runs_hist));
    println!("# elems_hist={}", join(&index.elems_hist));
}
