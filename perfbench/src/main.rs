//! `skycube-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! Diagnostics go to standard error. Exits non-zero when any reply fails
//! its check.

use skycube_perfbench::bench::{run, Config, Report};
use skycube_perfbench::workload::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: skycube-perfbench --workload {} --seed N --seconds S --trace 0|1",
        names.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(Config {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("# check failed: {p}");
            }
            println!("{}", result_json(&report));
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            std::process::exit(1);
        }
    }
}
