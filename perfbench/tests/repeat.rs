//! Every workload at smoke size, run twice with the same seed: replies
//! check out, the staged build equals the engine's cube, the counts that
//! must repeat do, and the metrics printed are exactly those
//! `BENCHMARK.json` lists.

use skycube_perfbench::bench::{run, Config, Report};
use skycube_perfbench::workload::Workload;
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        smoke: true,
        out_dir: PathBuf::from(".bench_out"),
    };
    let report = run(&cfg).expect("smoke run completes");
    assert!(report.correct, "{workload:?}: {:?}", report.problems);
    assert_eq!(report.failed, 0);
    report
}

/// Metric names of one array (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
                .to_owned()
        })
        .collect()
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.to_owned()).collect()
}

#[test]
fn traced_smoke_runs_repeat_exactly() {
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        let first = smoke(workload, true);
        let second = smoke(workload, true);
        assert_eq!(first.staged_matches, Some(true), "{workload:?}");
        assert_eq!(first.repeat, second.repeat, "{workload:?}");
        assert!(first.repeat.reply_bytes > 0);
        assert!(first.repeat.cache_hits + first.repeat.cache_misses > 0);
        let writes: u64 = first.repeat.maintenance.iter().sum();
        assert!(writes > 0, "{workload:?} replayed no writes");
        if workload == Workload::MixedWrites {
            // The recovered WAL tail plus one record per stream write.
            assert!(first.repeat.wal_records > writes);
        } else {
            assert_eq!(
                first.repeat.wal_records, 0,
                "read-only daemons run without a WAL"
            );
        }
        assert_eq!(first.attempted, second.attempted);
        assert_eq!(names(&first), per_layer, "{workload:?}");
    }
}

#[test]
fn untraced_smoke_runs_print_every_end_to_end_metric() {
    let end_to_end = listed("end_to_end");
    for workload in Workload::ALL {
        let report = smoke(workload, false);
        assert_eq!(names(&report), end_to_end, "{workload:?}");
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{workload:?}: {:?}",
            report.metrics
        );
    }
}
