//! Run the entire evaluation suite (Figures 8–12) and print an
//! `EXPERIMENTS.md`-ready report. `--json PATH` additionally writes every
//! measurement — including the ablations — machine-readably.
use skycube_bench::{figures, write_json_report, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse();
    println!("# Experimental report — Stellar vs Skyey (ICDE 2007 reproduction)\n");
    let mut records = Vec::new();
    records.extend(figures::fig08(&args));
    records.extend(figures::fig09(&args));
    records.extend(figures::fig10(&args));
    records.extend(figures::fig11(&args));
    records.extend(figures::fig12(&args));
    records.extend(figures::threads_ablation(&args));
    records.extend(figures::queries_ablation(&args));
    records.extend(figures::maintenance_ablation(&args));
    records.extend(figures::persist_ablation(&args));
    write_json_report(&args, "all_experiments", &records);
}
