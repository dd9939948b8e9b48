//! `BENCHMARK.json`, generated from the tables the benchmark itself runs
//! from — so the file at the repository root cannot drift from the code
//! (a test compares them).

use crate::report::Json;
use crate::run::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// `run_seconds`: how long one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The one command; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "bench/Cargo.toml",
    "--bin",
    "qcb",
    "--",
];

fn metric(def: &MetricDef, bounded: bool) -> Json {
    let better = if def.better == Better::Lower { "lower" } else { "higher" };
    let entry =
        Json::object().field("name", def.name).field("unit", def.unit).field("better", better);
    if bounded {
        entry.field("bound", def.bound)
    } else {
        entry
    }
}

fn array(key: &str, items: Vec<Json>) -> String {
    let lines: Vec<String> = items.iter().map(|item| format!("    {}", item.render())).collect();
    format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command = Json::from(COMMAND.iter().map(|&s| Json::from(s)).collect::<Vec<_>>());
    let workloads = Workload::ALL
        .iter()
        .map(|w| Json::object().field("name", w.name()).field("why", w.why()))
        .collect();
    let sections = [
        format!("  \"command\": {}", command.render()),
        "  \"paths\": [\"bench\"]".to_string(),
        format!("  \"run_seconds\": {RUN_SECONDS}"),
        array("workloads", workloads),
        array("end_to_end", END_TO_END.iter().map(|d| metric(d, true)).collect()),
        array("per_layer", PER_LAYER.iter().map(|d| metric(d, false)).collect()),
    ];
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_file_at_the_root_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest(), "regenerate with `qcb manifest > BENCHMARK.json`");
    }

    #[test]
    fn the_manifest_stays_inside_the_contracts_limits() {
        assert!(manifest().len() < 64 * 1024);
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let mut names = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.insert(def.name), "{} is used twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s gets the largest bound"
        );
        for w in Workload::ALL {
            assert!(names.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }
}
