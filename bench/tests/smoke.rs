//! The benchmark's one command, run for real: a traced run spawns the
//! server, drives it twice on one stage (untraced, then traced), judges
//! each drive's answers, and reports every per-layer metric.

use std::process::Command;

#[test]
fn a_traced_run_drives_twice_on_one_stage_and_judges_each_drive() {
    let out = Command::new(env!("CARGO_BIN_EXE_qcb"))
        .args(["--workload", "ingest_mix", "--seed", "1", "--seconds", "5", "--trace", "1"])
        .output()
        .expect("qcb runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Both drives were judged, each on its own, and the server's answers
    // and counts held in both. (The timing gate — schedule kept — is the
    // machine's to fail, not this test's.)
    for gate in ["ingest_conservation", "store_conservation", "rank_error_within_gate"] {
        let passed =
            stdout.lines().filter(|l| l.starts_with(&format!("# gate {gate} pass"))).count();
        assert_eq!(passed, 2, "{gate}\n{stdout}\n{stderr}");
    }
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": "), "{result}");
    for metric in ["ingest.visible_lag_p50_us", "store.query_miss_ns", "replay.store_ns"] {
        assert!(result.contains(metric), "{metric} missing from {result}");
    }
}
