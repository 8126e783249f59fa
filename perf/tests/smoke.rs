//! Runs the harness binary end to end at 1/50 of the op counts: every
//! workload, both output modes, the oracle and the result line.

use std::process::Command;

/// Runs `perf --smoke <args>`; returns the last stdout line (the contract's
/// result object) after asserting the run succeeded.
fn smoke(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("--smoke")
        .args(args)
        .output()
        .expect("run the harness");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "perf --smoke {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.starts_with("env: nproc="), "every run starts with the environment header");
    stdout.lines().last().expect("a result line").to_string()
}

fn assert_result(line: &str, metrics: &[&str]) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    for metric in metrics {
        assert!(line.contains(&format!("\"{metric}\": {{\"value\": ")), "{metric} missing: {line}");
    }
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for workload in ["read_hot", "write_quorum", "gateway_mixed", "bulk_sealed"] {
        let line = smoke(&["--workload", workload, "--trace", "0"]);
        assert_result(
            &line,
            &[
                "throughput_ops_s",
                "cpu_us_per_op",
                "latency_p50_us",
                "latency_p95_us",
                "rss_mb",
                "setup_s",
            ],
        );
    }
}

#[test]
fn the_layers_run_reports_probes_deltas_twins_and_the_ledger() {
    let line = smoke(&["--workload", "write_quorum", "--trace", "1"]);
    assert_result(
        &line,
        &[
            "persist.wal_fsync_us",
            "zab.forwards_per_write",
            "zkserver.stage_wal_fsync_us",
            "core.secure_ratio",
            "gateway.tax_us",
            "trace.residue_us",
            "perf.tracing_overhead_pct",
        ],
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the harness");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
