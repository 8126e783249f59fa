//! The metric catalogue: every name the harness reports, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` lists the
//! same catalogue; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: None }
}

/// What a user of the service sees. Same six on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("throughput_ops_s", "ops/s", true, 0.15),
    e2e("cpu_us_per_op", "us", false, 0.15),
    e2e("latency_p50_us", "us", false, 0.20),
    e2e("latency_p95_us", "us", false, 0.25),
    e2e("rss_mb", "MiB", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// One layer each; the prefix is the crate that owns the cost.
///
/// Stage rows are `us/op`: the stage histogram's accumulated seconds over
/// the run divided by the run's operations — zero where a workload never
/// enters the stage — so rows of one workload add up to a per-op cost.
pub const PER_LAYER: &[Metric] = &[
    // probes
    layer("jute.encode_request_ns", "ns", false),
    layer("jute.decode_request_ns", "ns", false),
    layer("jute.decode_response_ns", "ns", false),
    layer("jute.frame_reassemble_ns", "ns", false),
    layer("netcore.echo_rtt_us", "us", false),
    layer("netcore.echo_pipelined_ops_s", "ops/s", true),
    layer("zkcrypto.gcm_seal_ns", "ns", false),
    layer("zkcrypto.gcm_open_ns", "ns", false),
    layer("sgx-sim.ecall_ns", "ns", false),
    layer("core.transport_seal_ns", "ns", false),
    layer("core.transport_open_ns", "ns", false),
    layer("core.payload_seal_ns", "ns", false),
    layer("core.payload_open_ns", "ns", false),
    layer("core.path_encrypt_hit_ns", "ns", false),
    layer("core.path_encrypt_miss_ns", "ns", false),
    layer("core.entry_request_ns", "ns", false),
    layer("core.entry_response_ns", "ns", false),
    layer("zab.sim_commit_us", "us", false),
    layer("zab.wire_roundtrip_ns", "ns", false),
    layer("persist.wal_append_ns", "ns", false),
    layer("persist.wal_fsync_us", "us", false),
    layer("zkserver.tree_get_ns", "ns", false),
    layer("zkserver.tree_set_ns", "ns", false),
    layer("gateway.route_ns", "ns", false),
    layer("gateway.lane_merge_ns", "ns", false),
    layer("gateway.threads", "count", false),
    // registry deltas over the traced closed loop
    layer("core.path_cache_hit_ratio", "ratio", true),
    layer("core.frames_sealed_per_op", "count", false),
    layer("zab.proposals_per_write", "count", false),
    layer("zab.forwards_per_write", "count", false),
    layer("persist.fsyncs_per_write", "count", false),
    layer("persist.disk_bytes_per_user_byte", "ratio", false),
    layer("zkserver.stage_queue_wait_us", "us/op", false),
    layer("zkserver.stage_propose_us", "us/op", false),
    layer("zkserver.stage_quorum_ack_us", "us/op", false),
    layer("zkserver.stage_wal_fsync_us", "us/op", false),
    layer("zkserver.stage_apply_us", "us/op", false),
    layer("zkserver.stage_reply_flush_us", "us/op", false),
    layer("core.stage_open_us", "us/op", false),
    layer("core.stage_seal_us", "us/op", false),
    layer("gateway.stage_route_us", "us/op", false),
    layer("zkserver.write_drift_ratio", "ratio", true),
    // twins: paired legs interleaved in blocks, depth 1, pinned
    layer("core.secure_tax_us", "us", false),
    layer("core.secure_ratio", "ratio", false),
    layer("gateway.tax_us", "us", false),
    // flight recorder, secure leg of the twin
    layer("trace.client_call_us", "us", false),
    layer("trace.residue_us", "us", false),
    layer("trace.coverage_ratio", "ratio", true),
    // the instrument itself
    layer("perf.latency_p99_us", "us", false),
    layer("perf.gen_lag_p50_us", "us", false),
    layer("perf.gen_lag_p99_us", "us", false),
    layer("perf.offered_achieved_ratio", "ratio", true),
    layer("perf.tracing_overhead_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"name": "<x>"` ... `"unit": "<u>"` ... `"better": "<b>"`
    /// triple out of one array of `BENCHMARK.json`. The file is flat enough
    /// that a scan does; a JSON parser would be a dependency.
    fn entries(json: &str, array: &str) -> Vec<(String, String, String, Option<f64>)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |object: &str, key: &str| {
            let at = object.find(&format!("\"{key}\""))? + key.len() + 2;
            let rest = object[at..].trim_start_matches([':', ' ']);
            Some(rest.trim_start_matches('"').split(['"', ',', '}']).next()?.trim().to_string())
        };
        body.split('{')
            .skip(1)
            .map(|object| {
                (
                    field(object, "name").expect("name"),
                    field(object, "unit").expect("unit"),
                    field(object, "better").expect("better"),
                    field(object, "bound").and_then(|bound| bound.parse().ok()),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perf/");
        for (array, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&json, array);
            assert_eq!(listed.len(), catalogue.len(), "{array}: length");
            for (metric, (name, unit, better, bound)) in catalogue.iter().zip(listed) {
                assert_eq!(metric.name, name);
                assert_eq!(metric.unit, unit, "{name}");
                assert_eq!(metric.higher_is_better, better == "higher", "{name}");
                assert_eq!(metric.bound, bound, "{name}");
            }
        }
        for spec in crate::workloads::SPECS.iter() {
            assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)), "{}", spec.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
            assert!(metric.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(metric.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
