//! Per-layer numbers read from the signals the program already exports:
//! registry counter and histogram deltas (`metrics().registry().flatten()`)
//! and flight-recorder spans (`trace::snapshot()`). Nothing here reaches
//! inside the program.

use std::collections::BTreeMap;

use trace::{SpanRecord, Stage};

use crate::env;
use crate::stats;
use crate::topo::Cluster;

/// One flattened scrape: series name (with labels) to value, summed over
/// every member and the gateway, plus the process's storage write counter.
pub type Flat = BTreeMap<String, f64>;

/// Key of the one series that does not come from a registry. The program
/// exports `zk_wal_bytes_total`, but that mirrors the bytes *currently* in
/// live WAL segments (a high-water mark that stops moving once segments
/// are purged), not bytes appended — so write amplification is read from
/// the kernel instead.
const STORAGE_BYTES: &str = "proc_io_write_bytes";

pub fn scrape(cluster: &Cluster) -> Flat {
    let mut flat = Flat::new();
    let registries = cluster
        .members()
        .map(|member| member.metrics().registry())
        .chain(cluster.gateway.iter().map(|gateway| gateway.registry()));
    for registry in registries {
        for (name, value) in registry.flatten() {
            *flat.entry(name).or_insert(0.0) += value;
        }
    }
    flat.insert(STORAGE_BYTES.to_string(), env::storage_bytes_written());
    flat
}

/// `after - before` for one series (0 when the series does not exist).
fn delta(before: &Flat, after: &Flat, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The registry-delta metrics of one closed-loop run, by metric name.
pub fn diff_metrics(
    before: &Flat,
    after: &Flat,
    ops: u64,
    writes: u64,
    user_bytes: u64,
) -> Vec<(&'static str, f64)> {
    let d = |name: &str| delta(before, after, name);
    let hits = d("zk_path_cache_hits_total");
    let misses = d("zk_path_cache_misses_total");
    // Seconds the stage's histogram accumulated, as µs per operation.
    let us_per_op = |family: &str, stage: &str| {
        ratio(d(&format!("{family}{{stage=\"{stage}\"}}_sum")) * 1e6, ops as f64)
    };
    vec![
        ("core.path_cache_hit_ratio", ratio(hits, hits + misses)),
        ("core.frames_sealed_per_op", ratio(d("zk_secure_frames_sealed_total"), ops as f64)),
        ("zab.proposals_per_write", ratio(d("zk_zab_proposals_total"), writes as f64)),
        ("zab.forwards_per_write", ratio(d("zk_zab_forwards_total"), writes as f64)),
        ("persist.fsyncs_per_write", ratio(d("zk_wal_fsyncs_total"), writes as f64)),
        ("persist.disk_bytes_per_user_byte", ratio(d(STORAGE_BYTES), user_bytes as f64)),
        ("zkserver.stage_queue_wait_us", us_per_op("zk_stage_duration_seconds", "queue_wait")),
        ("zkserver.stage_propose_us", us_per_op("zk_stage_duration_seconds", "propose")),
        ("zkserver.stage_quorum_ack_us", us_per_op("zk_stage_duration_seconds", "quorum_ack")),
        ("zkserver.stage_wal_fsync_us", us_per_op("zk_stage_duration_seconds", "wal_fsync")),
        ("zkserver.stage_apply_us", us_per_op("zk_stage_duration_seconds", "apply")),
        ("zkserver.stage_reply_flush_us", us_per_op("zk_stage_duration_seconds", "reply_flush")),
        ("core.stage_open_us", us_per_op("zk_stage_duration_seconds", "open")),
        ("core.stage_seal_us", us_per_op("zk_stage_duration_seconds", "seal")),
        ("gateway.stage_route_us", us_per_op("gw_stage_duration_seconds", "route")),
    ]
}

/// Where one traced request's time went: `client_call` duration and, per
/// stage, the *self* time — the part of the root interval during which
/// that stage's span was the innermost one open. Self times plus `residue`
/// equal `client_call` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    pub client_call_ns: f64,
    pub stage_ns: [f64; Stage::ALL.len()],
    pub residue_ns: f64,
}

/// Attributes one trace. `spans` are all spans of one trace id; returns
/// `None` when the `client_call` root is missing.
///
/// Stages nest (`quorum_ack` encloses `propose`, `wal_fsync` and `apply`)
/// and, on a quorum, overlap across members (three `wal_fsync`s at once),
/// so durations cannot simply be added. Sweeping the boundaries and
/// charging each elementary interval to the most recently opened span
/// covering it gives self times that add up; whatever no span covers is the
/// residue (client codec, socket, scheduler).
pub fn attribute(spans: &[SpanRecord]) -> Option<Attribution> {
    let root = spans.iter().find(|span| span.stage == Stage::ClientCall)?;
    let clip = |t: u64| t.clamp(root.start_ns, root.end_ns);
    let children: Vec<(u64, u64, Stage)> = spans
        .iter()
        .filter(|span| span.stage != Stage::ClientCall)
        .map(|span| (clip(span.start_ns), clip(span.end_ns), span.stage))
        .filter(|(start, end, _)| end > start)
        .collect();
    let mut cuts: Vec<u64> = children.iter().flat_map(|(start, end, _)| [*start, *end]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut stage_ns = [0.0; Stage::ALL.len()];
    for pair in cuts.windows(2) {
        let innermost = children
            .iter()
            .filter(|(start, end, _)| *start <= pair[0] && *end >= pair[1])
            .max_by_key(|(start, _, stage)| (*start, *stage as u8));
        if let Some((_, _, stage)) = innermost {
            stage_ns[*stage as usize] += (pair[1] - pair[0]) as f64;
        }
    }
    let client_call_ns = (root.end_ns - root.start_ns) as f64;
    let residue_ns = client_call_ns - stage_ns.iter().sum::<f64>();
    Some(Attribution { client_call_ns, stage_ns, residue_ns })
}

/// Groups spans by trace and attributes every complete one. The same span
/// can appear in successive snapshots; duplicates are dropped.
pub fn attribute_all(mut spans: Vec<SpanRecord>) -> Vec<Attribution> {
    spans.sort_unstable_by_key(|s| (s.trace_id, s.stage as u8, s.start_ns, s.end_ns, s.detail));
    spans.dedup();
    spans.chunk_by(|a, b| a.trace_id == b.trace_id).filter_map(attribute).collect()
}

/// One column of the ledger: the midmean (mean over the traces between the
/// quartiles of `client_call`) of every row, so rows add up to the total.
#[derive(Debug, Clone, Default)]
pub struct LedgerColumn {
    pub traces: usize,
    pub client_call_us: f64,
    pub stage_us: [f64; Stage::ALL.len()],
    pub residue_us: f64,
}

pub fn ledger_column(attributions: &[Attribution]) -> LedgerColumn {
    if attributions.is_empty() {
        return LedgerColumn::default();
    }
    let totals: Vec<f64> = attributions.iter().map(|a| a.client_call_ns).collect();
    let keep = stats::midmean_selection(&totals);
    let pick = |f: &dyn Fn(&Attribution) -> f64| {
        stats::mean(keep.iter().map(|&index| f(&attributions[index]))) / 1e3
    };
    let mut stage_us = [0.0; Stage::ALL.len()];
    for (index, slot) in stage_us.iter_mut().enumerate() {
        *slot = pick(&|a| a.stage_ns[index]);
    }
    LedgerColumn {
        traces: attributions.len(),
        client_call_us: pick(&|a| a.client_call_ns),
        stage_us,
        residue_us: pick(&|a| a.residue_ns),
    }
}

impl LedgerColumn {
    /// Share of `client_call` the recorded stages explain.
    pub fn coverage(&self) -> f64 {
        ratio(self.client_call_us - self.residue_us, self.client_call_us)
    }
}

/// Prints the ledger of one workload: one row per stage, secure beside
/// plain, then the residue and the total they add up to.
pub fn print_ledger(workload: &str, secure: &LedgerColumn, plain: &LedgerColumn) {
    println!(
        "ledger {workload}: midmean us per request at depth 1, pinned \
         (secure n={}, plain n={} traces)",
        secure.traces, plain.traces
    );
    println!("  {:<14} {:>10} {:>10} {:>10}", "row", "secure", "plain", "secure-plain");
    let row = |name: &str, s: f64, p: f64| {
        println!("  {name:<14} {s:>10.2} {p:>10.2} {:>10.2}", s - p);
    };
    for stage in Stage::ALL.iter().filter(|stage| **stage != Stage::ClientCall) {
        let index = *stage as usize;
        if secure.stage_us[index] != 0.0 || plain.stage_us[index] != 0.0 {
            row(stage.name(), secure.stage_us[index], plain.stage_us[index]);
        }
    }
    row("residue", secure.residue_us, plain.residue_us);
    row("= client_call", secure.client_call_us, plain.client_call_us);
    println!(
        "  coverage (sum of stages / client_call): secure {:.3}, plain {:.3}",
        secure.coverage(),
        plain.coverage()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, stage: Stage, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id: 0,
            parent_span_id: 0,
            stage,
            flags: 0,
            start_ns,
            end_ns,
            detail: 0,
        }
    }

    #[test]
    fn nested_and_overlapping_spans_add_up_to_the_root() {
        let spans = [
            span(1, Stage::ClientCall, 100, 1_100),
            span(1, Stage::Open, 150, 200),
            span(1, Stage::QuorumAck, 250, 900),
            span(1, Stage::Propose, 260, 300),
            // Two members fsync at once inside the agreement round.
            span(1, Stage::WalFsync, 320, 700),
            span(1, Stage::WalFsync, 330, 720),
            // A follower applies after the client already has its reply.
            span(1, Stage::Apply, 1_050, 1_400),
        ];
        let a = attribute(&spans).expect("root present");
        assert_eq!(a.client_call_ns, 1_000.0);
        assert_eq!(a.stage_ns[Stage::Open as usize], 50.0);
        assert_eq!(a.stage_ns[Stage::Propose as usize], 40.0);
        assert_eq!(a.stage_ns[Stage::WalFsync as usize], 400.0);
        assert_eq!(a.stage_ns[Stage::QuorumAck as usize], 650.0 - 40.0 - 400.0);
        assert_eq!(a.stage_ns[Stage::Apply as usize], 50.0, "clipped to the root");
        let total: f64 = a.stage_ns.iter().sum();
        assert_eq!(total + a.residue_ns, a.client_call_ns);
    }

    #[test]
    fn traces_without_a_root_are_skipped_and_duplicates_dropped() {
        let spans = vec![
            span(7, Stage::Open, 10, 20),
            span(8, Stage::ClientCall, 0, 100),
            span(8, Stage::Open, 10, 20),
            span(8, Stage::Open, 10, 20),
        ];
        let all = attribute_all(spans);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].stage_ns[Stage::Open as usize], 10.0);
        assert_eq!(all[0].residue_ns, 90.0);
    }

    #[test]
    fn ledger_rows_sum_to_the_total() {
        let attributions: Vec<Attribution> = (0..40)
            .map(|i| {
                let total = 1_000.0 + f64::from(i) * 10.0 + if i == 39 { 1e6 } else { 0.0 };
                let mut stage_ns = [0.0; Stage::ALL.len()];
                stage_ns[Stage::Open as usize] = 100.0 + f64::from(i);
                stage_ns[Stage::Seal as usize] = 200.0;
                Attribution {
                    client_call_ns: total,
                    stage_ns,
                    residue_ns: total - 300.0 - f64::from(i),
                }
            })
            .collect();
        let column = ledger_column(&attributions);
        let rows: f64 = column.stage_us.iter().sum::<f64>() + column.residue_us;
        assert!((rows - column.client_call_us).abs() < 1e-9);
        assert!(column.client_call_us < 2.0, "the stalled trace is outside the quartiles");
        assert!(column.coverage() > 0.2 && column.coverage() < 0.4);
    }

    #[test]
    fn diff_metrics_divide_deltas_by_ops_and_writes() {
        let mut before = Flat::new();
        let mut after = Flat::new();
        before.insert("zk_zab_proposals_total".into(), 10.0);
        after.insert("zk_zab_proposals_total".into(), 110.0);
        after.insert("zk_path_cache_hits_total".into(), 30.0);
        after.insert("zk_path_cache_misses_total".into(), 10.0);
        after.insert("zk_stage_duration_seconds{stage=\"apply\"}_sum".into(), 0.002);
        let metrics: BTreeMap<_, _> =
            diff_metrics(&before, &after, 200, 100, 0).into_iter().collect();
        assert_eq!(metrics["zab.proposals_per_write"], 1.0);
        assert_eq!(metrics["core.path_cache_hit_ratio"], 0.75);
        assert_eq!(metrics["zkserver.stage_apply_us"], 10.0);
        assert_eq!(metrics["persist.disk_bytes_per_user_byte"], 0.0, "no writes, no ratio");
    }
}
