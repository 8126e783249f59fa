//! The phases a run is made of. Each runs in its own child process and
//! reports `@@ key value` records on stdout; everything else it prints is
//! for the human reading along.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::SpanRecord;

use crate::driver::{self, PacedReport, SatReport};
use crate::layers;
use crate::probes;
use crate::stats;
use crate::topo::{Cluster, Mode};
use crate::workloads::{Spec, Topology, SLICES};
use crate::{env, Args};

/// A phase that has not finished after this long aborts the process: the
/// driver gives a run 180 s, and a hang must not outlive it.
const WATCHDOG: Duration = Duration::from_secs(170);

fn record(key: &str, value: f64) {
    println!("@@ {key} {value}");
}

/// Share of `--seconds` the closed loop is sized for. The open loop gets
/// the workload's `paced_share`: the larger one, because its tail latency
/// is the noisiest number reported.
const SAT_SHARE: f64 = 0.4;

/// Operations of the closed-loop phase: its share of `--seconds` at the
/// workload's frozen per-second budget.
fn sat_ops(spec: &Spec, args: &Args) -> u64 {
    let ops = (spec.sat_ops_per_budget_s as f64 * args.seconds * SAT_SHARE) as u64;
    if args.smoke {
        ops / 50
    } else {
        ops
    }
}

fn paced_seconds(spec: &Spec, args: &Args) -> f64 {
    let seconds = args.seconds * spec.paced_share;
    if args.smoke {
        seconds / 10.0
    } else {
        seconds
    }
}

/// Connections (= client threads) of the closed loop. Call before pinning:
/// afterwards the process sees one CPU.
fn load_conns() -> usize {
    env::nproc().min(2)
}

fn scratch(phase: &str) -> PathBuf {
    let dir = env::scratch_root().join(format!("{}-{phase}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the phase's data directory");
    dir
}

fn pin(phase: &str, wanted: bool) -> bool {
    if !wanted {
        println!("pin: {phase} runs unpinned on {} CPUs (depth >= 8 never sleeps)", env::nproc());
        return false;
    }
    match env::pin_process() {
        Some(cpu) => {
            println!("pin: {phase} pinned to CPU {cpu}");
            true
        }
        None => {
            println!("pin: {phase} COULD NOT PIN - blocking numbers of this phase are invalid");
            false
        }
    }
}

/// Boots and preloads `spec`'s topology; returns it with the setup time.
fn set_up(
    spec: &'static Spec,
    mode: Mode,
    dir: &std::path::Path,
    since: Instant,
) -> (Cluster, f64) {
    let cluster = Cluster::boot(spec, mode, dir);
    cluster.preload();
    (cluster, since.elapsed().as_secs_f64())
}

fn report_failures(what: &str, failures: &[String]) {
    for failure in failures.iter().take(5) {
        println!("FAILED {what}: {failure}");
    }
}

/// The post-run checks of a closed-loop phase: convergence, every key's
/// last acknowledged value, a power cycle on durable topologies, and the
/// plaintext-marker sweep. Returns how many checks failed.
fn verify(spec: &'static Spec, cluster: &mut Cluster, report: &SatReport) -> u64 {
    let mut failed = 0u64;
    if !cluster.converged() {
        println!("FAILED convergence: members disagree: {:?}", cluster.fingerprints());
        failed += 1;
    }
    let (checked, problems) = driver::verify_final(spec, cluster, &report.acked);
    report_failures("final read", &problems);
    failed += problems.len() as u64;
    println!("verify: {checked} keys re-read, {} mismatches", problems.len());
    if spec.topology == Topology::DurableQuorum {
        let before = cluster.fingerprints();
        cluster.reboot();
        let (checked, problems) = driver::verify_final(spec, cluster, &report.acked);
        report_failures("read after reboot", &problems);
        failed += problems.len() as u64;
        println!(
            "verify: members rebooted from their data dirs (zxid {} before), {checked} keys \
             re-read, {} mismatches",
            before[0].0,
            problems.len()
        );
    }
    if cluster.mode == Mode::Secure {
        let leaks = cluster.marker_leaks();
        report_failures("plaintext marker", &leaks);
        failed += leaks.len() as u64;
        println!("verify: plaintext marker found in {} places (trees and data dirs)", leaks.len());
    }
    failed
}

fn phase_sat(spec: &'static Spec, args: &Args, start: Instant, traced: bool) {
    let dir = scratch("sat");
    let conns = load_conns();
    pin("sat", spec.sat_pinned());
    trace::set_enabled(traced);
    let (mut cluster, _) = set_up(spec, Mode::Secure, &dir, start);
    let ops = sat_ops(spec, args);
    // Traced runs flip the recorder per slice: even slices on, odd off, so
    // both halves sample the same history and the same host weather.
    let flip = |slice: usize| {
        if traced {
            trace::set_enabled(slice >= SLICES || slice.is_multiple_of(2));
        }
    };
    let before = layers::scrape(&cluster);
    let deadline = Duration::from_secs_f64(args.seconds * 2.0 + 10.0);
    let report = driver::run_sat(spec, &cluster, args.seed, ops, conns, deadline, &flip);
    let after = layers::scrape(&cluster);
    let setup_s = (report.started - start).as_secs_f64();

    let slices = stats::quartiles(&report.slice_ops_s);
    println!(
        "sat: {} ops on {conns} connections at depth {} in {:.2} s; slice throughput {slices} ops/s",
        report.attempted, spec.depth, report.wall_s
    );
    let per_slice: Vec<String> = report.slice_ops_s.iter().map(|v| format!("{v:.0}")).collect();
    println!("sat: per-slice ops/s: {}", per_slice.join(" "));
    if report.cut_short {
        println!("FAILED sat: hit its {deadline:?} deadline before finishing its op count");
    }
    report_failures("sat op", &report.failures);

    let quarter = (report.slice_ops_s.len() / 4).max(1);
    let drift =
        stats::mean(report.slice_ops_s[report.slice_ops_s.len() - quarter..].iter().copied())
            / stats::mean(report.slice_ops_s[..quarter].iter().copied());
    let (writes, user_bytes) = (report.writes, report.user_bytes);
    if !(0.9..=1.1).contains(&drift) {
        // Wall time per operation (the inverse of throughput), regressed
        // on the writes each slice had behind it.
        let per_slice_writes = writes as f64 * 0.9 / SLICES as f64;
        let cost_us: Vec<f64> = report.slice_ops_s.iter().map(|v| 1e6 / v).collect();
        let history: Vec<f64> =
            (0..cost_us.len()).map(|s| (s as f64 + 0.5) * per_slice_writes).collect();
        println!(
            "steady-state: NOT STEADY - last-quarter / first-quarter throughput = {drift:.3}; \
             per-op time grows {:+.3} us per 1000 writes of history",
            stats::slope(&history, &cost_us) * 1_000.0
        );
    } else {
        println!("steady-state: ok - last-quarter / first-quarter throughput = {drift:.3}");
    }

    let failed = report.failed + verify(spec, &mut cluster, &report) + u64::from(report.cut_short);
    record("attempted", report.attempted as f64);
    record("failed", failed as f64);
    record("setup_s", setup_s);
    record("zkserver.write_drift_ratio", drift);
    if traced {
        // Each recorder-on slice against the mean of its two recorder-off
        // neighbours: a linear drift in throughput cancels.
        let slices = &report.slice_ops_s;
        let ratios: Vec<f64> = (2..slices.len().saturating_sub(1))
            .step_by(2)
            .map(|on| (slices[on - 1] + slices[on + 1]) / 2.0 / slices[on])
            .collect();
        let overhead = if ratios.is_empty() { 0.0 } else { (stats::median(&ratios) - 1.0) * 100.0 };
        println!("sat: recorder overhead {overhead:+.2} % (on-slices vs their off neighbours)");
        record("perf.tracing_overhead_pct", overhead);
        for (name, value) in
            layers::diff_metrics(&before, &after, report.attempted, writes, user_bytes)
        {
            record(name, value);
        }
    } else {
        record("throughput_ops_s", slices.median);
        record("cpu_us_per_op", report.cpu_s * 1e6 / report.attempted as f64);
        record("rss_mb", report.rss_mib);
        println!(
            "sat: cpu {:.2} us/op (user+sys of the whole process, client included), rss {:.1} MiB",
            report.cpu_s * 1e6 / report.attempted as f64,
            report.rss_mib
        );
    }
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Latency numbers of a paced phase: the timeline is cut into one-second
/// slices, the first is warm-up (its operations are judged, not timed), and
/// each reported percentile is the **median over the slices** of the
/// slice's own percentile.
///
/// Why not percentiles of the whole phase: on the durable quorum a snapshot
/// stalls every request for ~20 ms once per 1 024 writes, and the disk's
/// fsync time wanders by the second. A pooled tail percentile sits on the
/// edge between stalled and normal requests and jumps between runs (p99:
/// spread 27-44 % over ten runs); the median over seconds reads the typical
/// second and shrugs off the odd one (p95: 3-6 %).
///
/// Why p95 is the gated tail and p99 only a ledger row: the slowest open
/// loop sends 300 requests in a second, so a slice has 15 samples beyond
/// its p95 and 3 beyond its p99 - and that p99 spread 6-19 % on the durable
/// quorum however long the phase ran.
struct PacedLatency {
    p50: stats::Quartiles,
    p95: stats::Quartiles,
    p99: stats::Quartiles,
    samples_per_slice: f64,
}

fn paced_latency(report: &PacedReport) -> PacedLatency {
    let slices = (report.seconds as usize).max(1);
    let slice_len = report.seconds / slices as f64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (due_s, us) in &report.latency_us {
        per_slice[((*due_s / slice_len) as usize).min(slices - 1)].push(*us);
    }
    // A smoke run is too short to spare a slice.
    let warmup = usize::from(slices >= 4);
    let timed: Vec<Vec<f64>> = per_slice
        .into_iter()
        .skip(warmup)
        .filter(|slice| !slice.is_empty())
        .map(|slice| stats::sorted(&slice))
        .collect();
    let over_slices = |q: f64| {
        let each: Vec<f64> = timed.iter().map(|slice| stats::percentile_sorted(slice, q)).collect();
        stats::quartiles(&each)
    };
    let samples: usize = timed.iter().map(Vec::len).sum();
    PacedLatency {
        p50: over_slices(0.5),
        p95: over_slices(0.95),
        p99: over_slices(0.99),
        samples_per_slice: samples as f64 / timed.len().max(1) as f64,
    }
}

fn phase_paced(spec: &'static Spec, args: &Args, start: Instant) {
    let dir = scratch("paced");
    let pinned = pin("paced", true);
    trace::set_enabled(false);
    let (cluster, setup_s) = set_up(spec, Mode::Secure, &dir, start);
    let seconds = paced_seconds(spec, args);
    let report =
        driver::run_paced(spec, &cluster, args.seed, spec.paced_rate, seconds, spec.paced_conns);
    let latency = paced_latency(&report);
    let lag = stats::sorted(&report.lag_us);
    let lag_p50 = stats::percentile_sorted(&lag, 0.5);
    let lag_p99 = stats::percentile_sorted(&lag, 0.99);
    let achieved = seconds / report.wall_s.max(seconds);
    println!(
        "paced: {} ops at {}/s for {seconds} s on {} blocking connections{}",
        report.attempted,
        spec.paced_rate,
        spec.paced_conns,
        if pinned { "" } else { " [UNPINNED: INVALID]" },
    );
    println!(
        "paced: latency from intended send, median over one-second slices (~{:.0} samples each): \
         p50 {} us, p95 {} us, p99 {} us",
        latency.samples_per_slice, latency.p50, latency.p95, latency.p99
    );
    println!(
        "paced: generator lag p50 {lag_p50:.2} us, p99 {lag_p99:.2} us; achieved/offered {achieved:.4}"
    );
    report_failures("paced op", &report.failures);
    record("attempted", report.attempted as f64);
    record("failed", report.failed as f64);
    record("setup_s", setup_s);
    record("latency_p50_us", latency.p50.median);
    record("latency_p95_us", latency.p95.median);
    record("perf.latency_p99_us", latency.p99.median);
    record("perf.gen_lag_p50_us", lag_p50);
    record("perf.gen_lag_p99_us", lag_p99);
    record("perf.offered_achieved_ratio", achieved);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Set-up alone, several times over: with the two load phases' own
/// set-ups that makes five samples for the run's median.
fn phase_setup(spec: &'static Spec, start: Instant) {
    let dir = scratch("setup");
    pin("setup", spec.sat_pinned());
    let mut since = start;
    for round in 0..3 {
        let (cluster, setup_s) = set_up(spec, Mode::Secure, &dir, since);
        println!("setup: booted and preloaded in {setup_s:.3} s");
        record(&format!("setup_s.{round}"), setup_s);
        cluster.shutdown();
        since = Instant::now();
    }
    let _ = std::fs::remove_dir_all(dir);
}

fn phase_probes(spec: &'static Spec) {
    let dir = scratch("probes");
    pin("probes", true);
    for (name, value) in probes::run_all(spec, &dir) {
        println!("probe: {name:<32} {value:>12.2}");
        record(name, value);
    }
    let _ = std::fs::remove_dir_all(dir);
}

fn phase_twin(spec: &'static Spec, args: &Args) {
    let dir = scratch("twin");
    pin("twin", true);
    trace::set_enabled(true);
    let twin = driver::run_twin(spec, &dir, args.seed, args.smoke);
    let p50 = |leg: &[f64]| stats::quartiles(leg);
    let (secure, plain) = (p50(&twin.secure_us), p50(&twin.plain_us));
    let (via, direct) =
        if twin.hop_adds_gateway { (p50(&twin.hop_us), plain) } else { (plain, p50(&twin.hop_us)) };
    println!(
        "twin: secure p50 {secure} us; plain p50 {plain} us (same op stream, depth 1, pinned)"
    );
    println!("twin: plain via gateway p50 {via} us; plain direct p50 {direct} us");
    report_failures("twin op", &twin.failures);
    let column = |spans: Vec<SpanRecord>| layers::ledger_column(&layers::attribute_all(spans));
    let (secure_column, plain_column) = (column(twin.secure_spans), column(twin.plain_spans));
    layers::print_ledger(spec.name, &secure_column, &plain_column);
    record("attempted", twin.attempted as f64);
    record("failed", twin.failed as f64);
    record("core.secure_tax_us", secure.median - plain.median);
    record("core.secure_ratio", secure.median / plain.median);
    record("gateway.tax_us", via.median - direct.median);
    record("trace.client_call_us", secure_column.client_call_us);
    record("trace.residue_us", secure_column.residue_us);
    record("trace.coverage_ratio", secure_column.coverage());
    let _ = std::fs::remove_dir_all(dir);
}

pub fn run(phase: &str, spec: &'static Spec, args: &Args, start: Instant) {
    // Detached on purpose: the process ends when the phase returns, and
    // this thread only matters if it does not.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perf: phase exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });
    match phase {
        "sat" => phase_sat(spec, args, start, false),
        "sat-traced" => phase_sat(spec, args, start, true),
        "paced" => phase_paced(spec, args, start),
        "setup" => phase_setup(spec, start),
        "probes" => phase_probes(spec),
        "twin" => phase_twin(spec, args),
        other => panic!("unknown phase {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_percentiles_are_medians_over_seconds_after_one_of_warm_up() {
        // Five seconds, ten samples each: second 0 stalls, seconds 1..=4
        // read 100, 200, 300, 400 us flat.
        let latency_us = (0..50)
            .map(|i| (i as f64 / 10.0, if i < 10 { 9_000.0 } else { (i / 10 * 100) as f64 }))
            .collect();
        let report = PacedReport { latency_us, seconds: 5.0, ..PacedReport::default() };
        let latency = paced_latency(&report);
        assert_eq!((latency.p50.n, latency.samples_per_slice), (4, 10.0));
        assert_eq!(
            (latency.p50.median, latency.p95.median, latency.p99.median),
            (250.0, 250.0, 250.0)
        );
        // Too short to spare a slice: everything is timed.
        let report = PacedReport {
            latency_us: vec![(0.1, 10.0), (1.1, 30.0)],
            seconds: 1.2,
            ..PacedReport::default()
        };
        assert_eq!(paced_latency(&report).p50.median, 20.0);
    }
}
