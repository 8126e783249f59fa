//! Throughput-over-time measurement across an injected replica crash — the
//! Figure 12 fault-tolerance experiment, run against a real networked
//! ensemble ([`zkserver::ensemble::ZkEnsembleServer`]).
//!
//! N client threads push a 70:30 GET/SET mix over real sockets, reconnecting
//! to surviving members whenever their connection dies, while the harness
//! samples completed operations in fixed time buckets and injects a crash at
//! a configured instant. The resulting timeline shows the throughput dip
//! during leader election and the recovery once a new leader serves writes.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::records::CreateMode;
use zkserver::net::SessionCredentials;
use zkserver::{ZkError, ZkTcpClient};

/// Shape of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverSpec {
    /// Concurrent client connections.
    pub clients: usize,
    /// Payload size of the SET operations.
    pub payload_bytes: usize,
    /// Width of one throughput sample bucket.
    pub bucket: Duration,
    /// Ramp-up time excluded from the pre-crash baseline.
    pub warmup: Duration,
    /// Measured time before the crash is injected (after warmup).
    pub pre_crash: Duration,
    /// Measured time after the crash.
    pub post_crash: Duration,
}

impl Default for FailoverSpec {
    fn default() -> Self {
        FailoverSpec {
            clients: 8,
            payload_bytes: 128,
            bucket: Duration::from_millis(100),
            warmup: Duration::from_millis(500),
            pre_crash: Duration::from_millis(1500),
            post_crash: Duration::from_millis(3000),
        }
    }
}

/// Result of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Requests/s per bucket, warmup included, in time order.
    pub timeline_rps: Vec<f64>,
    /// Bucket width in seconds.
    pub bucket_seconds: f64,
    /// Index of the first bucket after the crash injection.
    pub crash_bucket: usize,
    /// Mean throughput of the pre-crash measured window.
    pub pre_crash_rps: f64,
    /// Mean throughput of the post-crash window *after* recovery.
    pub post_crash_rps: f64,
    /// Time from the crash until throughput first regained 50% of the
    /// pre-crash mean. `None` if it never recovered within the run.
    pub recovery: Option<Duration>,
    /// Mean latency of one client operation in the pre-crash window.
    pub steady_op_latency: Duration,
    /// Total operations completed across the whole run.
    pub total_ops: u64,
}

/// Runs the failover experiment: client threads hammer the ensemble at
/// `addrs` (failing over between addresses on connection loss), `crash` is
/// invoked once the pre-crash window elapses, and the run continues for the
/// post-crash window.
///
/// `credentials` yields the per-connection session credentials — pass
/// sticky/replayable credentials to model secure sessions surviving the
/// crash.
///
/// # Panics
///
/// Panics if a worker thread panics or the initial connections fail.
pub fn run_failover(
    addrs: &[SocketAddr],
    credentials: &dyn Fn() -> Arc<dyn SessionCredentials>,
    crash: impl FnOnce(),
    spec: &FailoverSpec,
) -> FailoverReport {
    assert!(!addrs.is_empty(), "the ensemble has no client addresses");
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let latency_ns = Arc::new(AtomicU64::new(0));
    let latency_samples = Arc::new(AtomicU64::new(0));
    let sample_latency = Arc::new(AtomicBool::new(true));

    let mut workers = Vec::with_capacity(spec.clients);
    for t in 0..spec.clients {
        let addrs = addrs.to_vec();
        let credentials = credentials();
        let stop = Arc::clone(&stop);
        let completed = Arc::clone(&completed);
        let latency_ns = Arc::clone(&latency_ns);
        let latency_samples = Arc::clone(&latency_samples);
        let sample_latency = Arc::clone(&sample_latency);
        let payload = vec![0x5a; spec.payload_bytes];
        workers.push(std::thread::spawn(move || {
            let next_addr = AtomicUsize::new(t % addrs.len());
            let connect = |started_at: &AtomicUsize| -> Option<ZkTcpClient> {
                for _ in 0..addrs.len() {
                    let index = started_at.fetch_add(1, Ordering::Relaxed) % addrs.len();
                    if let Ok(client) =
                        ZkTcpClient::connect_with(addrs[index], Arc::clone(&credentials), 30_000)
                    {
                        return Some(client);
                    }
                }
                None
            };
            let path = format!("/failover-{t}");
            let mut client: Option<ZkTcpClient> = None;
            let mut created = false;
            let mut op = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let Some(active) = client.as_mut() else {
                    client = connect(&next_addr);
                    if client.is_none() {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    continue;
                };
                let started = Instant::now();
                let result = if !created {
                    match active.create(&path, payload.clone(), CreateMode::Persistent) {
                        Ok(_) | Err(ZkError::NodeExists { .. }) => {
                            created = true;
                            Ok(())
                        }
                        Err(err) => Err(err),
                    }
                } else if op % 10 < 7 {
                    active.get_data(&path, false).map(|_| ())
                } else {
                    active.set_data(&path, payload.clone(), -1).map(|_| ())
                };
                match result {
                    Ok(()) => {
                        op += 1;
                        completed.fetch_add(1, Ordering::Relaxed);
                        if sample_latency.load(Ordering::Relaxed) {
                            latency_ns
                                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            latency_samples.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // NoQuorum/connection errors: drop the connection and
                    // fail over to the next address.
                    Err(_) => {
                        client = None;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }));
    }

    // Sample the completed-op counter per bucket; inject the crash on time.
    let warmup_buckets = ratio_ceil(spec.warmup, spec.bucket);
    let pre_buckets = warmup_buckets + ratio_ceil(spec.pre_crash, spec.bucket);
    let post_buckets = ratio_ceil(spec.post_crash, spec.bucket);
    let mut timeline_rps = Vec::with_capacity(pre_buckets + post_buckets);
    let bucket_seconds = spec.bucket.as_secs_f64();
    let mut last_count = 0u64;
    let mut crash = Some(crash);
    for bucket in 0..pre_buckets + post_buckets {
        if bucket == pre_buckets {
            // Freeze the steady-state latency sample and pull the plug.
            sample_latency.store(false, Ordering::Relaxed);
            if let Some(crash) = crash.take() {
                crash();
            }
        }
        std::thread::sleep(spec.bucket);
        let count = completed.load(Ordering::Relaxed);
        timeline_rps.push((count - last_count) as f64 / bucket_seconds);
        last_count = count;
    }
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("failover worker panicked");
    }

    let pre_window = &timeline_rps[warmup_buckets..pre_buckets];
    let pre_crash_rps = mean(pre_window);
    let recovery_threshold = pre_crash_rps * 0.5;
    let recovery = timeline_rps[pre_buckets..]
        .iter()
        .position(|&rps| rps >= recovery_threshold)
        .map(|buckets| spec.bucket * (buckets as u32 + 1));
    let post_recovered: Vec<f64> = timeline_rps[pre_buckets..]
        .iter()
        .copied()
        .filter(|&rps| rps >= recovery_threshold)
        .collect();
    let samples = latency_samples.load(Ordering::Relaxed).max(1);
    FailoverReport {
        crash_bucket: pre_buckets,
        bucket_seconds,
        pre_crash_rps,
        post_crash_rps: mean(&post_recovered),
        recovery,
        steady_op_latency: Duration::from_nanos(latency_ns.load(Ordering::Relaxed) / samples),
        total_ops: completed.load(Ordering::Relaxed),
        timeline_rps,
    }
}

fn ratio_ceil(window: Duration, bucket: Duration) -> usize {
    ((window.as_secs_f64() / bucket.as_secs_f64()).ceil() as usize).max(1)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
    use zkserver::net::PlainCredentials;
    use zkserver::ZkReplica;

    fn fast_config() -> EnsembleConfig {
        EnsembleConfig {
            heartbeat_interval: Duration::from_millis(20),
            election_timeout: Duration::from_millis(150),
            election_vote_window: Duration::from_millis(80),
            write_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(5),
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn leader_crash_timeline_dips_and_recovers() {
        let mut servers = ZkEnsembleServer::start_local_ensemble(3, &fast_config(), |id| {
            Arc::new(ZkReplica::new(id))
        })
        .unwrap();
        // Clients only target the survivors, so reconnects always land well.
        let addrs: Vec<SocketAddr> = servers[1..].iter().map(|s| s.client_addr()).collect();
        let leader = servers.remove(0);
        let spec = FailoverSpec {
            clients: 4,
            warmup: Duration::from_millis(300),
            pre_crash: Duration::from_millis(600),
            post_crash: Duration::from_millis(2500),
            ..FailoverSpec::default()
        };
        let report =
            run_failover(&addrs, &|| Arc::new(PlainCredentials), || leader.shutdown(), &spec);
        assert!(report.pre_crash_rps > 0.0, "no throughput before the crash");
        assert!(report.recovery.is_some(), "ensemble never recovered: {report:?}");
        assert!(report.post_crash_rps > 0.0);
        assert!(report.total_ops > 0);
        assert_eq!(
            report.timeline_rps.len(),
            report.crash_bucket + ratio_ceil(spec.post_crash, spec.bucket)
        );
    }
}
