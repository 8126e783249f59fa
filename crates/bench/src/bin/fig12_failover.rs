//! Figure 12: measured throughput over time while the *leader* of a live
//! 3-replica TCP ensemble crashes.
//!
//! Both variants run on loopback: a vanilla ensemble (plain wire, local
//! reads, forwarded writes) and a SecureKeeper ensemble (entry-enclave
//! interceptor on every replica, clients with replayable session keys that
//! survive the failover). The harness reports the pre-crash steady state,
//! the depth of the outage, and the time until throughput recovers.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::ReplayableSessionCredentials;
use workload::failover::{run_failover, FailoverSpec};
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::session::MonotonicClock;
use zkserver::ZkReplica;

fn ensemble_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(25),
        election_timeout: Duration::from_millis(200),
        election_vote_window: Duration::from_millis(100),
        write_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

/// Runs one leader-crash experiment, prints its timeline and asserts that the
/// ensemble recovered.
fn run_variant(
    label: &str,
    servers: Vec<ZkEnsembleServer>,
    credentials: &dyn Fn() -> Arc<dyn SessionCredentials>,
) {
    let mut servers = servers;
    assert!(servers[0].is_leader(), "member 1 leads the first epoch");
    // Clients only dial the two survivors so every reconnect lands.
    let addrs: Vec<SocketAddr> = servers[1..].iter().map(|s| s.client_addr()).collect();
    let leader = servers.remove(0);
    let spec = FailoverSpec::default();
    let report = run_failover(&addrs, credentials, || leader.shutdown(), &spec);

    println!("--- {label} ---");
    println!(
        "steady state: {:.0} req/s ({:.1} µs/op, {} clients)",
        report.pre_crash_rps,
        report.steady_op_latency.as_secs_f64() * 1e6,
        spec.clients,
    );
    match report.recovery {
        Some(recovery) => println!(
            "leader crash at t={:.1}s: recovered to >=50% in {} ms, post-crash {:.0} req/s",
            report.crash_bucket as f64 * report.bucket_seconds,
            recovery.as_millis(),
            report.post_crash_rps,
        ),
        None => println!("leader crash: ensemble did NOT recover within the run"),
    }
    print!("timeline [req/s]:");
    for (bucket, rps) in report.timeline_rps.iter().enumerate() {
        if bucket == report.crash_bucket {
            print!("  |CRASH|");
        }
        print!(" {rps:.0}");
    }
    println!("\n");
    assert!(report.recovery.is_some(), "{label} failed to recover from the leader crash");
}

fn main() {
    bench::print_header(
        "Figure 12 — measured fault tolerance of the live TCP ensemble",
        "paper §6.3, Figure 12a: leader failure causes a short outage until a new leader serves",
    );

    // Vanilla ensemble.
    let servers = ZkEnsembleServer::start_local_ensemble(3, &ensemble_config(), |id| {
        Arc::new(ZkReplica::new(id).with_clock(Arc::new(MonotonicClock::new())))
    })
    .expect("bind vanilla ensemble");
    run_variant("zookeeper (plain wire)", servers, &|| Arc::new(PlainCredentials));

    // SecureKeeper ensemble: every replica runs the entry-enclave
    // interceptor; clients replay their session key across the failover.
    let config = SecureKeeperConfig::with_label("fig12-failover");
    let servers = ZkEnsembleServer::start_local_ensemble(3, &ensemble_config(), move |id| {
        let (replica, _interceptor, _counter) = secure_ensemble_replica(id, &config);
        replica
    })
    .expect("bind secure ensemble");
    run_variant("securekeeper (encrypted wire)", servers, &|| {
        Arc::new(ReplayableSessionCredentials::generate())
    });
}
