//! Drives real TCP client connections against a live [`ZkTcpServer`].
//!
//! Unlike [`crate::costmodel`], which models throughput analytically, this
//! driver measures actual wall-clock behaviour: N OS threads each hold one
//! socket to the server and push a 70:30 GET/SET mix through it, so the
//! client-scaling experiments (Figure 6) exercise real connection
//! concurrency — socket framing, the per-connection interceptor path, the
//! event-loop transport inside the replica — instead of a loop.
//!
//! The measured per-client loop ([`drive_mixed_get_set`]) is generic over the
//! [`ZooKeeper`] trait, so the same workload runs against the socket client,
//! the in-process cluster client, or SecureKeeper's encrypted client;
//! [`run_mixed_get_set`] merely adds the TCP connection setup and thread
//! fan-out around it.
//!
//! [`ZkTcpServer`]: zkserver::net::ZkTcpServer

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use jute::records::CreateMode;
use zkserver::net::SessionCredentials;
use zkserver::{ZkError, ZkTcpClient, ZooKeeper};

/// Drives `ops` operations of the deterministic 70:30 GET/SET mix against
/// `path` on any [`ZooKeeper`] client — the same measured loop runs over the
/// socket client, the in-process cluster client, or SecureKeeper's encrypted
/// client unchanged.
///
/// # Errors
///
/// Propagates the client's operation failures.
pub fn drive_mixed_get_set<C: ZooKeeper>(
    client: &mut C,
    path: &str,
    payload: &[u8],
    ops: usize,
) -> Result<(), C::Error> {
    for i in 0..ops {
        // Deterministic 70:30 mix, interleaved rather than phased.
        if i % 10 < 7 {
            let (data, _) = client.get_data(path, false)?;
            debug_assert_eq!(data.len(), payload.len());
        } else {
            client.set_data(path, payload.to_vec(), -1)?;
        }
    }
    Ok(())
}

/// Result of one networked workload run.
#[derive(Debug, Clone)]
pub struct NetRunReport {
    /// Number of concurrent client connections.
    pub clients: usize,
    /// Total operations completed across all connections.
    pub total_ops: usize,
    /// Wall-clock duration of the measured phase in seconds.
    pub wall_seconds: f64,
    /// Aggregate throughput in requests per second.
    pub throughput_rps: f64,
}

/// Runs `clients` concurrent connections, each performing `ops_per_client`
/// operations of a 70:30 GET/SET mix over `payload_bytes` values, and
/// returns the aggregate throughput. Each connection works on its own znode
/// (created during setup, outside the measured window).
///
/// # Errors
///
/// Propagates connection and operation failures from any client thread.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_mixed_get_set(
    addr: SocketAddr,
    credentials: Arc<dyn SessionCredentials>,
    clients: usize,
    ops_per_client: usize,
    payload_bytes: usize,
) -> Result<NetRunReport, ZkError> {
    let start_line = Arc::new(Barrier::new(clients));
    let mut handles = Vec::with_capacity(clients);
    for t in 0..clients {
        let credentials = Arc::clone(&credentials);
        let start_line = Arc::clone(&start_line);
        handles.push(std::thread::spawn(move || -> Result<f64, ZkError> {
            let path = format!("/bench-{t}");
            let payload = vec![0x5a; payload_bytes];
            let setup = (|| {
                let mut client = ZkTcpClient::connect_with(addr, credentials, 30_000)?;
                match client.create(&path, payload.clone(), CreateMode::Persistent) {
                    Ok(_) => {}
                    // The node survives from a previous run against the same
                    // server (e.g. a client-count sweep); reset its payload.
                    Err(ZkError::NodeExists { .. }) => {
                        client.set_data(&path, payload.clone(), -1)?;
                    }
                    Err(err) => return Err(err),
                }
                Ok(client)
            })();

            // Reach the barrier even on a failed setup, so one bad connection
            // reports an error instead of deadlocking the other workers.
            start_line.wait();
            let mut client = setup?;
            let started = Instant::now();
            drive_mixed_get_set(&mut client, &path, &payload, ops_per_client)?;
            let elapsed = started.elapsed().as_secs_f64();
            client.close();
            Ok(elapsed)
        }));
    }

    let mut slowest = 0f64;
    for handle in handles {
        let elapsed = handle.join().expect("worker thread panicked")?;
        slowest = slowest.max(elapsed);
    }
    let total_ops = clients * ops_per_client;
    let wall_seconds = slowest.max(f64::EPSILON);
    Ok(NetRunReport {
        clients,
        total_ops,
        wall_seconds,
        throughput_rps: total_ops as f64 / wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zkserver::net::PlainCredentials;
    use zkserver::session::MonotonicClock;
    use zkserver::{ZkReplica, ZkTcpServer};

    #[test]
    fn generic_loops_run_over_the_in_process_client() {
        use jute::records::CreateMode;
        use zkserver::client::{share, ZkClient};
        use zkserver::ZkCluster;

        let cluster = share(ZkCluster::new(3));
        let replica = cluster.lock().replica_ids()[0];
        let mut client = ZkClient::connect(&cluster, replica).unwrap();
        client.create("/generic", vec![0x5a; 16], CreateMode::Persistent).unwrap();
        // The same measured loop that drives TCP sockets runs against the
        // in-process transport — the point of the unified trait.
        drive_mixed_get_set(&mut client, "/generic", &[0x5a; 16], 20).unwrap();
    }

    #[test]
    fn mixed_run_reports_all_operations() {
        let replica = Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())));
        let server = ZkTcpServer::bind("127.0.0.1:0", replica).unwrap();
        let report =
            run_mixed_get_set(server.local_addr(), Arc::new(PlainCredentials), 4, 50, 256).unwrap();
        assert_eq!(report.clients, 4);
        assert_eq!(report.total_ops, 200);
        assert!(report.throughput_rps > 0.0);
        // 30% of 50 ops per client are SETs, plus the 4 setup creates.
        assert_eq!(server.replica().last_zxid(), 4 + 4 * 15);
        server.shutdown();
    }
}
