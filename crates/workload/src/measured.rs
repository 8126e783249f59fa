//! Wall-clock measurements against the real servers.
//!
//! The analytic cost model reproduces the paper's published percentages; this
//! module provides the cross-check: it drives the *actual* implementations —
//! vanilla `zkserver`, a TLS-emulated variant (transport encryption terminated
//! in untrusted replica code), and full SecureKeeper — with the same workload
//! and measures requests per second of wall-clock time. All three run on a
//! loopback [`ZkTcpServer`] behind the same [`ZkTcpClient`]; only the
//! replica's interceptor (and the client's credentials) differ. Absolute
//! numbers reflect this machine, but the ordering (vanilla ≥ TLS ≥
//! SecureKeeper) and the rough magnitude of the overheads are directly
//! comparable with Table 1.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use jute::records::OpCode;
use parking_lot::Mutex;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::transport::TransportChannel;
use securekeeper::SecureSessionCredentials;
use zkcrypto::keys::{Key128, SessionKey};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::pipeline::RequestInterceptor;
use zkserver::{ZkError, ZkReplica, ZkTcpClient, ZkTcpServer};

use crate::generator::WorkloadSpec;
use crate::variant::Variant;

/// Result of one measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredResult {
    /// Which variant was measured.
    pub variant: Variant,
    /// Number of operations executed.
    pub operations: usize,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Throughput in operations per second.
    pub ops_per_second: f64,
}

/// A transport-encrypting interceptor terminated in *untrusted* replica code —
/// the moral equivalent of ZooKeeper's TLS support, used as the TLS-ZK
/// baseline. Unlike SecureKeeper it performs no storage encryption and no
/// enclave transitions.
#[derive(Default)]
pub struct TlsInterceptor {
    channels: Mutex<HashMap<i64, Arc<TransportChannel>>>,
}

impl std::fmt::Debug for TlsInterceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsInterceptor").field("sessions", &self.channels.lock().len()).finish()
    }
}

impl TlsInterceptor {
    /// Creates an interceptor with no registered sessions.
    pub fn new() -> Self {
        Self::default()
    }

    fn channel(&self, session_id: i64) -> Result<Arc<TransportChannel>, ZkError> {
        self.channels.lock().get(&session_id).cloned().ok_or(ZkError::Marshalling {
            reason: format!("no TLS channel for session {session_id}"),
        })
    }
}

impl RequestInterceptor for TlsInterceptor {
    fn on_session_established(&self, session_id: i64, handshake: &[u8]) -> Result<(), ZkError> {
        // The handshake blob carries the session key, as for SecureKeeper;
        // here untrusted replica code keeps it.
        let key: [u8; 16] = handshake.try_into().map_err(|_| ZkError::Marshalling {
            reason: format!("TLS handshake blob must be 16 bytes, got {}", handshake.len()),
        })?;
        let channel = TransportChannel::enclave_side(&SessionKey(Key128::from_bytes(key)));
        self.channels.lock().insert(session_id, Arc::new(channel));
        Ok(())
    }

    fn on_request(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        let channel = self.channel(session_id)?;
        let plain = channel.open(buffer).map_err(ZkError::from)?;
        *buffer = plain;
        Ok(())
    }

    fn on_response(
        &self,
        session_id: i64,
        _op: OpCode,
        buffer: &mut Vec<u8>,
    ) -> Result<(), ZkError> {
        let channel = self.channel(session_id)?;
        *buffer = channel.seal(buffer);
        Ok(())
    }

    fn on_session_closed(&self, session_id: i64) {
        self.channels.lock().remove(&session_id);
    }

    fn name(&self) -> &'static str {
        "tls-emulation"
    }
}

/// Binds a loopback server for `variant` and returns it with the client
/// credentials that variant's sessions connect with.
fn serve(variant: Variant) -> (ZkTcpServer, Arc<dyn SessionCredentials>) {
    let (replica, credentials): (Arc<ZkReplica>, Arc<dyn SessionCredentials>) = match variant {
        Variant::VanillaZk => (Arc::new(ZkReplica::new(1)), Arc::new(PlainCredentials)),
        Variant::TlsZk => (
            Arc::new(ZkReplica::new(1).with_interceptor(Arc::new(TlsInterceptor::new()))),
            Arc::new(SecureSessionCredentials),
        ),
        Variant::SecureKeeper => {
            let config = SecureKeeperConfig::with_label("measured-run");
            (secure_ensemble_replica(1, &config).0, Arc::new(SecureSessionCredentials))
        }
    };
    let server = ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback server");
    (server, credentials)
}

/// Runs `operations` requests of the paper's 70:30 mix with `payload`-byte
/// values against the given variant and measures wall-clock throughput.
pub fn run_measured(variant: Variant, operations: usize, payload: usize) -> MeasuredResult {
    let clients = 4;
    let spec = WorkloadSpec::paper_mix(payload, clients);
    let setup = spec.setup_requests();
    let ops = spec.generate(operations);

    let (server, credentials) = serve(variant);
    let mut handles: Vec<ZkTcpClient> = (0..clients)
        .map(|_| {
            ZkTcpClient::connect_with(server.local_addr(), Arc::clone(&credentials), 30_000)
                .expect("connect")
        })
        .collect();
    for request in &setup {
        call(&mut handles[0], request);
    }
    let start = Instant::now();
    for op in &ops {
        call(&mut handles[op.client % clients], &op.request);
    }
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    for client in handles {
        client.close();
    }
    server.shutdown();
    MeasuredResult { variant, operations, seconds, ops_per_second: operations as f64 / seconds }
}

/// Issues one request and waits for its reply; operation-level failures
/// (an existing node, a missing one) are part of the workload and answered
/// in-band.
fn call(client: &mut ZkTcpClient, request: &jute::Request) {
    let ticket = client.submit(request).expect("submit");
    client.wait(ticket).expect("reply");
}

/// Runs all three variants with the same workload and returns the results.
pub fn compare_variants(operations: usize, payload: usize) -> Vec<MeasuredResult> {
    Variant::all().iter().map(|&variant| run_measured(variant, operations, payload)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jute::records::CreateMode;

    #[test]
    fn tls_emulated_cluster_round_trips_requests() {
        let (server, credentials) = serve(Variant::TlsZk);
        let mut client =
            ZkTcpClient::connect_with(server.local_addr(), credentials, 30_000).unwrap();
        client.create("/tls-test", b"v".to_vec(), CreateMode::Persistent).unwrap();
        assert_eq!(client.get_data("/tls-test", false).unwrap().0, b"v");
        // Unlike SecureKeeper, the store sees the plaintext path (TLS protects
        // only the wire).
        assert!(server.replica().tree().contains("/tls-test"));
        // A plaintext client cannot talk to the TLS server.
        assert!(ZkTcpClient::connect(server.local_addr()).is_err());
        client.close();
        server.shutdown();
    }

    #[test]
    fn measured_runs_complete_and_report_positive_throughput() {
        for variant in Variant::all() {
            let result = run_measured(variant, 300, 64);
            assert_eq!(result.operations, 300);
            assert!(result.ops_per_second > 0.0, "{variant}");
        }
    }

    #[test]
    fn securekeeper_is_not_faster_than_vanilla_in_real_execution() {
        // Use enough operations to average out scheduling noise but keep the
        // test quick. We only assert the ordering the paper reports.
        let vanilla = run_measured(Variant::VanillaZk, 1_500, 512);
        let sk = run_measured(Variant::SecureKeeper, 1_500, 512);
        assert!(
            sk.ops_per_second < vanilla.ops_per_second * 1.10,
            "SecureKeeper ({:.0} op/s) should not beat vanilla ({:.0} op/s)",
            sk.ops_per_second,
            vanilla.ops_per_second
        );
    }
}
