//! Minimally invasive integration with the coordination service.
//!
//! The paper changes only three lines of ZooKeeper: the request and response
//! byte buffers are diverted through the entry enclave, and the leader-side
//! sequential-name computation is diverted through the counter enclave. The
//! `zkserver` crate exposes exactly those two seams —
//! [`zkserver::pipeline::RequestInterceptor`] and
//! [`zkserver::ops::SequentialNamer`] — and this module provides the
//! SecureKeeper implementations plus [`secure_ensemble_replica`], which
//! assembles one hardened replica for a [`zkserver::net::ZkTcpServer`] or a
//! [`zkserver::ensemble::ZkEnsembleServer`] member.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use jute::records::OpCode;
use sgx_sim::{CostModel, Epc};
use zkcrypto::keys::{SessionKey, StorageKey};
use zkserver::ops::{DefaultSequentialNamer, SequentialNamer};
use zkserver::pipeline::{InterceptorStats, RequestInterceptor};
use zkserver::{ZkError, ZkReplica};

use crate::counter::CounterEnclave;
use crate::entry::EntryEnclave;
use crate::error::SkError;
use crate::path_cache::PathCipherCache;

/// Cluster-wide SecureKeeper configuration.
#[derive(Debug, Clone)]
pub struct SecureKeeperConfig {
    /// The storage key shared by all entry and counter enclaves.
    pub storage_key: StorageKey,
    /// Cost model charged to the enclaves (SGX transition and crypto costs).
    pub cost_model: CostModel,
    /// Bound on the per-replica path-encryption cache (entries per direction).
    pub path_cache_capacity: usize,
}

impl SecureKeeperConfig {
    /// Configuration with a freshly generated storage key.
    pub fn generate() -> Self {
        Self::from_storage_key(StorageKey::generate())
    }

    /// Deterministic configuration derived from a label (tests, examples).
    pub fn with_label(label: &str) -> Self {
        Self::from_storage_key(StorageKey::derive_from_label(label))
    }

    fn from_storage_key(storage_key: StorageKey) -> Self {
        SecureKeeperConfig {
            storage_key,
            cost_model: CostModel::default(),
            path_cache_capacity: crate::path_cache::DEFAULT_PATH_CACHE_CAPACITY,
        }
    }
}

/// The per-replica SecureKeeper interceptor: owns one entry enclave per
/// connected session plus the replica-wide path-encryption cache all of them
/// share.
pub struct SecureKeeperInterceptor {
    epc: Epc,
    storage_key: StorageKey,
    cost_model: CostModel,
    path_cache: Arc<PathCipherCache>,
    enclaves: Mutex<HashMap<i64, Arc<EntryEnclave>>>,
    frames_opened: AtomicU64,
    frames_sealed: AtomicU64,
}

impl std::fmt::Debug for SecureKeeperInterceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureKeeperInterceptor")
            .field("entry_enclaves", &self.enclaves.lock().len())
            .field("epc", &self.epc.usage())
            .field("path_cache_entries", &self.path_cache.len())
            .field("path_cache_hits", &self.path_cache.hits())
            .finish()
    }
}

impl SecureKeeperInterceptor {
    /// Creates the interceptor for one replica. All entry enclaves of the
    /// replica share the replica's EPC and one path-encryption cache.
    pub fn new(config: &SecureKeeperConfig) -> Self {
        SecureKeeperInterceptor {
            epc: Epc::new(),
            storage_key: config.storage_key.clone(),
            cost_model: config.cost_model.clone(),
            path_cache: Arc::new(PathCipherCache::with_capacity(config.path_cache_capacity)),
            enclaves: Mutex::new(HashMap::new()),
            frames_opened: AtomicU64::new(0),
            frames_sealed: AtomicU64::new(0),
        }
    }

    /// The replica's EPC (for memory statistics).
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// The replica-wide path-encryption cache (for metrics and sizing).
    pub fn path_cache(&self) -> &Arc<PathCipherCache> {
        &self.path_cache
    }

    /// Number of entry enclaves currently instantiated.
    pub fn entry_enclave_count(&self) -> usize {
        self.enclaves.lock().len()
    }

    /// Total simulated nanoseconds charged to all entry enclaves so far.
    pub fn total_simulated_ns(&self) -> f64 {
        self.enclaves.lock().values().map(|e| e.enclave().simulated_ns()).sum()
    }

    /// Establishes the per-session secure channel: instantiates an entry
    /// enclave for `session_id` keyed with `session_key`.
    ///
    /// In the real system this happens during the TLS-like handshake that the
    /// client performs against the enclave after (implicit) attestation; here
    /// the connect handshake carries the key ([`Self::on_session_established`]).
    ///
    /// # Errors
    ///
    /// Returns [`SkError::Enclave`] when the EPC cannot hold another enclave.
    fn register_session(&self, session_id: i64, session_key: &SessionKey) -> Result<(), SkError> {
        let enclave = EntryEnclave::with_path_cache(
            &self.epc,
            &self.storage_key,
            session_key,
            self.cost_model.clone(),
            Arc::clone(&self.path_cache),
        )?;
        self.enclaves.lock().insert(session_id, Arc::new(enclave));
        Ok(())
    }

    fn enclave_for(&self, session_id: i64) -> Result<Arc<EntryEnclave>, ZkError> {
        self.enclaves.lock().get(&session_id).cloned().ok_or(ZkError::Marshalling {
            reason: format!("no entry enclave registered for session {session_id}"),
        })
    }
}

impl RequestInterceptor for SecureKeeperInterceptor {
    fn on_session_established(&self, session_id: i64, handshake: &[u8]) -> Result<(), ZkError> {
        // Over the TCP transport the handshake blob carries the session key
        // the client negotiated with the enclave (standing in for the
        // attested key exchange of the paper); an empty blob means the
        // connection is a plaintext one and gets no enclave.
        if handshake.is_empty() {
            return Err(ZkError::Marshalling {
                reason: "SecureKeeper connections require a session-key handshake".into(),
            });
        }
        let key_bytes: [u8; 16] = handshake.try_into().map_err(|_| ZkError::Marshalling {
            reason: format!("handshake blob must be 16 bytes, got {}", handshake.len()),
        })?;
        let session_key = SessionKey(zkcrypto::keys::Key128::from_bytes(key_bytes));
        self.register_session(session_id, &session_key)
            .map_err(|err| ZkError::Marshalling { reason: err.to_string() })
    }

    fn on_request(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        // The trace context was peeled off the frame (and made ambient)
        // before the enclave boundary, so the open/seal spans live in the
        // untrusted host — the trace plane never enters the TCB.
        let open_start = trace::now_ns();
        let enclave = self.enclave_for(session_id)?;
        enclave.process_request(buffer).map_err(ZkError::from)?;
        self.frames_opened.fetch_add(1, Ordering::Relaxed);
        trace::record_current(trace::Stage::Open, open_start, session_id as u64);
        Ok(())
    }

    fn on_event(&self, session_id: i64, buffer: &mut Vec<u8>) -> Result<(), ZkError> {
        let enclave = self.enclave_for(session_id)?;
        enclave.seal_event(buffer).map_err(ZkError::from)?;
        self.frames_sealed.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn on_response(
        &self,
        session_id: i64,
        _op: OpCode,
        buffer: &mut Vec<u8>,
    ) -> Result<(), ZkError> {
        // The operation type is *not* taken from the untrusted caller: the
        // enclave uses its own FIFO queue, as in the paper.
        let seal_start = trace::now_ns();
        let enclave = self.enclave_for(session_id)?;
        enclave.process_response(buffer).map_err(ZkError::from)?;
        self.frames_sealed.fetch_add(1, Ordering::Relaxed);
        trace::record_current(trace::Stage::Seal, seal_start, session_id as u64);
        Ok(())
    }

    fn on_session_closed(&self, session_id: i64) {
        if let Some(enclave) = self.enclaves.lock().remove(&session_id) {
            enclave.enclave().destroy();
        }
    }

    fn name(&self) -> &'static str {
        "securekeeper-entry-enclave"
    }

    fn stats(&self) -> InterceptorStats {
        InterceptorStats {
            path_cache_hits: self.path_cache.hits(),
            path_cache_misses: self.path_cache.misses(),
            frames_sealed: self.frames_sealed.load(Ordering::Relaxed),
            frames_opened: self.frames_opened.load(Ordering::Relaxed),
            entry_enclaves: self.enclaves.lock().len() as u64,
        }
    }
}

/// The sequential namer backed by the counter enclave.
pub struct SecureKeeperNamer {
    counter: Arc<CounterEnclave>,
    fallback: DefaultSequentialNamer,
}

impl std::fmt::Debug for SecureKeeperNamer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureKeeperNamer").field("counter", &self.counter).finish()
    }
}

impl SecureKeeperNamer {
    /// Wraps a counter enclave as a [`SequentialNamer`].
    pub fn new(counter: Arc<CounterEnclave>) -> Self {
        SecureKeeperNamer { counter, fallback: DefaultSequentialNamer }
    }
}

impl SequentialNamer for SecureKeeperNamer {
    fn name(&self, requested_path: &str, sequence: u32) -> String {
        // Paths created by SecureKeeper clients are always encrypted; if the
        // counter enclave rejects the input (e.g. a plaintext path created by
        // an operator tool directly against the store), fall back to vanilla
        // naming so the service stays available.
        match self.counter.merge_sequence(requested_path, sequence) {
            Ok(path) => path,
            Err(_) => self.fallback.name(requested_path, sequence),
        }
    }
}

/// Builds one SecureKeeper-hardened replica with id `id`: entry-enclave
/// interceptor, counter-enclave namer, and a monotonic clock so session
/// expiry follows wall-clock time. Serve it standalone from a
/// [`zkserver::net::ZkTcpServer`] (`id` 1), or build one per member of a
/// [`zkserver::ensemble::ZkEnsembleServer`]: every member then gets its own
/// EPC, entry-enclave manager and counter enclave while sharing the storage
/// key from `config` — the property that lets a session key installed on one
/// replica be replayed to another after a crash, and that keeps the
/// deterministic path encryption identical on all replicas (the replicated
/// trees stay byte-for-byte equal).
///
/// Returns the replica plus handles to its enclaves (for statistics).
pub fn secure_ensemble_replica(
    id: u32,
    config: &SecureKeeperConfig,
) -> (Arc<ZkReplica>, Arc<SecureKeeperInterceptor>, Arc<CounterEnclave>) {
    let interceptor = Arc::new(SecureKeeperInterceptor::new(config));
    let counter = Arc::new(
        CounterEnclave::new(interceptor.epc(), &config.storage_key, config.cost_model.clone())
            .expect("a fresh EPC always fits one counter enclave"),
    );
    let replica = Arc::new(
        ZkReplica::new(id)
            .with_interceptor(Arc::clone(&interceptor) as Arc<dyn RequestInterceptor>)
            .with_namer(Arc::new(SecureKeeperNamer::new(Arc::clone(&counter))))
            .with_clock(Arc::new(zkserver::session::MonotonicClock::new())),
    );
    (replica, interceptor, counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_cluster_creates_per_replica_components() {
        let config = SecureKeeperConfig::with_label("integration-test");
        let members: Vec<_> = (1..=3).map(|id| secure_ensemble_replica(id, &config)).collect();
        for (id, (replica, interceptor, counter)) in (1..=3).zip(&members) {
            assert_eq!(replica.id(), id);
            assert_eq!(interceptor.entry_enclave_count(), 0);
            assert_eq!(counter.merges(), 0);
            // Counter enclave occupies the replica's EPC.
            assert!(interceptor.epc().usage().allocated_bytes > 0);
        }
        // Every member owns its own enclaves.
        assert!(!Arc::ptr_eq(&members[0].1, &members[1].1));
        assert!(!Arc::ptr_eq(&members[1].2, &members[2].2));
    }

    #[test]
    fn register_session_creates_an_entry_enclave() {
        let config = SecureKeeperConfig::with_label("integration-test");
        let (_replica, interceptor, _counter) = secure_ensemble_replica(1, &config);
        let key = SessionKey::derive_from_label("c1");
        interceptor.on_session_established(77, key.key().as_bytes()).unwrap();
        assert_eq!(interceptor.entry_enclave_count(), 1);
        // Closing the session tears the enclave down.
        interceptor.on_session_closed(77);
        assert_eq!(interceptor.entry_enclave_count(), 0);
        // A plaintext handshake gets no enclave.
        assert!(interceptor.on_session_established(78, &[]).is_err());
    }

    #[test]
    fn requests_without_a_registered_session_are_rejected() {
        let config = SecureKeeperConfig::with_label("integration-test");
        let (_replica, interceptor, _counter) = secure_ensemble_replica(1, &config);
        let mut buffer = vec![0u8; 16];
        assert!(interceptor.on_request(123, &mut buffer).is_err());
    }

    #[test]
    fn path_cache_is_shared_across_sessions_of_a_replica() {
        use crate::transport::SecureSessionCredentials;
        use jute::records::CreateMode;
        use zkserver::{ZkTcpClient, ZkTcpServer};

        let config = SecureKeeperConfig::with_label("integration-test");
        let (replica, interceptor, _counter) = secure_ensemble_replica(1, &config);
        let server = ZkTcpServer::bind("127.0.0.1:0", replica).unwrap();
        let connect = || {
            ZkTcpClient::connect_with(
                server.local_addr(),
                Arc::new(SecureSessionCredentials),
                30_000,
            )
            .unwrap()
        };

        let mut first = connect();
        first.create("/shared", b"v".to_vec(), CreateMode::Persistent).unwrap();
        assert!(!interceptor.path_cache().is_empty(), "create warmed the cache");
        let misses_after_warm = interceptor.path_cache().misses();

        // A *different* session reading the same path hits the shared cache.
        let mut second = connect();
        let (value, _) = second.get_data("/shared", false).unwrap();
        assert_eq!(value, b"v");
        assert!(interceptor.path_cache().hits() >= 1, "second session reused the entry");
        assert_eq!(interceptor.path_cache().misses(), misses_after_warm, "no new misses");
        server.shutdown();
    }

    #[test]
    fn namer_falls_back_on_plaintext_paths() {
        let config = SecureKeeperConfig::with_label("integration-test");
        let (_replica, _interceptor, counter) = secure_ensemble_replica(1, &config);
        let namer = SecureKeeperNamer::new(counter);
        // A plaintext path (not produced by an entry enclave) falls back to
        // vanilla naming instead of panicking.
        assert_eq!(namer.name("/plain/node-", 3), "/plain/node-0000000003");
    }
}
