//! Cross-crate integration tests for SecureKeeper's security properties:
//! confidentiality of paths and payloads in the untrusted store, integrity of
//! stored data, payload-to-path binding, and the documented limitation around
//! sequential-node naming (paper Section 7).
//!
//! Every test runs the real stack over loopback: an unmodified
//! [`ZkTcpClient`] keyed with the entry enclave, talking to a secure
//! [`ZkTcpServer`] or a 3-member [`ZkEnsembleServer`]. The attacker in the
//! tamper and swap tests edits the database behind the enclave by writing
//! straight into the replica.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::records::{CreateMode, SetDataRequest};
use jute::Request;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::path_crypto::PathCipher;
use securekeeper::payload_crypto::{PayloadCipher, SequentialFlag};
use securekeeper::SecureSessionCredentials;
use zkcrypto::keys::StorageKey;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::net::ZkTcpServer;
use zkserver::{ZkError, ZkReplica, ZkTcpClient};

const SECRETS: &[&str] = &["db-password", "hunter2", "api-key", "payments", "admin-credentials"];

fn ensemble_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

fn secure_ensemble(label: &str) -> Vec<ZkEnsembleServer> {
    let config = SecureKeeperConfig::with_label(label);
    ZkEnsembleServer::start_local_ensemble(3, &ensemble_config(), |id| {
        secure_ensemble_replica(id, &config).0
    })
    .expect("bind loopback secure ensemble")
}

/// One secure member on a loopback socket, plus its replica for the
/// attacker to edit.
fn secure_server(label: &str) -> (ZkTcpServer, Arc<ZkReplica>) {
    let (replica, _interceptor, _counter) =
        secure_ensemble_replica(1, &SecureKeeperConfig::with_label(label));
    let server = ZkTcpServer::bind("127.0.0.1:0", Arc::clone(&replica)).expect("bind loopback");
    (server, replica)
}

fn connect_secure(addr: std::net::SocketAddr) -> ZkTcpClient {
    ZkTcpClient::connect_with(addr, Arc::new(SecureSessionCredentials), 30_000).expect("connect")
}

/// Waits until every member has applied everything `client` has seen.
fn wait_for_replication(servers: &[ZkEnsembleServer], client: &ZkTcpClient) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !servers.iter().all(|s| s.last_applied_zxid() >= client.last_zxid()) {
        assert!(Instant::now() < deadline, "replication did not reach every member");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Overwrites a stored payload directly on the replica, bypassing the
/// enclaves — an attacker editing the database file.
fn attacker_set_data(replica: &ZkReplica, path: String, data: Vec<u8>) {
    let session = replica.connect(30_000).session_id;
    let response = replica
        .handle_request(session, &Request::SetData(SetDataRequest { path, data, version: -1 }));
    assert!(response.is_ok(), "the untrusted store itself accepts the tampered write");
}

fn stored_paths(replica: &ZkReplica) -> Vec<String> {
    replica.tree().paths().into_iter().filter(|p| p != "/").collect()
}

#[test]
fn nothing_sensitive_ever_reaches_the_untrusted_store() {
    let servers = secure_ensemble("e2e-security");
    let mut client = connect_secure(servers[0].client_addr());

    client.create("/admin-credentials", b"root:hunter2".to_vec(), CreateMode::Persistent).unwrap();
    client
        .create("/admin-credentials/api-key", b"sk_live_secret".to_vec(), CreateMode::Persistent)
        .unwrap();
    client.set_data("/admin-credentials", b"root:hunter3".to_vec(), -1).unwrap();
    wait_for_replication(&servers, &client);

    for server in &servers {
        let id = server.id();
        let replica = server.replica();
        let tree = replica.tree();
        for path in tree.paths() {
            for secret in SECRETS {
                assert!(!path.contains(secret), "{id}: path {path} leaks {secret}");
            }
            // Payload bytes stored under every znode are ciphertext.
            if path != "/" {
                let (stored, _) = tree.get_data(&path).unwrap();
                let stored_text = String::from_utf8_lossy(&stored);
                for secret in SECRETS {
                    assert!(
                        !stored_text.contains(secret),
                        "{id}: payload of {path} leaks {secret}"
                    );
                }
            }
        }
    }
    client.close();
}

#[test]
fn tampering_with_stored_payloads_is_detected_on_read() {
    // An attacker with full control over a replica flips bits in the stored
    // (encrypted) payload. The entry enclave must refuse to return it.
    let (server, replica) = secure_server("e2e-tamper");
    let mut client = connect_secure(server.local_addr());
    client.create("/important", b"original value".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/untouched", b"fine".to_vec(), CreateMode::Persistent).unwrap();

    // Locate the encrypted path of /important in the untrusted store (the
    // first create got the lower czxid) and corrupt its payload.
    let encrypted_path = stored_paths(&replica)
        .into_iter()
        .min_by_key(|p| replica.tree().get(p).unwrap().stat().czxid)
        .expect("the created znode exists");
    let (mut stored, _) = replica.tree().get_data(&encrypted_path).unwrap();
    let mid = stored.len() / 2;
    stored[mid] ^= 0xff;
    attacker_set_data(&replica, encrypted_path, stored);

    // The enclave refuses to seal a reply for the tampered payload, so the
    // server drops the connection instead of answering.
    let err = client.get_data("/important", false).unwrap_err();
    assert!(matches!(err, ZkError::ConnectionLoss { .. }), "got {err:?}");
    // The refusal is specific to the tampered node, and it is permanent.
    let mut fresh = connect_secure(server.local_addr());
    assert_eq!(fresh.get_data("/untouched", false).unwrap().0, b"fine");
    assert!(fresh.get_data("/important", false).is_err());
    server.shutdown();
}

#[test]
fn payloads_cannot_be_swapped_between_znodes() {
    // The paper's motivating attack: replace the admin password payload with
    // the attacker's own (validly encrypted) payload from another znode.
    let (server, replica) = secure_server("e2e-swap");
    let mut client = connect_secure(server.local_addr());
    client.create("/admin", b"admin-password".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/attacker", b"attacker-password".to_vec(), CreateMode::Persistent).unwrap();
    client.close();

    // Swap the two stored ciphertexts behind SecureKeeper's back.
    let paths = stored_paths(&replica);
    assert_eq!(paths.len(), 2);
    let (payload_a, _) = replica.tree().get_data(&paths[0]).unwrap();
    let (payload_b, _) = replica.tree().get_data(&paths[1]).unwrap();
    attacker_set_data(&replica, paths[0].clone(), payload_b);
    attacker_set_data(&replica, paths[1].clone(), payload_a);

    // Both reads must now fail the binding check — the attacker cannot make
    // the admin node return a payload that was encrypted for another path.
    // Each refusal costs the reader its connection.
    for path in ["/admin", "/attacker"] {
        let mut reader = connect_secure(server.local_addr());
        let err = reader.get_data(path, false).unwrap_err();
        assert!(matches!(err, ZkError::ConnectionLoss { .. }), "{path}: got {err:?}");
    }
    // The nodes themselves are still there: only their payloads are refused.
    let mut reader = connect_secure(server.local_addr());
    assert!(reader.exists("/admin", false).unwrap().is_some());
    server.shutdown();
}

#[test]
fn clients_never_need_the_storage_key_and_excluded_clients_learn_nothing_new() {
    // The storage key lives only in the enclaves; a client only ever holds its
    // session key. Excluding a client (dropping its enclave) cuts it off.
    let servers = secure_ensemble("e2e-exclusion");
    let mut client = connect_secure(servers[0].client_addr());
    client.create("/secret", b"payload".to_vec(), CreateMode::Persistent).unwrap();
    wait_for_replication(&servers, &client);

    // The administrator excludes the client by tearing down its entry enclave.
    servers[0].replica().interceptor().on_session_closed(client.session_id());
    assert!(client.get_data("/secret", false).is_err(), "excluded client must be rejected");

    // A newly admitted client (fresh enclave, fresh session key) still reads
    // the data — on any member, since the storage key never left the enclaves.
    for server in &servers {
        let mut fresh = connect_secure(server.client_addr());
        assert_eq!(fresh.get_data("/secret", false).unwrap().0, b"payload");
        fresh.close();
    }
}

#[test]
fn sequential_naming_attack_surface_is_limited_as_documented() {
    // Section 7.1: the sequence number comes from untrusted code, so an
    // attacker can influence *which number* is appended — but cannot craft an
    // arbitrary name, cannot forge payloads, and cannot break the binding for
    // non-sequential nodes.
    let storage = StorageKey::derive_from_label("naming-attack");
    let path_cipher = PathCipher::new(&storage);
    let payload_cipher = PayloadCipher::new(&storage);
    let epc = sgx_sim::Epc::new();
    let counter =
        securekeeper::CounterEnclave::new(&epc, &storage, sgx_sim::CostModel::default()).unwrap();

    let encrypted = path_cipher.encrypt_path("/locks/lock-").unwrap();
    // The attacker-controlled server picks an arbitrary sequence number…
    let forged = counter.merge_sequence(&encrypted, 1_234_567_890).unwrap();
    let plaintext = path_cipher.decrypt_path(&forged).unwrap();
    // …but the resulting name still starts with the client-chosen prefix.
    assert!(plaintext.starts_with("/locks/lock-"));
    assert!(plaintext.ends_with("1234567890"));

    // And a payload sealed for the sequential node verifies only under that
    // prefix — it cannot be replayed under an unrelated path.
    let sealed = payload_cipher.seal("/locks/lock-", b"owner=alice", SequentialFlag::Sequential);
    assert!(payload_cipher.open(&plaintext, &sealed).is_ok());
    assert!(payload_cipher.open("/elsewhere/lock-1234567890", &sealed).is_err());
}

#[test]
fn all_operations_work_identically_through_the_secure_and_plain_clients() {
    // Functional equivalence: the same sequence of operations produces the
    // same observable results on vanilla ZooKeeper and on SecureKeeper. The
    // client is the same type; only its credentials differ.
    let vanilla_servers = ZkEnsembleServer::start_local_ensemble(3, &ensemble_config(), |id| {
        Arc::new(ZkReplica::new(id))
    })
    .expect("bind loopback ensemble");
    let secure_servers = secure_ensemble("e2e-security");

    let scenario = |client: &mut ZkTcpClient| {
        let mut create = |path: &str, data: &[u8], mode| client.create(path, data.to_vec(), mode);
        create("/app", b"", CreateMode::Persistent).unwrap();
        create("/app/a", b"1", CreateMode::Persistent).unwrap();
        create("/app/b", b"2", CreateMode::Persistent).unwrap();
        let first = create("/app/task-", b"t", CreateMode::PersistentSequential).unwrap();
        let second = create("/app/task-", b"t", CreateMode::PersistentSequential).unwrap();
        (client.get_children("/app", false).unwrap(), first, second)
    };
    let mut vanilla = ZkTcpClient::connect(vanilla_servers[0].client_addr()).expect("connect");
    let mut secure = connect_secure(secure_servers[0].client_addr());
    let vanilla_result = scenario(&mut vanilla);
    let secure_result = scenario(&mut secure);
    assert_eq!(vanilla_result, secure_result);
    assert_eq!(vanilla_result.1, "/app/task-0000000000");
    assert_eq!(vanilla_result.2, "/app/task-0000000001");
}
