//! Secure ensemble end-to-end tests: SecureKeeper on a 3-replica networked
//! ensemble (ZAB over real TCP) with leader crash failover.
//!
//! The acceptance properties of the ensemble milestone, exercised with the
//! entry-enclave interceptor threaded through *every* replica:
//!
//! * a write issued against any replica is storage-encrypted by the entry
//!   enclave of that replica and replicated as ciphertext, so all replicas'
//!   trees stay identical and ciphertext-only;
//! * a secure session established before a leader crash keeps decrypting
//!   after failover: the client replays its session key to a survivor
//!   ([`ReplayableSessionCredentials`]), which installs it in a fresh entry
//!   enclave;
//! * the surviving replicas converge to identical trees and zxids;
//! * sequential names stay unique and gapless across a leader failover,
//!   because the parent's counter is replicated state.
//!
//! CI runs this file in the `ensemble-e2e` job (secure leg of the matrix).

use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::records::CreateMode;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::ReplayableSessionCredentials;
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::ZkError;

fn test_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

fn start_secure_ensemble(size: usize) -> Vec<ZkEnsembleServer> {
    let config = SecureKeeperConfig::with_label("ensemble-e2e");
    ZkEnsembleServer::start_local_ensemble(size, &test_config(), move |id| {
        let (replica, _interceptor, _counter) = secure_ensemble_replica(id, &config);
        replica
    })
    .expect("bind loopback secure ensemble")
}

fn wait_until(what: &str, condition: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn secure_writes_replicate_as_ciphertext_on_every_replica() {
    let servers = start_secure_ensemble(3);
    let credentials = Arc::new(ReplayableSessionCredentials::generate());
    let mut client = ZkTcpClient::connect_with(
        servers[2].client_addr(),
        Arc::clone(&credentials) as Arc<dyn zkserver::net::SessionCredentials>,
        30_000,
    )
    .expect("secure connect to a follower");

    client.create("/app", b"root".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/app/db-password", b"hunter2".to_vec(), CreateMode::Persistent).unwrap();
    let (data, _) = client.get_data("/app/db-password", false).unwrap();
    assert_eq!(data, b"hunter2");

    // Replication: the identical ciphertext tree appears on every replica.
    for server in &servers {
        let server_id = server.id();
        wait_until(&format!("replication to {server_id}"), || {
            server.replica().tree().node_count() == servers[2].replica().tree().node_count()
        });
    }
    for server in &servers {
        for path in server.replica().tree().paths() {
            assert!(!path.contains("app"), "plaintext path leaked: {path}");
            assert!(!path.contains("db-password"), "plaintext path leaked: {path}");
        }
    }
    let reference = servers[0].replica().tree().paths();
    for server in &servers[1..] {
        assert_eq!(server.replica().tree().paths(), reference, "ciphertext trees diverged");
    }
    client.close();
}

#[test]
fn pre_crash_secure_session_keeps_decrypting_after_leader_failover() {
    let mut servers = start_secure_ensemble(3);
    assert!(servers[0].is_leader());
    let survivor_addrs: Vec<std::net::SocketAddr> =
        servers[1..].iter().map(|s| s.client_addr()).collect();

    // Establish a secure session against the *leader* before the crash.
    let credentials = Arc::new(ReplayableSessionCredentials::generate());
    let mut client = ZkTcpClient::connect_with(
        servers[0].client_addr(),
        Arc::clone(&credentials) as Arc<dyn zkserver::net::SessionCredentials>,
        30_000,
    )
    .expect("secure connect to the leader");
    client.create("/secrets", b"".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/secrets/api-key", b"s3cr3t".to_vec(), CreateMode::Persistent).unwrap();
    wait_until("pre-crash replication", || {
        servers[1..].iter().all(|s| s.replica().tree().node_count() >= 3)
    });

    // Crash the leader. The client's connection dies with it.
    let old_leader = servers.remove(0);
    old_leader.shutdown();
    assert!(matches!(
        client.get_data("/secrets/api-key", false),
        Err(ZkError::ConnectionLoss { .. } | ZkError::Marshalling { .. })
    ));

    // Fail over to a survivor, replaying the same session key: the entry
    // enclave installed there decrypts the data written before the crash.
    client
        .reconnect_to(survivor_addrs[0])
        .or_else(|_| client.reconnect_to(survivor_addrs[1]))
        .expect("failover reconnect with replayed credentials");
    let (data, _) = client.get_data("/secrets/api-key", false).unwrap();
    assert_eq!(data, b"s3cr3t", "pre-crash secret must decrypt after failover");

    // The new leader accepts encrypted writes from the replayed session.
    wait_until("election", || servers.iter().any(|s| s.is_leader()));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.create("/secrets/post-crash", b"fresh".to_vec(), CreateMode::Persistent) {
            Ok(_) => break,
            Err(ZkError::NodeExists { .. }) => break,
            Err(_) => {
                assert!(Instant::now() < deadline, "post-failover write never recovered");
                let _ = client
                    .reconnect_to(survivor_addrs[0])
                    .or_else(|_| client.reconnect_to(survivor_addrs[1]));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    let (data, _) = client.get_data("/secrets/post-crash", false).unwrap();
    assert_eq!(data, b"fresh");

    // Surviving replicas converge to identical ciphertext trees and zxids.
    wait_until("zxid convergence", || {
        servers.iter().all(|s| s.last_applied_zxid() == servers[0].last_applied_zxid())
    });
    let reference = servers[0].replica().tree().paths();
    assert_eq!(servers[1].replica().tree().paths(), reference, "survivors diverged");
    for path in reference {
        assert!(!path.contains("secret"), "plaintext path leaked: {path}");
    }
    client.close();
}

#[test]
fn sequence_numbers_remain_gapless_and_unique_across_leader_failover() {
    let mut servers = start_secure_ensemble(3);
    assert!(servers[0].is_leader());
    let credentials = Arc::new(ReplayableSessionCredentials::generate());
    let mut client = ZkTcpClient::connect_with(
        servers[2].client_addr(),
        Arc::clone(&credentials) as Arc<dyn zkserver::net::SessionCredentials>,
        30_000,
    )
    .expect("secure connect to a follower");
    client.create("/queue", Vec::new(), CreateMode::Persistent).unwrap();
    let mut names = Vec::new();
    for _ in 0..5 {
        names.push(
            client.create("/queue/item-", b"x".to_vec(), CreateMode::PersistentSequential).unwrap(),
        );
    }

    servers.remove(0).shutdown();
    wait_until("election", || servers.iter().any(|s| s.is_leader()));
    // A sequential create is not idempotent, so wait for the new leader
    // with an idempotent write before resuming the queue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.set_data("/queue", b"probe".to_vec(), -1).is_err() {
        assert!(Instant::now() < deadline, "writes never resumed after the failover");
        std::thread::sleep(Duration::from_millis(20));
    }
    for _ in 0..5 {
        names.push(
            client.create("/queue/item-", b"x".to_vec(), CreateMode::PersistentSequential).unwrap(),
        );
    }

    // All ten names are unique, ordered, and numbered 0..10 with no gaps: the
    // parent's counter is replicated state, so the failover cannot fork it.
    let expected: Vec<String> = (0..10).map(|i| format!("/queue/item-{i:010}")).collect();
    assert_eq!(names, expected);
    let mut children = client.get_children("/queue", false).unwrap();
    children.sort();
    assert_eq!(children.len(), 10);
    wait_until("zxid convergence", || {
        servers[0].last_applied_zxid() == servers[1].last_applied_zxid()
    });
    let reference = servers[0].replica().tree().paths();
    assert_eq!(servers[1].replica().tree().paths(), reference, "survivors diverged");
    for path in reference {
        assert!(!path.contains("queue") && !path.contains("item"), "plaintext leaked: {path}");
    }
    client.close();
}

#[test]
fn secure_multi_at_a_follower_is_atomic_and_ciphertext_only() {
    use jute::records::ErrorCode;
    use zkserver::OpResult;

    let servers = start_secure_ensemble(3);
    assert!(!servers[2].is_leader());
    let credentials = Arc::new(ReplayableSessionCredentials::generate());
    let mut client = ZkTcpClient::connect_with(
        servers[2].client_addr(),
        Arc::clone(&credentials) as Arc<dyn zkserver::net::SessionCredentials>,
        30_000,
    )
    .expect("secure connect to a follower");

    client.create("/ledger", b"v0".to_vec(), CreateMode::Persistent).unwrap();
    let zxid_before = client.last_zxid();

    // A follower-issued secure transaction: forwarded to the leader as one
    // sealed proposal, committed everywhere at one zxid, counter-enclave
    // naming for the sequential audit node included.
    let results = client
        .txn()
        .check("/ledger", 0)
        .set_data("/ledger", b"v1".to_vec(), 0)
        .create("/ledger/entry-", b"credit:30".to_vec(), CreateMode::PersistentSequential)
        .commit()
        .unwrap();
    assert_eq!(results.len(), 3);
    match &results[2] {
        OpResult::Create { path } => assert_eq!(path, "/ledger/entry-0000000000"),
        other => panic!("unexpected {other:?}"),
    }
    let commit_zxid = client.last_zxid();
    assert_eq!(commit_zxid, zxid_before + 1, "the batch is one ZAB proposal");
    let (data, _) = client.get_data("/ledger/entry-0000000000", false).unwrap();
    assert_eq!(data, b"credit:30");

    // Every replica applied the whole transaction at the same single zxid.
    for server in &servers {
        let id = server.id();
        wait_until(&format!("multi replication to {id}"), || {
            server.last_applied_zxid() >= commit_zxid
        });
        let replica = server.replica();
        let tree = replica.tree();
        let root = tree
            .paths()
            .into_iter()
            .find(|p| p != "/" && p.matches('/').count() == 1)
            .expect("ledger root replicated");
        assert_eq!(tree.get(&root).unwrap().stat().mzxid, commit_zxid, "{id}");
    }

    // A failing check aborts the forwarded transaction on every replica.
    let err = client
        .txn()
        .check("/ledger", 0) // stale: version is 1 now
        .set_data("/ledger", b"v2".to_vec(), -1)
        .delete("/ledger/entry-0000000000", -1)
        .commit()
        .unwrap_err();
    assert!(matches!(err, ZkError::BadVersion { .. }), "got {err:?}");
    let (data, _) = client.get_data("/ledger", false).unwrap();
    assert_eq!(data, b"v1", "aborted multi must not apply any sub-op");
    let abort_zxid = client.last_zxid();

    // Per-op abort results arrive typed through the encrypted channel.
    let results = client
        .multi(vec![
            zkserver::Op::Check(jute::records::CheckVersionRequest {
                path: "/ledger".into(),
                version: 0,
            }),
            zkserver::Op::Delete(jute::records::DeleteRequest {
                path: "/ledger/entry-0000000000".into(),
                version: -1,
            }),
        ])
        .unwrap();
    assert_eq!(
        results,
        vec![
            OpResult::Error(ErrorCode::BadVersion),
            OpResult::Error(ErrorCode::RuntimeInconsistency),
        ]
    );

    // No replica diverged, and the store holds only ciphertext.
    for server in &servers {
        let id = server.id();
        wait_until(&format!("abort replication to {id}"), || {
            server.last_applied_zxid() >= abort_zxid
        });
        let replica = server.replica();
        let tree = replica.tree();
        let reference = servers[0].replica();
        assert_eq!(tree.paths(), reference.tree().paths(), "{id}");
        for path in tree.paths() {
            assert!(!path.contains("ledger"), "plaintext path leaked: {path}");
            assert!(!path.contains("entry"), "plaintext path leaked: {path}");
            if path != "/" {
                let rendered =
                    String::from_utf8_lossy(tree.get(&path).unwrap().data()).into_owned();
                assert!(!rendered.contains("credit:30"), "plaintext payload leaked on {path}");
            }
        }
    }
    client.close();
}

#[test]
fn secure_members_restart_from_sealed_disk_state_and_rejoin() {
    use std::collections::HashMap;
    use std::net::SocketAddr;
    use std::path::{Path, PathBuf};
    use zab::NodeId;
    use zkserver::persist::{PersistConfig, ReplicaPersistence};

    let secure_config = SecureKeeperConfig::with_label("persistence-e2e");
    let persist_config = PersistConfig { snapshot_every: 8, ..PersistConfig::default() };
    let dirs: Vec<PathBuf> = (1..=3)
        .map(|i| {
            let dir = std::env::temp_dir()
                .join(format!("secure-persist-e2e-{}-m{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        })
        .collect();

    // Reserve three loopback peer ports, then start durable secure members.
    let probes: Vec<zab::TcpNetwork> = (1..=3u32)
        .map(|i| zab::TcpNetwork::bind(NodeId(i), "127.0.0.1:0").expect("bind probe"))
        .collect();
    let peer_addrs: HashMap<NodeId, SocketAddr> =
        probes.iter().map(|t| (t.id(), t.local_addr())).collect();
    drop(probes);
    let start_member = |i: u32| -> ZkEnsembleServer {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let persistence = ReplicaPersistence::open(&dirs[i as usize - 1], persist_config)
                .expect("open data dir");
            let (replica, _interceptor, _counter) = secure_ensemble_replica(i, &secure_config);
            match ZkEnsembleServer::start_persistent(
                NodeId(i),
                peer_addrs.clone(),
                "127.0.0.1:0",
                replica,
                test_config(),
                persistence,
            ) {
                Ok(server) => return server,
                Err(err) => {
                    assert!(Instant::now() < deadline, "member {i} never started: {err}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    };
    let mut servers: Vec<Option<ZkEnsembleServer>> =
        (1..=3u32).map(|i| Some(start_member(i))).collect();
    let alive = |servers: &Vec<Option<ZkEnsembleServer>>| servers.iter().flatten().count();
    assert_eq!(alive(&servers), 3);

    // Secure writes with recognizable plaintext markers.
    let credentials = Arc::new(ReplayableSessionCredentials::generate());
    let mut client = ZkTcpClient::connect_with(
        servers[0].as_ref().unwrap().client_addr(),
        Arc::clone(&credentials) as Arc<dyn zkserver::net::SessionCredentials>,
        30_000,
    )
    .expect("secure connect");
    client.create("/vault", b"".to_vec(), CreateMode::Persistent).unwrap();
    for i in 0..30 {
        client
            .create(
                &format!("/vault/topsecret-{i:02}"),
                format!("HUNTER2-PAYLOAD-{i:02}").into_bytes(),
                CreateMode::Persistent,
            )
            .unwrap();
    }
    let tip = servers[0].as_ref().unwrap().last_applied_zxid();
    wait_until("replication", || servers.iter().flatten().all(|s| s.last_applied_zxid() >= tip));

    // Kill the third member; write more while it is down; restart it from
    // its data directory.
    servers[2].take().unwrap().shutdown();
    for i in 30..40 {
        client
            .create(
                &format!("/vault/topsecret-{i:02}"),
                format!("HUNTER2-PAYLOAD-{i:02}").into_bytes(),
                CreateMode::Persistent,
            )
            .unwrap();
    }
    servers[2] = Some(start_member(3));
    let tip = servers[0].as_ref().unwrap().last_applied_zxid();
    wait_until("follower rejoin", || {
        servers.iter().flatten().all(|s| s.last_applied_zxid() >= tip)
    });
    let stats = servers[2].as_ref().unwrap().sync_stats();
    assert!(
        stats.recovered_txns > 0 || stats.recovered_snapshot_zxid > 0,
        "the restart must have recovered local state from disk: {stats:?}"
    );

    // Separately: kill the current leader (leadership may have moved during
    // the churn above), let the survivors elect, restart it.
    wait_until("a leader exists", || servers.iter().flatten().any(|s| s.is_leader()));
    let leader_index = servers
        .iter()
        .position(|s| s.as_ref().is_some_and(|s| s.is_leader()))
        .expect("leader present");
    servers[leader_index].take().unwrap().shutdown();
    wait_until("election", || servers.iter().flatten().any(|s| s.is_leader()));
    let survivor_addrs: Vec<SocketAddr> =
        servers.iter().flatten().map(|s| s.client_addr()).collect();
    client
        .reconnect_to(survivor_addrs[0])
        .or_else(|_| client.reconnect_to(survivor_addrs[1]))
        .expect("failover reconnect");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client.create(
            "/vault/during-outage",
            b"HUNTER2-LATE".to_vec(),
            CreateMode::Persistent,
        ) {
            Ok(_) | Err(ZkError::NodeExists { .. }) => break,
            Err(_) => {
                assert!(Instant::now() < deadline, "write never recovered");
                let _ = client
                    .reconnect_to(survivor_addrs[0])
                    .or_else(|_| client.reconnect_to(survivor_addrs[1]));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    servers[leader_index] = Some(start_member(leader_index as u32 + 1));
    let tip = servers.iter().flatten().map(|s| s.last_applied_zxid()).max().unwrap();
    wait_until("old leader rejoins", || {
        servers.iter().flatten().all(|s| s.last_applied_zxid() >= tip)
    });

    // Identical ciphertext trees and zxids on every member.
    wait_until("zxid convergence", || {
        let zxids: Vec<i64> = servers.iter().flatten().map(|s| s.last_applied_zxid()).collect();
        zxids.windows(2).all(|w| w[0] == w[1])
    });
    let reference = servers[0].as_ref().unwrap().replica().tree().paths();
    for server in servers.iter().flatten() {
        assert_eq!(server.replica().tree().paths(), reference, "trees diverged");
        for path in server.replica().tree().paths() {
            assert!(!path.contains("vault"), "plaintext path leaked: {path}");
            assert!(!path.contains("topsecret"), "plaintext path leaked: {path}");
        }
    }
    // The pre-crash secret still decrypts through the replayed session.
    let (data, _) = client.get_data("/vault/topsecret-00", false).unwrap();
    assert_eq!(data, b"HUNTER2-PAYLOAD-00");
    client.close();

    // Sealed at rest: no data directory byte sequence contains a plaintext
    // path component or payload marker — the WAL segments and snapshots
    // hold only what the enclaves sealed.
    fn scan_dir(dir: &Path, needles: &[&[u8]]) {
        for entry in std::fs::read_dir(dir).expect("read data dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                scan_dir(&path, needles);
            } else {
                let bytes = std::fs::read(&path).expect("read data file");
                for needle in needles {
                    assert!(
                        !bytes.windows(needle.len()).any(|w| w == *needle),
                        "plaintext {:?} leaked into {}",
                        String::from_utf8_lossy(needle),
                        path.display()
                    );
                }
            }
        }
    }
    for dir in &dirs {
        scan_dir(dir, &[b"vault", b"topsecret", b"HUNTER2"]);
    }
}

#[test]
fn admin_words_and_metrics_answer_in_secure_mode() {
    use opsplane::http::http_get;
    use opsplane::words::{send_word, ADMIN_WORDS};

    let secure_config = SecureKeeperConfig::with_label("ops-e2e");
    let ensemble_config = EnsembleConfig {
        ops_addr: Some("127.0.0.1:0".parse().expect("loopback addr")),
        ..test_config()
    };
    let servers = ZkEnsembleServer::start_local_ensemble(3, &ensemble_config, move |id| {
        let (replica, _interceptor, _counter) = secure_ensemble_replica(id, &secure_config);
        replica
    })
    .expect("bind loopback secure ensemble");

    let credentials = Arc::new(ReplayableSessionCredentials::generate());
    let mut client = ZkTcpClient::connect_with(
        servers[0].client_addr(),
        Arc::clone(&credentials) as Arc<dyn zkserver::net::SessionCredentials>,
        30_000,
    )
    .expect("secure connect");
    client.create("/ops", b"sealed".to_vec(), CreateMode::Persistent).unwrap();
    let (data, _) = client.get_data("/ops", false).unwrap();
    assert_eq!(data, b"sealed");

    // The admin words are deliberately outside the enclave boundary (they
    // expose only operational state, never payloads), so they answer in
    // plaintext even though the jute path rejects plaintext clients.
    for server in &servers {
        for word in ADMIN_WORDS {
            let reply = send_word(server.client_addr(), word).expect("word answered");
            assert!(!reply.is_empty() || word == "cons", "{word} answered nothing");
        }
    }
    let srvr = send_word(servers[0].client_addr(), "srvr").unwrap();
    assert!(srvr.contains("Secure: true"), "{srvr}");
    assert!(srvr.contains("Mode: leader"), "{srvr}");

    // The enclave counters move: frames were opened (decrypted requests)
    // and sealed (encrypted replies), and the session has an entry enclave.
    let (code, text) = http_get(servers[0].ops_addr().unwrap(), "/metrics").unwrap();
    assert_eq!(code, 200);
    let sample = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
            .trim()
            .parse()
            .expect("sample value")
    };
    assert!(sample("zk_secure_frames_opened_total") >= 2.0, "{text}");
    assert!(sample("zk_secure_frames_sealed_total") >= 2.0, "{text}");
    assert!(sample("zk_entry_enclaves") >= 1.0, "{text}");
    let mntr = send_word(servers[0].client_addr(), "mntr").unwrap();
    assert!(mntr.contains("zk_server_state\tleader"), "{mntr}");
    assert!(mntr.contains("zk_secure_frames_opened_total"), "{mntr}");
    client.close();
}

#[test]
fn plaintext_clients_are_rejected_by_every_secure_replica() {
    let servers = start_secure_ensemble(3);
    for server in &servers {
        match ZkTcpClient::connect(server.client_addr()) {
            Err(ZkError::ConnectionLoss { .. }) => {}
            Ok(_) => panic!("plaintext handshake must not succeed against SecureKeeper"),
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
}
