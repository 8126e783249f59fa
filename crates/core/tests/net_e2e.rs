//! Networked end-to-end tests: SecureKeeper over a real TCP socket.
//!
//! These tests drive concurrent [`ZkTcpClient`] connections through the
//! SecureKeeper entry-enclave interceptor on a loopback [`ZkTcpServer`]:
//! every frame on the wire is transport-encrypted with the per-session key,
//! and every path/payload the untrusted store sees is ciphertext. CI runs
//! this file in the dedicated networked e2e job.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use jute::records::CreateMode;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use zkserver::net::ZkTcpServer;
use zkserver::watch::WatchEventKind;
use zkserver::{ZkError, ZkTcpClient};

/// Number of concurrent client connections the main test drives.
const CLIENTS: usize = 8;
/// Operations of the create/get/set/ls mix each client performs.
const OPS_PER_CLIENT: usize = 12;

fn secure_server() -> (ZkTcpServer, Arc<securekeeper::integration::SecureKeeperInterceptor>) {
    let config = SecureKeeperConfig::with_label("net-e2e");
    let (replica, interceptor, _counter) = secure_ensemble_replica(1, &config);
    let server = ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback");
    (server, interceptor)
}

fn secure_client(server: &ZkTcpServer) -> ZkTcpClient {
    ZkTcpClient::connect_with(server.local_addr(), Arc::new(SecureSessionCredentials), 30_000)
        .expect("secure connect")
}

#[test]
fn eight_concurrent_secure_clients_mixed_workload_with_watches() {
    let (server, interceptor) = secure_server();
    let addr = server.local_addr();

    // Seed the tree and the shared watched node.
    {
        let mut setup = secure_client(&server);
        setup.create("/load", b"root".to_vec(), CreateMode::Persistent).unwrap();
        setup.create("/shared", b"v0".to_vec(), CreateMode::Persistent).unwrap();
        setup.close();
    }

    let registered = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let registered = Arc::clone(&registered);
        handles.push(std::thread::spawn(move || {
            let mut client =
                ZkTcpClient::connect_with(addr, Arc::new(SecureSessionCredentials), 30_000)
                    .expect("secure connect");
            let mut observed_zxid = 0i64;
            let assert_write_advanced = |client: &ZkTcpClient, observed: &mut i64| {
                let zxid = client.last_zxid();
                assert!(zxid > *observed, "write zxid regressed: {zxid} <= {observed}");
                *observed = zxid;
            };
            let assert_read_monotonic = |client: &ZkTcpClient, observed: &mut i64| {
                let zxid = client.last_zxid();
                assert!(zxid >= *observed, "read zxid regressed: {zxid} < {observed}");
                *observed = zxid;
            };

            // Everyone watches the shared node before the barrier...
            let (value, _) = client.get_data("/shared", true).unwrap();
            assert!(value.starts_with(b"v"));
            assert_read_monotonic(&client, &mut observed_zxid);
            registered.wait();
            // ...and one client triggers the watch for all eight.
            if t == 0 {
                client.set_data("/shared", b"v1".to_vec(), -1).unwrap();
                assert_write_advanced(&client, &mut observed_zxid);
            }

            // Mixed create/get/set/ls workload on a per-client subtree.
            let base = format!("/load/client-{t}");
            client
                .create(&base, format!("owner-{t}").into_bytes(), CreateMode::Persistent)
                .unwrap();
            assert_write_advanced(&client, &mut observed_zxid);
            for i in 0..OPS_PER_CLIENT {
                let path = format!("{base}/item-{i}");
                client
                    .create(&path, format!("secret-{t}-{i}").into_bytes(), CreateMode::Persistent)
                    .unwrap();
                assert_write_advanced(&client, &mut observed_zxid);

                let (data, stat) = client.get_data(&path, false).unwrap();
                assert_eq!(data, format!("secret-{t}-{i}").into_bytes());
                assert_read_monotonic(&client, &mut observed_zxid);

                client
                    .set_data(&path, format!("updated-{t}-{i}").into_bytes(), stat.version)
                    .unwrap();
                assert_write_advanced(&client, &mut observed_zxid);

                let children = client.get_children(&base, false).unwrap();
                assert_eq!(children.len(), i + 1, "ls sees every created child in plaintext");
                assert!(children.contains(&format!("item-{i}")));
                assert_read_monotonic(&client, &mut observed_zxid);
            }

            // The watch fired by client 0 reaches every session, with the
            // plaintext path restored by the entry enclave.
            let events = client.poll_events(Duration::from_secs(10)).unwrap();
            assert_eq!(events.len(), 1, "client {t} missed its watch event");
            assert_eq!(events[0].kind, WatchEventKind::NodeDataChanged);
            assert_eq!(events[0].path, "/shared");

            client.close();
            observed_zxid
        }));
    }
    let finals: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Global zxid sanity: the server allocated one zxid per write, and every
    // client observed a prefix of that order.
    let replica = server.replica();
    let expected_writes = 2 /* seed */ + 1 /* shared set */
        + CLIENTS as i64 * (1 + 2 * OPS_PER_CLIENT as i64);
    assert_eq!(replica.last_zxid(), expected_writes);
    assert!(finals.into_iter().all(|z| z <= expected_writes));

    // Nothing the untrusted store holds reveals plaintext paths or payloads.
    let tree = replica.tree();
    let paths = tree.paths();
    assert!(paths.len() > CLIENTS * OPS_PER_CLIENT);
    for path in &paths {
        assert!(!path.contains("load"), "plaintext path leaked: {path}");
        assert!(!path.contains("shared"), "plaintext path leaked: {path}");
        assert!(!path.contains("client-"), "plaintext path leaked: {path}");
        assert!(!path.contains("item-"), "plaintext path leaked: {path}");
        if path != "/" {
            let data = tree.get(path).unwrap().data().to_vec();
            let rendered = String::from_utf8_lossy(&data).into_owned();
            assert!(!rendered.contains("secret"), "plaintext payload leaked on {path}");
            assert!(!rendered.contains("updated"), "plaintext payload leaked on {path}");
        }
    }
    drop(tree);

    // All eight entry enclaves are torn down by the graceful closes (the ack
    // is sealed before the teardown applies, so poll briefly).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while interceptor.entry_enclave_count() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "entry enclaves survived session close: {}",
            interceptor.entry_enclave_count()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

#[test]
fn plaintext_clients_are_rejected_by_the_secure_server() {
    let (server, _interceptor) = secure_server();
    // A vanilla client sends an empty handshake blob; the interceptor refuses
    // to establish a session without a key, so the connection dies before any
    // request is processed.
    match ZkTcpClient::connect(server.local_addr()) {
        Err(ZkError::ConnectionLoss { .. }) => {}
        Ok(_) => panic!("plaintext handshake must not succeed against SecureKeeper"),
        Err(other) => panic!("unexpected error: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn tampered_frames_kill_the_connection_not_the_server() {
    use std::io::Write;

    let (server, _interceptor) = secure_server();
    // Handshake properly, then send a garbage frame: the enclave rejects it
    // and the server drops the connection.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut out = jute::OutputArchive::with_capacity(64);
    jute::records::ConnectRequest {
        protocol_version: 0,
        last_zxid_seen: 0,
        timeout_ms: 5_000,
        session_id: 0,
        password: vec![7u8; 16],
    }
    .serialize(&mut out);
    jute::framing::write_frame(&mut stream, &out.into_bytes()).unwrap();
    let response = jute::framing::read_frame(&mut stream).unwrap();
    assert!(response.is_some(), "handshake with a 16-byte key succeeds");

    jute::framing::write_frame(&mut stream, b"not a sealed frame").unwrap();
    stream.flush().unwrap();
    // The server closes the connection instead of answering.
    assert!(jute::framing::read_frame(&mut stream).unwrap().is_none());

    // The server itself is still healthy: a fresh secure client works.
    let mut client = secure_client(&server);
    client.create("/alive", b"yes".to_vec(), CreateMode::Persistent).unwrap();
    let (data, _) = client.get_data("/alive", false).unwrap();
    assert_eq!(data, b"yes");
    client.close();
    server.shutdown();
}

#[test]
fn close_session_is_acknowledged_through_the_secure_channel() {
    use jute::records::{OpCode, RequestHeader};
    use jute::{Request, Response};
    use securekeeper::transport::TransportChannel;
    use zkcrypto::keys::{Key128, SessionKey};

    let (server, _interceptor) = secure_server();
    // Manual handshake with a known session key so we can open the ack.
    let key_bytes = [9u8; 16];
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut out = jute::OutputArchive::with_capacity(64);
    jute::records::ConnectRequest {
        protocol_version: 0,
        last_zxid_seen: 0,
        timeout_ms: 5_000,
        session_id: 0,
        password: key_bytes.to_vec(),
    }
    .serialize(&mut out);
    jute::framing::write_frame(&mut stream, &out.into_bytes()).unwrap();
    jute::framing::read_frame(&mut stream).unwrap().expect("connect response");

    let channel = TransportChannel::client_side(&SessionKey(Key128::from_bytes(key_bytes)));
    let request = Request::CloseSession;
    let sealed =
        channel.seal(&request.to_bytes(&RequestHeader { xid: 1, op: OpCode::CloseSession }));
    jute::framing::write_frame(&mut stream, &sealed).unwrap();

    // The ack arrives sealed with the session key: the enclave must survive
    // long enough to protect it.
    let frame = jute::framing::read_frame(&mut stream).unwrap().expect("close acknowledgement");
    let plain = channel.open(&frame).expect("ack sealed with the session key");
    let (header, response) = Response::from_bytes(&plain, OpCode::CloseSession).unwrap();
    assert_eq!(header.xid, 1);
    assert_eq!(response, Response::CloseSession);
    server.shutdown();
}

#[test]
fn multi_transactions_commit_atomically_over_the_secure_wire() {
    use jute::records::ErrorCode;
    use zkserver::OpResult;

    let (server, _interceptor) = secure_server();
    let mut client = secure_client(&server);
    client.create("/bank", b"ledger".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/bank/alice", b"100".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/bank/bob", b"50".to_vec(), CreateMode::Persistent).unwrap();
    let zxid_before = client.last_zxid();

    // A guarded transfer: both balances move, or neither does, and the audit
    // entry is numbered by the counter enclave inside the same transaction.
    let results = client
        .txn()
        .check("/bank/alice", 0)
        .check("/bank/bob", 0)
        .set_data("/bank/alice", b"70".to_vec(), 0)
        .set_data("/bank/bob", b"80".to_vec(), 0)
        .create("/bank/xfer-", b"alice->bob:30".to_vec(), CreateMode::PersistentSequential)
        .commit()
        .unwrap();
    assert_eq!(results.len(), 5);
    match &results[4] {
        OpResult::Create { path } => assert_eq!(path, "/bank/xfer-0000000000"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(client.last_zxid(), zxid_before + 1, "one zxid for the whole batch");
    let (alice, _) = client.get_data("/bank/alice", false).unwrap();
    let (bob, _) = client.get_data("/bank/bob", false).unwrap();
    let (audit, _) = client.get_data("/bank/xfer-0000000000", false).unwrap();
    assert_eq!(
        (alice.as_slice(), bob.as_slice(), audit.as_slice()),
        (b"70".as_slice(), b"80".as_slice(), b"alice->bob:30".as_slice())
    );

    // A failing version guard aborts the whole batch: balances untouched,
    // typed per-op errors returned through the encrypted channel.
    let err = client
        .txn()
        .check("/bank/alice", 0) // stale: version is 1 now
        .set_data("/bank/alice", b"0".to_vec(), -1)
        .set_data("/bank/bob", b"150".to_vec(), -1)
        .commit()
        .unwrap_err();
    assert!(matches!(err, zkserver::ZkError::BadVersion { .. }), "got {err:?}");
    let (alice, _) = client.get_data("/bank/alice", false).unwrap();
    let (bob, _) = client.get_data("/bank/bob", false).unwrap();
    assert_eq!((alice.as_slice(), bob.as_slice()), (b"70".as_slice(), b"80".as_slice()));

    let results = client
        .multi(vec![
            zkserver::Op::Check(jute::records::CheckVersionRequest {
                path: "/bank/alice".into(),
                version: 0,
            }),
            zkserver::Op::Delete(jute::records::DeleteRequest {
                path: "/bank/xfer-0000000000".into(),
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

    // The untrusted store holds only ciphertext for everything the
    // transactions touched.
    let replica = server.replica();
    let tree = replica.tree();
    for path in tree.paths() {
        assert!(!path.contains("bank"), "plaintext path leaked: {path}");
        assert!(!path.contains("alice"), "plaintext path leaked: {path}");
        assert!(!path.contains("xfer"), "plaintext path leaked: {path}");
        if path != "/" {
            let rendered = String::from_utf8_lossy(tree.get(&path).unwrap().data()).into_owned();
            assert!(!rendered.contains("alice->bob"), "plaintext payload leaked on {path}");
        }
    }
    drop(tree);
    client.close();
    server.shutdown();
}

#[test]
fn sequential_nodes_and_ephemerals_work_over_the_secure_wire() {
    let (server, _interceptor) = secure_server();
    let mut client = secure_client(&server);
    client.create("/locks", vec![], CreateMode::Persistent).unwrap();
    let first =
        client.create("/locks/lock-", b"me".to_vec(), CreateMode::EphemeralSequential).unwrap();
    let second =
        client.create("/locks/lock-", b"you".to_vec(), CreateMode::EphemeralSequential).unwrap();
    assert_eq!(first, "/locks/lock-0000000000");
    assert_eq!(second, "/locks/lock-0000000001");
    let (data, _) = client.get_data(&first, false).unwrap();
    assert_eq!(data, b"me");
    assert_eq!(
        client.get_children("/locks", false).unwrap(),
        vec!["lock-0000000000", "lock-0000000001"]
    );

    // Closing the owner removes the ephemerals; observe through a second client.
    let mut observer = secure_client(&server);
    client.close();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let children = observer.get_children("/locks", false).unwrap();
        if children.is_empty() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "ephemerals survived close: {children:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    observer.close();
    server.shutdown();
}

#[test]
fn crud_cycle_with_confidential_storage() {
    let (server, _interceptor) = secure_server();
    let mut client = secure_client(&server);

    client.create("/app", b"root".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/app/db-password", b"hunter2".to_vec(), CreateMode::Persistent).unwrap();
    assert!(matches!(
        client.create("/app/db-password", vec![], CreateMode::Persistent),
        Err(ZkError::NodeExists { .. })
    ));

    let (data, stat) = client.get_data("/app/db-password", false).unwrap();
    assert_eq!(data, b"hunter2");
    assert_eq!(stat.data_length, 7);

    client.set_data("/app/db-password", b"correct horse".to_vec(), 0).unwrap();
    let (data, _) = client.get_data("/app/db-password", false).unwrap();
    assert_eq!(data, b"correct horse");

    assert_eq!(client.get_children("/app", false).unwrap(), vec!["db-password"]);
    assert!(client.exists("/app/db-password", false).unwrap().is_some());
    assert!(client.exists("/app/missing", false).unwrap().is_none());

    client.delete("/app/db-password", -1).unwrap();
    assert!(matches!(client.get_data("/app/db-password", false), Err(ZkError::NoNode { .. })));
    client.ping().unwrap();

    // Nothing in the untrusted store reveals the plaintext.
    for path in server.replica().tree().paths() {
        assert!(!path.contains("app"), "plaintext path leaked: {path}");
        assert!(!path.contains("db-password"), "plaintext path leaked: {path}");
    }
    client.close();
    server.shutdown();
}
