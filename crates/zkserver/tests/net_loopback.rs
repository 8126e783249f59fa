//! Loopback integration tests for the plain (non-encrypted) TCP transport.

use std::sync::Arc;
use std::time::Duration;

use jute::records::CreateMode;
use zkserver::net::{NetConfig, ZkTcpServer};
use zkserver::session::MonotonicClock;
use zkserver::watch::WatchEventKind;
use zkserver::{ZkError, ZkReplica, ZkTcpClient};

fn start_server() -> ZkTcpServer {
    let replica = Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())));
    ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback")
}

#[test]
fn crud_cycle_over_a_real_socket() {
    let server = start_server();
    let mut client = ZkTcpClient::connect(server.local_addr()).unwrap();
    assert!(client.session_id() > 0);

    assert_eq!(client.create("/app", b"root".to_vec(), CreateMode::Persistent).unwrap(), "/app");
    let (data, stat) = client.get_data("/app", false).unwrap();
    assert_eq!(data, b"root");
    assert_eq!(stat.version, 0);

    let stat = client.set_data("/app", b"v2".to_vec(), 0).unwrap();
    assert_eq!(stat.version, 1);
    assert!(client.exists("/app", false).unwrap().is_some());
    assert!(client.exists("/nope", false).unwrap().is_none());

    client.create("/app/a", vec![], CreateMode::Persistent).unwrap();
    client.create("/app/b", vec![], CreateMode::Persistent).unwrap();
    assert_eq!(client.get_children("/app", false).unwrap(), vec!["a", "b"]);

    client.delete("/app/a", -1).unwrap();
    assert!(matches!(client.get_data("/app/a", false), Err(ZkError::NoNode { .. })));
    client.ping().unwrap();

    // The reply headers exposed a non-decreasing zxid stream.
    assert!(client.last_zxid() >= 4);
    client.close();
    server.shutdown();
}

#[test]
fn multi_transactions_commit_atomically_over_a_real_socket() {
    use jute::records::ErrorCode;
    use zkserver::OpResult;

    let server = start_server();
    let mut client = ZkTcpClient::connect(server.local_addr()).unwrap();
    client.create("/cfg", b"v0".to_vec(), CreateMode::Persistent).unwrap();
    let zxid_before = client.last_zxid();

    // Commit: check + set + sequential create + delete as one transaction.
    client.create("/cfg/tmp", vec![], CreateMode::Persistent).unwrap();
    let results = client
        .txn()
        .check("/cfg", 0)
        .set_data("/cfg", b"v1".to_vec(), 0)
        .create("/cfg/hist-", b"v0".to_vec(), CreateMode::PersistentSequential)
        .delete("/cfg/tmp", -1)
        .commit()
        .unwrap();
    assert_eq!(results.len(), 4);
    assert_eq!(results[2], OpResult::Create { path: "/cfg/hist-0000000000".into() });
    // The whole batch consumed exactly one zxid (plus the tmp create above).
    assert_eq!(client.last_zxid(), zxid_before + 2);
    let (data, _) = client.get_data("/cfg", false).unwrap();
    assert_eq!(data, b"v1");
    assert!(client.exists("/cfg/tmp", false).unwrap().is_none());

    // Abort: the stale check rolls everything back with typed errors.
    let err =
        client.txn().set_data("/cfg", b"v2".to_vec(), -1).check("/cfg", 0).commit().unwrap_err();
    match err {
        ZkError::BadVersion { path, .. } => assert_eq!(path, "/cfg"),
        other => panic!("expected a typed BadVersion abort, got {other:?}"),
    }
    let (data, _) = client.get_data("/cfg", false).unwrap();
    assert_eq!(data, b"v1", "aborted multi must not apply any sub-op");

    // The per-op result vector of the abort is observable via multi().
    let results = client
        .multi(vec![
            zkserver::Op::Delete(jute::records::DeleteRequest {
                path: "/cfg/hist-0000000000".into(),
                version: -1,
            }),
            zkserver::Op::Check(jute::records::CheckVersionRequest {
                path: "/missing".into(),
                version: -1,
            }),
        ])
        .unwrap();
    assert_eq!(
        results,
        vec![OpResult::Error(ErrorCode::RuntimeInconsistency), OpResult::Error(ErrorCode::NoNode),]
    );
    assert!(client.exists("/cfg/hist-0000000000", false).unwrap().is_some());

    client.close();
    server.shutdown();
}

#[test]
fn sequential_creates_over_the_wire_are_gap_free() {
    let server = start_server();
    let mut client = ZkTcpClient::connect(server.local_addr()).unwrap();
    client.create("/tasks", vec![], CreateMode::Persistent).unwrap();
    let first = client.create("/tasks/task-", vec![], CreateMode::PersistentSequential).unwrap();
    let second = client.create("/tasks/task-", vec![], CreateMode::PersistentSequential).unwrap();
    assert_eq!(first, "/tasks/task-0000000000");
    assert_eq!(second, "/tasks/task-0000000001");
    server.shutdown();
}

#[test]
fn watches_are_pushed_to_the_registering_connection() {
    let server = start_server();
    let mut watcher = ZkTcpClient::connect(server.local_addr()).unwrap();
    let mut writer = ZkTcpClient::connect(server.local_addr()).unwrap();

    watcher.create("/watched", b"v1".to_vec(), CreateMode::Persistent).unwrap();
    watcher.get_data("/watched", true).unwrap();
    writer.set_data("/watched", b"v2".to_vec(), -1).unwrap();

    let events = watcher.poll_events(Duration::from_secs(5)).unwrap();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, WatchEventKind::NodeDataChanged);
    assert_eq!(events[0].path, "/watched");

    // One-shot: a second change fires nothing.
    writer.set_data("/watched", b"v3".to_vec(), -1).unwrap();
    assert!(watcher.poll_events(Duration::from_millis(100)).unwrap().is_empty());
    server.shutdown();
}

#[test]
fn watch_callback_is_invoked_on_delivery() {
    let server = start_server();
    let mut watcher = ZkTcpClient::connect(server.local_addr()).unwrap();
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    watcher.set_watch_callback(Box::new(move |event| {
        sink.lock().unwrap().push((event.path.clone(), event.kind));
    }));

    watcher.create("/cb", vec![], CreateMode::Persistent).unwrap();
    watcher.exists("/cb", true).unwrap();
    let mut writer = ZkTcpClient::connect(server.local_addr()).unwrap();
    writer.delete("/cb", -1).unwrap();

    let events = watcher.poll_events(Duration::from_secs(5)).unwrap();
    assert_eq!(events.len(), 1);
    assert_eq!(
        seen.lock().unwrap().as_slice(),
        &[("/cb".to_string(), WatchEventKind::NodeDeleted)]
    );
    server.shutdown();
}

#[test]
fn close_removes_ephemerals_and_disconnect_leaves_them_to_expire() {
    let replica = Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())));
    let config = NetConfig {
        max_session_timeout_ms: 30_000,
        tick_interval: Duration::from_millis(5),
        ..NetConfig::default()
    };
    let server =
        ZkTcpServer::bind_with_config("127.0.0.1:0", Arc::clone(&replica), config).unwrap();

    let mut observer = ZkTcpClient::connect(server.local_addr()).unwrap();
    observer.create("/group", vec![], CreateMode::Persistent).unwrap();

    // Graceful close removes the ephemeral immediately.
    let mut member = ZkTcpClient::connect(server.local_addr()).unwrap();
    member.create("/group/a", vec![], CreateMode::Ephemeral).unwrap();
    assert_eq!(observer.get_children("/group", false).unwrap(), vec!["a"]);
    member.close();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while observer.get_children("/group", false).unwrap() == vec!["a"] {
        assert!(std::time::Instant::now() < deadline, "ephemeral /group/a survived close");
        std::thread::sleep(Duration::from_millis(5));
    }

    // An abrupt disconnect keeps the session until its timeout elapses; the
    // background ticker then expires it and deletes the ephemeral.
    let member = ZkTcpClient::connect_with(
        server.local_addr(),
        Arc::new(zkserver::net::PlainCredentials),
        50, // ms
    );
    let mut member = member.unwrap();
    member.create("/group/b", vec![], CreateMode::Ephemeral).unwrap();
    drop(member); // no CloseSession
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !observer.get_children("/group", false).unwrap().is_empty() {
        assert!(std::time::Instant::now() < deadline, "ephemeral /group/b never expired");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn shutdown_is_not_wedged_by_a_stalled_handshake() {
    let server = start_server();
    // A client that connects but never sends its ConnectRequest leaves its
    // connection thread blocked in the handshake read; shutdown must still
    // complete by force-closing the socket.
    let stalled = std::net::TcpStream::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the server accept it
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown hung on a mid-handshake connection");
    drop(stalled);
}

#[test]
fn reconnect_reattaches_to_the_live_session() {
    let server = start_server();
    let mut client = ZkTcpClient::connect(server.local_addr()).unwrap();
    let first_session = client.session_id();
    client.create("/durable", vec![], CreateMode::Persistent).unwrap();
    client.create("/mine", vec![], CreateMode::Ephemeral).unwrap();
    client.reconnect().unwrap();
    // The session survives the reconnect (password re-attach), so its
    // ephemeral znodes are still owned and alive.
    assert_eq!(client.session_id(), first_session);
    assert!(client.exists("/durable", false).unwrap().is_some());
    assert!(client.exists("/mine", false).unwrap().is_some());
    client.set_data("/mine", b"still mine".to_vec(), -1).unwrap();
    server.shutdown();
}

#[test]
fn many_concurrent_connections_interleave_correctly() {
    let server = start_server();
    let addr = server.local_addr();
    {
        let mut setup = ZkTcpClient::connect(addr).unwrap();
        setup.create("/load", vec![], CreateMode::Persistent).unwrap();
        setup.close();
    }

    // 256 idle sessions share the server with the busy ones below: the
    // transport must serve all of them from its fixed O(cores) thread pool.
    let idle: Vec<ZkTcpClient> = (0..256).map(|_| ZkTcpClient::connect(addr).unwrap()).collect();
    assert!(server.connection_count() >= 256, "{} sessions held", server.connection_count());

    let mut handles = Vec::new();
    for t in 0..8 {
        handles.push(std::thread::spawn(move || {
            let mut client = ZkTcpClient::connect(addr).unwrap();
            let mut observed = 0i64;
            for i in 0..20 {
                let path = format!("/load/t{t}-{i}");
                client.create(&path, vec![t as u8], CreateMode::Persistent).unwrap();
                let zxid = client.last_zxid();
                assert!(zxid > observed, "write zxid did not advance: {zxid} <= {observed}");
                observed = zxid;
                let (data, _) = client.get_data(&path, false).unwrap();
                assert_eq!(data, vec![t as u8]);
                assert!(client.last_zxid() >= observed);
                observed = client.last_zxid();
            }
            client.close();
            observed
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = server.transport_thread_count();
    assert!(
        threads <= cores.min(4) + 2,
        "{threads} transport threads for {} connections on {cores} cores",
        server.connection_count()
    );
    for client in idle {
        client.close();
    }

    let replica = server.replica();
    assert_eq!(replica.tree().get("/load").unwrap().stat().num_children, 160);
    server.shutdown();
}

#[test]
fn pipelined_tickets_resolve_in_any_claim_order() {
    use jute::records::{GetDataRequest, SetDataRequest};
    use jute::{Request, Response};

    let server = start_server();
    let mut client = ZkTcpClient::connect(server.local_addr()).unwrap();
    client.create("/pipe", b"v0".to_vec(), CreateMode::Persistent).unwrap();

    // Submit a pipeline of requests without reading a single response: the
    // server processes them in FIFO order, the client stows each reply under
    // its ticket until claimed.
    let set = client
        .submit(&Request::SetData(SetDataRequest {
            path: "/pipe".into(),
            data: b"v1".to_vec(),
            version: -1,
        }))
        .unwrap();
    let get = client
        .submit(&Request::GetData(GetDataRequest { path: "/pipe".into(), watch: false }))
        .unwrap();
    let ping = client.submit(&Request::Ping).unwrap();

    // Claim out of submission order: last first.
    assert!(matches!(client.wait(ping).unwrap(), Response::Ping));
    let Response::GetData(read) = client.wait(get).unwrap() else { panic!("expected GetData") };
    assert_eq!(read.data, b"v1", "the earlier pipelined set must be visible to the later get");
    let Response::SetData(written) = client.wait(set).unwrap() else { panic!("expected SetData") };
    assert_eq!(written.stat.version, 1);

    // A claimed ticket is spent; polling it again is a typed error, and
    // polling with nothing in flight never blocks.
    assert!(client.poll(ping).is_err());
    assert!(client.last_zxid() > 0);
    client.close();
    server.shutdown();
}

#[test]
fn poll_returns_none_until_the_response_lands() {
    use jute::records::GetDataRequest;
    use jute::{Request, Response};

    let server = start_server();
    let mut client = ZkTcpClient::connect(server.local_addr()).unwrap();
    client.create("/poll", b"x".to_vec(), CreateMode::Persistent).unwrap();

    let ticket = client
        .submit(&Request::GetData(GetDataRequest { path: "/poll".into(), watch: false }))
        .unwrap();
    // Poll until the reply arrives; each empty poll returns promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let response = loop {
        if let Some(response) = client.poll(ticket).unwrap() {
            break response;
        }
        assert!(std::time::Instant::now() < deadline, "response never arrived");
    };
    assert!(matches!(response, Response::GetData(_)));
    client.close();
    server.shutdown();
}
