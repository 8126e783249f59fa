//! Group membership / service discovery on SecureKeeper: workers register
//! themselves as ephemeral znodes carrying their (confidential) endpoint and
//! credentials; a dispatcher watches the group and reacts to joins, leaves and
//! crashes — including a replica failure underneath the coordination service.
//!
//! Run with:
//!
//! ```text
//! cargo run --example service_discovery
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::records::CreateMode;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::ZkTcpClient;

fn connect(member: &ZkEnsembleServer) -> ZkTcpClient {
    ZkTcpClient::connect_with(member.client_addr(), Arc::new(SecureSessionCredentials), 30_000)
        .expect("connect")
}

/// Lists the group with a child watch armed, re-listing after every
/// notification until `done` holds. Reads are served by the dispatcher's own
/// member, which may apply a change from another member a moment later —
/// the watch fires when it does.
fn await_members(client: &mut ZkTcpClient, done: impl Fn(&[String]) -> bool) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut members = client.get_children("/services/workers", true).expect("list members");
        members.sort();
        if done(&members) {
            return members;
        }
        assert!(Instant::now() < deadline, "membership never settled: {members:?}");
        client.poll_events(Duration::from_millis(500)).expect("watch delivery");
    }
}

fn main() {
    let config = SecureKeeperConfig::generate();
    let mut members = ZkEnsembleServer::start_local_ensemble(3, &EnsembleConfig::default(), |id| {
        secure_ensemble_replica(id, &config).0
    })
    .expect("bind loopback ensemble");
    let leader = members.iter().position(ZkEnsembleServer::is_leader).expect("a leader");
    let followers: Vec<usize> = (0..members.len()).filter(|&i| i != leader).collect();

    // The dispatcher and the workers connect to the followers so we can
    // later crash the leader without losing any client session.
    let mut dispatcher = connect(&members[followers[0]]);
    dispatcher.create("/services", Vec::new(), CreateMode::Persistent).expect("create /services");
    dispatcher
        .create("/services/workers", Vec::new(), CreateMode::Persistent)
        .expect("create group");
    dispatcher.get_children("/services/workers", true).expect("arm watch");

    // Two workers join from different members, registering endpoint + token.
    let mut worker_a = connect(&members[followers[0]]);
    worker_a
        .create(
            "/services/workers/worker-a",
            b"endpoint=10.0.0.11:7000;token=s3cr3t-a".to_vec(),
            CreateMode::Ephemeral,
        )
        .expect("register worker-a");
    let mut worker_b = connect(&members[followers[1]]);
    worker_b
        .create(
            "/services/workers/worker-b",
            b"endpoint=10.0.0.12:7000;token=s3cr3t-b".to_vec(),
            CreateMode::Ephemeral,
        )
        .expect("register worker-b");

    // The dispatcher is notified and enumerates the live members.
    let events = dispatcher.poll_events(Duration::from_secs(5)).expect("watch delivery");
    assert!(!events.is_empty(), "the child watch must fire on the first join");
    let live = await_members(&mut dispatcher, |m| m.len() == 2);
    println!("live workers: {live:?}");
    assert_eq!(live, vec!["worker-a", "worker-b"]);

    // It can read each member's confidential registration record.
    for member in &live {
        let path = format!("/services/workers/{member}");
        let (record, _) = dispatcher.get_data(&path, false).expect("read registration");
        println!("  {member}: {}", String::from_utf8_lossy(&record));
    }

    // A coordination-service member fails; the survivors elect a new leader
    // and the service keeps working.
    let crashed = members.remove(leader);
    println!("\ncrashing coordination replica {} (the ZAB leader)…", crashed.id());
    crashed.shutdown();
    // worker-b refreshes its registration through the new leader; writes
    // fail only until the election completes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let refreshed = b"endpoint=10.0.0.12:7000;token=s3cr3t-b2".to_vec();
    while let Err(err) = worker_b.set_data("/services/workers/worker-b", refreshed.clone(), -1) {
        assert!(Instant::now() < deadline, "writes never resumed after the failover: {err}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // worker-b's process also dies: its ephemeral registration disappears.
    worker_b.close();

    let live = await_members(&mut dispatcher, |m| m.len() == 1);
    println!("live workers after leader crash + worker-b exit: {live:?}");
    assert_eq!(live, vec!["worker-a"]);

    // And the registry data is still confidential on every surviving member.
    for member in &members {
        for path in member.replica().tree().paths() {
            assert!(!path.contains("worker-"), "member names must be encrypted, saw {path}");
        }
    }
    worker_a.close();
    dispatcher.close();
    for member in members {
        member.shutdown();
    }
    println!("membership survived a replica failure, names stayed encrypted ✔");
}
