//! Distributed locking with ephemeral sequential znodes — the classic
//! ZooKeeper recipe the paper's introduction motivates — running on top of
//! SecureKeeper, so neither the lock names nor the owner metadata are visible
//! to the untrusted replicas.
//!
//! The recipe: every contender creates an ephemeral *sequential* znode under
//! `/locks/resource`; the contender with the lowest sequence number holds the
//! lock; everyone else waits for the holder to release (delete) its znode.
//! Sequential znodes are exactly the case that needs SecureKeeper's counter
//! enclave (Section 4.4).
//!
//! Run with:
//!
//! ```text
//! cargo run --example distributed_lock
//! ```

use std::sync::Arc;
use std::time::Duration;

use jute::records::CreateMode;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::ZkTcpClient;

/// One lock contender.
struct Contender {
    name: &'static str,
    client: ZkTcpClient,
    lock_node: Option<String>,
}

fn connect(member: &ZkEnsembleServer) -> ZkTcpClient {
    ZkTcpClient::connect_with(member.client_addr(), Arc::new(SecureSessionCredentials), 30_000)
        .expect("connect")
}

impl Contender {
    fn connect(name: &'static str, member: &ZkEnsembleServer) -> Self {
        Contender { name, client: connect(member), lock_node: None }
    }

    /// Enqueues for the lock and returns the acquired sequence position.
    fn contend(&mut self) -> String {
        let path = self
            .client
            .create(
                "/locks/resource/lock-",
                self.name.as_bytes().to_vec(),
                CreateMode::EphemeralSequential,
            )
            .expect("create lock node");
        self.lock_node = Some(path.clone());
        path
    }

    /// The queue as this contender's member currently sees it, in order.
    fn queue(&mut self) -> Vec<String> {
        let mut children = self.client.get_children("/locks/resource", false).expect("list queue");
        children.sort();
        children
    }

    /// True if this contender currently holds the lock (owns the lowest
    /// sequence number in the queue).
    fn holds_lock(&mut self) -> bool {
        let Some(my_node) = self.lock_node.clone() else { return false };
        let my_name = my_node.rsplit('/').next().expect("node name");
        self.queue().first().map(String::as_str) == Some(my_name)
    }

    /// Blocks until this contender holds the lock: watch the node just ahead
    /// in the queue and re-check when it goes away. The watch also covers a
    /// member that has not yet applied the predecessor's release, since
    /// reads are served by the member the client is connected to.
    fn wait_for_lock(&mut self) {
        let my_node = self.lock_node.clone().expect("enqueued");
        let my_name = my_node.rsplit('/').next().expect("node name").to_string();
        loop {
            let queue = self.queue();
            let position = queue.iter().position(|n| *n == my_name).expect("still enqueued");
            if position == 0 {
                return;
            }
            let predecessor = format!("/locks/resource/{}", queue[position - 1]);
            if self.client.exists(&predecessor, true).expect("watch predecessor").is_some() {
                let events = self.client.poll_events(Duration::from_secs(10)).expect("watch");
                assert!(!events.is_empty(), "{}: predecessor never went away", self.name);
            }
        }
    }

    /// Releases the lock by deleting the owned znode.
    fn release(&mut self) {
        if let Some(node) = self.lock_node.take() {
            self.client.delete(&node, -1).expect("release lock");
        }
    }
}

fn main() {
    let config = SecureKeeperConfig::generate();
    let members = ZkEnsembleServer::start_local_ensemble(3, &EnsembleConfig::default(), |id| {
        secure_ensemble_replica(id, &config).0
    })
    .expect("bind loopback ensemble");

    // Set up the lock root.
    let mut admin = connect(&members[0]);
    admin.create("/locks", Vec::new(), CreateMode::Persistent).expect("create /locks");
    admin
        .create("/locks/resource", Vec::new(), CreateMode::Persistent)
        .expect("create /locks/resource");

    // Three contenders connect to three different members.
    let mut alice = Contender::connect("alice", &members[0]);
    let mut bob = Contender::connect("bob", &members[1]);
    let mut carol = Contender::connect("carol", &members[2]);

    let a = alice.contend();
    let b = bob.contend();
    let c = carol.contend();
    println!("queue positions:\n  alice -> {a}\n  bob   -> {b}\n  carol -> {c}");

    assert!(alice.holds_lock(), "alice enqueued first and must hold the lock");
    assert!(!bob.holds_lock());
    assert!(!carol.holds_lock());
    println!("alice holds the lock");

    alice.release();
    bob.wait_for_lock();
    assert!(bob.holds_lock(), "bob is next in line");
    assert!(!carol.holds_lock());
    println!("alice released; bob holds the lock");

    // Bob's process dies (session closes) — its ephemeral node disappears and
    // carol takes over without any explicit release.
    bob.client.close();
    carol.wait_for_lock();
    assert!(carol.holds_lock(), "carol inherits the lock after bob's session ends");
    println!("bob's session ended; carol holds the lock");

    // Throughout all of this the untrusted members only ever saw encrypted
    // names.
    for member in &members {
        for path in member.replica().tree().paths() {
            assert!(!path.contains("lock-"), "lock queue names must be encrypted, saw {path}");
        }
    }
    for member in members {
        member.shutdown();
    }
    println!("lock queue names never appeared in plaintext in the store ✔");
}
