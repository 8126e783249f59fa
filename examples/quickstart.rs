//! Quickstart: start a SecureKeeper server on a real TCP socket, connect a
//! client over the wire, store a secret, read it back, watch it change, and
//! show what the untrusted replica actually sees.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use jute::records::CreateMode;
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use zkserver::net::ZkTcpServer;
use zkserver::ZkTcpClient;

fn main() {
    // 1. The administrator generates the cluster-wide storage key and starts a
    //    SecureKeeper replica — entry-enclave manager and counter enclave
    //    sharing that key — listening on a real TCP socket.
    let config = SecureKeeperConfig::generate();
    let (replica, interceptor, _counter) = secure_ensemble_replica(1, &config);
    let server = ZkTcpServer::bind("127.0.0.1:0", Arc::clone(&replica)).expect("bind loopback");
    println!("SecureKeeper replica listening on {}", server.local_addr());

    // 2. A client connects over TCP. The handshake carries a fresh session key
    //    to the replica's entry-enclave manager (standing in for the attested
    //    key exchange of the paper); every frame after that is encrypted.
    let mut client =
        ZkTcpClient::connect_with(server.local_addr(), Arc::new(SecureSessionCredentials), 30_000)
            .expect("server is reachable");
    println!("connected as session {}", client.session_id());

    // 3. Store sensitive configuration exactly as an application would with
    //    plain ZooKeeper.
    client.create("/app", Vec::new(), CreateMode::Persistent).expect("create /app");
    client
        .create(
            "/app/db-password",
            b"correct horse battery staple".to_vec(),
            CreateMode::Persistent,
        )
        .expect("create /app/db-password");

    let (payload, stat) = client.get_data("/app/db-password", false).expect("read back");
    println!("read back {} plaintext bytes (version {})", payload.len(), stat.version);
    assert_eq!(payload, b"correct horse battery staple");

    // 4. Watches arrive over the same encrypted connection, with the path
    //    restored to plaintext inside the enclave.
    client.get_data("/app/db-password", true).expect("set watch");
    let mut second =
        ZkTcpClient::connect_with(server.local_addr(), Arc::new(SecureSessionCredentials), 30_000)
            .expect("second client connects");
    second.set_data("/app/db-password", b"hunter2".to_vec(), -1).expect("rotate secret");
    let events = client.poll_events(Duration::from_secs(5)).expect("watch delivery");
    assert!(!events.is_empty(), "watch notification was not delivered within 5s");
    println!("watch fired: {:?} on {}", events[0].kind, events[0].path);
    assert_eq!(events[0].path, "/app/db-password");

    // 5. The untrusted store never sees plaintext: dump what a curious
    //    operator (or a memory-scraping attacker) would observe on the replica.
    println!("\nznode paths as stored on the replica (ciphertext, Base64-url):");
    for path in replica.tree().paths() {
        if path != "/" {
            println!("  {path}");
        }
        assert!(!path.contains("db-password"), "plaintext must never reach the store");
    }
    println!("\nentry enclaves instantiated: {}", interceptor.entry_enclave_count());

    second.close();
    client.close();
    server.shutdown();
    println!("no plaintext path or payload is visible outside the enclaves ✔");
}
