//! # SecureKeeper — confidential ZooKeeper using (simulated) Intel SGX
//!
//! This crate is the primary contribution of the reproduced paper:
//! *SecureKeeper: Confidential ZooKeeper using Intel SGX* (Brenner et al.,
//! Middleware 2016). It keeps all user-provided ZooKeeper data — znode
//! **paths** and **payloads** — encrypted whenever it is outside a small
//! enclave, while the unmodified coordination service (the `zkserver` crate)
//! continues to operate on the ciphertext as a black box.
//!
//! ## Architecture
//!
//! * [`entry::EntryEnclave`] — one per connected client, terminates the
//!   transport encryption (the TLS stand-in, [`transport`]), deserializes the
//!   request *inside* the enclave, encrypts the sensitive fields with the
//!   cluster-wide storage key ([`path_crypto`], [`payload_crypto`]), and
//!   re-serializes the message for the untrusted server. Responses travel the
//!   same path in reverse. A FIFO queue of pending operations matches
//!   responses to requests, exactly as in the paper (Section 4.2).
//! * [`counter::CounterEnclave`] — one per replica, used on the leader when a
//!   *sequential* znode is created: it decrypts the encrypted name, appends
//!   the ZooKeeper-assigned sequence number and re-encrypts the whole name
//!   (Section 4.4).
//! * [`keymgmt`] — deployment workflow: remote attestation of the first entry
//!   enclave per replica, provisioning of the storage key, sealing it to the
//!   replica's disk so later enclaves can unseal it without re-attestation
//!   (Section 4.5).
//! * [`integration`] — the minimally invasive glue: a
//!   [`zkserver::pipeline::RequestInterceptor`] that owns the per-session
//!   entry enclaves and a [`zkserver::ops::SequentialNamer`] backed by the
//!   counter enclave, plus [`integration::secure_ensemble_replica`] which
//!   builds a hardened replica for a loopback server or an ensemble member.
//! * [`transport`] — the client side: [`SecureSessionCredentials`] (and the
//!   failover-capable [`ReplayableSessionCredentials`]) plug into the
//!   unmodified [`zkserver::ZkTcpClient`] and key its wire cipher with the
//!   entry enclave — the only change an application makes (the paper
//!   reports fewer than 100 added lines on the client side).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use jute::records::CreateMode;
//! use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
//! use securekeeper::SecureSessionCredentials;
//! use zkserver::{ZkTcpClient, ZkTcpServer};
//!
//! let config = SecureKeeperConfig::with_label("example-cluster");
//! let (replica, _interceptor, _counter) = secure_ensemble_replica(1, &config);
//! let server = ZkTcpServer::bind("127.0.0.1:0", Arc::clone(&replica))?;
//! let mut client =
//!     ZkTcpClient::connect_with(server.local_addr(), Arc::new(SecureSessionCredentials), 30_000)?;
//!
//! client.create("/app", b"".to_vec(), CreateMode::Persistent)?;
//! client.create("/app/db-password", b"hunter2".to_vec(), CreateMode::Persistent)?;
//! let (payload, _) = client.get_data("/app/db-password", false)?;
//! assert_eq!(payload, b"hunter2");
//!
//! // The untrusted store never sees the plaintext path or payload.
//! for path in replica.tree().paths() {
//!     assert!(!path.contains("db-password"));
//! }
//! client.close();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod entry;
pub mod error;
pub mod integration;
pub mod keymgmt;
pub mod path_cache;
pub mod path_crypto;
pub mod payload_crypto;
pub mod sealed_client;
pub mod transport;

pub use counter::CounterEnclave;
pub use entry::EntryEnclave;
pub use error::SkError;
pub use integration::{secure_ensemble_replica, SecureKeeperConfig};
pub use path_cache::PathCipherCache;
pub use sealed_client::SealedClient;
pub use transport::{ReplayableSessionCredentials, SecureSessionCredentials, SecureWire};
