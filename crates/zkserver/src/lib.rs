//! A ZooKeeper-semantics coordination service.
//!
//! Apache ZooKeeper exposes a hierarchical tree of *znodes* — nodes that carry
//! both payload data and children — through a small file-system-like API
//! (CREATE, GET, SET, DELETE, LS/getChildren, EXISTS), replicates the tree
//! across an ensemble of replicas with the ZAB agreement protocol, and
//! guarantees FIFO order for the requests of each client session.
//!
//! SecureKeeper (the `securekeeper` crate in this workspace) hardens exactly
//! this service; this crate provides the untrusted substrate it runs on:
//!
//! * [`tree::DataTree`] — the znode database with version checks, sequential
//!   node numbering, ephemeral ownership and memory accounting;
//! * [`session::SessionManager`] — client sessions and ephemeral cleanup;
//! * [`watch::WatchManager`] — one-shot data/child watches;
//! * [`ops`] — pure application of a request to the tree (the replicated
//!   state machine);
//! * [`pipeline`] — the request-processor chain with the byte-buffer
//!   interception points SecureKeeper's enclaves hook into;
//! * [`server::ZkReplica`] — a single replica: the tree, sessions and
//!   watches, applying writes itself (standalone) or as committed ZAB
//!   transactions (ensemble member);
//! * [`net::ZkTcpServer`] — the real TCP wire transport: length-prefixed
//!   jute frames, concurrent connections, single-writer ordering;
//! * [`ensemble::ZkEnsembleServer`] — a *networked* ensemble member: ZAB
//!   over real peer sockets, follower→leader write forwarding, heartbeats,
//!   leader election, and crash failover;
//! * [`client::ZkTcpClient`] — the blocking socket client for both servers,
//!   used by the examples, the workload drivers and the benchmark harness;
//! * [`typed`] — the response decoders and the [`typed::Txn`] builder for
//!   atomic `multi` transactions.
//!
//! A loopback server and a client are all it takes to use the service:
//!
//! ```
//! use std::sync::Arc;
//! use jute::records::CreateMode;
//! use zkserver::{ZkReplica, ZkTcpClient, ZkTcpServer};
//!
//! let server = ZkTcpServer::bind("127.0.0.1:0", Arc::new(ZkReplica::new(1)))?;
//! let mut client = ZkTcpClient::connect(server.local_addr())?;
//! client.create("/config", b"v0".to_vec(), CreateMode::Persistent)?;
//! assert_eq!(client.get_data("/config", false)?.0, b"v0");
//! client.close();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod ensemble;
pub mod error;
pub mod metrics;
pub mod net;
pub mod ops;
pub mod persist;
pub mod pipeline;
pub mod server;
pub mod session;
pub mod tree;
pub mod typed;
pub mod watch;

pub use client::ZkTcpClient;
pub use ensemble::{DrainReport, EnsembleConfig, PeerTransport, ZkEnsembleServer};
pub use error::ZkError;
pub use jute::multi::{Op, OpResult};
pub use metrics::ServerMetrics;
pub use net::ZkTcpServer;
pub use persist::{PersistConfig, ReplicaPersistence};
pub use server::ZkReplica;
pub use tree::{DataTree, Znode};
pub use typed::{MultiDispatch, Txn};
