//! Evaluation substrate for the SecureKeeper reproduction.
//!
//! The paper evaluates SecureKeeper on a four-machine Skylake cluster against
//! vanilla ZooKeeper and TLS-enabled ZooKeeper. This crate provides everything
//! needed to regenerate the *shape* of every figure and table of that
//! evaluation on a single machine:
//!
//! * [`variant::Variant`] — the three systems under comparison;
//! * [`costmodel::ServiceCostModel`] — a calibrated analytic model of
//!   per-request service cost (network handling, agreement, TLS, enclave
//!   transitions and storage encryption) used to compute throughput curves
//!   deterministically;
//! * [`generator`] — request generators for the paper's 70:30 GET/SET mix and
//!   per-operation workloads;
//! * [`ycsb`] — a YCSB-style mixed workload generator (Figure 11);
//! * [`measured`] — drives the *real* in-process clusters (vanilla,
//!   TLS-emulated and SecureKeeper) and measures wall-clock throughput, used
//!   to validate the relative overheads of the analytic model;
//! * [`netdriver`] — drives N *real TCP connections* against a live
//!   [`zkserver::net::ZkTcpServer`], measuring actual connection concurrency
//!   (the networked variant of the Figure 6 client-scaling experiment);
//! * [`failover`] — Figure 12: throughput over time against a live networked
//!   ensemble with an injected leader crash;
//! * [`memtrace`] — the memory-usage-over-time trace of Figure 2;
//! * [`report`] — the overhead table (Table 1), the message-size analysis
//!   (Table 2) and the code-base size census (Table 3);
//! * [`metrics`] — small series/row containers shared by the bench binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod failover;
pub mod generator;
pub mod measured;
pub mod memtrace;
pub mod metrics;
pub mod netdriver;
pub mod report;
pub mod variant;
pub mod ycsb;

pub use costmodel::ServiceCostModel;
pub use variant::Variant;
