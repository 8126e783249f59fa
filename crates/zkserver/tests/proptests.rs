//! Property-based tests for the data tree and replicated state: structural
//! invariants hold under arbitrary operation sequences, and replicas fed by
//! one ZAB ensemble converge to identical state regardless of which replica
//! clients talk to.

use proptest::prelude::*;

use jute::records::{CreateMode, CreateRequest, DeleteRequest, SetDataRequest};
use jute::Request;
use zab::{NodeId, ZabCluster};
use zkserver::ops::WriteTxn;
use zkserver::tree::{split_path, validate_path};
use zkserver::{DataTree, ZkReplica};

/// A randomly generated tree operation over a bounded name space.
#[derive(Debug, Clone)]
enum TreeOp {
    Create { parent: usize, name: usize, payload: Vec<u8>, sequential: bool },
    Set { target: usize, payload: Vec<u8> },
    Delete { target: usize },
}

fn arb_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0usize..6, 0usize..6, proptest::collection::vec(any::<u8>(), 0..64), any::<bool>())
            .prop_map(|(parent, name, payload, sequential)| TreeOp::Create {
                parent,
                name,
                payload,
                sequential
            }),
        (0usize..12, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(target, payload)| TreeOp::Set { target, payload }),
        (0usize..12,).prop_map(|(target,)| TreeOp::Delete { target }),
    ]
}

/// Checks the structural invariants of a tree: every non-root node has a live
/// parent that lists it as a child, and every parent's child list points at
/// existing nodes with a correct `num_children` count.
fn assert_tree_invariants(tree: &DataTree) {
    let paths = tree.paths();
    for path in &paths {
        if path == "/" {
            continue;
        }
        let (parent, name) = split_path(path).expect("non-root path has a parent");
        let parent_node =
            tree.get(parent).unwrap_or_else(|| panic!("parent {parent} of {path} missing"));
        assert!(parent_node.children().any(|c| c == name), "{parent} does not list {name}");
    }
    for path in &paths {
        let node = tree.get(path).expect("listed path exists");
        let mut count = 0;
        for child in node.children() {
            let child_path =
                if path == "/" { format!("/{child}") } else { format!("{path}/{child}") };
            assert!(tree.contains(&child_path), "child {child_path} of {path} missing");
            count += 1;
        }
        assert_eq!(node.stat().num_children as usize, count, "num_children mismatch at {path}");
    }
}

fn candidate_paths() -> Vec<String> {
    // A small, overlapping name space so creates/deletes collide often.
    let mut paths = vec!["/n0".to_string(), "/n1".to_string(), "/n2".to_string()];
    for parent in ["/n0", "/n1", "/n2"] {
        for child in ["a", "b", "c"] {
            paths.push(format!("{parent}/{child}"));
        }
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_invariants_hold_under_random_operations(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut tree = DataTree::new();
        let paths = candidate_paths();
        let mut zxid = 0i64;
        for op in ops {
            zxid += 1;
            match op {
                TreeOp::Create { parent, name, payload, sequential } => {
                    let parent_path = if parent % 3 == 0 { "/".to_string() } else { paths[parent % paths.len()].clone() };
                    let path = if parent_path == "/" {
                        format!("/n{}", name % 3)
                    } else {
                        format!("{parent_path}/{}", ["a", "b", "c"][name % 3])
                    };
                    if sequential {
                        if tree.contains(&parent_path) {
                            let seq = tree.next_sequence(&parent_path).unwrap();
                            let _ = tree.create(&format!("{path}{seq:010}"), payload, 0, zxid, zxid);
                        }
                    } else {
                        let _ = tree.create(&path, payload, 0, zxid, zxid);
                    }
                }
                TreeOp::Set { target, payload } => {
                    let path = &paths[target % paths.len()];
                    let _ = tree.set_data(path, payload, -1, zxid, zxid);
                }
                TreeOp::Delete { target } => {
                    let path = &paths[target % paths.len()];
                    let _ = tree.delete(path, -1, zxid);
                }
            }
            assert_tree_invariants(&tree);
        }
        // The root is indestructible and memory accounting stays consistent.
        prop_assert!(tree.contains("/"));
        prop_assert!(tree.approximate_memory_bytes() > 0);
    }

    #[test]
    fn set_data_version_always_counts_writes(writes in 1usize..30) {
        let mut tree = DataTree::new();
        tree.create("/v", vec![], 0, 1, 0).unwrap();
        for i in 0..writes {
            let stat = tree.set_data("/v", vec![i as u8], -1, i as i64 + 2, 0).unwrap();
            prop_assert_eq!(stat.version, i as i32 + 1);
        }
    }

    #[test]
    fn valid_paths_always_roundtrip_through_split(
        components in proptest::collection::vec("[a-zA-Z0-9_=-]{1,12}", 1..5)
    ) {
        let path = format!("/{}", components.join("/"));
        prop_assert!(validate_path(&path).is_ok());
        let (parent, name) = split_path(&path).unwrap();
        prop_assert_eq!(name, components.last().unwrap().as_str());
        if components.len() == 1 {
            prop_assert_eq!(parent, "/");
        } else {
            prop_assert!(validate_path(parent).is_ok());
        }
    }

    #[test]
    fn replicas_converge_regardless_of_the_connected_replica(
        choices in proptest::collection::vec(
            (0usize..3, 0usize..4, any::<bool>(), any::<bool>()),
            1..40,
        )
    ) {
        // Three replicas behind one ZAB ensemble: every write is ordered by
        // ZAB and applied by each replica in commit order, whichever
        // replica's session issued it. A follower that sits out part of the
        // stream catches up from the leader when it comes back.
        let mut zab = ZabCluster::new(3);
        let ids = zab.node_ids().to_vec();
        let replicas: Vec<ZkReplica> = ids.iter().map(|id| ZkReplica::new(id.0)).collect();
        let sessions: Vec<i64> =
            replicas.iter().map(|replica| replica.connect(30_000).session_id).collect();
        let straggler = ids[2];

        for (replica_choice, node_choice, delete, bounce) in choices {
            if bounce {
                if zab.is_crashed(straggler) {
                    zab.recover(straggler);
                } else {
                    zab.crash(straggler);
                }
            }
            let path = format!("/node-{}", node_choice % 4);
            let request = if delete {
                Request::Delete(DeleteRequest { path, version: -1 })
            } else if node_choice % 2 == 0 {
                Request::Create(CreateRequest { path, data: vec![1], mode: CreateMode::Persistent })
            } else {
                Request::SetData(SetDataRequest { path, data: vec![2], version: -1 })
            };
            let txn = WriteTxn {
                session_id: sessions[replica_choice],
                time_ms: 0,
                request_bytes: ZkReplica::serialize_request(0, &request),
            };
            prop_assert!(zab.broadcast(txn.to_bytes()).is_some(), "two of three form a quorum");
            apply_committed(&mut zab, &ids, &replicas);
        }
        if zab.is_crashed(straggler) {
            zab.recover(straggler);
        }
        apply_committed(&mut zab, &ids, &replicas);

        // Whatever happened, all replicas hold byte-identical trees.
        let reference = replicas[0].tree();
        for replica in &replicas[1..] {
            let tree = replica.tree();
            prop_assert_eq!(tree.nodes_sorted(), reference.nodes_sorted());
            prop_assert_eq!(replica.memory_bytes(), replicas[0].memory_bytes());
            prop_assert_eq!(replica.last_zxid(), replicas[0].last_zxid());
        }
    }
}

/// Applies every newly committed transaction on every live replica, in
/// commit order.
fn apply_committed(zab: &mut ZabCluster, ids: &[NodeId], replicas: &[ZkReplica]) {
    for (id, replica) in ids.iter().zip(replicas) {
        if zab.is_crashed(*id) {
            continue;
        }
        for txn in zab.take_committed(*id) {
            let write = WriteTxn::from_bytes(&txn.payload).expect("well-formed txn");
            replica.apply_txn(txn.zxid.as_u64() as i64, &write);
        }
    }
}

/// Builds a tree (with ephemeral owners and sequential counters) from the
/// same random operation stream the invariant test uses.
fn build_tree(ops: &[TreeOp]) -> DataTree {
    let mut tree = DataTree::new();
    let paths = candidate_paths();
    let mut zxid = 0i64;
    for op in ops {
        zxid += 1;
        match op {
            TreeOp::Create { parent, name, payload, sequential } => {
                let parent_path = if parent % 3 == 0 {
                    "/".to_string()
                } else {
                    paths[parent % paths.len()].clone()
                };
                let path = if parent_path == "/" {
                    format!("/n{}", name % 3)
                } else {
                    format!("{parent_path}/{}", ["a", "b", "c"][name % 3])
                };
                // Leaf creates alternate between persistent and ephemeral
                // (ephemeral owner ids exercise the snapshot session table).
                let owner =
                    if *name % 2 == 1 && parent_path != "/" { 7_000 + *name as i64 } else { 0 };
                if *sequential {
                    if tree.contains(&parent_path) {
                        let seq = tree.next_sequence(&parent_path).unwrap();
                        let _ = tree.create(
                            &format!("{path}{seq:010}"),
                            payload.clone(),
                            owner,
                            zxid,
                            zxid,
                        );
                    }
                } else {
                    let _ = tree.create(&path, payload.clone(), owner, zxid, zxid);
                }
            }
            TreeOp::Set { target, payload } => {
                let path = &paths[target % paths.len()];
                let _ = tree.set_data(path, payload.clone(), -1, zxid, zxid);
            }
            TreeOp::Delete { target } => {
                let path = &paths[target % paths.len()];
                let _ = tree.delete(path, -1, zxid);
            }
        }
    }
    tree
}

/// Full structural fingerprint of a tree (path, payload, stat, sequence
/// counter) for byte-level equality checks.
fn tree_fingerprint(tree: &DataTree) -> Vec<(String, Vec<u8>, jute::records::Stat, u32)> {
    tree.nodes_sorted()
        .into_iter()
        .map(|(path, node)| {
            (path.to_string(), node.data().to_vec(), *node.stat(), node.next_sequence())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_codec_roundtrips_arbitrary_trees(
        ops in proptest::collection::vec(arb_op(), 0..80),
        sessions in proptest::collection::vec(
            (1i64..1_000_000, 1i64..120_000, proptest::collection::vec(any::<u8>(), 0..24)),
            0..8,
        ),
    ) {
        let sessions: Vec<zkserver::session::SessionRecord> = sessions
            .into_iter()
            .map(|(id, timeout_ms, password)| {
                zkserver::session::SessionRecord { id, timeout_ms, password }
            })
            .collect();
        let tree = build_tree(&ops);
        let bytes = zkserver::persist::encode_snapshot(&tree, &sessions);
        let (decoded, decoded_sessions) =
            zkserver::persist::decode_snapshot(&bytes).expect("own snapshot decodes");
        prop_assert_eq!(tree_fingerprint(&decoded), tree_fingerprint(&tree));
        prop_assert_eq!(decoded_sessions, sessions);
        // Decoded trees satisfy the same structural invariants.
        assert_tree_invariants(&decoded);
        // Encoding is deterministic (stable across replicas).
        prop_assert_eq!(zkserver::persist::encode_snapshot(&tree, &sessions), bytes);
    }

    #[test]
    fn garbage_never_panics_the_snapshot_loader(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        // Arbitrary bytes: decoding must reject or succeed, never panic.
        let _ = zkserver::persist::decode_snapshot(&bytes);
    }

    #[test]
    fn truncated_and_mutated_snapshots_never_panic(
        ops in proptest::collection::vec(arb_op(), 0..40),
        cut in any::<proptest::sample::Index>(),
        flip in any::<proptest::sample::Index>(),
    ) {
        let tree = build_tree(&ops);
        let session = zkserver::session::SessionRecord {
            id: 42,
            timeout_ms: 30_000,
            password: vec![7; 16],
        };
        let bytes = zkserver::persist::encode_snapshot(&tree, &[session]);
        // Every truncation of a valid snapshot is rejected without panicking.
        let cut = cut.index(bytes.len().max(1)).min(bytes.len().saturating_sub(1));
        prop_assert!(zkserver::persist::decode_snapshot(&bytes[..cut]).is_err());
        // A bit flip anywhere either still decodes to *some* valid tree or
        // errors — it never panics and never produces a structurally
        // invalid tree.
        let mut mutated = bytes.clone();
        if !mutated.is_empty() {
            let at = flip.index(mutated.len());
            mutated[at] ^= 0x40;
            if let Ok((tree, _)) = zkserver::persist::decode_snapshot(&mutated) {
                assert_tree_invariants(&tree);
            }
        }
    }
}
