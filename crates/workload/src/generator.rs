//! Request generators for the paper's workloads.
//!
//! The evaluation methodology (Section 6.1) follows the original ZooKeeper
//! paper: every client thread owns one znode of a given payload size and
//! issues a 70:30 mix of GET and SET requests against it as fast as possible;
//! the per-operation experiments issue a single operation type instead.

use jute::records::{
    CreateMode, CreateRequest, DeleteRequest, GetChildrenRequest, GetDataRequest, SetDataRequest,
};
use jute::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::variant::OpKind;

/// A workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Operation mix as `(operation, weight)` pairs; weights need not sum to 1.
    pub mix: Vec<(OpKind, f64)>,
    /// Payload size in bytes for operations that carry payload.
    pub payload: usize,
    /// Number of client threads (each owns one znode).
    pub clients: usize,
    /// RNG seed so traces are reproducible.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's standard 70:30 GET/SET mix.
    pub fn paper_mix(payload: usize, clients: usize) -> Self {
        WorkloadSpec {
            mix: vec![(OpKind::Get, 0.7), (OpKind::Set, 0.3)],
            payload,
            clients,
            seed: 42,
        }
    }

    /// A single-operation workload.
    pub fn single(op: OpKind, payload: usize, clients: usize) -> Self {
        WorkloadSpec { mix: vec![(op, 1.0)], payload, clients, seed: 42 }
    }

    /// The znode path owned by client `index`.
    pub fn client_path(index: usize) -> String {
        format!("/bench/client-{index:04}")
    }

    /// The parent path under which all per-client znodes live.
    pub fn root_path() -> &'static str {
        "/bench"
    }

    /// Requests that set up the tree: the `/bench` parent plus one znode per
    /// client, as in the paper ("initially, for both GET and SET we create one
    /// znode for each client thread").
    pub fn setup_requests(&self) -> Vec<Request> {
        let mut requests = vec![Request::Create(CreateRequest {
            path: Self::root_path().to_string(),
            data: Vec::new(),
            mode: CreateMode::Persistent,
        })];
        for client in 0..self.clients {
            requests.push(Request::Create(CreateRequest {
                path: Self::client_path(client),
                data: vec![0u8; self.payload],
                mode: CreateMode::Persistent,
            }));
        }
        requests
    }

    /// Generates `count` operations according to the mix. Each operation is
    /// attributed to a client thread round-robin, targeting that client's
    /// znode (CREATE/DELETE operations target fresh children instead).
    pub fn generate(&self, count: usize) -> Vec<GeneratedOp> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_weight: f64 = self.mix.iter().map(|(_, w)| w).sum();
        let mut ops = Vec::with_capacity(count);
        let mut create_counter = 0usize;
        for i in 0..count {
            let client = i % self.clients.max(1);
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut chosen = self.mix[0].0;
            for &(op, weight) in &self.mix {
                if pick < weight {
                    chosen = op;
                    break;
                }
                pick -= weight;
            }
            let path = Self::client_path(client);
            let request = match chosen {
                OpKind::Get => Request::GetData(GetDataRequest { path, watch: false }),
                OpKind::Set => Request::SetData(SetDataRequest {
                    path,
                    data: vec![rng.gen::<u8>(); self.payload],
                    version: -1,
                }),
                OpKind::Ls => Request::GetChildren(GetChildrenRequest {
                    path: Self::root_path().to_string(),
                    watch: false,
                }),
                OpKind::Create => {
                    create_counter += 1;
                    Request::Create(CreateRequest {
                        path: format!("{path}-extra-{create_counter:06}"),
                        data: vec![0u8; self.payload],
                        mode: CreateMode::Persistent,
                    })
                }
                OpKind::CreateSequential => Request::Create(CreateRequest {
                    path: format!("{path}-seq-"),
                    data: vec![0u8; self.payload],
                    mode: CreateMode::PersistentSequential,
                }),
                OpKind::Delete => {
                    // Deleting the freshest extra node keeps the tree bounded.
                    let target = format!("{path}-extra-{create_counter:06}");
                    create_counter = create_counter.saturating_sub(1);
                    Request::Delete(DeleteRequest { path: target, version: -1 })
                }
            };
            ops.push(GeneratedOp { client, kind: chosen, request });
        }
        ops
    }
}

/// One generated operation, attributed to a client thread.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedOp {
    /// Index of the issuing client thread.
    pub client: usize,
    /// Kind of operation.
    pub kind: OpKind,
    /// The ready-to-send request.
    pub request: Request,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_creates_parent_and_one_node_per_client() {
        let spec = WorkloadSpec::paper_mix(1024, 4);
        let setup = spec.setup_requests();
        assert_eq!(setup.len(), 5);
        assert_eq!(setup[0].path(), Some("/bench"));
        assert_eq!(setup[1].path(), Some("/bench/client-0000"));
    }

    #[test]
    fn paper_mix_is_roughly_70_30() {
        let spec = WorkloadSpec::paper_mix(1024, 8);
        let ops = spec.generate(10_000);
        let gets = ops.iter().filter(|o| o.kind == OpKind::Get).count();
        let sets = ops.iter().filter(|o| o.kind == OpKind::Set).count();
        assert_eq!(gets + sets, 10_000);
        let get_fraction = gets as f64 / 10_000.0;
        assert!((0.67..0.73).contains(&get_fraction), "{get_fraction}");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let spec = WorkloadSpec::paper_mix(128, 4);
        assert_eq!(spec.generate(100), spec.generate(100));
        let other = WorkloadSpec { seed: 43, ..spec.clone() };
        assert_ne!(other.generate(100), spec.generate(100));
    }

    #[test]
    fn clients_are_assigned_round_robin() {
        let spec = WorkloadSpec::single(OpKind::Get, 0, 3);
        let ops = spec.generate(6);
        let clients: Vec<usize> = ops.iter().map(|o| o.client).collect();
        assert_eq!(clients, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn payload_sizes_are_respected() {
        let spec = WorkloadSpec::single(OpKind::Set, 777, 1);
        let ops = spec.generate(3);
        for op in ops {
            match op.request {
                Request::SetData(set) => assert_eq!(set.data.len(), 777),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn sequential_creates_target_sequential_mode() {
        let spec = WorkloadSpec::single(OpKind::CreateSequential, 10, 2);
        for op in spec.generate(4) {
            match op.request {
                Request::Create(create) => assert!(create.mode.is_sequential()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
