//! Boots a workload's topology in-process on loopback — real TCP, real
//! fsync — and hands out client sessions. The secure variant is the
//! product; the plain variant is its twin for the ledger.

use std::collections::{HashMap, VecDeque};
use std::hash::Hasher;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gateway::{Gateway, GatewayConfig, ShardMap};
use jute::multi::{MultiRequest, Op, OpResult};
use jute::records::{
    CreateMode, CreateRequest, ExistsRequest, GetChildrenRequest, GetDataRequest, SetDataRequest,
};
use jute::{Request, Response};
use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::path_crypto::PathCipher;
use securekeeper::{SealedClient, SecureSessionCredentials};
use zab::{NodeId, TcpNetwork};
use zkserver::client::{Ticket, ZkTcpClient};
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::persist::{PersistConfig, ReplicaPersistence};
use zkserver::{ZkError, ZkReplica};

use crate::oracle;
use crate::workloads::{self, Spec, Topology};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Secure,
    Plain,
}

impl Mode {
    pub fn label(self) -> &'static str {
        match self {
            Mode::Secure => "secure",
            Mode::Plain => "plain",
        }
    }
}

const SESSION_TIMEOUT_MS: i64 = 60_000;
const STORAGE_LABEL: &str = "perf-harness";
/// Writer id of version-0 payloads.
const PRELOAD_WRITER: u8 = 0xFF;

/// Timer settings of every member: the values the repo's own loopback
/// benches and e2e suites run with. `write_timeout` bounds how long one
/// stalled write can hold a connection before the oracle counts it failed.
pub fn ensemble_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

/// A request in plaintext terms; each client flavour seals what it must.
#[derive(Debug, Clone)]
pub enum Req {
    Get(String),
    Exists(String),
    Children(String),
    Set(String, Vec<u8>),
    Multi(Vec<(String, Vec<u8>)>),
    /// Persistent create; only the preload sends it.
    Create(String, Vec<u8>),
}

/// A reply reduced to what the oracle checks.
#[derive(Debug)]
pub enum Reply {
    Data(Vec<u8>),
    Exists(bool),
    Children(usize),
    Written,
    Created,
    /// How many `set_data` sub-operations of a `multi` succeeded.
    MultiWritten(usize),
    Failed(String),
}

enum Flavour {
    /// Pipelining wire client; the transport cipher (if any) is inside it.
    /// A submit that failed keeps its place in the FIFO as an error.
    Pipe { client: Box<ZkTcpClient>, tickets: VecDeque<Result<Ticket, ZkError>> },
    /// Client-side sealing; blocks per operation.
    Sealed { client: Box<SealedClient>, done: VecDeque<Reply> },
}

/// One client connection: `issue` then `complete`, in FIFO order. The
/// pipelining flavour keeps as many requests in flight as the caller
/// issues; the sealed flavour does the whole round trip inside `issue`.
pub struct Session {
    flavour: Flavour,
}

fn written(results: &[OpResult]) -> usize {
    results.iter().filter(|result| matches!(result, OpResult::SetData { .. })).count()
}

fn failed(err: ZkError) -> Reply {
    Reply::Failed(err.to_string())
}

fn reply_of(response: Response) -> Reply {
    match response {
        Response::GetData(get) => Reply::Data(get.data),
        Response::Exists(_) => Reply::Exists(true),
        Response::GetChildren(list) => Reply::Children(list.children.len()),
        Response::SetData(_) => Reply::Written,
        Response::Create(_) => Reply::Created,
        Response::Multi(multi) => Reply::MultiWritten(written(&multi.results)),
        other => Reply::Failed(format!("unexpected reply {other:?}")),
    }
}

fn multi_ops(sets: Vec<(String, Vec<u8>)>) -> Vec<Op> {
    sets.into_iter()
        .map(|(path, data)| Op::SetData(SetDataRequest { path, data, version: -1 }))
        .collect()
}

impl Session {
    pub fn issue(&mut self, req: Req) {
        match &mut self.flavour {
            Flavour::Pipe { client, tickets } => {
                let request = match req {
                    Req::Get(path) => Request::GetData(GetDataRequest { path, watch: false }),
                    Req::Exists(path) => Request::Exists(ExistsRequest { path, watch: false }),
                    Req::Children(path) => {
                        Request::GetChildren(GetChildrenRequest { path, watch: false })
                    }
                    Req::Set(path, data) => {
                        Request::SetData(SetDataRequest { path, data, version: -1 })
                    }
                    Req::Multi(sets) => Request::Multi(MultiRequest::new(multi_ops(sets))),
                    Req::Create(path, data) => {
                        Request::Create(CreateRequest { path, data, mode: CreateMode::Persistent })
                    }
                };
                tickets.push_back(client.submit(&request));
            }
            Flavour::Sealed { client, done } => {
                let reply = match req {
                    Req::Get(path) => client
                        .get_data(&path, false)
                        .map_or_else(failed, |(data, _)| Reply::Data(data)),
                    Req::Exists(path) => client
                        .exists(&path, false)
                        .map_or_else(failed, |stat| Reply::Exists(stat.is_some())),
                    Req::Children(path) => client
                        .get_children(&path, false)
                        .map_or_else(failed, |children| Reply::Children(children.len())),
                    Req::Set(path, data) => {
                        client.set_data(&path, data, -1).map_or_else(failed, |_| Reply::Written)
                    }
                    Req::Multi(sets) => client
                        .multi(multi_ops(sets))
                        .map_or_else(failed, |results| Reply::MultiWritten(written(&results))),
                    Req::Create(path, data) => client
                        .create(&path, data, CreateMode::Persistent)
                        .map_or_else(failed, |_| Reply::Created),
                };
                done.push_back(reply);
            }
        }
    }

    /// The reply to the oldest issued request.
    pub fn complete(&mut self) -> Reply {
        match &mut self.flavour {
            Flavour::Pipe { client, tickets } => {
                let ticket = tickets.pop_front().expect("complete without issue");
                ticket.and_then(|ticket| client.wait(ticket)).map_or_else(failed, reply_of)
            }
            Flavour::Sealed { done, .. } => done.pop_front().expect("complete without issue"),
        }
    }

    pub fn close(self) {
        match self.flavour {
            Flavour::Pipe { client, .. } => client.close(),
            Flavour::Sealed { client, .. } => client.close(),
        }
    }
}

/// A booted topology.
pub struct Cluster {
    spec: &'static Spec,
    pub mode: Mode,
    /// Members per shard (one shard unless the topology is a gateway's).
    shards: Vec<Vec<ZkEnsembleServer>>,
    pub gateway: Option<Gateway>,
    /// Data directories of durable members, in member order.
    data_dirs: Vec<PathBuf>,
    secure: SecureKeeperConfig,
}

fn start_member(
    id: u32,
    transport: TcpNetwork,
    peers: HashMap<NodeId, SocketAddr>,
    replica: Arc<ZkReplica>,
    data_dir: Option<&Path>,
) -> ZkEnsembleServer {
    let persistence = data_dir.map(|dir| {
        ReplicaPersistence::open(dir, PersistConfig::default()).expect("open member data dir")
    });
    ZkEnsembleServer::start_custom(
        Arc::new(transport),
        peers,
        "127.0.0.1:0",
        replica,
        ensemble_config(),
        persistence,
    )
    .unwrap_or_else(|err| panic!("start member {id}: {err}"))
}

impl Cluster {
    /// Boots `spec`'s topology and waits until every shard has a leader.
    /// `scratch` receives the data directories of durable members.
    pub fn boot(spec: &'static Spec, mode: Mode, scratch: &Path) -> Cluster {
        let secure = SecureKeeperConfig::with_label(STORAGE_LABEL);
        let durable = spec.topology == Topology::DurableQuorum;
        let data_dirs: Vec<PathBuf> = if durable {
            (1..=spec.members()).map(|id| scratch.join(format!("{}-m{id}", mode.label()))).collect()
        } else {
            Vec::new()
        };
        for dir in &data_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut cluster =
            Cluster { spec, mode, shards: Vec::new(), gateway: None, data_dirs, secure };
        cluster.start_members();
        cluster
    }

    /// Whether members run the entry-enclave pipeline. Behind a gateway
    /// they never do: there the client seals and the shards store
    /// ciphertext verbatim.
    fn enclave_members(&self) -> bool {
        self.mode == Mode::Secure && self.spec.topology != Topology::Gateway
    }

    fn start_members(&mut self) {
        for _shard in 0..self.spec.shards() {
            let count = self.spec.members();
            let transports: Vec<TcpNetwork> = (1..=count as u32)
                .map(|id| TcpNetwork::bind(NodeId(id), "127.0.0.1:0").expect("bind peer port"))
                .collect();
            let peers: HashMap<NodeId, SocketAddr> =
                transports.iter().map(|t| (t.id(), t.local_addr())).collect();
            let members = transports
                .into_iter()
                .enumerate()
                .map(|(index, transport)| {
                    let id = index as u32 + 1;
                    let replica = if self.enclave_members() {
                        secure_ensemble_replica(id, &self.secure).0
                    } else {
                        Arc::new(ZkReplica::new(id))
                    };
                    let dir = self.data_dirs.get(index).map(PathBuf::as_path);
                    start_member(id, transport, peers.clone(), replica, dir)
                })
                .collect();
            self.shards.push(members);
        }
        self.wait_for_leaders();
        if self.spec.topology == Topology::Gateway {
            self.gateway = Some(self.front_gateway());
        }
    }

    fn wait_for_leaders(&self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        for members in &self.shards {
            while !members.iter().any(ZkEnsembleServer::is_leader) {
                assert!(Instant::now() < deadline, "no leader within 20 s");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    /// The address load connection `conn` dials when nothing fronts the
    /// members: a follower of a quorum (so every write pays the forward
    /// hop), otherwise the only member.
    fn member_addr(&self, shard: usize, conn: usize) -> SocketAddr {
        let members = &self.shards[shard];
        let followers: Vec<&ZkEnsembleServer> =
            members.iter().filter(|member| !member.is_leader()).collect();
        match followers.len() {
            0 => members[0].client_addr(),
            n => followers[conn % n].client_addr(),
        }
    }

    /// A routing gateway over this cluster's shards (one rule per shard
    /// root; prefixes sealed in secure mode), backed by the member each
    /// shard's connection 0 would dial directly.
    pub fn front_gateway(&self) -> Gateway {
        let roots: Vec<String> =
            (0..self.spec.shards()).map(|shard| workloads::root_path(self.spec, shard)).collect();
        let mut rules: Vec<(&str, usize)> = vec![("/", 0)];
        rules.extend(roots.iter().enumerate().map(|(shard, root)| (root.as_str(), shard)));
        let map = ShardMap::new(self.spec.shards(), &rules).expect("valid shard map");
        let map = match self.mode {
            Mode::Plain => map,
            Mode::Secure => {
                let cipher = PathCipher::new(&self.secure.storage_key);
                map.sealed_with(|prefix| cipher.encrypt_path(prefix).expect("seal prefix"))
            }
        };
        let addrs = (0..self.shards.len()).map(|shard| vec![self.member_addr(shard, 0)]).collect();
        Gateway::bind("127.0.0.1:0", GatewayConfig::new(map, addrs)).expect("bind gateway")
    }

    /// A session of this cluster's client flavour to an arbitrary address.
    pub fn session_to(&self, addr: SocketAddr) -> Session {
        let pipe = |credentials: Arc<dyn SessionCredentials>| {
            let client = ZkTcpClient::connect_with(addr, credentials, SESSION_TIMEOUT_MS)
                .expect("connect to a booted member");
            Flavour::Pipe { client: Box::new(client), tickets: VecDeque::new() }
        };
        let flavour = match (self.mode, self.spec.topology) {
            (Mode::Plain, _) => pipe(Arc::new(PlainCredentials)),
            (Mode::Secure, Topology::Gateway) => Flavour::Sealed {
                client: Box::new(
                    SealedClient::connect(addr, &self.secure.storage_key, SESSION_TIMEOUT_MS)
                        .expect("connect sealed client"),
                ),
                done: VecDeque::new(),
            },
            (Mode::Secure, _) => pipe(Arc::new(SecureSessionCredentials)),
        };
        Session { flavour }
    }

    /// The session of load connection `conn`: through the gateway when
    /// there is one, otherwise straight to a member.
    pub fn connect(&self, conn: usize) -> Session {
        match &self.gateway {
            Some(gateway) => self.session_to(gateway.local_addr()),
            None => self.session_to(self.member_addr(0, conn)),
        }
    }

    /// A session straight to a member of `shard`, bypassing any gateway
    /// (preload, and the direct leg of the gateway twin).
    pub fn connect_direct(&self, shard: usize) -> Session {
        self.session_to(self.member_addr(shard, 0))
    }

    /// Creates every directory and key at version 0, eight creates in
    /// flight where the client can pipeline (a blocking create per znode
    /// would time the hypervisor's wake-ups, not the preload).
    pub fn preload(&self) {
        const WINDOW: usize = 8;
        let spec = self.spec;
        let dirs = workloads::all_dirs(spec);
        for shard in 0..spec.shards() {
            let mut session = self.connect_direct(shard);
            let root = workloads::root_path(spec, shard);
            let inside = |path: &str| path == root || path.starts_with(&format!("{root}/"));
            let keys = shard * spec.znodes..(shard + 1) * spec.znodes;
            let creates = dirs
                .iter()
                .filter(|dir| inside(dir))
                .map(|dir| Req::Create(dir.clone(), Vec::new()))
                .chain(keys.map(|key| {
                    let data = oracle::payload(key, 0, PRELOAD_WRITER, spec.size_of(key));
                    Req::Create(workloads::key_path(spec, key), data)
                }));
            let mut in_flight = 0;
            let expect_created = |session: &mut Session| match session.complete() {
                Reply::Created => {}
                other => panic!("preload create failed: {other:?}"),
            };
            for create in creates {
                if in_flight == WINDOW {
                    expect_created(&mut session);
                    in_flight -= 1;
                }
                session.issue(create);
                in_flight += 1;
            }
            for _ in 0..in_flight {
                expect_created(&mut session);
            }
            session.close();
        }
    }

    /// Every member, shard-major.
    pub fn members(&self) -> impl Iterator<Item = &ZkEnsembleServer> {
        self.shards.iter().flatten()
    }

    /// Checks that no replica tree and no data directory holds the
    /// plaintext marker; returns what leaked.
    pub fn marker_leaks(&self) -> Vec<String> {
        let mut leaks = Vec::new();
        for (index, member) in self.members().enumerate() {
            let replica = member.replica();
            let tree = replica.tree();
            for (path, node) in tree.nodes_sorted() {
                if oracle::contains_marker(path.as_bytes()) || oracle::contains_marker(node.data())
                {
                    leaks.push(format!("member {index} tree at {path}"));
                }
            }
        }
        for dir in &self.data_dirs {
            let mut pending = vec![dir.clone()];
            while let Some(next) = pending.pop() {
                for entry in std::fs::read_dir(&next).into_iter().flatten().flatten() {
                    let path = entry.path();
                    if path.is_dir() {
                        pending.push(path);
                    } else if std::fs::read(&path)
                        .is_ok_and(|bytes| oracle::contains_marker(&bytes))
                    {
                        leaks.push(format!("file {}", path.display()));
                    }
                }
            }
        }
        leaks
    }

    /// `(last applied zxid, digest of the tree)` per member; members of a
    /// converged ensemble report identical pairs.
    pub fn fingerprints(&self) -> Vec<(i64, u64)> {
        self.members()
            .map(|member| {
                let replica = member.replica();
                let tree = replica.tree();
                // Fixed keys: equal trees hash equal on every member.
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                for (path, node) in tree.nodes_sorted() {
                    hasher.write(path.as_bytes());
                    hasher.write(node.data());
                    hasher.write_i64(node.stat().mzxid);
                    hasher.write_i32(node.stat().version);
                }
                (member.last_applied_zxid(), hasher.finish())
            })
            .collect()
    }

    /// Waits (up to 10 s) until every member of every shard reports the
    /// same fingerprint; returns whether they converged.
    pub fn converged(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let prints = self.fingerprints();
            let per_shard = self.spec.members();
            if prints.chunks(per_shard).all(|shard| shard.iter().all(|print| print == &shard[0])) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops every member and the gateway, keeping the data directories.
    fn stop(&mut self) {
        if let Some(gateway) = self.gateway.take() {
            gateway.shutdown();
        }
        for members in self.shards.drain(..) {
            for member in members {
                member.shutdown();
            }
        }
    }

    /// Power-cycles the ensemble: stops every member, then boots fresh
    /// members from nothing but the data directories.
    pub fn reboot(&mut self) {
        self.stop();
        self.start_members();
    }

    pub fn shutdown(mut self) {
        self.stop();
        for dir in &self.data_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
