//! Layer probes: the harness times each layer's public functions from
//! outside, with the workload's own shapes (payload size, path depth,
//! dominant operation). Every number is the median over [`BATCHES`]
//! batches; a batch is sized to last about [`BATCH_TARGET`].

use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gateway::{Gateway, GatewayConfig, LaneCodec, ShardMap};
use jute::framing::{self, FrameDecoder};
use jute::records::ErrorCode;
use jute::records::{
    GetDataRequest, GetDataResponse, ReplyHeader, RequestHeader, SetDataRequest, SetDataResponse,
    Stat,
};
use jute::{Request, Response};
use netcore::{Conn, Reactor, ReactorConfig, Service};
use persist::wal::{Wal, WalConfig};
use securekeeper::path_cache::PathCipherCache;
use securekeeper::path_crypto::PathCipher;
use securekeeper::payload_crypto::{PayloadCipher, SequentialFlag};
use securekeeper::transport::TransportChannel;
use securekeeper::EntryEnclave;
use sgx_sim::{CostModel, EnclaveBuilder, Epc};
use zab::network::Envelope;
use zab::{NodeId, Txn, ZabCluster, ZabMessage, Zxid};
use zkcrypto::gcm::AesGcm128;
use zkcrypto::keys::{Key128, SessionKey, StorageKey};
use zkserver::ensemble::ZkEnsembleServer;
use zkserver::{DataTree, ZkReplica, ZkTcpClient};

use crate::env;
use crate::oracle;
use crate::stats;
use crate::topo;
use crate::workloads::{self, Spec};

const BATCHES: usize = 25;
const BATCH_TARGET: Duration = Duration::from_millis(2);

/// Median nanoseconds per call of `op` over [`BATCHES`] batches. The batch
/// size is calibrated once so a batch lasts about [`BATCH_TARGET`].
fn per_call_ns(mut op: impl FnMut()) -> f64 {
    let mut calls = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            op();
        }
        let took = start.elapsed();
        if took >= BATCH_TARGET / 2 || calls >= 1 << 20 {
            break;
        }
        calls *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                op();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&samples)
}

/// Median nanoseconds per item when the timed step consumes items an
/// untimed step must prepare first (sealed frames are single-use).
fn per_item_ns<T>(
    batch: usize,
    mut prepare: impl FnMut() -> Vec<T>,
    mut consume: impl FnMut(T),
) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let items = prepare();
            let start = Instant::now();
            for item in items {
                consume(item);
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// The request/response pair the workload mostly sends: a full-payload
/// `set_data` when writes dominate, a `get_data` otherwise.
struct Shape {
    path: String,
    payload: Vec<u8>,
    request: Request,
    response: Response,
}

impl Shape {
    fn of(spec: &Spec) -> Shape {
        let path = workloads::key_path(spec, 0);
        let payload = oracle::payload(0, 1, 0, spec.payload);
        let stat = Stat { data_length: spec.payload as i32, ..Stat::default() };
        let (request, response) = if spec.write_fraction() >= 0.5 {
            (
                Request::SetData(SetDataRequest {
                    path: path.clone(),
                    data: payload.clone(),
                    version: -1,
                }),
                Response::SetData(SetDataResponse { stat }),
            )
        } else {
            (
                Request::GetData(GetDataRequest { path: path.clone(), watch: false }),
                Response::GetData(GetDataResponse { data: payload.clone(), stat }),
            )
        };
        Shape { path, payload, request, response }
    }

    fn request_bytes(&self) -> Vec<u8> {
        self.request.to_bytes(&RequestHeader { xid: 7, op: self.request.op() })
    }

    fn response_bytes(&self) -> Vec<u8> {
        self.response.to_bytes(&ReplyHeader { xid: 7, zxid: 9, err: ErrorCode::Ok })
    }

    /// The larger of the two messages: the one that carries the payload.
    fn heavy_bytes(&self) -> Vec<u8> {
        let (request, response) = (self.request_bytes(), self.response_bytes());
        if request.len() >= response.len() {
            request
        } else {
            response
        }
    }
}

fn jute_probes(shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let header = RequestHeader { xid: 7, op: shape.request.op() };
    out.push((
        "jute.encode_request_ns",
        per_call_ns(|| {
            black_box(black_box(&shape.request).to_bytes(&header));
        }),
    ));
    let request_bytes = shape.request_bytes();
    out.push((
        "jute.decode_request_ns",
        per_call_ns(|| {
            black_box(Request::from_bytes(black_box(&request_bytes)).expect("own encoding"));
        }),
    ));
    let response_bytes = shape.response_bytes();
    let op = shape.request.op();
    out.push((
        "jute.decode_response_ns",
        per_call_ns(|| {
            black_box(Response::from_bytes(black_box(&response_bytes), op).expect("own encoding"));
        }),
    ));
    // One frame arriving in MSS-sized pieces, as TCP delivers it.
    let frame = framing::encode_frame(&shape.heavy_bytes());
    let mut decoder = FrameDecoder::new();
    out.push((
        "jute.frame_reassemble_ns",
        per_call_ns(|| {
            for chunk in frame.chunks(1_460) {
                decoder.feed(chunk);
            }
            black_box(decoder.frames().expect("valid frame"));
        }),
    ));
}

/// Echoes every frame back — the reactor's floor for a request/reply.
struct Echo;

impl Service for Echo {
    type State = ();

    fn make_state(&self, _peer: SocketAddr) -> Self::State {}

    fn on_frame(&self, conn: &Arc<Conn<()>>, frame: Vec<u8>) {
        let _ = conn.send_framed(|_| Ok(()), frame);
    }
}

fn netcore_probes(shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let reactor = Reactor::bind("127.0.0.1:0", Arc::new(Echo), ReactorConfig::default())
        .expect("bind echo reactor");
    let mut stream = TcpStream::connect(reactor.local_addr()).expect("connect echo");
    stream.set_nodelay(true).expect("nodelay");
    let body = shape.heavy_bytes();
    let roundtrip = |stream: &mut TcpStream| {
        framing::write_frame(stream, &body).expect("echo write");
        black_box(framing::read_frame(stream).expect("echo read").expect("echo frame"));
    };
    out.push(("netcore.echo_rtt_us", per_call_ns(|| roundtrip(&mut stream)) / 1e3));
    // Depth 8: prime seven frames, then every call adds one and takes one.
    for _ in 0..7 {
        framing::write_frame(&mut stream, &body).expect("echo write");
    }
    let pipelined_ns = per_call_ns(|| roundtrip(&mut stream));
    for _ in 0..7 {
        framing::read_frame(&mut stream).expect("echo drain").expect("echo frame");
    }
    out.push(("netcore.echo_pipelined_ops_s", 1e9 / pipelined_ns));
    stream.flush().expect("flush");
    drop(stream);
    reactor.shutdown();
}

fn crypto_probes(shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let gcm = AesGcm128::new(&Key128::from_bytes([7u8; 16]));
    let nonce = [1u8; 12];
    let mut buffer = Vec::with_capacity(shape.payload.len() + 16);
    out.push((
        "zkcrypto.gcm_seal_ns",
        per_call_ns(|| {
            buffer.clear();
            buffer.extend_from_slice(&shape.payload);
            gcm.seal_in_place(&nonce, &mut buffer, b"");
            black_box(buffer.len());
        }),
    ));
    let sealed = gcm.seal(&nonce, &shape.payload, b"");
    out.push((
        "zkcrypto.gcm_open_ns",
        per_call_ns(|| {
            buffer.clear();
            buffer.extend_from_slice(&sealed);
            gcm.open_in_place(&nonce, &mut buffer, b"").expect("own ciphertext");
            black_box(buffer.len());
        }),
    ));

    let epc = Epc::new();
    let enclave = EnclaveBuilder::new(b"perf probe".to_vec()).build(&epc).expect("enclave");
    out.push((
        "sgx-sim.ecall_ns",
        per_call_ns(|| {
            enclave.ecall(0, 0, || Ok::<_, sgx_sim::SgxError>(())).expect("empty ecall");
        }),
    ));
}

/// `count` distinct paths of the workload's depth, more than the path
/// cache holds, so cycling through them misses every time (FIFO eviction).
fn miss_paths(spec: &Spec, count: usize) -> Vec<String> {
    (0..count)
        .map(|index| format!("{}/m{index}", workloads::dir_path(spec, index % spec.total_keys())))
        .collect()
}

fn core_probes(spec: &Spec, shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let storage = StorageKey::derive_from_label("perf-probe");
    let session = SessionKey::derive_from_label("perf-probe-session");
    const BATCH: usize = 64;

    // Transport frames are single-use (the channel counts them), so seal a
    // batch untimed and time opening it, and the other way round.
    let heavy = shape.heavy_bytes();
    let client = TransportChannel::client_side(&session);
    let enclave_side = TransportChannel::enclave_side(&session);
    out.push((
        "core.transport_seal_ns",
        per_call_ns(|| {
            let mut frame = heavy.clone();
            client.seal_in_place(&mut frame);
            black_box(frame.len());
        }),
    ));
    // The probe above advanced only the client's send counter; a fresh pair
    // keeps both directions in step for the open probe.
    let client = TransportChannel::client_side(&session);
    out.push((
        "core.transport_open_ns",
        per_item_ns(
            BATCH,
            || (0..BATCH).map(|_| client.seal(&heavy)).collect(),
            |mut frame: Vec<u8>| {
                enclave_side.open_in_place(&mut frame).expect("in-order frame");
                black_box(frame.len());
            },
        ),
    ));

    let payloads = PayloadCipher::new(&storage);
    out.push((
        "core.payload_seal_ns",
        per_call_ns(|| {
            black_box(payloads.seal(&shape.path, &shape.payload, SequentialFlag::Regular));
        }),
    ));
    let stored = payloads.seal(&shape.path, &shape.payload, SequentialFlag::Regular);
    out.push((
        "core.payload_open_ns",
        per_call_ns(|| {
            black_box(payloads.open(&shape.path, &stored).expect("own ciphertext"));
        }),
    ));

    let cache = Arc::new(PathCipherCache::default());
    let cached = PathCipher::with_cache(&storage, Arc::clone(&cache));
    cached.encrypt_path(&shape.path).expect("warm the entry");
    out.push((
        "core.path_encrypt_hit_ns",
        per_call_ns(|| {
            black_box(cached.encrypt_path(&shape.path).expect("cached path"));
        }),
    ));
    let misses = miss_paths(spec, 2 * cache.capacity());
    let mut next = 0usize;
    out.push((
        "core.path_encrypt_miss_ns",
        per_call_ns(|| {
            black_box(cached.encrypt_path(&misses[next % misses.len()]).expect("valid path"));
            next += 1;
        }),
    ));

    // The whole entry-enclave step: open transport, rewrite fields, and on
    // the way back decrypt fields and seal transport.
    let epc = Epc::new();
    let entry = EntryEnclave::with_path_cache(
        &epc,
        &storage,
        &session,
        CostModel::default(),
        Arc::new(PathCipherCache::default()),
    )
    .expect("entry enclave");
    let client = TransportChannel::client_side(&session);
    let request_bytes = shape.request_bytes();
    let stored_response = match &shape.response {
        Response::GetData(get) => Response::GetData(GetDataResponse {
            data: payloads.seal(&shape.path, &get.data, SequentialFlag::Regular),
            stat: get.stat,
        }),
        other => other.clone(),
    }
    .to_bytes(&ReplyHeader { xid: 7, zxid: 9, err: ErrorCode::Ok });
    let mut request_ns = Vec::with_capacity(BATCHES);
    let mut response_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let sealed: Vec<Vec<u8>> = (0..BATCH).map(|_| client.seal(&request_bytes)).collect();
        let start = Instant::now();
        for mut frame in sealed {
            entry.process_request(&mut frame).expect("request passes the enclave");
            black_box(frame.len());
        }
        request_ns.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
        let replies: Vec<Vec<u8>> = (0..BATCH).map(|_| stored_response.clone()).collect();
        let start = Instant::now();
        for mut frame in replies {
            entry.process_response(&mut frame).expect("response passes the enclave");
            black_box(frame.len());
        }
        response_ns.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    out.push(("core.entry_request_ns", stats::median(&request_ns)));
    out.push(("core.entry_response_ns", stats::median(&response_ns)));
}

fn zab_probes(shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let mut cluster = ZabCluster::new(3);
    let ids = cluster.node_ids().to_vec();
    out.push((
        "zab.sim_commit_us",
        per_call_ns(|| {
            cluster.broadcast(shape.payload.clone()).expect("quorum of three");
            for &id in &ids {
                black_box(cluster.take_committed(id));
            }
        }) / 1e3,
    ));
    let envelope = Envelope {
        from: NodeId(1),
        message: ZabMessage::Proposal {
            txn: Txn { zxid: Zxid { epoch: 1, counter: 42 }, payload: shape.payload.clone() },
            prev: Zxid { epoch: 1, counter: 41 },
        },
    };
    out.push((
        "zab.wire_roundtrip_ns",
        per_call_ns(|| {
            let bytes = zab::wire::encode_envelope(black_box(&envelope));
            black_box(zab::wire::decode_envelope(&bytes).expect("own encoding"));
        }),
    ));
}

fn persist_probes(shape: &Shape, scratch: &Path, out: &mut Vec<(&'static str, f64)>) {
    let dir = scratch.join("probe-wal");
    let _ = std::fs::remove_dir_all(&dir);
    // No count-triggered fsync: the append probe must not pay for one.
    let config = WalConfig { fsync_every: 0, ..WalConfig::default() };
    let (mut wal, _) = Wal::open(&dir, config).expect("open probe wal");
    let mut counter = 0u32;
    let mut next_txn = || {
        counter += 1;
        Txn { zxid: Zxid { epoch: 1, counter }, payload: shape.payload.clone() }
    };
    // Fixed batches, not calibrated ones: every append is real file I/O,
    // and a calibrated 2 ms batch would push hundreds of MiB at the disk.
    const APPENDS: usize = 128;
    out.push((
        "persist.wal_append_ns",
        per_item_ns(
            APPENDS,
            || (0..APPENDS).map(|_| next_txn()).collect(),
            |txn: Txn| wal.append_txn(&txn).expect("append"),
        ),
    ));
    wal.sync().expect("sync");
    let fsync_us: Vec<f64> = (0..BATCHES)
        .map(|_| {
            wal.append_txn(&next_txn()).expect("append");
            let start = Instant::now();
            wal.sync().expect("sync");
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.push(("persist.wal_fsync_us", stats::median(&fsync_us)));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

fn tree_probes(spec: &Spec, shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    let mut tree = DataTree::new();
    let mut zxid = 0i64;
    for dir in workloads::all_dirs(spec) {
        zxid += 1;
        tree.create(&dir, Vec::new(), 0, zxid, 0).expect("create dir");
    }
    let paths: Vec<String> =
        (0..spec.total_keys()).map(|key| workloads::key_path(spec, key)).collect();
    for path in &paths {
        zxid += 1;
        tree.create(path, shape.payload.clone(), 0, zxid, 0).expect("create key");
    }
    // Stride through the keys so successive lookups land on different
    // hash buckets, as the workload's do.
    let mut at = 0usize;
    out.push((
        "zkserver.tree_get_ns",
        per_call_ns(|| {
            at = (at + 7_919) % paths.len();
            black_box(tree.get_data(&paths[at]).expect("preloaded key"));
        }),
    ));
    out.push((
        "zkserver.tree_set_ns",
        per_call_ns(|| {
            at = (at + 7_919) % paths.len();
            zxid += 1;
            black_box(tree.set_data(&paths[at], shape.payload.clone(), -1, zxid, 0).expect("key"));
        }),
    ));
}

fn in_memory_shard() -> ZkEnsembleServer {
    ZkEnsembleServer::start_local_ensemble(1, &topo::ensemble_config(), |id| {
        Arc::new(ZkReplica::new(id))
    })
    .expect("bind shard")
    .pop()
    .expect("one member")
}

fn gateway_probes(spec: &Spec, shape: &Shape, out: &mut Vec<(&'static str, f64)>) {
    // Routing as the secure deployment does it: sealed prefixes, sealed path.
    let cipher = PathCipher::new(&StorageKey::derive_from_label("perf-probe"));
    let seal = |path: &str| cipher.encrypt_path(path).expect("seal path");
    let root = workloads::root_path(spec, 0);
    let map = ShardMap::new(2, &[("/", 0), (root.as_str(), 1)]).expect("valid map");
    let map = map.sealed_with(|prefix| seal(prefix));
    let sealed_request = match &shape.request {
        Request::SetData(set) => Request::SetData(SetDataRequest {
            path: seal(&set.path),
            data: set.data.clone(),
            version: -1,
        }),
        _ => Request::GetData(GetDataRequest { path: seal(&shape.path), watch: false }),
    };
    out.push((
        "gateway.route_ns",
        per_call_ns(|| {
            black_box(map.route_request(black_box(&sealed_request)).expect("routable"));
        }),
    ));
    let codec = LaneCodec::new(2);
    let lanes = [(1i64 << 32) | 1_234, (1i64 << 32) | 987];
    out.push((
        "gateway.lane_merge_ns",
        per_call_ns(|| {
            black_box(codec.merge(black_box(&lanes)));
        }),
    ));

    // Thread census: what a gateway with two sessions touching two shards
    // adds to the process.
    let shards = [in_memory_shard(), in_memory_shard()];
    for (index, shard) in shards.iter().enumerate() {
        let mut boot = ZkTcpClient::connect(shard.client_addr()).expect("boot client");
        boot.create(&format!("/t{index}"), Vec::new(), jute::records::CreateMode::Persistent)
            .expect("bootstrap prefix");
        boot.close();
    }
    let before = env::thread_count();
    let map = ShardMap::new(2, &[("/", 0), ("/t0", 0), ("/t1", 1)]).expect("valid map");
    let addrs = shards.iter().map(|shard| vec![shard.client_addr()]).collect();
    let gateway = Gateway::bind("127.0.0.1:0", GatewayConfig::new(map, addrs)).expect("gateway");
    let mut sessions: Vec<ZkTcpClient> = (0..2)
        .map(|_| ZkTcpClient::connect(gateway.local_addr()).expect("front session"))
        .collect();
    for session in &mut sessions {
        for prefix in ["/t0", "/t1"] {
            session.exists(prefix, false).expect("routed read");
        }
    }
    out.push(("gateway.threads", (env::thread_count() - before) as f64));
    for session in sessions {
        session.close();
    }
    gateway.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// Runs every probe with `spec`'s shapes; returns `(metric, value)` pairs.
pub fn run_all(spec: &Spec, scratch: &Path) -> Vec<(&'static str, f64)> {
    let shape = Shape::of(spec);
    let mut out = Vec::new();
    jute_probes(&shape, &mut out);
    netcore_probes(&shape, &mut out);
    crypto_probes(&shape, &mut out);
    core_probes(spec, &shape, &mut out);
    zab_probes(&shape, &mut out);
    persist_probes(&shape, scratch, &mut out);
    tree_probes(spec, &shape, &mut out);
    gateway_probes(spec, &shape, &mut out);
    out
}
