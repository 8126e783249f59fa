//! The gateway's front-port service: terminate client sessions, route each
//! request to its shard, and splice the per-shard reply streams back into
//! the strict FIFO stream the client protocol demands.
//!
//! # Session model
//!
//! A gateway session lives exactly as long as its front TCP connection —
//! the gateway is a stateless tier, so nothing about a session survives
//! the connection (or a gateway restart). On reconnect a client presents
//! its session id and last-seen zxid as usual; the gateway honours the id
//! and splits the zxid back into per-shard floors (see
//! [`crate::lanes::LaneCodec`]), so zxid-floor guarantees survive a
//! gateway restart even though ephemerals and watches (connection state
//! everywhere in this workspace) do not.
//!
//! # Reply ordering
//!
//! The client requires responses in submission order on one connection,
//! but shards answer independently. The session keeps a FIFO of
//! `(xid, shard)` in submission order plus a stow map of replies that
//! arrived early; a reply is released only when its xid reaches the FIFO
//! head. Watch notifications carry no xid and bypass the FIFO.
//!
//! # Thread census
//!
//! The front reactor runs `O(cores)` event-loop shards. Each backend link
//! adds one blocking reader thread for the life of its front session, so a
//! gateway serving `S` sessions each touching `K` shards runs `S × K`
//! reader threads. Backend connects happen inline on the reactor thread
//! (bounded by the shard's connect timeout) — acceptable for this
//! reproduction, noted here because it briefly stalls one event-loop
//! shard.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jute::records::{
    ConnectRequest, ConnectResponse, ErrorCode, OpCode, ReplyHeader, RequestHeader,
    NOTIFICATION_XID,
};
use jute::trace_envelope;
use jute::{framing, InputArchive, OutputArchive, Request, Response};
use netcore::{Conn, Reactor, ReactorConfig, Service};
use opsplane::{words, MetricsRegistry, RateLimitConfig, TenantRateLimiter};
use parking_lot::Mutex;
use trace::{SpanRecord, Stage};

use crate::backend::{BackendLink, GATEWAY_XID};
use crate::lanes::LaneCodec;
use crate::metrics::GatewayMetrics;
use crate::shardmap::{RouteError, ShardMap};

/// Session timeout granted when a client requests none.
const DEFAULT_SESSION_TIMEOUT_MS: i32 = 40_000;

/// Everything a gateway needs to start serving.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The routing table (sealed prefixes in secure deployments).
    pub map: ShardMap,
    /// Member addresses per shard, indexed by shard id.
    pub shard_addrs: Vec<Vec<SocketAddr>>,
    /// Per-tenant admission control; `None` admits everything.
    pub rate_limit: Option<RateLimitConfig>,
    /// Front reactor tuning.
    pub reactor: ReactorConfig,
}

impl GatewayConfig {
    /// A config routing everything by `map` to `shard_addrs`, with default
    /// reactor settings and no rate limiting.
    pub fn new(map: ShardMap, shard_addrs: Vec<Vec<SocketAddr>>) -> GatewayConfig {
        GatewayConfig { map, shard_addrs, rate_limit: None, reactor: ReactorConfig::default() }
    }
}

/// Where a front connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the `ConnectRequest` frame.
    Handshake,
    /// Session established; routing requests.
    Active,
    /// `CloseSession` acknowledged; draining the outbound queue.
    Closing,
}

/// One entry of the submission-order FIFO.
#[derive(Debug)]
struct PendingReply {
    xid: i32,
    /// The shard answering this xid, or `None` for replies the gateway
    /// produces itself (ping, errors, the close ack).
    shard: Option<usize>,
    submitted: Instant,
}

/// Mutable state of one front session.
struct FrontState {
    phase: Phase,
    session_id: i64,
    timeout_ms: i32,
    /// Per-shard zxid floors presented at handshake, used when a link to
    /// that shard is first opened.
    floors: Vec<i64>,
    /// One lazily opened backend session per touched shard.
    links: Vec<Option<Arc<BackendLink>>>,
    /// Highest zxid observed from each shard (shared with reader threads).
    lanes: Arc<Vec<AtomicI64>>,
    pending: VecDeque<PendingReply>,
    stowed: HashMap<i32, Vec<u8>>,
    /// The xid whose release finishes a graceful close (drain then part).
    close_after: Option<i32>,
}

/// Per-connection state slot handed to the reactor.
pub struct FrontSlot {
    inner: Mutex<FrontState>,
}

/// What a backend reader thread needs besides its connection: shared
/// instruments and the (Copy) lane codec.
#[derive(Clone)]
struct ReaderCtx {
    metrics: Arc<GatewayMetrics>,
    codec: LaneCodec,
}

impl ReaderCtx {
    fn merged_zxid(&self, lanes: &[AtomicI64]) -> i64 {
        let per_shard: Vec<i64> = lanes.iter().map(|l| l.load(Ordering::Acquire)).collect();
        self.codec.merge(&per_shard)
    }

    /// Releases every reply whose xid has reached the FIFO head and has
    /// its frame ready, rebasing each zxid as it goes out. When the close
    /// ack is released, starts the drain-and-part.
    ///
    /// Pop and send happen under one hold of the connection's state lock:
    /// two backend reader threads that each popped a head in order could
    /// otherwise send them out of order. `send_framed` only appends to
    /// netcore's outbound queue and never calls back into the service, so
    /// the lock order (front state, then netcore's queue) cannot invert.
    fn drain_ready(&self, conn: &Arc<Conn<FrontSlot>>, lanes: &[AtomicI64]) {
        let mut state = conn.state.inner.lock();
        while let Some(xid) = state.pending.front().map(|head| head.xid) {
            let Some(mut frame) = state.stowed.remove(&xid) else { break };
            let entry = state.pending.pop_front().expect("head exists");
            rebase_zxid(&mut frame, self.merged_zxid(lanes));
            let _ = conn.send_framed(|_| Ok(()), frame);
            if let Some(shard) = entry.shard {
                self.metrics.request_latency[shard].observe_duration(entry.submitted.elapsed());
            }
            if state.close_after == Some(entry.xid) {
                conn.close_after_flush();
                break;
            }
        }
    }

    /// Blocking read loop for one backend link: folds every reply's zxid
    /// into the shard's lane, forwards watch events immediately, and
    /// releases request replies in submission order.
    fn run(
        &self,
        conn: &Arc<Conn<FrontSlot>>,
        link: &BackendLink,
        lanes: &[AtomicI64],
        reader: &mut TcpStream,
        shard: usize,
    ) {
        while let Ok(Some(frame)) = framing::read_frame(reader) {
            if frame.len() < 16 {
                break;
            }
            let xid = i32::from_be_bytes(frame[0..4].try_into().expect("peeked length"));
            let zxid = i64::from_be_bytes(frame[4..12].try_into().expect("peeked length"));
            lanes[shard].fetch_max(zxid, Ordering::AcqRel);
            if xid == GATEWAY_XID {
                continue; // Gateway-originated keepalive; the lane update was the point.
            }
            if xid == NOTIFICATION_XID {
                let mut frame = frame;
                rebase_zxid(&mut frame, self.merged_zxid(lanes));
                if conn.send_framed(|_| Ok(()), frame).is_ok() {
                    self.metrics.watch_events[shard].inc();
                }
                continue;
            }
            let mut state = conn.state.inner.lock();
            if !state.pending.iter().any(|entry| entry.xid == xid) {
                drop(state);
                conn.close(); // Unsolicited reply: the stream is out of sync.
                break;
            }
            state.stowed.insert(xid, frame);
            drop(state);
            self.drain_ready(conn, lanes);
        }
        // EOF with the link still live means the backend died mid-session;
        // drop the front connection so the client runs its reconnect path.
        if !link.is_closed() {
            conn.close();
        }
    }
}

/// The [`netcore::Service`] implementation behind [`Gateway`].
pub struct GatewayService {
    map: ShardMap,
    codec: LaneCodec,
    shard_addrs: Vec<Vec<SocketAddr>>,
    limiter: Option<TenantRateLimiter>,
    metrics: Arc<GatewayMetrics>,
    next_session: AtomicI64,
}

impl GatewayService {
    fn new(config: &GatewayConfig) -> GatewayService {
        let shards = config.map.shards();
        assert_eq!(
            shards,
            config.shard_addrs.len(),
            "the shard map addresses {shards} shards but {} address lists were given",
            config.shard_addrs.len()
        );
        // Seed session ids from the clock so ids stay distinct across
        // gateway restarts (a reconnecting client keeps its old id; fresh
        // clients must not collide with it).
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as i64)
            .unwrap_or(1)
            & 0x7fff_ffff_ffff;
        GatewayService {
            map: config.map.clone(),
            codec: LaneCodec::new(shards),
            shard_addrs: config.shard_addrs.clone(),
            limiter: config.rate_limit.map(TenantRateLimiter::new),
            metrics: Arc::new(GatewayMetrics::new(shards)),
            next_session: AtomicI64::new(seed.max(1)),
        }
    }

    fn reader_ctx(&self) -> ReaderCtx {
        ReaderCtx { metrics: Arc::clone(&self.metrics), codec: self.codec }
    }

    /// Enqueues a gateway-produced reply (errors, ping, the close ack)
    /// through the same FIFO as backend replies, so a pipelining client
    /// still sees responses in strict submission order. The zxid is
    /// rebased at release time like every other frame.
    fn enqueue_local_reply(
        &self,
        conn: &Arc<Conn<FrontSlot>>,
        xid: i32,
        response: &Response,
        closes: bool,
    ) {
        let bytes = response.to_bytes(&ReplyHeader { xid, zxid: 0, err: ErrorCode::Ok });
        let lanes = {
            let mut state = conn.state.inner.lock();
            state.pending.push_back(PendingReply { xid, shard: None, submitted: Instant::now() });
            state.stowed.insert(xid, bytes);
            if closes {
                state.close_after = Some(xid);
            }
            Arc::clone(&state.lanes)
        };
        self.reader_ctx().drain_ready(conn, &lanes);
    }

    fn handle_handshake(&self, conn: &Arc<Conn<FrontSlot>>, frame: &[u8]) {
        let mut input = InputArchive::new(frame);
        let request = match ConnectRequest::deserialize(&mut input)
            .and_then(|r| input.expect_exhausted().map(|()| r))
        {
            Ok(request) => request,
            Err(_) => {
                conn.close();
                return;
            }
        };
        let timeout_ms =
            if request.timeout_ms <= 0 { DEFAULT_SESSION_TIMEOUT_MS } else { request.timeout_ms };
        // Honour a presented session id (re-attach through a restarted
        // gateway); the zxid the client tracked is a lane vector, so split
        // it back into per-shard floors for the backend handshakes.
        let (session_id, floors) = if request.session_id != 0 {
            (request.session_id, self.codec.split(request.last_zxid_seen))
        } else {
            (self.next_session.fetch_add(1, Ordering::Relaxed), vec![0; self.codec.shards()])
        };
        {
            let mut state = conn.state.inner.lock();
            state.phase = Phase::Active;
            state.session_id = session_id;
            state.timeout_ms = timeout_ms;
            state.floors = floors;
        }
        let response = ConnectResponse {
            protocol_version: 0,
            timeout_ms,
            session_id,
            password: session_password(session_id),
        };
        let mut out = OutputArchive::with_capacity(64);
        response.serialize(&mut out);
        if conn.send_framed(|_| Ok(()), out.into_bytes()).is_ok() {
            self.metrics.handshakes.inc();
            self.metrics.front_sessions.add(1);
        }
    }

    /// Opens the shard link if this session has none yet, spawning its
    /// reader thread. Runs with the state lock held (blocks only this
    /// session). Returns `None` when no member of the shard is reachable.
    fn ensure_link(
        &self,
        conn: &Arc<Conn<FrontSlot>>,
        state: &mut FrontState,
        shard: usize,
    ) -> Option<Arc<BackendLink>> {
        if let Some(link) = &state.links[shard] {
            return Some(Arc::clone(link));
        }
        let (link, mut reader) = BackendLink::connect(
            shard,
            &self.shard_addrs[shard],
            state.floors[shard],
            state.timeout_ms,
        )
        .ok()?;
        let link = Arc::new(link);
        state.links[shard] = Some(Arc::clone(&link));
        self.metrics.backend_links.add(1);
        let ctx = self.reader_ctx();
        let thread_conn = Arc::clone(conn);
        let thread_link = Arc::clone(&link);
        let lanes = Arc::clone(&state.lanes);
        std::thread::Builder::new()
            .name(format!("gw-shard{shard}-reader"))
            .spawn(move || ctx.run(&thread_conn, &thread_link, &lanes, &mut reader, shard))
            .expect("spawning a backend reader thread");
        Some(link)
    }

    fn handle_request(&self, conn: &Arc<Conn<FrontSlot>>, mut frame: Vec<u8>) {
        // The gateway is keyless by design: the trace envelope is the only
        // part of the frame it may rewrite, and the jute body — sealed in
        // secure deployments — is parsed at an offset and forwarded intact.
        let route_start = trace::now_ns();
        let client_ctx = trace_envelope::peek(&frame);
        let body = match client_ctx {
            Some(_) => &frame[trace_envelope::ENVELOPE_LEN..],
            None => frame.as_slice(),
        };
        let (header, request) = match Request::from_bytes(body) {
            Ok(decoded) => decoded,
            Err(_) => {
                conn.close();
                return;
            }
        };
        match request {
            Request::Connect(_) => {
                conn.close(); // A second handshake on a live session is a protocol violation.
                return;
            }
            Request::Ping => {
                self.handle_ping(conn, header.xid);
                return;
            }
            Request::CloseSession => {
                self.handle_close_session(conn, header.xid);
                return;
            }
            _ => {}
        }
        if header.xid <= 0 {
            conn.close(); // Client xids are strictly positive.
            return;
        }
        if let Some(limiter) = &self.limiter {
            let tenant_path = match &request {
                Request::Multi(multi) => multi.ops.first().map(jute::Op::path),
                _ => request.path(),
            };
            if let Some(path) = tenant_path {
                if !limiter.try_acquire(path) {
                    self.metrics.throttled.inc();
                    self.enqueue_local_reply(
                        conn,
                        header.xid,
                        &Response::Error(ErrorCode::Throttled),
                        false,
                    );
                    return;
                }
            }
        }
        let shard = match self.map.route_request(&request) {
            Ok(Some(shard)) => shard,
            Ok(None) => {
                conn.close(); // Unroutable opcode that is not Ping/Close: out of protocol.
                return;
            }
            Err(RouteError::CrossShard(_)) => {
                self.metrics.cross_shard_rejections.inc();
                self.enqueue_local_reply(
                    conn,
                    header.xid,
                    &Response::Error(ErrorCode::CrossShard),
                    false,
                );
                return;
            }
        };
        let mut state = conn.state.inner.lock();
        if state.phase != Phase::Active {
            return;
        }
        let Some(link) = self.ensure_link(conn, &mut state, shard) else {
            drop(state);
            conn.close(); // Shard unreachable: surface as connection loss.
            return;
        };
        state.pending.push_back(PendingReply {
            xid: header.xid,
            shard: Some(shard),
            submitted: Instant::now(),
        });
        drop(state);
        self.metrics.requests[shard].inc();
        if let Some(ctx) = client_ctx {
            // Open the gateway's own span and splice its id into the
            // envelope so the shard's spans parent under this hop — the
            // rewrite touches only the 21-byte prefix, never the body.
            let route_span = trace::new_id();
            trace_envelope::rewrite_span_id(&mut frame, route_span);
            trace::record(SpanRecord {
                trace_id: ctx.trace_id,
                span_id: route_span,
                parent_span_id: ctx.span_id,
                stage: Stage::GwRoute,
                flags: ctx.flags,
                start_ns: route_start,
                end_ns: trace::now_ns(),
                detail: shard as u64,
            });
        }
        self.metrics
            .route_duration
            .observe(trace::now_ns().saturating_sub(route_start) as f64 / 1e9);
        if link.send_frame(&frame).is_err() {
            conn.close();
        }
    }

    /// Pings are answered locally (the gateway owns the session) and
    /// fanned out to every open backend link with the gateway's own xid so
    /// the backend sessions stay alive and each lane picks up the shard's
    /// current zxid.
    fn handle_ping(&self, conn: &Arc<Conn<FrontSlot>>, xid: i32) {
        let keepalive =
            Request::Ping.to_bytes(&RequestHeader { xid: GATEWAY_XID, op: OpCode::Ping });
        let links = conn.state.inner.lock().links.clone();
        for link in links.into_iter().flatten() {
            let _ = link.send_frame(&keepalive);
        }
        self.enqueue_local_reply(conn, xid, &Response::Ping, false);
    }

    /// Fans the close out to every backend session (so ephemerals are
    /// reaped promptly rather than waiting for the timeout sweep) and
    /// queues the ack behind any still-pending replies; releasing the ack
    /// starts the connection drain. Links are only *marked* closed here —
    /// their reader threads keep draining the replies the backends owe us,
    /// then exit silently on the EOF each backend sends after processing
    /// its `CloseSession`.
    fn handle_close_session(&self, conn: &Arc<Conn<FrontSlot>>, xid: i32) {
        let close = Request::CloseSession
            .to_bytes(&RequestHeader { xid: GATEWAY_XID, op: OpCode::CloseSession });
        let links = {
            let mut state = conn.state.inner.lock();
            state.phase = Phase::Closing;
            state.links.clone()
        };
        for link in links.into_iter().flatten() {
            let _ = link.send_frame(&close);
            link.mark_closed();
        }
        self.enqueue_local_reply(conn, xid, &Response::CloseSession, true);
    }

    fn gateway_info(&self) -> words::ServerInfo {
        let sessions = self.metrics.front_sessions.get().max(0) as u64;
        words::ServerInfo {
            version: format!("securekeeper-repro {}", env!("CARGO_PKG_VERSION")),
            member_id: 0,
            role: "gateway".to_string(),
            epoch: 0,
            leader: None,
            last_zxid: 0,
            znode_count: 0,
            approx_memory_bytes: 0,
            session_count: sessions,
            connection_count: sessions,
            watch_count: 0,
            ready: true,
            draining: false,
            secure: false,
            clients: Vec::new(),
            data_dirs: None,
        }
    }

    /// Answers `dirs` by querying one reachable member of every shard and
    /// concatenating their per-member reports under shard headings. Runs
    /// on a spawned thread: it does real network round-trips.
    fn serve_dirs(&self, conn: &Arc<Conn<FrontSlot>>) {
        let shard_addrs = self.shard_addrs.clone();
        let conn = Arc::clone(conn);
        std::thread::Builder::new()
            .name("gw-dirs".to_string())
            .spawn(move || {
                let mut out = String::new();
                for (shard, addrs) in shard_addrs.iter().enumerate() {
                    out.push_str(&format!("Shard {shard}:\n"));
                    let reply = addrs
                        .iter()
                        .find_map(|addr| words::send_word(addr, "dirs").ok())
                        .unwrap_or_else(|| "unreachable\n".to_string());
                    out.push_str(&reply);
                }
                let _ = conn.send_raw(out.as_bytes());
                conn.close_after_flush();
            })
            .expect("spawning the dirs aggregation thread");
    }
}

impl Service for GatewayService {
    type State = FrontSlot;

    fn make_state(&self, _peer: SocketAddr) -> FrontSlot {
        let shards = self.codec.shards();
        FrontSlot {
            inner: Mutex::new(FrontState {
                phase: Phase::Handshake,
                session_id: 0,
                timeout_ms: DEFAULT_SESSION_TIMEOUT_MS,
                floors: vec![0; shards],
                links: vec![None; shards],
                lanes: Arc::new((0..shards).map(|_| AtomicI64::new(0)).collect()),
                pending: VecDeque::new(),
                stowed: HashMap::new(),
                close_after: None,
            }),
        }
    }

    fn on_frame(&self, conn: &Arc<Conn<FrontSlot>>, frame: Vec<u8>) {
        let phase = conn.state.inner.lock().phase;
        match phase {
            Phase::Handshake => self.handle_handshake(conn, &frame),
            Phase::Active => self.handle_request(conn, frame),
            Phase::Closing => {}
        }
    }

    fn on_word(&self, conn: &Arc<Conn<FrontSlot>>, word: [u8; 4]) {
        self.metrics.admin_commands.inc();
        let Some(word) = words::parse_word(&word) else {
            conn.close();
            return;
        };
        if word == "dirs" {
            self.serve_dirs(conn);
            return;
        }
        match words::respond(word, &self.gateway_info(), &self.metrics.registry()) {
            Some(reply) => {
                let _ = conn.send_raw(reply.as_bytes());
                conn.close_after_flush();
            }
            None => conn.close(),
        }
    }

    fn on_closed(&self, conn: &Arc<Conn<FrontSlot>>) {
        let (links, was_attached) = {
            let mut state = conn.state.inner.lock();
            let was_attached = state.phase != Phase::Handshake;
            (std::mem::take(&mut state.links), was_attached)
        };
        for link in links.into_iter().flatten() {
            link.shutdown();
            self.metrics.backend_links.add(-1);
        }
        if was_attached {
            self.metrics.front_sessions.add(-1);
        }
    }
}

/// Overwrites the zxid field (bytes 4..12 of the reply header) in place.
fn rebase_zxid(frame: &mut [u8], merged: i64) {
    frame[4..12].copy_from_slice(&merged.to_be_bytes());
}

/// The opaque session password the gateway grants. Derived from the
/// session id (splitmix64) so a restarted gateway re-derives the same
/// password for a re-attaching session; it is a routing-tier token, not a
/// secret — backend authority never rests on it.
fn session_password(session_id: i64) -> Vec<u8> {
    let mut z = (session_id as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut out = Vec::with_capacity(16);
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_be_bytes());
    }
    out
}

/// A running gateway: the front reactor plus its service.
pub struct Gateway {
    reactor: Reactor<GatewayService>,
    service: Arc<GatewayService>,
}

impl Gateway {
    /// Binds the front port and starts routing.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the reactor.
    ///
    /// # Panics
    ///
    /// Panics if `config.shard_addrs` does not cover every shard of the
    /// map — that is a deployment bug, not a runtime condition.
    pub fn bind(addr: impl std::net::ToSocketAddrs, config: GatewayConfig) -> io::Result<Gateway> {
        let reactor_config = config.reactor.clone();
        let service = Arc::new(GatewayService::new(&config));
        let reactor = Reactor::bind(addr, Arc::clone(&service), reactor_config)?;
        Ok(Gateway { reactor, service })
    }

    /// The front address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// The gateway's metric families.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.service.metrics
    }

    /// The registry behind [`Gateway::metrics`], for an
    /// [`opsplane::OpsServer`] or scrape test.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        self.service.metrics.registry()
    }

    /// Stops accepting and tears down the event loops. Live backend links
    /// are torn down by each connection's close callback.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}
