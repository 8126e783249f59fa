//! The blocking socket client [`ZkTcpClient`] for a
//! [`crate::net::ZkTcpServer`] or [`crate::ensemble::ZkEnsembleServer`].
//!
//! It mirrors the convenience API of ZooKeeper's Java client: typed
//! `create`/`get_data`/`set_data`/`delete`/`get_children`/`exists` methods,
//! one-shot watches, and reconnection after a connection loss. It is the one
//! client in the workspace: the examples, the workload drivers, the chaos
//! harness and the benchmark all drive the service through it. SecureKeeper
//! changes only the [`SessionCredentials`] it connects with, which key the
//! transport cipher with the entry enclave.
//!
//! # Safe retry semantics
//!
//! A [`ZkError::ConnectionLoss`] means the outcome of the in-flight request
//! is *unknown*: the write may or may not have committed before the
//! connection died. What is safe to retry after reconnecting:
//!
//! * **Reads** (`get_data`, `exists`, `get_children`) — always safe.
//! * **Versioned writes** (`set_data`/`delete` with an explicit version,
//!   `multi` with a [`Op::Check`] guard) — safe: if the first attempt
//!   committed, the retry fails with `BadVersion` instead of applying twice.
//! * **Plain creates** — safe to retry *if* a `NodeExists` answer is treated
//!   as success (the first attempt may have landed).
//! * **Sequential creates** — NOT idempotent: a retry can allocate a second
//!   sequence number, leaving an orphan node from the lost first attempt.
//!   Recovery requires listing the parent and matching a client-chosen
//!   prefix, as ZooKeeper recipes do.
//!
//! [`ZkTcpClient::connect_ensemble`] and the [`RetryPolicy`] it takes only
//! retry the *connection handshake* (always safe); request retries remain
//! the caller's decision under the rules above.

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::framing::{self, FrameDecoder};
use jute::multi::{MultiRequest, Op, OpResult};
use jute::records::{
    CheckVersionRequest, ConnectRequest, ConnectResponse, CreateMode, CreateRequest, DeleteRequest,
    ExistsRequest, GetChildrenRequest, GetDataRequest, OpCode, ReplyHeader, RequestHeader,
    SetDataRequest, Stat, WatcherEvent, NOTIFICATION_XID,
};
use jute::{InputArchive, OutputArchive, Request, Response};
use trace::{SpanRecord, Stage, TraceContext};

use crate::error::ZkError;
use crate::net::{PlainCredentials, SessionCredentials, WireCipher};
use crate::server::DEFAULT_SESSION_TIMEOUT_MS;
use crate::typed::{self, MultiDispatch, Txn};
use crate::watch::{WatchEvent, WatchEventKind};

/// Callback invoked for every watch notification the server pushes.
pub type WatchCallback = Box<dyn FnMut(&WatchEvent) + Send>;

/// Bounded exponential backoff with jitter for connection retries.
///
/// Attempt `n` (0-based) sleeps `base_backoff * 2^n`, capped at
/// `max_backoff`, plus up to 50% random jitter so a herd of clients
/// reconnecting after a failover does not stampede in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many *additional* passes to make after the first one fails.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff (jitter comes on top).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(800),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one pass, no sleeping).
    pub fn no_retries() -> Self {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }

    /// The sleep before retry `attempt` (0-based): exponential, capped,
    /// jittered.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_backoff.saturating_mul(1u32 << attempt.min(16));
        let capped = exp.min(self.max_backoff);
        capped + jitter(capped / 2)
    }
}

/// Uniform-ish random duration in `[0, cap)` from std-only entropy (the
/// hasher keys of [`std::collections::hash_map::RandomState`] are randomly
/// seeded per instance — no `rand` dependency needed for retry jitter).
fn jitter(cap: Duration) -> Duration {
    use std::hash::{BuildHasher, Hasher};
    let cap_ms = cap.as_millis() as u64;
    if cap_ms == 0 {
        return Duration::ZERO;
    }
    let mut hasher = std::collections::hash_map::RandomState::new().build_hasher();
    hasher.write_u64(cap_ms);
    Duration::from_millis(hasher.finish() % cap_ms)
}

/// A correlation handle for a request submitted with
/// [`ZkTcpClient::submit`]: redeem it with [`ZkTcpClient::poll`]
/// (nonblocking) or [`ZkTcpClient::wait`] (blocking). Tickets are `Copy`
/// and single-use — claiming the response consumes the server-side slot, so
/// a second redemption of the same ticket reports it as unknown. A
/// reconnect invalidates all outstanding tickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    xid: i32,
    op: OpCode,
}

impl Ticket {
    /// The xid the request was assigned on the wire.
    pub fn xid(&self) -> i32 {
        self.xid
    }

    /// The operation the ticket's response will decode as.
    pub fn op(&self) -> OpCode {
        self.op
    }
}

/// What one bounded read attempt produced.
enum ReadOutcome {
    /// Bytes were fed into the frame decoder.
    Data,
    /// The timeout elapsed without data.
    Empty,
    /// The server closed its end.
    Eof,
}

/// A blocking client speaking the length-prefixed wire protocol against a
/// [`crate::net::ZkTcpServer`].
///
/// Requests are correlated with responses by xid; server-initiated watch
/// notifications (reply xid `-1`) can arrive interleaved with responses and
/// are queued (and handed to the [`WatchCallback`], when one is set) instead
/// of being confused with them. The client also tracks the highest zxid it
/// has seen, like the real ZooKeeper client library.
///
/// # Pipelining
///
/// Besides the blocking typed methods, requests can be issued without
/// waiting: [`ZkTcpClient::submit`] writes the request and returns a
/// [`Ticket`]; any number of tickets may be in flight at once (the server
/// answers them in FIFO order per session), and each is redeemed with
/// [`ZkTcpClient::poll`] or [`ZkTcpClient::wait`]. The blocking methods are
/// submit-then-wait over the same machinery, so mixing both styles on one
/// client is safe. All inbound bytes — responses and watch notifications
/// alike — flow through one persistent frame decoder, so a partial frame
/// left over from a `poll` is completed by the next read wherever it
/// happens.
pub struct ZkTcpClient {
    stream: TcpStream,
    addr: SocketAddr,
    credentials: Arc<dyn SessionCredentials>,
    cipher: Box<dyn WireCipher>,
    session_id: i64,
    /// The session password granted on connect; presented on reconnect to
    /// re-attach to the same session (surviving ephemerals and, after a
    /// power cycle, the snapshot-recovered session table).
    session_password: Vec<u8>,
    negotiated_timeout_ms: i32,
    next_xid: i32,
    last_zxid: i64,
    /// Reassembles length-prefixed frames across reads; shared by every
    /// receive path so partial frames survive between calls.
    decoder: FrameDecoder,
    /// Xids of submitted requests whose responses have not arrived, in
    /// submission order (the server's single-writer answers in this order).
    inflight: VecDeque<i32>,
    /// Responses that arrived before their ticket was redeemed, keyed by
    /// xid; frames are stored cipher-opened (the cipher's frame counters
    /// must advance in arrival order) but not yet decoded.
    completed: HashMap<i32, Vec<u8>>,
    pending_events: VecDeque<WatchEvent>,
    watch_callback: Option<WatchCallback>,
    /// Trace contexts of in-flight requests keyed by xid, each recorded
    /// as a `client_call` root span when its reply arrives: (context,
    /// submit time, path hash).
    trace_pending: HashMap<i32, (TraceContext, u64, u64)>,
    /// Sampling knob: mark 1 of every `n` traces for export (1 = all).
    trace_sample_every: u32,
    /// Rolling counter driving the sampling decision.
    trace_tick: u32,
    /// Trace id minted for the most recent submit.
    last_trace_id: u64,
}

impl std::fmt::Debug for ZkTcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZkTcpClient")
            .field("addr", &self.addr)
            .field("session_id", &self.session_id)
            .field("last_zxid", &self.last_zxid)
            .finish()
    }
}

impl ZkTcpClient {
    /// Connects a plaintext (vanilla ZooKeeper) session to `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] when the server is unreachable or
    /// the handshake fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ZkError> {
        Self::connect_with(addr, Arc::new(PlainCredentials), DEFAULT_SESSION_TIMEOUT_MS)
    }

    /// Connects with explicit [`SessionCredentials`] (SecureKeeper's generate
    /// a fresh session key whose blob the entry-enclave manager consumes) and
    /// a requested session timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] when the server is unreachable or
    /// the handshake fails.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        credentials: Arc<dyn SessionCredentials>,
        timeout_ms: i64,
    ) -> Result<Self, ZkError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ZkError::ConnectionLoss { reason: "no address to connect to".into() })?;
        let (stream, cipher, response) =
            Self::handshake(addr, credentials.as_ref(), timeout_ms, None, 0)?;
        Ok(ZkTcpClient {
            stream,
            addr,
            credentials,
            cipher,
            session_id: response.session_id,
            session_password: response.password,
            negotiated_timeout_ms: response.timeout_ms,
            next_xid: 1,
            last_zxid: 0,
            decoder: FrameDecoder::new(),
            inflight: VecDeque::new(),
            completed: HashMap::new(),
            pending_events: VecDeque::new(),
            watch_callback: None,
            trace_pending: HashMap::new(),
            trace_sample_every: 1,
            trace_tick: 0,
            last_trace_id: 0,
        })
    }

    fn handshake(
        addr: SocketAddr,
        credentials: &dyn SessionCredentials,
        timeout_ms: i64,
        prior_session: Option<(i64, &[u8])>,
        last_zxid_seen: i64,
    ) -> Result<(TcpStream, Box<dyn WireCipher>, ConnectResponse), ZkError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let (blob, cipher) = credentials.establish();
        // A re-attach sends the prior session id, with the session password
        // prefixed to the credential blob (the server splits them again).
        let (session_id, password) = match prior_session {
            Some((id, session_password)) => {
                let mut combined = Vec::with_capacity(session_password.len() + blob.len());
                combined.extend_from_slice(session_password);
                combined.extend_from_slice(&blob);
                (id, combined)
            }
            None => (0, blob),
        };
        let request = ConnectRequest {
            protocol_version: 0,
            last_zxid_seen,
            timeout_ms: timeout_ms as i32,
            session_id,
            password,
        };
        let mut out = OutputArchive::with_capacity(64);
        request.serialize(&mut out);
        framing::write_frame(&mut stream, &out.into_bytes())?;
        let frame = framing::read_frame(&mut stream)?.ok_or_else(|| ZkError::ConnectionLoss {
            reason: "server rejected the connection handshake".into(),
        })?;
        let mut input = InputArchive::new(&frame);
        let response = ConnectResponse::deserialize(&mut input)?;
        input.expect_exhausted()?;
        Ok((stream, cipher, response))
    }

    /// The session id granted by the server.
    pub fn session_id(&self) -> i64 {
        self.session_id
    }

    /// The server address this client is currently connected to. Sessions
    /// live on the member that created them, so a failover that wants to
    /// keep its session should prefer that member's address when it comes
    /// back.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session timeout the server granted, in milliseconds.
    pub fn negotiated_timeout_ms(&self) -> i32 {
        self.negotiated_timeout_ms
    }

    /// The highest zxid observed in any reply header so far.
    pub fn last_zxid(&self) -> i64 {
        self.last_zxid
    }

    /// Installs a callback invoked for every watch notification as it is
    /// decoded (events are additionally queued for
    /// [`ZkTcpClient::take_watch_events`]).
    pub fn set_watch_callback(&mut self, callback: WatchCallback) {
        self.watch_callback = Some(callback);
    }

    /// Re-dials the server, attempting to **re-attach to the same session**
    /// by presenting the session password. If the server still knows the
    /// session (alive, or recovered from a snapshot after a power cycle),
    /// the session id — and with it ephemerals — survives; otherwise the
    /// server silently grants a fresh session, which the caller can detect
    /// by comparing [`ZkTcpClient::session_id`] before and after. Watches
    /// are connection state and never survive a reconnect.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] when the server is unreachable.
    pub fn reconnect(&mut self) -> Result<(), ZkError> {
        self.reconnect_to(self.addr)
    }

    /// Re-dials a *different* server address — the failover path when the
    /// replica this client was connected to crashes. The credentials are
    /// re-established (sticky credentials such as SecureKeeper's replayable
    /// session key reinstall the same key on the new replica), and the
    /// client attempts to re-attach to its session as in
    /// [`ZkTcpClient::reconnect`].
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] when the server is unreachable,
    /// or when it refuses the attach because its applied log is still
    /// behind the highest zxid this client has observed (retry another
    /// member, or the same one after it catches up).
    pub fn reconnect_to(&mut self, addr: impl ToSocketAddrs) -> Result<(), ZkError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ZkError::ConnectionLoss { reason: "no address to connect to".into() })?;
        let timeout = i64::from(self.negotiated_timeout_ms);
        let prior = (self.session_id != 0 && !self.session_password.is_empty())
            .then_some((self.session_id, self.session_password.as_slice()));
        // Announce the highest zxid this session has observed: a replica
        // whose applied log is behind it refuses the attach, so a failover
        // can never time-travel the session to older state (ZooKeeper's
        // `lastZxidSeen` check). `last_zxid` is deliberately NOT reset — the
        // session's observation floor survives the reconnect.
        let (stream, cipher, response) =
            Self::handshake(addr, self.credentials.as_ref(), timeout, prior, self.last_zxid)?;
        self.stream = stream;
        self.addr = addr;
        self.cipher = cipher;
        self.session_id = response.session_id;
        self.session_password = response.password;
        self.negotiated_timeout_ms = response.timeout_ms;
        self.next_xid = 1;
        // The old connection's stream state dies with it: half-received
        // frames, unredeemed responses and outstanding tickets are all
        // meaningless against the new socket.
        self.decoder = FrameDecoder::new();
        self.inflight.clear();
        self.completed.clear();
        self.pending_events.clear();
        // Replies for pre-reconnect submits will never arrive, so their
        // client_call roots are never recorded — any server-side spans
        // they produced surface as orphan traces in the export rather
        // than silently vanishing.
        self.trace_pending.clear();
        Ok(())
    }

    /// Connects to the first reachable address of an ensemble with the
    /// default [`RetryPolicy`]: each pass tries every address in order, and
    /// failed passes repeat under exponential backoff with jitter. Combine
    /// with [`ZkTcpClient::reconnect_to`] to fail over between the members
    /// after a crash.
    ///
    /// # Errors
    ///
    /// Returns the final attempt's [`ZkError::ConnectionLoss`] when no
    /// member becomes reachable within the policy's retry budget.
    pub fn connect_ensemble(
        addrs: &[SocketAddr],
        credentials: Arc<dyn SessionCredentials>,
        timeout_ms: i64,
    ) -> Result<Self, ZkError> {
        Self::connect_ensemble_with(addrs, credentials, timeout_ms, RetryPolicy::default())
    }

    /// [`ZkTcpClient::connect_ensemble`] with an explicit [`RetryPolicy`]
    /// (use [`RetryPolicy::no_retries`] for a single fail-fast pass).
    ///
    /// # Errors
    ///
    /// Returns the final attempt's [`ZkError::ConnectionLoss`] when no
    /// member becomes reachable within the policy's retry budget.
    pub fn connect_ensemble_with(
        addrs: &[SocketAddr],
        credentials: Arc<dyn SessionCredentials>,
        timeout_ms: i64,
        policy: RetryPolicy,
    ) -> Result<Self, ZkError> {
        let mut last_error =
            ZkError::ConnectionLoss { reason: "no ensemble address to connect to".into() };
        for attempt in 0..=policy.max_retries {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt - 1));
            }
            for &addr in addrs {
                match Self::connect_with(addr, Arc::clone(&credentials), timeout_ms) {
                    Ok(client) => return Ok(client),
                    Err(err) => last_error = err,
                }
            }
        }
        Err(last_error)
    }

    /// Writes one request to the wire without waiting for its response and
    /// returns the [`Ticket`] to redeem later. Any number of tickets may be
    /// outstanding; the server answers them in submission order.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] on socket failures.
    pub fn submit(&mut self, request: &Request) -> Result<Ticket, ZkError> {
        // Clocked before the frame leaves: the client_call span must
        // enclose every server-side span, and the server can enqueue the
        // request before this thread gets scheduled again.
        let submitted_ns = trace::now_ns();
        let xid = self.next_xid;
        self.next_xid += 1;
        let op = request.op();
        let mut bytes = request.to_bytes(&RequestHeader { xid, op });
        self.cipher.seal(&mut bytes)?;
        // The trace envelope rides OUTSIDE the transport cipher: the
        // server (and the keyless gateway) strips it before the entry
        // enclave ever sees the frame, so the trace plane stays out of
        // the TCB. The path hash is computed over whatever path
        // representation is in the request — ciphertext for sealed
        // clients — never stored as plaintext in a span.
        let ctx = self.originate_trace();
        let detail = request.path().map(trace::path_hash).unwrap_or(0);
        jute::trace_envelope::prepend(&mut bytes, &ctx);
        framing::write_frame(&mut self.stream, &bytes)?;
        self.inflight.push_back(xid);
        self.trace_pending.insert(xid, (ctx, submitted_ns, detail));
        Ok(Ticket { xid, op })
    }

    /// Mints the context for one outgoing request and applies the
    /// sampling knob.
    fn originate_trace(&mut self) -> TraceContext {
        let sampled =
            self.trace_sample_every <= 1 || self.trace_tick.is_multiple_of(self.trace_sample_every);
        self.trace_tick = self.trace_tick.wrapping_add(1);
        let ctx = TraceContext {
            trace_id: trace::new_id(),
            span_id: trace::new_id(),
            flags: if sampled { TraceContext::FLAG_SAMPLED } else { 0 },
        };
        self.last_trace_id = ctx.trace_id;
        ctx
    }

    /// Marks 1 of every `n` traces for export (default 1 = every trace).
    /// Recording is unaffected — unsampled traces still reach the flight
    /// recorder and export if they cross the slow threshold.
    pub fn sample_one_in(&mut self, n: u32) {
        self.trace_sample_every = n.max(1);
    }

    /// The trace id minted for the most recently submitted request —
    /// how a test or a caller correlates an operation with its exported
    /// trace.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Checks whether `ticket`'s response has arrived, reading whatever the
    /// socket has buffered (bounded by a 1 ms poll) but never blocking for
    /// the server. Watch notifications decoded along the way are queued as
    /// usual. Returns `Ok(None)` while the response is still outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] on socket failures, and
    /// [`ZkError::Marshalling`] for an unknown ticket (already claimed, or
    /// issued before a reconnect) or a FIFO-order violation on the stream.
    pub fn poll(&mut self, ticket: Ticket) -> Result<Option<Response>, ZkError> {
        self.drain_decoder()?;
        if let Some(frame) = self.completed.remove(&ticket.xid) {
            return self.claim(ticket, &frame).map(Some);
        }
        if !self.inflight.contains(&ticket.xid) {
            return Err(unknown_ticket(ticket));
        }
        match self.read_some(Some(Duration::from_millis(1)))? {
            ReadOutcome::Data => self.drain_decoder()?,
            ReadOutcome::Empty => {}
            ReadOutcome::Eof => {
                return Err(ZkError::ConnectionLoss {
                    reason: "server closed the connection".into(),
                })
            }
        }
        match self.completed.remove(&ticket.xid) {
            Some(frame) => self.claim(ticket, &frame).map(Some),
            None => Ok(None),
        }
    }

    /// Blocks until `ticket`'s response arrives, queueing any watch
    /// notifications and earlier-submitted responses that arrive in between.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] on socket failures or a server
    /// close, and [`ZkError::Marshalling`] for an unknown ticket or a
    /// FIFO-order violation on the stream.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Response, ZkError> {
        loop {
            self.drain_decoder()?;
            if let Some(frame) = self.completed.remove(&ticket.xid) {
                return self.claim(ticket, &frame);
            }
            if !self.inflight.contains(&ticket.xid) {
                return Err(unknown_ticket(ticket));
            }
            if let ReadOutcome::Eof = self.read_some(None)? {
                return Err(ZkError::ConnectionLoss {
                    reason: "server closed the connection".into(),
                });
            }
        }
    }

    /// Sends one request and blocks until its response arrives: submit plus
    /// wait on the same ticket machinery the nonblocking surface uses.
    fn call(&mut self, request: &Request) -> Result<Response, ZkError> {
        let ticket = self.submit(request)?;
        self.wait(ticket)
    }

    /// One bounded read into the frame decoder. `None` blocks until data
    /// arrives (or the peer closes); `Some(timeout)` gives up quietly after
    /// the timeout.
    fn read_some(&mut self, timeout: Option<Duration>) -> Result<ReadOutcome, ZkError> {
        self.stream.set_read_timeout(timeout)?;
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(ReadOutcome::Eof),
            Ok(n) => {
                self.decoder.feed(&chunk[..n]);
                Ok(ReadOutcome::Data)
            }
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(ReadOutcome::Empty)
            }
            Err(err) => Err(err.into()),
        }
    }

    /// Routes every complete frame the decoder holds.
    fn drain_decoder(&mut self) -> Result<(), ZkError> {
        for frame in self.decoder.frames()? {
            self.handle_frame(frame)?;
        }
        Ok(())
    }

    /// Routes one inbound frame: opens the cipher (whose frame counters
    /// must advance in arrival order), then either queues a watch
    /// notification or stows a response under its xid. The server is
    /// single-writer per session, so responses must match the in-flight
    /// queue head — anything else is a FIFO violation.
    fn handle_frame(&mut self, mut frame: Vec<u8>) -> Result<(), ZkError> {
        self.cipher.open(&mut frame)?;
        let xid = peek_xid(&frame)?;
        if xid == NOTIFICATION_XID {
            return self.decode_event(&frame);
        }
        match self.inflight.front() {
            Some(&expected) if expected == xid => {
                self.inflight.pop_front();
                self.observe_zxid(peek_zxid(&frame)?);
                // The round trip is complete: record the trace's root.
                if let Some((ctx, start_ns, detail)) = self.trace_pending.remove(&xid) {
                    trace::record(SpanRecord {
                        trace_id: ctx.trace_id,
                        span_id: ctx.span_id,
                        parent_span_id: 0,
                        stage: Stage::ClientCall,
                        flags: ctx.flags,
                        start_ns,
                        end_ns: trace::now_ns(),
                        detail,
                    });
                }
                self.completed.insert(xid, frame);
                Ok(())
            }
            Some(&expected) => Err(ZkError::Marshalling {
                reason: format!("response xid {xid} does not match request xid {expected}"),
            }),
            None => {
                Err(ZkError::Marshalling { reason: "unsolicited non-notification frame".into() })
            }
        }
    }

    /// Decodes a stowed response frame as `ticket`'s operation.
    fn claim(&mut self, ticket: Ticket, frame: &[u8]) -> Result<Response, ZkError> {
        let (header, response) = Response::from_bytes(frame, ticket.op)?;
        debug_assert_eq!(header.xid, ticket.xid);
        self.observe_zxid(header.zxid);
        Ok(response)
    }

    fn observe_zxid(&mut self, zxid: i64) {
        if zxid > self.last_zxid {
            self.last_zxid = zxid;
        }
    }

    fn decode_event(&mut self, frame: &[u8]) -> Result<(), ZkError> {
        let mut input = InputArchive::new(frame);
        let header = ReplyHeader::deserialize(&mut input)?;
        let wire = WatcherEvent::deserialize(&mut input)?;
        input.expect_exhausted()?;
        self.observe_zxid(header.zxid);
        let kind = WatchEventKind::from_wire(wire.event_type).ok_or_else(|| {
            ZkError::Marshalling { reason: format!("unknown watch event type {}", wire.event_type) }
        })?;
        let event =
            WatchEvent { path: wire.path, kind, session_id: self.session_id, zxid: header.zxid };
        if let Some(callback) = &mut self.watch_callback {
            callback(&event);
        }
        self.pending_events.push_back(event);
        Ok(())
    }

    /// Drains the watch notifications received so far without touching the
    /// socket. Combine with [`ZkTcpClient::poll_events`] to wait for new ones.
    pub fn take_watch_events(&mut self) -> Vec<WatchEvent> {
        self.pending_events.drain(..).collect()
    }

    /// Waits up to `wait` for watch notifications and drains every event
    /// received so far (including previously queued ones). Returns as soon as
    /// at least one event is available. Responses to in-flight tickets that
    /// arrive during the wait are stowed for their tickets, not lost; a
    /// partially received frame stays in the shared decoder for whichever
    /// call reads next.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::ConnectionLoss`] on socket failures and
    /// [`ZkError::Marshalling`] if a response frame arrives while no request
    /// is outstanding (which would mean the stream is out of sync).
    pub fn poll_events(&mut self, wait: Duration) -> Result<Vec<WatchEvent>, ZkError> {
        self.drain_decoder()?;
        if !self.pending_events.is_empty() {
            return Ok(self.take_watch_events());
        }
        let deadline = Instant::now() + wait;
        // Once a frame has started arriving we keep reading past the deadline
        // (bounded by a grace period) so a frame in transit is pulled in
        // whole instead of straddling calls.
        let grace = deadline + Duration::from_secs(5);
        loop {
            let now = Instant::now();
            if (self.decoder.pending_bytes() == 0 && now >= deadline) || now >= grace {
                break;
            }
            let budget = if self.decoder.pending_bytes() == 0 { deadline } else { grace };
            let remaining = budget.saturating_duration_since(now).max(Duration::from_millis(1));
            match self.read_some(Some(remaining))? {
                ReadOutcome::Data => {
                    self.drain_decoder()?;
                    if self.decoder.pending_bytes() == 0 && !self.pending_events.is_empty() {
                        break;
                    }
                }
                ReadOutcome::Empty => {}
                ReadOutcome::Eof => break,
            }
        }
        self.stream.set_read_timeout(None)?;
        Ok(self.take_watch_events())
    }

    /// Creates a znode and returns its actual path (with the sequence suffix
    /// for sequential modes).
    ///
    /// # Errors
    ///
    /// Propagates the service error (`NodeExists`, `NoNode` for a missing
    /// parent, connection loss, ...).
    pub fn create(
        &mut self,
        path: &str,
        data: Vec<u8>,
        mode: CreateMode,
    ) -> Result<String, ZkError> {
        let request = Request::Create(CreateRequest { path: path.to_string(), data, mode });
        typed::expect_create(self.call(&request)?, path)
    }

    /// Reads a znode's payload and metadata.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::NoNode`] if the path does not exist.
    pub fn get_data(&mut self, path: &str, watch: bool) -> Result<(Vec<u8>, Stat), ZkError> {
        let request = Request::GetData(GetDataRequest { path: path.to_string(), watch });
        typed::expect_get_data(self.call(&request)?, path)
    }

    /// Overwrites a znode's payload.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::BadVersion`] when `version` does not match, or
    /// [`ZkError::NoNode`] if the path does not exist.
    pub fn set_data(&mut self, path: &str, data: Vec<u8>, version: i32) -> Result<Stat, ZkError> {
        let request = Request::SetData(SetDataRequest { path: path.to_string(), data, version });
        typed::expect_set_data(self.call(&request)?, path)
    }

    /// Deletes a znode.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::NotEmpty`] when the node still has children,
    /// [`ZkError::BadVersion`] on a version mismatch, or [`ZkError::NoNode`].
    pub fn delete(&mut self, path: &str, version: i32) -> Result<(), ZkError> {
        let request = Request::Delete(DeleteRequest { path: path.to_string(), version });
        typed::expect_delete(self.call(&request)?, path)
    }

    /// Lists the children of a znode.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::NoNode`] if the path does not exist.
    pub fn get_children(&mut self, path: &str, watch: bool) -> Result<Vec<String>, ZkError> {
        let request = Request::GetChildren(GetChildrenRequest { path: path.to_string(), watch });
        typed::expect_get_children(self.call(&request)?, path)
    }

    /// Checks whether a znode exists, returning its metadata if it does.
    ///
    /// # Errors
    ///
    /// Only connection-level failures produce errors; a missing node yields
    /// `Ok(None)`.
    pub fn exists(&mut self, path: &str, watch: bool) -> Result<Option<Stat>, ZkError> {
        let request = Request::Exists(ExistsRequest { path: path.to_string(), watch });
        typed::expect_exists(self.call(&request)?, path)
    }

    /// Asserts that a znode exists at the expected version (-1 checks
    /// existence only) without modifying anything; the check is ordered with
    /// the write history like any other write.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::NoNode`] or [`ZkError::BadVersion`].
    pub fn check(&mut self, path: &str, version: i32) -> Result<(), ZkError> {
        let request = Request::Check(CheckVersionRequest { path: path.to_string(), version });
        typed::expect_check(self.call(&request)?, path)
    }

    /// Executes `ops` as one atomic transaction and returns the
    /// per-sub-operation results; aborts are reported in-band (see
    /// [`MultiDispatch::multi`]). Prefer [`ZkTcpClient::txn`] for the
    /// fluent builder.
    ///
    /// # Errors
    ///
    /// Returns transport-plane failures (connection loss, session expiry,
    /// quorum loss).
    pub fn multi(&mut self, ops: Vec<Op>) -> Result<Vec<OpResult>, ZkError> {
        let count = ops.len();
        let request = Request::Multi(MultiRequest::new(ops));
        typed::expect_multi(self.call(&request)?, count)
    }

    /// Starts an atomic-transaction builder (see [`Txn`]).
    pub fn txn(&mut self) -> Txn<'_, Self> {
        MultiDispatch::txn(self)
    }

    /// Sends a keep-alive ping.
    ///
    /// # Errors
    ///
    /// Returns [`ZkError::SessionExpired`] when the session is gone.
    pub fn ping(&mut self) -> Result<(), ZkError> {
        typed::expect_ping(self.call(&Request::Ping)?)
    }

    /// Closes the session gracefully; the server removes its ephemeral znodes
    /// immediately instead of waiting for the session timeout.
    pub fn close(mut self) {
        let _ = self.call(&Request::CloseSession);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl MultiDispatch for ZkTcpClient {
    type Error = ZkError;

    fn multi(&mut self, ops: Vec<Op>) -> Result<Vec<OpResult>, ZkError> {
        ZkTcpClient::multi(self, ops)
    }
}

/// Reads the xid out of a reply header without consuming the frame.
fn peek_xid(frame: &[u8]) -> Result<i32, ZkError> {
    let prefix: [u8; 4] = frame
        .get(..4)
        .and_then(|slice| slice.try_into().ok())
        .ok_or_else(|| ZkError::Marshalling { reason: "reply frame shorter than an xid".into() })?;
    Ok(i32::from_be_bytes(prefix))
}

/// Reads the zxid out of a reply header without consuming the frame, so the
/// observation floor advances when the response arrives rather than when its
/// ticket is eventually redeemed.
fn peek_zxid(frame: &[u8]) -> Result<i64, ZkError> {
    let bytes: [u8; 8] =
        frame.get(4..12).and_then(|slice| slice.try_into().ok()).ok_or_else(|| {
            ZkError::Marshalling { reason: "reply frame shorter than its header".into() }
        })?;
    Ok(i64::from_be_bytes(bytes))
}

/// The error for redeeming a ticket the client no longer tracks.
fn unknown_ticket(ticket: Ticket) -> ZkError {
    ZkError::Marshalling {
        reason: format!(
            "ticket xid {} is neither in flight nor completed (already claimed, or issued \
             before a reconnect)",
            ticket.xid
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleConfig, ZkEnsembleServer};
    use crate::net::ZkTcpServer;
    use crate::server::ZkReplica;
    use crate::session::MonotonicClock;

    fn server() -> ZkTcpServer {
        let replica = Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())));
        ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback")
    }

    fn connect(server: &ZkTcpServer) -> ZkTcpClient {
        ZkTcpClient::connect(server.local_addr()).expect("connect")
    }

    /// Polls `condition` to a 5 s deadline.
    fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn typed_crud_cycle() {
        let server = server();
        let mut client = connect(&server);

        assert_eq!(
            client.create("/app", b"root".to_vec(), CreateMode::Persistent).unwrap(),
            "/app"
        );
        let (data, stat) = client.get_data("/app", false).unwrap();
        assert_eq!(data, b"root");
        assert_eq!(stat.version, 0);

        let stat = client.set_data("/app", b"v2".to_vec(), 0).unwrap();
        assert_eq!(stat.version, 1);
        assert!(matches!(
            client.set_data("/app", b"stale".to_vec(), 0),
            Err(ZkError::BadVersion { .. })
        ));
        assert!(client.exists("/app", false).unwrap().is_some());
        assert!(client.exists("/nope", false).unwrap().is_none());

        client.create("/app/a", vec![], CreateMode::Persistent).unwrap();
        client.create("/app/b", vec![], CreateMode::Persistent).unwrap();
        assert_eq!(client.get_children("/app", false).unwrap(), vec!["a", "b"]);

        client.delete("/app/a", -1).unwrap();
        assert_eq!(client.get_children("/app", false).unwrap(), vec!["b"]);
        assert!(matches!(client.get_data("/app/a", false), Err(ZkError::NoNode { .. })));
        client.ping().unwrap();
        client.close();
    }

    #[test]
    fn sequential_create_returns_generated_path() {
        let server = server();
        let mut client = connect(&server);
        client.create("/tasks", vec![], CreateMode::Persistent).unwrap();
        let first =
            client.create("/tasks/task-", vec![], CreateMode::PersistentSequential).unwrap();
        let second =
            client.create("/tasks/task-", vec![], CreateMode::PersistentSequential).unwrap();
        assert_eq!(first, "/tasks/task-0000000000");
        assert_eq!(second, "/tasks/task-0000000001");
    }

    #[test]
    fn watches_are_delivered_through_the_client() {
        let server = server();
        let mut watcher = connect(&server);
        let mut writer = connect(&server);
        watcher.create("/watched", b"v1".to_vec(), CreateMode::Persistent).unwrap();
        watcher.get_data("/watched", true).unwrap();
        writer.set_data("/watched", b"v2".to_vec(), -1).unwrap();
        let events = watcher.poll_events(Duration::from_secs(5)).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, WatchEventKind::NodeDataChanged);
        assert_eq!(events[0].path, "/watched");
    }

    #[test]
    fn ephemeral_nodes_vanish_when_the_client_closes() {
        let server = server();
        let mut member = connect(&server);
        let mut observer = connect(&server);
        observer.create("/group", vec![], CreateMode::Persistent).unwrap();
        member.create("/group/member-1", vec![], CreateMode::Ephemeral).unwrap();
        assert_eq!(observer.get_children("/group", false).unwrap().len(), 1);
        // The close is acknowledged before its ephemeral cleanup commits.
        member.close();
        wait_until("ephemeral cleanup", || {
            observer.get_children("/group", false).unwrap().is_empty()
        });
    }

    #[test]
    fn client_reconnects_after_replica_crash() {
        let config = EnsembleConfig {
            heartbeat_interval: Duration::from_millis(20),
            election_timeout: Duration::from_millis(150),
            election_vote_window: Duration::from_millis(80),
            poll_interval: Duration::from_millis(5),
            ..EnsembleConfig::default()
        };
        let mut servers = ZkEnsembleServer::start_local_ensemble(3, &config, |id| {
            Arc::new(ZkReplica::new(id).with_clock(Arc::new(MonotonicClock::new())))
        })
        .expect("bind loopback ensemble");
        let follower = servers.iter().position(|s| !s.is_leader()).expect("a follower");
        let leader_addr = servers.iter().find(|s| s.is_leader()).expect("a leader").client_addr();
        let mut client = ZkTcpClient::connect(servers[follower].client_addr()).unwrap();
        client.create("/persistent", vec![], CreateMode::Persistent).unwrap();

        servers.remove(follower).shutdown();
        assert!(client.get_data("/persistent", false).is_err());
        client.reconnect_to(leader_addr).unwrap();
        assert!(client.get_data("/persistent", false).is_ok());
    }

    #[test]
    fn duplicate_create_reports_node_exists() {
        let server = server();
        let mut client = connect(&server);
        client.create("/dup", vec![], CreateMode::Persistent).unwrap();
        assert!(matches!(
            client.create("/dup", vec![], CreateMode::Persistent),
            Err(ZkError::NodeExists { .. })
        ));
    }
}
