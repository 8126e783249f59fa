//! Always-on request tracing with a lock-free flight recorder.
//!
//! Every request entering the system can carry a [`TraceContext`] (minted
//! by the client, propagated on the wire by
//! [`jute::trace_envelope`]); each pipeline stage that touches the
//! request records a timestamped span into a **per-thread ring buffer**
//! — the flight recorder. Recording a span is a handful of relaxed
//! atomic stores into a pre-allocated slot: no locks, no allocation, no
//! syscalls on the hot path, which is what lets the recorder stay
//! enabled in production (the `perf` harness reports the cost as
//! `perf.tracing_overhead_pct`; it stays below 2% of throughput).
//!
//! # Span taxonomy
//!
//! | stage | tier | meaning |
//! |---|---|---|
//! | `client_call` | client | submit → reply, the whole round trip |
//! | `gw_route` | gateway | routing decision + forward to the shard |
//! | `open` | member (enclave) | entry-enclave decrypt of the request |
//! | `queue_wait` | member | time parked in the single-writer queue |
//! | `propose` | member (leader) | ZAB proposal broadcast |
//! | `quorum_ack` | member (leader) | proposal → quorum acknowledgement |
//! | `wal_fsync` | member | group-commit fsync batch the write rode |
//! | `apply` | member | transaction applied to the data tree |
//! | `seal` | member (enclave) | entry-enclave encrypt of the response |
//! | `reply_flush` | member | response serialization + socket write |
//!
//! # Trust model
//!
//! The trace plane lives entirely **outside the TCB**, like the routing
//! gateway: the envelope is prepended outside the transport cipher, and
//! spans never carry plaintext paths — path-bearing spans store only a
//! 64-bit FNV hash of the (ciphertext) path via [`path_hash`].
//!
//! # Export
//!
//! [`export_json_lines`] renders one JSON object per trace: every trace
//! with the sampled flag, plus any trace — sampled or not — whose
//! end-to-end duration exceeds the [slow threshold](set_slow_threshold_ns).
//! Traces missing their `client_call` root (the client died, reconnected
//! mid-flight, or lives in another process) are flagged `"orphan": true`
//! rather than dropped. The recorder is per-process: a member, a gateway
//! and a client each export the spans *they* recorded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

pub use jute::trace_envelope::TraceContext;

/// Slots per thread-local ring. Power of two; the ring wraps, keeping
/// the most recent spans recorded by that thread.
const RING_SLOTS: usize = 1024;

/// Spans preserved from exited threads (clients, short-lived workers).
const GRAVEYARD_CAP: usize = 16 * 1024;

/// Most recent traces included in one export, newest last.
const MAX_EXPORT_TRACES: usize = 512;

// ---------------------------------------------------------------------------
// Stage taxonomy
// ---------------------------------------------------------------------------

/// Named pipeline stages a span can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Client-side round trip: submit → reply received.
    ClientCall = 0,
    /// Gateway routing decision and forward to the owning shard.
    GwRoute = 1,
    /// Entry-enclave decrypt of the inbound request.
    Open = 2,
    /// Time parked in the member's single-writer queue.
    QueueWait = 3,
    /// ZAB proposal broadcast by the leader.
    Propose = 4,
    /// Proposal broadcast → quorum acknowledgement.
    QuorumAck = 5,
    /// Group-commit WAL fsync batch the write rode to disk.
    WalFsync = 6,
    /// Committed transaction applied to the data tree.
    Apply = 7,
    /// Entry-enclave encrypt of the outbound response.
    Seal = 8,
    /// Response serialization and socket write.
    ReplyFlush = 9,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 10] = [
        Stage::ClientCall,
        Stage::GwRoute,
        Stage::Open,
        Stage::QueueWait,
        Stage::Propose,
        Stage::QuorumAck,
        Stage::WalFsync,
        Stage::Apply,
        Stage::Seal,
        Stage::ReplyFlush,
    ];

    /// The stage's stable snake_case name, as exported and as used in
    /// the `stage` label of `zk_stage_duration_seconds`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::ClientCall => "client_call",
            Stage::GwRoute => "gw_route",
            Stage::Open => "open",
            Stage::QueueWait => "queue_wait",
            Stage::Propose => "propose",
            Stage::QuorumAck => "quorum_ack",
            Stage::WalFsync => "wal_fsync",
            Stage::Apply => "apply",
            Stage::Seal => "seal",
            Stage::ReplyFlush => "reply_flush",
        }
    }

    fn from_u8(value: u8) -> Option<Stage> {
        Stage::ALL.into_iter().find(|stage| *stage as u8 == value)
    }
}

// ---------------------------------------------------------------------------
// Clock and ids
// ---------------------------------------------------------------------------

fn clock_base() -> &'static (Instant, u64) {
    static BASE: OnceLock<(Instant, u64)> = OnceLock::new();
    BASE.get_or_init(|| {
        let unix_ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        (Instant::now(), unix_ns)
    })
}

/// Nanoseconds since the Unix epoch on a hybrid clock: one wall-clock
/// reading at first use, advanced by a monotonic [`Instant`] thereafter —
/// so timestamps are comparable across processes (to wall-clock accuracy)
/// and strictly monotone within one.
pub fn now_ns() -> u64 {
    let (instant, unix_ns) = clock_base();
    unix_ns.wrapping_add(instant.elapsed().as_nanos() as u64)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mints a process-unique, non-zero 64-bit id for a trace or span.
pub fn new_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let tick = COUNTER.fetch_add(1, Ordering::Relaxed);
    let seed = clock_base().1 ^ (tick << 1);
    let id = splitmix64(seed.wrapping_add(tick));
    if id == 0 {
        1
    } else {
        id
    }
}

/// 64-bit FNV-1a hash of a path. Spans never carry path bytes — only
/// this hash, computed over whatever representation crossed the wire
/// (ciphertext in secure deployments), keeping the trace plane outside
/// the TCB.
pub fn path_hash(path: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in path.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Runtime knobs
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(true);
/// Default slow-trace export threshold: 50 ms end-to-end.
const DEFAULT_SLOW_THRESHOLD_NS: u64 = 50_000_000;
static SLOW_THRESHOLD_NS: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS);

/// Turns the recorder on or off process-wide. Off, [`record`] is a
/// single relaxed load — the knob the `perf` harness flips per slice to
/// measure the recorder's own cost (`perf.tracing_overhead_pct`).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the recorder is currently accepting spans.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the slow-trace threshold: any trace whose end-to-end duration
/// meets or exceeds it is exported even when not sampled.
pub fn set_slow_threshold_ns(threshold_ns: u64) {
    SLOW_THRESHOLD_NS.store(threshold_ns, Ordering::Relaxed);
}

/// The current slow-trace export threshold in nanoseconds.
pub fn slow_threshold_ns() -> u64 {
    SLOW_THRESHOLD_NS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Thread-local current context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Installs `ctx` as this thread's ambient trace context, so deep layers
/// (the WAL fsync, the ZAB proposer, the enclave) can attribute spans
/// without threading a context parameter through every signature.
pub fn set_current(ctx: Option<TraceContext>) {
    CURRENT.with(|cell| cell.set(ctx));
}

/// This thread's ambient trace context, if a traced request is in flight.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One recorded span, as read back out of the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// The span's own id — non-zero only for spans that become parents
    /// across a hop (`client_call`, `gw_route`); leaf spans use 0.
    pub span_id: u64,
    /// Id of the parent span (0 for the trace root).
    pub parent_span_id: u64,
    /// Pipeline stage this span measures.
    pub stage: Stage,
    /// Propagated flag bits (bit 0 = sampled).
    pub flags: u8,
    /// Span start, [`now_ns`] clock.
    pub start_ns: u64,
    /// Span end, [`now_ns`] clock.
    pub end_ns: u64,
    /// Stage-specific detail: a [`path_hash`], shard index, zxid — never
    /// plaintext.
    pub detail: u64,
}

/// A slot is valid when `seq` is non-zero and even; writers bump it odd,
/// store the fields, then bump it even (seqlock), so a torn concurrent
/// read is detected and retried or skipped by the exporter.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    detail: AtomicU64,
    meta: AtomicU64,
}

impl Slot {
    fn write(&self, record: &SpanRecord) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Release);
        self.trace_id.store(record.trace_id, Ordering::Relaxed);
        self.span_id.store(record.span_id, Ordering::Relaxed);
        self.parent_span_id.store(record.parent_span_id, Ordering::Relaxed);
        self.start_ns.store(record.start_ns, Ordering::Relaxed);
        self.end_ns.store(record.end_ns, Ordering::Relaxed);
        self.detail.store(record.detail, Ordering::Relaxed);
        self.meta.store(
            u64::from(record.stage as u8) | (u64::from(record.flags) << 8),
            Ordering::Relaxed,
        );
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    fn read(&self) -> Option<SpanRecord> {
        for _ in 0..4 {
            let before = self.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                return None;
            }
            let record = SpanRecord {
                trace_id: self.trace_id.load(Ordering::Relaxed),
                span_id: self.span_id.load(Ordering::Relaxed),
                parent_span_id: self.parent_span_id.load(Ordering::Relaxed),
                start_ns: self.start_ns.load(Ordering::Relaxed),
                end_ns: self.end_ns.load(Ordering::Relaxed),
                detail: self.detail.load(Ordering::Relaxed),
                stage: Stage::ClientCall,
                flags: 0,
            };
            let meta = self.meta.load(Ordering::Relaxed);
            let after = self.seq.load(Ordering::Acquire);
            if before == after {
                let stage = Stage::from_u8((meta & 0xFF) as u8)?;
                return Some(SpanRecord { stage, flags: ((meta >> 8) & 0xFF) as u8, ..record });
            }
        }
        None
    }
}

struct ThreadRing {
    head: AtomicUsize,
    slots: Vec<Slot>,
}

impl ThreadRing {
    fn new() -> ThreadRing {
        ThreadRing {
            head: AtomicUsize::new(0),
            slots: (0..RING_SLOTS).map(|_| Slot::default()).collect(),
        }
    }

    fn push(&self, record: &SpanRecord) {
        let index = self.head.fetch_add(1, Ordering::Relaxed) % RING_SLOTS;
        self.slots[index].write(record);
    }

    fn drain_valid(&self) -> Vec<SpanRecord> {
        self.slots.iter().filter_map(Slot::read).collect()
    }

    fn clear(&self) {
        for slot in &self.slots {
            slot.seq.store(0, Ordering::Release);
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

struct Recorder {
    rings: Mutex<Vec<Weak<ThreadRing>>>,
    graveyard: Mutex<Vec<SpanRecord>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        rings: Mutex::new(Vec::new()),
        graveyard: Mutex::new(Vec::new()),
    })
}

/// Keeps the ring registered while the thread lives; on thread exit the
/// ring's surviving spans are folded into the bounded graveyard so a
/// short-lived thread's spans still export.
struct RingHandle(Arc<ThreadRing>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        let spans = self.0.drain_valid();
        let recorder = recorder();
        if !spans.is_empty() {
            let mut graveyard = recorder.graveyard.lock().unwrap_or_else(|e| e.into_inner());
            graveyard.extend(spans);
            if graveyard.len() > GRAVEYARD_CAP {
                let excess = graveyard.len() - GRAVEYARD_CAP;
                graveyard.drain(..excess);
            }
        }
        let mut rings = recorder.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.retain(|ring| ring.strong_count() > 0);
    }
}

thread_local! {
    static RING: RingHandle = {
        let ring = Arc::new(ThreadRing::new());
        let recorder = recorder();
        recorder
            .rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::downgrade(&ring));
        RingHandle(ring)
    };
}

/// Records one finished span into this thread's flight-recorder ring.
/// Zero allocation, zero locking; a no-op while the recorder is
/// [disabled](set_enabled).
pub fn record(record: SpanRecord) {
    if !enabled() || record.trace_id == 0 {
        return;
    }
    RING.with(|handle| handle.0.push(&record));
}

/// Records a leaf span (own span id 0) under `ctx` for `stage`, ending
/// now.
pub fn record_leaf(stage: Stage, ctx: &TraceContext, start_ns: u64, detail: u64) {
    record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: 0,
        parent_span_id: ctx.span_id,
        stage,
        flags: ctx.flags,
        start_ns,
        end_ns: now_ns(),
        detail,
    });
}

/// Records a leaf span under the thread's [ambient context](current),
/// if any — the deep-layer (`wal_fsync`, `propose`, enclave) entry point.
pub fn record_current(stage: Stage, start_ns: u64, detail: u64) {
    if let Some(ctx) = current() {
        record_leaf(stage, &ctx, start_ns, detail);
    }
}

/// Snapshots every span currently held by the recorder: all live
/// per-thread rings plus spans preserved from exited threads.
pub fn snapshot() -> Vec<SpanRecord> {
    let recorder = recorder();
    let rings: Vec<Arc<ThreadRing>> = {
        let guard = recorder.rings.lock().unwrap_or_else(|e| e.into_inner());
        guard.iter().filter_map(Weak::upgrade).collect()
    };
    let mut spans: Vec<SpanRecord> =
        recorder.graveyard.lock().unwrap_or_else(|e| e.into_inner()).clone();
    for ring in rings {
        spans.extend(ring.drain_valid());
    }
    spans
}

/// All recorded spans of one trace, sorted by start time.
pub fn spans_for(trace_id: u64) -> Vec<SpanRecord> {
    let mut spans: Vec<SpanRecord> =
        snapshot().into_iter().filter(|span| span.trace_id == trace_id).collect();
    spans.sort_by_key(|span| (span.start_ns, span.stage as u8));
    spans
}

/// Empties the recorder (all rings and the graveyard). Test scaffolding;
/// concurrent writers may land spans immediately after.
pub fn clear() {
    let recorder = recorder();
    let rings: Vec<Arc<ThreadRing>> = {
        let guard = recorder.rings.lock().unwrap_or_else(|e| e.into_inner());
        guard.iter().filter_map(Weak::upgrade).collect()
    };
    for ring in rings {
        ring.clear();
    }
    recorder.graveyard.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

/// One assembled trace, as exported.
#[derive(Debug, Clone)]
pub struct TraceView {
    /// The trace id shared by every span below.
    pub trace_id: u64,
    /// True when no `client_call` root was recorded in this process —
    /// the client lives elsewhere, died, or re-attached mid-flight.
    pub orphan: bool,
    /// Earliest span start → latest span end.
    pub duration_ns: u64,
    /// The trace's spans, sorted by start time.
    pub spans: Vec<SpanRecord>,
}

/// Assembles every exportable trace: all sampled traces plus any trace
/// whose duration meets the [slow threshold](set_slow_threshold_ns),
/// newest last, capped at the most recent 512.
pub fn collect_traces() -> Vec<TraceView> {
    let threshold = slow_threshold_ns();
    let mut grouped: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for span in snapshot() {
        grouped.entry(span.trace_id).or_default().push(span);
    }
    let mut traces: Vec<TraceView> = grouped
        .into_iter()
        .filter_map(|(trace_id, mut spans)| {
            spans.sort_by_key(|span| (span.start_ns, span.stage as u8));
            let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
            let duration_ns = end.saturating_sub(start);
            let sampled = spans.iter().any(|s| s.flags & TraceContext::FLAG_SAMPLED != 0);
            if !sampled && duration_ns < threshold {
                return None;
            }
            let orphan = !spans.iter().any(|s| s.stage == Stage::ClientCall);
            Some(TraceView { trace_id, orphan, duration_ns, spans })
        })
        .collect();
    traces.sort_by_key(|trace| trace.spans.first().map(|s| s.start_ns).unwrap_or(0));
    if traces.len() > MAX_EXPORT_TRACES {
        let excess = traces.len() - MAX_EXPORT_TRACES;
        traces.drain(..excess);
    }
    traces
}

/// Renders every exportable trace as JSON lines — one self-contained
/// JSON object per line, the payload of `GET /trace` and the `trcx`
/// admin word.
pub fn export_json_lines() -> String {
    let mut out = String::new();
    for trace in collect_traces() {
        let _ = write!(
            out,
            "{{\"trace_id\":\"{:016x}\",\"orphan\":{},\"duration_ns\":{},\"spans\":[",
            trace.trace_id, trace.orphan, trace.duration_ns
        );
        for (index, span) in trace.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"span_id\":\"{:016x}\",\"parent_span_id\":\"{:016x}\",\
                 \"start_ns\":{},\"end_ns\":{},\"sampled\":{},\"detail\":\"{:016x}\"}}",
                span.stage.name(),
                span.span_id,
                span.parent_span_id,
                span.start_ns,
                span.end_ns,
                span.flags & TraceContext::FLAG_SAMPLED != 0,
                span.detail,
            );
        }
        out.push_str("]}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that record spans: the recorder (and its
    /// enabled flag) is process-global, so a test flipping the kill
    /// switch must not overlap one asserting its spans landed.
    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sampled_ctx() -> TraceContext {
        TraceContext { trace_id: new_id(), span_id: new_id(), flags: TraceContext::FLAG_SAMPLED }
    }

    #[test]
    fn clock_is_monotone() {
        let mut last = now_ns();
        for _ in 0..1000 {
            let now = now_ns();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let ids: std::collections::HashSet<u64> = (0..10_000).map(|_| new_id()).collect();
        assert_eq!(ids.len(), 10_000);
        assert!(!ids.contains(&0));
    }

    #[test]
    fn recorded_spans_come_back_in_snapshots() {
        let _guard = test_guard();
        let ctx = sampled_ctx();
        let start = now_ns();
        record_leaf(Stage::Propose, &ctx, start, 7);
        let spans = spans_for(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].stage, Stage::Propose);
        assert_eq!(spans[0].parent_span_id, ctx.span_id);
        assert_eq!(spans[0].detail, 7);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn disabled_recorder_drops_spans() {
        let _guard = test_guard();
        let ctx = sampled_ctx();
        set_enabled(false);
        record_leaf(Stage::Apply, &ctx, now_ns(), 0);
        set_enabled(true);
        assert!(spans_for(ctx.trace_id).is_empty());
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent_spans() {
        let _guard = test_guard();
        let ctx = sampled_ctx();
        for i in 0..(RING_SLOTS as u64 + 64) {
            record_leaf(Stage::Apply, &ctx, now_ns(), i);
        }
        let spans = spans_for(ctx.trace_id);
        assert!(spans.len() <= RING_SLOTS);
        // The newest span survived the wrap.
        assert!(spans.iter().any(|span| span.detail == RING_SLOTS as u64 + 63));
        // The oldest was overwritten.
        assert!(!spans.iter().any(|span| span.detail == 0));
    }

    #[test]
    fn orphan_traces_are_flagged_not_dropped() {
        let _guard = test_guard();
        let ctx = sampled_ctx();
        record_leaf(Stage::QueueWait, &ctx, now_ns(), 0);
        record_leaf(Stage::Apply, &ctx, now_ns(), 0);
        let trace = collect_traces()
            .into_iter()
            .find(|trace| trace.trace_id == ctx.trace_id)
            .expect("orphan trace exported");
        assert!(trace.orphan);

        let rooted = sampled_ctx();
        record(SpanRecord {
            trace_id: rooted.trace_id,
            span_id: rooted.span_id,
            parent_span_id: 0,
            stage: Stage::ClientCall,
            flags: rooted.flags,
            start_ns: now_ns(),
            end_ns: now_ns(),
            detail: 0,
        });
        let trace = collect_traces()
            .into_iter()
            .find(|trace| trace.trace_id == rooted.trace_id)
            .expect("rooted trace exported");
        assert!(!trace.orphan);
    }

    #[test]
    fn unsampled_traces_export_only_past_the_slow_threshold() {
        let _guard = test_guard();
        let quick = TraceContext { trace_id: new_id(), span_id: new_id(), flags: 0 };
        let start = now_ns();
        record(SpanRecord {
            trace_id: quick.trace_id,
            span_id: 0,
            parent_span_id: quick.span_id,
            stage: Stage::Apply,
            flags: 0,
            start_ns: start,
            end_ns: start + 1_000,
            detail: 0,
        });
        assert!(
            !collect_traces().iter().any(|trace| trace.trace_id == quick.trace_id),
            "a fast unsampled trace must not export"
        );

        let slow = TraceContext { trace_id: new_id(), span_id: new_id(), flags: 0 };
        record(SpanRecord {
            trace_id: slow.trace_id,
            span_id: 0,
            parent_span_id: slow.span_id,
            stage: Stage::Apply,
            flags: 0,
            start_ns: start,
            end_ns: start + slow_threshold_ns() + 1,
            detail: 0,
        });
        assert!(
            collect_traces().iter().any(|trace| trace.trace_id == slow.trace_id),
            "a slow unsampled trace must export"
        );
    }

    #[test]
    fn json_export_is_one_object_per_line_with_sorted_spans() {
        let _guard = test_guard();
        let ctx = sampled_ctx();
        let base = now_ns();
        record_leaf(Stage::Apply, &ctx, base + 500, 0);
        record(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: 0,
            stage: Stage::ClientCall,
            flags: ctx.flags,
            start_ns: base,
            end_ns: now_ns(),
            detail: 0,
        });
        let rendered = export_json_lines();
        let line = rendered
            .lines()
            .find(|line| line.contains(&format!("{:016x}", ctx.trace_id)))
            .expect("trace exported");
        assert!(line.starts_with('{') && line.ends_with('}'));
        let client = line.find("client_call").expect("root span present");
        let apply = line.find("\"apply\"").expect("apply span present");
        assert!(client < apply, "spans sorted by start time");
        assert!(line.contains("\"orphan\":false"));
    }

    #[test]
    fn spans_survive_thread_exit_via_the_graveyard() {
        let _guard = test_guard();
        let ctx = sampled_ctx();
        let handle = std::thread::spawn(move || {
            record_leaf(Stage::WalFsync, &ctx, now_ns(), 3);
        });
        handle.join().expect("worker thread");
        let spans = spans_for(ctx.trace_id);
        assert_eq!(spans.len(), 1, "exited thread's span must survive");
        assert_eq!(spans[0].stage, Stage::WalFsync);
    }

    #[test]
    fn ambient_context_round_trips() {
        let _guard = test_guard();
        assert!(current().is_none());
        let ctx = sampled_ctx();
        set_current(Some(ctx));
        assert_eq!(current(), Some(ctx));
        let start = now_ns();
        record_current(Stage::WalFsync, start, 0);
        set_current(None);
        assert!(current().is_none());
        record_current(Stage::WalFsync, start, 0);
        assert_eq!(spans_for(ctx.trace_id).len(), 1, "no ambient ctx, no span");
    }

    #[test]
    fn path_hash_is_stable_and_spreads() {
        assert_eq!(path_hash("/app/orders"), path_hash("/app/orders"));
        assert_ne!(path_hash("/app/orders"), path_hash("/app/order"));
        assert_ne!(path_hash("/a"), path_hash("/b"));
    }
}
