//! End-to-end trace-propagation tests: a traced write crossing the real
//! TCP stack must come back out of the flight recorder as one coherent
//! span tree, and the trace plane must keep working across the failure
//! modes that break naive correlation (client reconnect, leader failover).
//! CI runs this file in the `trace-e2e` job.
//!
//! Everything here runs client and server in one process, so the global
//! flight recorder holds both sides' spans and `trace::spans_for` sees
//! the whole tree. Cross-process assembly (each process exports its own
//! spans, joined by trace id) is exercised by the export assertions:
//! `/trace` and `trcx` render exactly what a per-process collector would
//! ship.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jute::records::{CreateMode, CreateRequest};
use jute::Request;
use opsplane::http::http_get;
use opsplane::words::send_word;
use trace::Stage;
use zab::{NodeId, TcpNetwork};
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::persist::{PersistConfig, ReplicaPersistence};
use zkserver::ZkReplica;

/// Aggressive timers so elections and drains complete fast.
fn test_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(5),
        ops_addr: Some("127.0.0.1:0".parse().expect("loopback addr")),
        ..EnsembleConfig::default()
    }
}

/// A durable single-member ensemble over a fresh temp data dir — the
/// smallest deployment whose traces carry a real `wal_fsync` span.
struct DurableMember {
    server: Option<ZkEnsembleServer>,
    data_dir: PathBuf,
}

impl DurableMember {
    fn start() -> DurableMember {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let data_dir =
            std::env::temp_dir().join(format!("zk-trace-e2e-{}-{seq}", std::process::id()));
        let transport = TcpNetwork::bind(NodeId(1), "127.0.0.1:0").expect("bind peer transport");
        let peer_addrs: HashMap<NodeId, SocketAddr> =
            HashMap::from([(NodeId(1), transport.local_addr())]);
        let persistence =
            ReplicaPersistence::open(&data_dir, PersistConfig::default()).expect("open data dir");
        let server = ZkEnsembleServer::start_custom(
            Arc::new(transport),
            peer_addrs,
            "127.0.0.1:0",
            Arc::new(ZkReplica::new(1)),
            test_config(),
            Some(persistence),
        )
        .expect("start durable member");
        DurableMember { server: Some(server), data_dir }
    }

    fn server(&self) -> &ZkEnsembleServer {
        self.server.as_ref().expect("member running")
    }
}

impl Drop for DurableMember {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `zk_stage_duration_seconds_count{stage=…}` as scraped from `/metrics`.
fn stage_count(ops: SocketAddr, stage: &str) -> f64 {
    let (code, text) = http_get(ops, "/metrics").expect("scrape");
    assert_eq!(code, 200);
    let needle = format!("zk_stage_duration_seconds_count{{stage=\"{stage}\"}}");
    let line = text
        .lines()
        .find(|line| line.starts_with(&needle))
        .unwrap_or_else(|| panic!("{needle} missing from /metrics"));
    line[needle.len()..].trim().parse().expect("sample value")
}

/// The distinct stage names recorded for one trace.
fn stage_names(trace_id: u64) -> BTreeSet<&'static str> {
    trace::spans_for(trace_id).iter().map(|span| span.stage.name()).collect()
}

/// One traced write, retried until its trace carries every `expected`
/// stage. The retry absorbs the group-commit race: the driver thread may
/// fsync a write's WAL entry microseconds before the writer thread
/// reaches its own sync barrier, in which case that one trace legitimately
/// has no `wal_fsync` span (the batch it rode was attributed elsewhere).
fn traced_create_with_stages(
    client: &mut ZkTcpClient,
    prefix: &str,
    expected: &BTreeSet<&'static str>,
) -> u64 {
    let mut last: BTreeSet<&'static str> = BTreeSet::new();
    for attempt in 0..20 {
        client
            .create(&format!("{prefix}{attempt}"), b"traced".to_vec(), CreateMode::Persistent)
            .expect("traced create");
        let trace_id = client.last_trace_id();
        // Spans recorded by other threads (apply on the driver, the WAL
        // fsync) land within the write's synchronous window, but give the
        // recorder a beat for cross-thread visibility.
        for _ in 0..50 {
            last = stage_names(trace_id);
            if expected.is_subset(&last) {
                return trace_id;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    panic!("no trace carried all of {expected:?} after 20 writes; last saw {last:?}");
}

#[test]
fn plain_write_trace_spans_the_whole_durable_pipeline() {
    let member = DurableMember::start();
    let mut client = ZkTcpClient::connect(member.server().client_addr()).expect("connect");

    // The full plain-wire span set: no gateway hop (no `gw_route`) and a
    // passthrough pipeline (no enclave `open`/`seal` spans — their
    // histogram series still exist, near zero).
    let expected: BTreeSet<&'static str> =
        ["client_call", "queue_wait", "propose", "quorum_ack", "wal_fsync", "apply", "reply_flush"]
            .into_iter()
            .collect();
    let trace_id = traced_create_with_stages(&mut client, "/traced", &expected);
    let spans = trace::spans_for(trace_id);

    // One coherent tree: the client_call root parents every server-side
    // leaf, and nothing in the trace dangles off an unknown span.
    let root = spans
        .iter()
        .find(|span| span.stage == Stage::ClientCall)
        .expect("client_call root recorded");
    assert_eq!(root.parent_span_id, 0, "the root has no parent");
    assert_ne!(root.span_id, 0, "the root is a parent across the wire hop");
    for span in &spans {
        if span.stage != Stage::ClientCall {
            assert_eq!(
                span.parent_span_id,
                root.span_id,
                "{} span must hang off the client_call root",
                span.stage.name()
            );
            assert_eq!(span.span_id, 0, "server leaves are not parents");
        }
        assert!(span.end_ns >= span.start_ns, "{} runs backwards", span.stage.name());
        // Starts are provably inside the root window (the server cannot
        // see the frame before submit, nor after the reply). Ends are not:
        // the server's reply_flush end is clocked after its socket write,
        // which the client thread can beat by recording its own end first.
        assert!(
            span.start_ns >= root.start_ns && span.start_ns <= root.end_ns,
            "{} start {} escapes the client_call window [{}, {}]",
            span.stage.name(),
            span.start_ns,
            root.start_ns,
            root.end_ns
        );
    }
    // The root's detail is the path hash — never the path itself.
    let created: Vec<&trace::SpanRecord> =
        spans.iter().filter(|span| span.stage == Stage::ClientCall).collect();
    assert_eq!(created.len(), 1);
    assert_ne!(created[0].detail, 0, "client_call carries the path hash");

    // Monotone pipeline order along the single-member write path.
    let start_of = |stage: Stage| {
        spans.iter().find(|span| span.stage == stage).map(|span| span.start_ns).unwrap()
    };
    assert!(start_of(Stage::ClientCall) <= start_of(Stage::QueueWait));
    assert!(start_of(Stage::QueueWait) <= start_of(Stage::QuorumAck));
    assert!(start_of(Stage::QuorumAck) <= start_of(Stage::Propose));
    assert!(start_of(Stage::Propose) <= start_of(Stage::Apply));
    assert!(start_of(Stage::Apply) <= start_of(Stage::ReplyFlush));

    // The same stages feed the per-stage histograms, traced or not.
    let ops = member.server().ops_addr().expect("ops endpoint configured");
    for stage in ["queue_wait", "propose", "quorum_ack", "wal_fsync", "apply", "reply_flush"] {
        assert!(stage_count(ops, stage) >= 1.0, "stage {stage} never observed");
    }

    // The trace exports through both ops surfaces, assembled and rooted.
    let hex = format!("{trace_id:016x}");
    let (code, body) = http_get(ops, "/trace").expect("GET /trace");
    assert_eq!(code, 200);
    let line = body
        .lines()
        .find(|line| line.contains(&hex))
        .unwrap_or_else(|| panic!("trace {hex} missing from /trace:\n{body}"));
    assert!(line.contains("\"orphan\":false"), "{line}");
    for stage in &expected {
        assert!(line.contains(&format!("\"stage\":\"{stage}\"")), "{stage} missing: {line}");
    }
    let words = send_word(member.server().client_addr(), "trcx").expect("trcx word");
    assert!(words.lines().any(|line| line.contains(&hex)), "trace {hex} missing from trcx");

    client.close();
}

#[test]
fn unsampled_traces_stay_out_of_the_export_but_in_the_histograms() {
    let member = DurableMember::start();
    // Push the slow threshold out of reach so a loaded CI host's fsync
    // stall cannot promote the unsampled probe into the export. Every
    // other test's trace is sampled, so this process-global knob is inert
    // for them.
    trace::set_slow_threshold_ns(30_000_000_000);
    let mut client = ZkTcpClient::connect(member.server().client_addr()).expect("connect");
    // Sample 1-in-1000000: these writes' traces are recorded (and would
    // export if slow) but do not qualify as sampled...
    client.sample_one_in(1_000_000);
    client.create("/unsampled-probe", b"v".to_vec(), CreateMode::Persistent).expect("create");
    // ...except the very first tick, which sampling always takes. Use the
    // second write as the unsampled probe.
    client.set_data("/unsampled-probe", b"w".to_vec(), -1).expect("set");
    let unsampled = client.last_trace_id();
    wait_until("spans recorded", || !trace::spans_for(unsampled).is_empty());

    let ops = member.server().ops_addr().expect("ops endpoint");
    let (_, body) = http_get(ops, "/trace").expect("GET /trace");
    let hex = format!("{unsampled:016x}");
    assert!(
        !body.lines().any(|line| line.contains(&hex)),
        "fast unsampled trace {hex} must not export"
    );
    // The recorder still has it (it would export past the slow threshold),
    // and the histograms counted it regardless of sampling.
    assert!(!trace::spans_for(unsampled).is_empty());
    client.close();
}

#[test]
fn reconnect_orphans_inflight_traces_and_new_traces_complete() {
    let servers = ZkEnsembleServer::start_local_ensemble(1, &test_config(), |id| {
        Arc::new(ZkReplica::new(id))
    })
    .expect("bind single member");
    let addr = servers[0].client_addr();
    let mut client = ZkTcpClient::connect(addr).expect("connect");

    // Submit a write and abandon it: reconnect before redeeming the
    // ticket. The server still commits it and records its spans, but the
    // reply never reaches the old socket, so no client_call root exists.
    let request = Request::Create(CreateRequest {
        path: "/orphaned".into(),
        data: b"v".to_vec(),
        mode: CreateMode::Persistent,
    });
    let _ticket = client.submit(&request).expect("submit");
    let orphan_trace = client.last_trace_id();
    client.reconnect_to(addr).expect("re-attach");

    // The abandoned write's server-side spans surface as an orphan trace —
    // flagged, not silently dropped.
    wait_until("orphaned write applied", || {
        trace::spans_for(orphan_trace).iter().any(|span| span.stage == Stage::Apply)
    });
    let spans = trace::spans_for(orphan_trace);
    assert!(
        !spans.iter().any(|span| span.stage == Stage::ClientCall),
        "the reply never arrived, so no client_call root may exist"
    );
    let view = trace::collect_traces()
        .into_iter()
        .find(|view| view.trace_id == orphan_trace)
        .expect("orphan trace still exports");
    assert!(view.orphan, "rootless trace must be flagged orphan");

    // The re-attached session traces cleanly: a fresh write gets a fresh
    // trace id and a complete, rooted span tree through the same pipeline.
    client.create("/after-reconnect", b"v".to_vec(), CreateMode::Persistent).expect("create");
    let fresh = client.last_trace_id();
    assert_ne!(fresh, orphan_trace, "each request mints its own trace id");
    wait_until("fresh trace rooted", || {
        let names = stage_names(fresh);
        ["client_call", "queue_wait", "propose", "quorum_ack", "apply", "reply_flush"]
            .iter()
            .all(|stage| names.contains(stage))
    });
    let view = trace::collect_traces()
        .into_iter()
        .find(|view| view.trace_id == fresh)
        .expect("fresh trace exports");
    assert!(!view.orphan);
    client.close();
}

#[test]
fn traces_survive_leader_failover() {
    let mut servers = ZkEnsembleServer::start_local_ensemble(3, &test_config(), |id| {
        Arc::new(ZkReplica::new(id))
    })
    .expect("bind loopback ensemble");
    assert!(servers[0].is_leader());
    let mut client = ZkTcpClient::connect(servers[0].client_addr()).expect("connect leader");

    // Baseline: a traced write against the healthy leader. In-memory
    // members have no WAL, so the durable stage is legitimately absent.
    let expected: BTreeSet<&'static str> =
        ["client_call", "queue_wait", "propose", "quorum_ack", "apply", "reply_flush"]
            .into_iter()
            .collect();
    let before = traced_create_with_stages(&mut client, "/pre-failover", &expected);

    // A write submitted to a follower is forwarded; the leader proposes it
    // and its `propose` histogram must see it like a leader-local write.
    let leader_ops = servers[0].ops_addr().expect("ops endpoint configured");
    let proposed = stage_count(leader_ops, "propose");
    let mut via_follower =
        ZkTcpClient::connect(servers[1].client_addr()).expect("connect follower");
    via_follower.create("/via-follower", vec![], CreateMode::Persistent).expect("forwarded create");
    via_follower.close();
    assert!(
        stage_count(leader_ops, "propose") > proposed,
        "the leader's propose histogram missed a forwarded write"
    );

    // Kill the leader. The client fails over to a survivor; the next
    // traced write must produce a complete, rooted trace under the new
    // regime — propagation does not depend on any state the dead leader
    // held.
    servers.remove(0).shutdown();
    wait_until("election", || servers.iter().any(|s| s.is_leader()));
    let survivor_addrs: Vec<SocketAddr> =
        servers.iter().map(ZkEnsembleServer::client_addr).collect();
    wait_until("failover re-attach", || {
        survivor_addrs.iter().any(|&addr| client.reconnect_to(addr).is_ok())
    });
    let after = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // Retried distinct paths: a timed-out write under the settling
            // ensemble is abandoned, never double-created.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                traced_create_with_stages(&mut client, "/post-failover", &expected)
            })) {
                Ok(trace_id) => break trace_id,
                Err(_) => {
                    assert!(Instant::now() < deadline, "post-failover trace never completed");
                    let _ = survivor_addrs.iter().find(|&&a| client.reconnect_to(a).is_ok());
                }
            }
        }
    };
    assert_ne!(before, after);
    let root = trace::spans_for(after)
        .into_iter()
        .find(|span| span.stage == Stage::ClientCall)
        .expect("post-failover trace is rooted");
    assert_eq!(root.parent_span_id, 0);
    client.close();
}
