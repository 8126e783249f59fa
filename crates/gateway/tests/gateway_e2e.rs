//! End-to-end tests of the sharded-namespace gateway over real TCP:
//! single-member ensembles per shard, an unmodified [`ZkTcpClient`] in
//! front, and the gateway in between. CI runs this file in the
//! `sharding-e2e` job.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gateway::{Gateway, GatewayConfig, ShardMap};
use jute::multi::{Op, OpResult};
use jute::records::{CheckVersionRequest, CreateMode, CreateRequest, SetDataRequest};
use opsplane::RateLimitConfig;
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::{ZkError, ZkReplica};

/// Aggressive timers so single-member "ensembles" are ready instantly.
fn shard_ensemble_config(subtree_root: Option<&str>) -> EnsembleConfig {
    let mut config = EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    };
    config.net.subtree_root = subtree_root.map(str::to_string);
    config
}

/// The shortest prefix each shard owns — used as the member-side subtree
/// guard (`NetConfig::subtree_root`), which must admit the shard's whole
/// routed subtree plus the ancestor chain the bootstrap creates.
fn shard_roots(rules: &[(&str, usize)], shards: usize) -> Vec<Option<String>> {
    let mut roots: Vec<Option<String>> = vec![None; shards];
    for (prefix, shard) in rules {
        let depth = prefix.split('/').filter(|c| !c.is_empty()).count();
        let current_depth =
            roots[*shard].as_deref().map(|r| r.split('/').filter(|c| !c.is_empty()).count());
        if current_depth.is_none() || current_depth.unwrap() > depth {
            roots[*shard] = Some((*prefix).to_string());
        }
    }
    roots
}

struct ShardedFixture {
    shards: Vec<Vec<ZkEnsembleServer>>,
    rules: Vec<(String, usize)>,
    gateway: Option<Gateway>,
}

impl ShardedFixture {
    /// Boots one ensemble per shard (with subtree guards), creates each
    /// shard's prefix ancestor chain directly on its members, and starts a
    /// gateway over the lot.
    fn start(rules: &[(&str, usize)], members_per_shard: usize) -> ShardedFixture {
        Self::start_with(rules, members_per_shard, None)
    }

    fn start_with(
        rules: &[(&str, usize)],
        members_per_shard: usize,
        rate_limit: Option<RateLimitConfig>,
    ) -> ShardedFixture {
        let shard_count = rules.iter().map(|(_, s)| s + 1).max().unwrap_or(1);
        let roots = shard_roots(rules, shard_count);
        let shards: Vec<Vec<ZkEnsembleServer>> = (0..shard_count)
            .map(|shard| {
                let config = shard_ensemble_config(roots[shard].as_deref());
                ZkEnsembleServer::start_local_ensemble(members_per_shard, &config, |id| {
                    Arc::new(ZkReplica::new(id))
                })
                .expect("bind shard ensemble")
            })
            .collect();
        let mut fixture = ShardedFixture {
            shards,
            rules: rules.iter().map(|(p, s)| ((*p).to_string(), *s)).collect(),
            gateway: None,
        };
        fixture.bootstrap_prefixes();
        let gateway =
            Gateway::bind("127.0.0.1:0", fixture.gateway_config(rate_limit)).expect("bind gateway");
        fixture.gateway = Some(gateway);
        fixture
    }

    fn gateway_config(&self, rate_limit: Option<RateLimitConfig>) -> GatewayConfig {
        let rules: Vec<(&str, usize)> = self.rules.iter().map(|(p, s)| (p.as_str(), *s)).collect();
        let map = ShardMap::new(self.shards.len(), &rules).expect("valid map");
        let mut config = GatewayConfig::new(map, self.shard_addrs());
        config.rate_limit = rate_limit;
        config
    }

    fn shard_addrs(&self) -> Vec<Vec<SocketAddr>> {
        self.shards
            .iter()
            .map(|members| members.iter().map(ZkEnsembleServer::client_addr).collect())
            .collect()
    }

    /// Creates, per shard, the ancestor chain of every prefix it owns —
    /// directly against the shard (the gateway would route ancestor
    /// creates elsewhere). The member-side guard admits ancestors of its
    /// subtree root for exactly this purpose.
    fn bootstrap_prefixes(&self) {
        for (prefix, shard) in &self.rules {
            let components: Vec<&str> = prefix.split('/').filter(|c| !c.is_empty()).collect();
            if components.is_empty() {
                continue;
            }
            let mut client =
                ZkTcpClient::connect(self.shards[*shard][0].client_addr()).expect("bootstrap");
            let mut path = String::new();
            for component in components {
                path.push('/');
                path.push_str(component);
                match client.create(&path, Vec::new(), CreateMode::Persistent) {
                    Ok(_) | Err(ZkError::NodeExists { .. }) => {}
                    Err(err) => panic!("bootstrap of {path} on shard {shard}: {err}"),
                }
            }
            client.close();
        }
    }

    fn gateway(&self) -> &Gateway {
        self.gateway.as_ref().expect("gateway running")
    }

    fn connect(&self) -> ZkTcpClient {
        ZkTcpClient::connect(self.gateway().local_addr()).expect("connect via gateway")
    }

    fn connect_direct(&self, shard: usize) -> ZkTcpClient {
        ZkTcpClient::connect(self.shards[shard][0].client_addr()).expect("connect direct")
    }
}

const RULES: &[(&str, usize)] = &[("/", 0), ("/app", 1)];

/// Polls `condition` to a 5 s deadline: gateway gauges and counters settle
/// on its own threads, shortly after the client call that moves them returns.
fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !condition() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn single_path_ops_route_to_their_shards() {
    let fixture = ShardedFixture::start(RULES, 1);
    let mut client = fixture.connect();

    client.create("/other", b"root-shard".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/app/users", b"app-shard".to_vec(), CreateMode::Persistent).unwrap();

    let (data, _) = client.get_data("/other", false).unwrap();
    assert_eq!(data, b"root-shard");
    let (data, _) = client.get_data("/app/users", false).unwrap();
    assert_eq!(data, b"app-shard");

    // Each write landed on exactly its shard: shard 0's tree has /other
    // but no /app/users, and vice versa (shard 0 accepts any path — its
    // guard root is `/` — so a miss there is a genuine miss).
    let mut direct0 = fixture.connect_direct(0);
    assert!(direct0.exists("/other", false).unwrap().is_some());
    assert!(direct0.exists("/app/users", false).unwrap().is_none());
    let mut direct1 = fixture.connect_direct(1);
    assert!(direct1.exists("/app/users", false).unwrap().is_some());

    // The merged zxid vector grows with writes on either shard.
    let before = client.last_zxid();
    client.set_data("/other", b"again".to_vec(), -1).unwrap();
    assert!(client.last_zxid() > before, "a root-shard write must advance the merged zxid");
    let before = client.last_zxid();
    client.set_data("/app/users", b"again".to_vec(), -1).unwrap();
    assert!(client.last_zxid() > before, "an app-shard write must advance the merged zxid");

    client.close();
}

#[test]
fn root_and_boundary_path_ops_work() {
    let fixture = ShardedFixture::start(RULES, 1);
    let mut client = fixture.connect();

    // `/` routes to the root shard and always exists.
    assert!(client.exists("/", false).unwrap().is_some());
    client.create("/seen-from-root", Vec::new(), CreateMode::Persistent).unwrap();
    let children = client.get_children("/", false).unwrap();
    assert!(children.contains(&"seen-from-root".to_string()), "{children:?}");

    // The boundary path `/app` itself belongs to the subtree it names:
    // writes on it go to shard 1, where the bootstrap created it.
    client.set_data("/app", b"boundary".to_vec(), -1).unwrap();
    let (data, _) = client.get_data("/app", false).unwrap();
    assert_eq!(data, b"boundary");
    let mut direct1 = fixture.connect_direct(1);
    let (data, _) = direct1.get_data("/app", false).unwrap();
    assert_eq!(data, b"boundary", "the boundary write must live on shard 1");

    client.close();
}

#[test]
fn cross_shard_multi_is_refused_and_single_shard_multi_is_atomic() {
    let fixture = ShardedFixture::start(RULES, 1);
    let mut client = fixture.connect();

    // A transaction confined to one shard commits atomically.
    let results = client
        .multi(vec![
            Op::Create(CreateRequest {
                path: "/app/a".into(),
                data: b"1".to_vec(),
                mode: CreateMode::Persistent,
            }),
            Op::SetData(SetDataRequest { path: "/app/a".into(), data: b"2".to_vec(), version: -1 }),
        ])
        .unwrap();
    assert_eq!(results.len(), 2);
    assert!(matches!(results[0], OpResult::Create { .. }));
    let (data, _) = client.get_data("/app/a", false).unwrap();
    assert_eq!(data, b"2");

    // A transaction spanning shards is refused with the typed error and
    // leaves no partial state behind on either shard.
    let err = client
        .multi(vec![
            Op::Create(CreateRequest {
                path: "/solo".into(),
                data: Vec::new(),
                mode: CreateMode::Persistent,
            }),
            Op::Check(CheckVersionRequest { path: "/app/a".into(), version: -1 }),
        ])
        .unwrap_err();
    assert!(matches!(err, ZkError::CrossShard { .. }), "got {err:?}");
    assert!(client.exists("/solo", false).unwrap().is_none(), "no partial cross-shard state");
    assert_eq!(fixture.gateway().metrics().cross_shard_rejections.get(), 1);

    client.close();
}

#[test]
fn per_tenant_throttling_answers_in_band() {
    let limit = RateLimitConfig { capacity: 4, refill_per_sec: 1 };
    let fixture = ShardedFixture::start_with(RULES, 1, Some(limit));
    let mut client = fixture.connect();

    // Exhaust tenant "app"'s burst; the next request is refused in-band.
    client.create("/app/t", Vec::new(), CreateMode::Persistent).unwrap();
    let mut throttled = false;
    for _ in 0..8 {
        match client.set_data("/app/t", b"x".to_vec(), -1) {
            Ok(_) => {}
            Err(ZkError::Throttled) => {
                throttled = true;
                break;
            }
            Err(err) => panic!("unexpected error {err:?}"),
        }
    }
    assert!(throttled, "tenant burst never hit the limiter");
    assert!(fixture.gateway().metrics().throttled.get() >= 1);

    // Another tenant's bucket is unaffected: the connection survives the
    // throttle (in-band error, not a disconnect) and other paths work.
    client.create("/unthrottled-tenant", Vec::new(), CreateMode::Persistent).unwrap();

    client.close();
}

#[test]
fn watches_fire_through_the_gateway_with_merged_zxids() {
    let fixture = ShardedFixture::start(RULES, 1);
    let mut watcher = fixture.connect();
    let mut writer = fixture.connect();

    watcher.create("/app/watched", b"v0".to_vec(), CreateMode::Persistent).unwrap();
    let (_, _) = watcher.get_data("/app/watched", true).unwrap();
    let zxid_floor = watcher.last_zxid();

    writer.set_data("/app/watched", b"v1".to_vec(), -1).unwrap();

    let events = watcher.poll_events(Duration::from_secs(5)).unwrap();
    assert_eq!(events.len(), 1, "{events:?}");
    assert_eq!(events[0].path, "/app/watched");
    assert!(
        events[0].zxid > zxid_floor,
        "the event zxid ({}) must be rebased above the watcher's floor ({zxid_floor})",
        events[0].zxid
    );
    wait_until("the shard-1 watch event was never counted", || {
        fixture.gateway().metrics().watch_events[1].get() >= 1
    });

    watcher.close();
    writer.close();
}

/// Four shards, one node each, for the FIFO stress test below.
const FIFO_RULES: &[(&str, usize)] = &[("/", 0), ("/app", 1), ("/b", 2), ("/c", 3)];
const FIFO_PATHS: [&str; 4] = ["/p0", "/app/p1", "/b/p2", "/c/p3"];
/// Requests in flight per round, and rounds per run.
const FIFO_DEPTH: usize = 64;
const FIFO_ROUNDS: usize = 30;

#[test]
fn pipelined_submissions_across_shards_release_in_order() {
    let fixture = ShardedFixture::start(FIFO_RULES, 1);
    let mut client = fixture.connect();
    for (shard, path) in FIFO_PATHS.iter().enumerate() {
        client.create(path, format!("s{shard}").into_bytes(), CreateMode::Persistent).unwrap();
    }

    // Each round interleaves reads against all four shards without waiting,
    // then redeems them in submission order: the gateway must splice four
    // backend reply streams, each drained by its own reader thread, back
    // into FIFO (the client itself errors on any out-of-order reply).
    for round in 0..FIFO_ROUNDS {
        let mut tickets = Vec::with_capacity(FIFO_DEPTH);
        for i in 0..FIFO_DEPTH {
            let request = jute::Request::GetData(jute::records::GetDataRequest {
                path: FIFO_PATHS[i % FIFO_PATHS.len()].into(),
                watch: false,
            });
            tickets.push(client.submit(&request).unwrap());
        }
        for (i, ticket) in tickets.into_iter().enumerate() {
            match client.wait(ticket) {
                Ok(jute::Response::GetData(get)) => {
                    let expected = format!("s{}", i % FIFO_PATHS.len());
                    assert_eq!(get.data, expected.as_bytes(), "round {round}, ticket {i}");
                }
                other => panic!("round {round}, ticket {i}: unexpected {other:?}"),
            }
        }
    }
    client.close();
}

#[test]
fn gateway_restart_mid_session_reattaches_with_floors_intact() {
    let mut fixture = ShardedFixture::start(RULES, 1);
    let mut client = fixture.connect();

    client.create("/before", b"r0".to_vec(), CreateMode::Persistent).unwrap();
    client.create("/app/before", b"r1".to_vec(), CreateMode::Persistent).unwrap();
    let session_before = client.session_id();
    let zxid_before = client.last_zxid();
    assert!(zxid_before > 0);

    // Kill the gateway (the stateless tier) and start a fresh one over the
    // same shards.
    fixture.gateway.take().expect("gateway running").shutdown();
    let replacement = Gateway::bind("127.0.0.1:0", fixture.gateway_config(None))
        .expect("bind replacement gateway");
    let replacement_addr = replacement.local_addr();
    fixture.gateway = Some(replacement);

    // The client re-attaches: same session id, zxid floor presented and
    // accepted (the lane codec's floors never exceed what each shard
    // committed, so no backend refuses the re-attach).
    client.reconnect_to(replacement_addr).expect("re-attach through the new gateway");
    assert_eq!(client.session_id(), session_before, "the gateway honours the presented id");
    assert!(client.last_zxid() >= zxid_before, "the zxid floor survives the restart");

    // Both shards are reachable again and pre-restart data is intact.
    let (data, _) = client.get_data("/before", false).unwrap();
    assert_eq!(data, b"r0");
    let (data, _) = client.get_data("/app/before", false).unwrap();
    assert_eq!(data, b"r1");
    client.set_data("/app/before", b"r2".to_vec(), -1).unwrap();

    client.close();
}

#[test]
fn backend_subtree_guard_rejects_requests_outside_its_shard() {
    let fixture = ShardedFixture::start(RULES, 1);

    // Shard 1 guards the `/app` subtree: a direct client asking for a
    // sibling path gets the typed cross-shard error (defence in depth
    // under a misconfigured or bypassed gateway).
    let mut direct1 = fixture.connect_direct(1);
    let err = direct1.create("/not-app", Vec::new(), CreateMode::Persistent).unwrap_err();
    assert!(matches!(err, ZkError::CrossShard { .. }), "got {err:?}");

    // Paths inside the guarded subtree — and ancestors of its root, which
    // the bootstrap needs — stay addressable.
    assert!(direct1.exists("/app", false).unwrap().is_some());
    assert!(direct1.exists("/", false).unwrap().is_some());

    direct1.close();
}

#[test]
fn admin_words_are_served_and_dirs_aggregates_all_shards() {
    let fixture = ShardedFixture::start(RULES, 1);
    let addr = fixture.gateway().local_addr();

    assert_eq!(opsplane::send_word(addr, "ruok").unwrap(), "imok\n");

    let srvr = opsplane::send_word(addr, "srvr").unwrap();
    assert!(srvr.contains("Mode: gateway"), "{srvr}");

    // `dirs` fans out to one member of every shard and concatenates the
    // per-member reports under shard headings (in-memory members report
    // their lack of a data dir).
    let dirs = opsplane::send_word(addr, "dirs").unwrap();
    assert!(dirs.contains("Shard 0:"), "{dirs}");
    assert!(dirs.contains("Shard 1:"), "{dirs}");
    assert!(dirs.contains("none (in-memory)"), "{dirs}");

    // The words also work on the shard members directly.
    let member_dirs = opsplane::send_word(fixture.shards[0][0].client_addr(), "dirs").unwrap();
    assert!(member_dirs.contains("Data dir:"), "{member_dirs}");
}

#[test]
fn gateway_metrics_scrape_with_gw_prefix() {
    let fixture = ShardedFixture::start(RULES, 1);
    let mut client = fixture.connect();
    client.create("/m", Vec::new(), CreateMode::Persistent).unwrap();
    client.create("/app/m", Vec::new(), CreateMode::Persistent).unwrap();
    client.close();

    let registry = fixture.gateway().registry();
    for name in registry.family_names() {
        assert!(name.starts_with("gw_"), "{name} escapes the gateway metric namespace");
    }
    let rendered = registry.render();
    assert!(rendered.contains("gw_requests_total{shard=\"0\"}"), "{rendered}");
    assert!(rendered.contains("gw_requests_total{shard=\"1\"}"), "{rendered}");

    let metrics = fixture.gateway().metrics();
    assert!(metrics.requests[0].get() >= 1);
    assert!(metrics.requests[1].get() >= 1);
    wait_until("closed sessions leave the gauge at zero", || metrics.front_sessions.get() == 0);

    // Session close reached every touched backend: ephemera aside, the
    // backend sessions wind down rather than lingering until timeout.
    wait_until("backend links never wound down", || metrics.backend_links.get() == 0);
}

#[test]
fn longest_prefix_ties_resolve_to_the_first_configured_entry() {
    // Two identical prefixes on different shards: the earliest entry wins
    // deterministically, end to end.
    let rules: &[(&str, usize)] = &[("/", 0), ("/dup", 1), ("/dup", 0)];
    let fixture = ShardedFixture::start(rules, 1);
    let mut client = fixture.connect();
    client.create("/dup/x", b"tie".to_vec(), CreateMode::Persistent).unwrap();
    let mut direct1 = fixture.connect_direct(1);
    assert!(direct1.exists("/dup/x", false).unwrap().is_some(), "first entry (shard 1) wins");
    client.close();
}

#[test]
fn documented_gateway_metrics_match_exported_set() {
    use std::collections::BTreeSet;

    // A live scrape through a real ops endpoint, mirroring the member-side
    // guard in `crates/zkserver/tests/ops_e2e.rs` for the `gw_` table.
    let fixture = ShardedFixture::start(RULES, 1);
    let ops = opsplane::OpsServer::bind(
        "127.0.0.1:0",
        fixture.gateway().registry(),
        Arc::new(opsplane::ProbeState::new()),
    )
    .expect("bind gateway ops endpoint");
    let (code, text) = opsplane::http_get(ops.local_addr(), "/metrics").unwrap();
    assert_eq!(code, 200);
    let exported: BTreeSet<String> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    assert!(!exported.is_empty());

    let doc_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/METRICS.md");
    let doc = std::fs::read_to_string(&doc_path).expect("docs/METRICS.md exists");
    let documented: BTreeSet<String> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("| `gw_"))
        .filter_map(|rest| rest.split('`').next())
        .map(|name| format!("gw_{name}"))
        .collect();

    let undocumented: Vec<&String> = exported.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "gateway families missing from docs/METRICS.md: {undocumented:?}"
    );
    let phantom: Vec<&String> = documented.difference(&exported).collect();
    assert!(
        phantom.is_empty(),
        "docs/METRICS.md documents unexported gateway families: {phantom:?}"
    );
}
