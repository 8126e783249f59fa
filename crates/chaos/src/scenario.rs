//! The scenario harness: real ensembles under seeded fault schedules, with
//! end-to-end verification.
//!
//! A scenario is `(ensemble spec, fault schedule)` where the schedule is a
//! plain list of timestamped [`FaultAction`]s — data, not code, so a
//! failing schedule can be shrunk event-by-event (see [`crate::shrink`])
//! and printed as the counterexample. The executor ([`run_schedule`]):
//!
//! 1. starts a real TCP ensemble whose members run over fault-injecting
//!    transports sharing one seeded [`FaultPlane`];
//! 2. drives a concurrent register workload (reads, unique-value writes,
//!    CAS, atomic multis) while walking the schedule;
//! 3. heals everything, restarts dead durable members, and verifies:
//!    no same-epoch split leaders were ever observed, all replicas
//!    converge to **byte-identical** trees, multi mirror znodes agree
//!    (atomicity), the recorded history is linearizable
//!    ([`crate::checker`]), and — after a power cycle — at least one
//!    client re-attached to its pre-outage session.
//!
//! Fault model: in-memory members are crash-stop (a kill is permanent);
//! only durable members may restart, because an amnesiac rejoin (empty log
//! under a previously used node id) is outside ZAB's crash-recovery model
//! and genuinely unsafe — the same rule ZooKeeper itself imposes on its
//! ensemble members.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use jute::records::{CreateMode, SetDataRequest, Stat};
use securekeeper::integration::{SecureKeeperConfig, SecureKeeperInterceptor, SecureKeeperNamer};
use securekeeper::{CounterEnclave, ReplayableSessionCredentials};
use zab::{NodeId, Role, TcpNetwork};
use zkserver::client::{RetryPolicy, ZkTcpClient};
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::persist::{PersistConfig, ReplicaPersistence};
use zkserver::pipeline::RequestInterceptor;
use zkserver::{Op, ZkError, ZkReplica};

use crate::checker::{self, Violation};
use crate::clock::SkewedClock;
use crate::history::{decode_value, encode_value, HistoryRecorder, OpKind, OpRecord, Outcome};
use crate::plane::{FaultPlane, LinkFaults};
use crate::rng::ChaosRng;
use crate::transport::FaultyTransport;

/// The register znode every client hammers.
const REGISTER: &str = "/chaos/reg";
/// Mirror znodes written only by atomic multis (always together, always the
/// same value) — byte-equal mirrors prove multi atomicity survived.
const MIRROR_A: &str = "/chaos/m1";
const MIRROR_B: &str = "/chaos/m2";

/// Shape of the ensemble a scenario runs against.
#[derive(Debug, Clone, Copy)]
pub struct EnsembleSpec {
    /// Number of members.
    pub size: usize,
    /// Whether members run with a disk-backed WAL + snapshot store (and may
    /// therefore be restarted).
    pub durable: bool,
    /// Snapshot cadence for durable members (transactions applied between
    /// snapshots); small values force snapshot-based rejoins.
    pub snapshot_every: u64,
}

impl EnsembleSpec {
    /// An in-memory (crash-stop) ensemble.
    pub fn in_memory(size: usize) -> Self {
        EnsembleSpec { size, durable: false, snapshot_every: u64::MAX }
    }

    /// A durable (crash-recovery) ensemble.
    pub fn durable(size: usize, snapshot_every: u64) -> Self {
        EnsembleSpec { size, durable: true, snapshot_every }
    }
}

/// One fault primitive a schedule can fire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Replace the probabilistic per-frame fault mix on all links.
    SetFaults(LinkFaults),
    /// Partition the ensemble into groups (links across groups drop).
    Partition(Vec<Vec<NodeId>>),
    /// Cut one member off from everyone.
    Isolate(NodeId),
    /// Block the single direction `from → to`.
    BlockOneWay(NodeId, NodeId),
    /// Remove all partition blocks.
    Heal,
    /// Crash member `index` (0-based). Permanent for in-memory members.
    Kill(usize),
    /// Restart member `index` from its data directory (durable only).
    Restart(usize),
    /// Flip bits in the killed member's on-disk WAL segments (models disk
    /// rot between crash and reboot). No-op while the member is alive.
    CorruptStorage(usize),
    /// Kill **every** member, then restart them all from disk — a full
    /// power outage (durable only).
    PowerCycle,
    /// Skew member `index`'s clock by the given offset.
    SkewClock(usize, i64),
    /// Gracefully drain member `index`: readiness flips to unready, new
    /// writes are refused, leadership (if held) is handed to a peer. The
    /// member keeps running — this models a rolling-restart takeout, not a
    /// crash. The executor asserts the probe flip and that the member's
    /// `mntr` counters stay monotonic through the handoff.
    Drain(usize),
}

/// A timestamped fault, relative to workload start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: Duration,
    /// What happens.
    pub action: FaultAction,
}

/// Millisecond shorthand for schedule literals.
pub fn ms(millis: u64) -> Duration {
    Duration::from_millis(millis)
}

/// A named, seeded chaos scenario.
#[derive(Clone)]
pub struct Scenario {
    /// Stable identifier (`chaos run --scenario <name>`).
    pub name: &'static str,
    /// One-line description of the fault pattern.
    pub summary: &'static str,
    /// Ensemble shape.
    pub spec: EnsembleSpec,
    /// Total workload duration (faults live inside it).
    pub duration: Duration,
    /// Builds the seeded fault schedule.
    pub schedule: fn(u64) -> Vec<FaultEvent>,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario").field("name", &self.name).field("spec", &self.spec).finish()
    }
}

/// Execution knobs shared by every scenario run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Seed of all randomness (fault plane, workload mix, schedule).
    pub seed: u64,
    /// Run the ensemble with the SecureKeeper interceptor and secure client
    /// credentials.
    pub secure: bool,
    /// Total workload duration.
    pub duration: Duration,
    /// Concurrent workload clients.
    pub clients: usize,
}

/// What a passing run did — the numbers that prove the run exercised
/// something (a chaos run with zero injected faults proves nothing).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations completed by the workload.
    pub ops: u64,
    /// Recorded history length (register operations).
    pub history_len: usize,
    /// Frames the fault plane ruled on.
    pub frames: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames duplicated.
    pub duplicated: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Clients that re-attached to a pre-disconnect session.
    pub reattaches: u64,
    /// Highest protocol epoch observed.
    pub max_epoch: u32,
}

/// Why a run failed.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Which verification tripped.
    pub reason: String,
    /// Linearizability violations, when the checker tripped.
    pub violations: Vec<Violation>,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.reason)?;
        for violation in &self.violations {
            writeln!(f, "  - {violation}")?;
        }
        Ok(())
    }
}

fn chaos_ensemble_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(1),
        poll_interval: Duration::from_millis(5),
        // Every member gets an ops endpoint so drain scenarios can assert
        // the probe flip from the outside, like an operator would.
        ops_addr: Some("127.0.0.1:0".parse().expect("loopback literal always parses")),
        ..EnsembleConfig::default()
    }
}

fn unique_dir(seed: u64) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "zk-chaos-{}-{seed}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A live ensemble under fault injection: the members, their shared fault
/// plane, per-member skewable clocks, and (for durable specs) the data
/// directories that survive kills.
struct ChaosEnsemble {
    spec: EnsembleSpec,
    secure: Option<SecureKeeperConfig>,
    plane: Arc<FaultPlane>,
    peer_addrs: HashMap<NodeId, SocketAddr>,
    members: Arc<Mutex<Vec<Option<ZkEnsembleServer>>>>,
    clocks: Vec<Arc<SkewedClock>>,
    client_addrs: Arc<Mutex<Vec<Option<SocketAddr>>>>,
    data_root: Option<PathBuf>,
}

impl ChaosEnsemble {
    fn start(spec: EnsembleSpec, options: &RunOptions) -> std::io::Result<Self> {
        let data_root = spec.durable.then(|| unique_dir(options.seed));
        let transports: Vec<TcpNetwork> = (1..=spec.size as u32)
            .map(|i| TcpNetwork::bind(NodeId(i), "127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let peer_addrs: HashMap<NodeId, SocketAddr> =
            transports.iter().map(|t| (t.id(), t.local_addr())).collect();
        let mut ensemble = ChaosEnsemble {
            spec,
            secure: options
                .secure
                .then(|| SecureKeeperConfig::with_label(&format!("chaos-{}", options.seed))),
            plane: Arc::new(FaultPlane::new(options.seed)),
            peer_addrs,
            members: Arc::new(Mutex::new((0..spec.size).map(|_| None).collect())),
            clocks: (0..spec.size).map(|_| Arc::new(SkewedClock::new())).collect(),
            client_addrs: Arc::new(Mutex::new(vec![None; spec.size])),
            data_root,
        };
        for transport in transports {
            let index = transport.id().0 as usize - 1;
            ensemble.start_member(index, transport)?;
        }
        Ok(ensemble)
    }

    fn build_replica(&self, index: usize) -> Arc<ZkReplica> {
        let id = index as u32 + 1;
        let clock = Arc::clone(&self.clocks[index]);
        match &self.secure {
            None => Arc::new(ZkReplica::new(id).with_clock(clock)),
            Some(config) => {
                // `secure_ensemble_replica` hard-wires a monotonic clock;
                // rebuild the same stack around the skewable one.
                let interceptor = Arc::new(SecureKeeperInterceptor::new(config));
                let counter = Arc::new(
                    CounterEnclave::new(
                        interceptor.epc(),
                        &config.storage_key,
                        config.cost_model.clone(),
                    )
                    .expect("a fresh EPC always fits one counter enclave"),
                );
                Arc::new(
                    ZkReplica::new(id)
                        .with_interceptor(interceptor as Arc<dyn RequestInterceptor>)
                        .with_namer(Arc::new(SecureKeeperNamer::new(counter)))
                        .with_clock(clock),
                )
            }
        }
    }

    fn start_member(&mut self, index: usize, transport: TcpNetwork) -> std::io::Result<()> {
        self.clocks[index].set_skew_ms(0);
        let faulty = Arc::new(FaultyTransport::new(Arc::new(transport), Arc::clone(&self.plane)));
        let persistence = match &self.data_root {
            Some(root) => Some(ReplicaPersistence::open(
                root.join(format!("m{}", index + 1)),
                PersistConfig { snapshot_every: self.spec.snapshot_every, ..Default::default() },
            )?),
            None => None,
        };
        let server = ZkEnsembleServer::start_custom(
            faulty,
            self.peer_addrs.clone(),
            "127.0.0.1:0",
            self.build_replica(index),
            chaos_ensemble_config(),
            persistence,
        )?;
        self.client_addrs.lock()[index] = Some(server.client_addr());
        self.members.lock()[index] = Some(server);
        Ok(())
    }

    fn kill(&mut self, index: usize) {
        self.client_addrs.lock()[index] = None;
        let server = self.members.lock()[index].take();
        if let Some(server) = server {
            server.shutdown();
        }
    }

    /// Restarts a killed *durable* member from its data directory, rebinding
    /// the same peer address. In-memory members stay dead (crash-stop).
    fn restart(&mut self, index: usize) -> std::io::Result<()> {
        if !self.spec.durable {
            return Ok(());
        }
        if self.members.lock()[index].is_some() {
            return Ok(());
        }
        let id = NodeId(index as u32 + 1);
        let addr = self.peer_addrs[&id];
        // The old listener may take a moment to fully release the port.
        let deadline = Instant::now() + Duration::from_secs(5);
        let transport = loop {
            match TcpNetwork::bind(id, addr) {
                Ok(transport) => break transport,
                Err(err) if Instant::now() < deadline => {
                    let _ = err;
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(err) => return Err(err),
            }
        };
        self.start_member(index, transport)
    }

    fn power_cycle(&mut self) -> std::io::Result<()> {
        for index in 0..self.spec.size {
            self.kill(index);
        }
        for index in 0..self.spec.size {
            self.restart(index)?;
        }
        Ok(())
    }

    /// Flips a few bits across the killed member's WAL segments.
    fn corrupt_storage(&mut self, index: usize, rng: &mut ChaosRng) {
        if self.members.lock()[index].is_some() {
            return; // only rot disks of dead members
        }
        let Some(root) = &self.data_root else { return };
        let log_dir = root.join(format!("m{}", index + 1)).join("log");
        let Ok(entries) = std::fs::read_dir(&log_dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(mut bytes) = std::fs::read(&path) else { continue };
            if bytes.is_empty() {
                continue;
            }
            for _ in 0..1 + rng.next_below(3) {
                let at = rng.next_below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.next_below(8);
            }
            let _ = std::fs::write(&path, &bytes);
        }
    }

    /// Gracefully drains a live member and asserts the operator-visible
    /// contract from the outside: the readiness probe flips to 503/draining
    /// while liveness stays green, leadership (if held) hands off, and every
    /// monotone `mntr` counter survives the handoff without going backwards.
    fn drain_member(&mut self, index: usize) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let members = self.members.lock();
        let Some(server) = members[index].as_ref() else { return Ok(()) };
        let client_addr = server.client_addr();
        let ops_addr = server
            .ops_addr()
            .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "no ops endpoint configured"))?;
        let before = mntr_counters(client_addr)?;

        // Generous budget: elections settle in well under a second on an idle
        // machine, but chaos runs share the host with sibling ensembles and a
        // starved debug build can stretch the handoff.
        let report = server.drain(Duration::from_secs(10));
        if report.was_leader && !report.handed_off {
            return Err(Error::new(
                ErrorKind::TimedOut,
                format!("drain never handed leadership off: {report:?}"),
            ));
        }

        let (code, body) = opsplane::http::http_get(ops_addr, "/health/ready")?;
        if code != 503 || !body.contains("draining") {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("drained member still ready: {code} {body:?}"),
            ));
        }
        let (code, _) = opsplane::http::http_get(ops_addr, "/health/live")?;
        if code != 200 {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "drained member must stay live (it is unready, not dead)",
            ));
        }
        let after = mntr_counters(client_addr)?;
        for (key, value_before) in &before {
            let value_after = after.get(key).copied().unwrap_or(-1.0);
            if value_after < *value_before {
                return Err(Error::new(
                    ErrorKind::InvalidData,
                    format!("mntr counter {key} went backwards: {value_before} -> {value_after}"),
                ));
            }
        }
        Ok(())
    }

    fn node_ids(&self) -> Vec<NodeId> {
        (1..=self.spec.size as u32).map(NodeId).collect()
    }

    fn apply(&mut self, action: &FaultAction, rng: &mut ChaosRng) -> std::io::Result<()> {
        match action {
            FaultAction::SetFaults(faults) => self.plane.set_faults(*faults),
            FaultAction::Partition(groups) => self.plane.partition(groups),
            FaultAction::Isolate(node) => self.plane.isolate(*node, &self.node_ids()),
            FaultAction::BlockOneWay(from, to) => self.plane.block_one_way(*from, *to),
            FaultAction::Heal => self.plane.heal(),
            FaultAction::Kill(index) => {
                if *index < self.spec.size {
                    self.kill(*index);
                }
            }
            FaultAction::Restart(index) => {
                if *index < self.spec.size {
                    self.restart(*index)?;
                }
            }
            FaultAction::CorruptStorage(index) => {
                if *index < self.spec.size {
                    self.corrupt_storage(*index, rng);
                }
            }
            FaultAction::PowerCycle => self.power_cycle()?,
            FaultAction::SkewClock(index, offset_ms) => {
                if *index < self.spec.size {
                    self.clocks[*index].set_skew_ms(*offset_ms);
                }
            }
            FaultAction::Drain(index) => {
                if *index < self.spec.size {
                    self.drain_member(*index)?;
                }
            }
        }
        Ok(())
    }

    /// Clears every standing fault and revives every dead durable member —
    /// the precondition of verification.
    fn restore(&mut self) -> std::io::Result<()> {
        self.plane.heal();
        self.plane.set_faults(LinkFaults::none());
        for clock in &self.clocks {
            clock.set_skew_ms(0);
        }
        if self.spec.durable {
            for index in 0..self.spec.size {
                self.restart(index)?;
            }
        }
        Ok(())
    }
}

impl Drop for ChaosEnsemble {
    fn drop(&mut self) {
        let members: Vec<_> = self.members.lock().drain(..).collect();
        for server in members.into_iter().flatten() {
            server.shutdown();
        }
        if let Some(root) = &self.data_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// Scrapes a member's monotone counters through the `mntr` admin word (the
/// `_total` families plus histogram `_count`s — everything that must never
/// go backwards within one process lifetime).
fn mntr_counters(client_addr: SocketAddr) -> std::io::Result<HashMap<String, f64>> {
    let reply = opsplane::words::send_word(client_addr, "mntr")?;
    let mut counters = HashMap::new();
    for line in reply.lines() {
        let Some((key, value)) = line.split_once('\t') else { continue };
        if !(key.contains("_total") || key.contains("_count")) {
            continue;
        }
        if let Ok(value) = value.parse::<f64>() {
            counters.insert(key.to_string(), value);
        }
    }
    Ok(counters)
}

fn credentials(secure: bool) -> Arc<dyn SessionCredentials> {
    if secure {
        Arc::new(ReplayableSessionCredentials::generate())
    } else {
        Arc::new(PlainCredentials)
    }
}

/// Connects to any live member, retrying until `deadline`.
fn connect_any(
    addrs: &Arc<Mutex<Vec<Option<SocketAddr>>>>,
    secure: bool,
    deadline: Instant,
) -> Result<ZkTcpClient, String> {
    loop {
        let live: Vec<SocketAddr> = addrs.lock().iter().flatten().copied().collect();
        if !live.is_empty() {
            match ZkTcpClient::connect_ensemble_with(
                &live,
                credentials(secure),
                10_000,
                RetryPolicy::no_retries(),
            ) {
                Ok(client) => return Ok(client),
                Err(err) => {
                    if Instant::now() >= deadline {
                        return Err(format!("no member reachable: {err}"));
                    }
                }
            }
        } else if Instant::now() >= deadline {
            return Err("no member alive to connect to".into());
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Per-worker tallies.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerStats {
    ops: u64,
    reattaches: u64,
}

/// Classification of a write/CAS result into the history model.
fn classify_write(result: &Result<Stat, ZkError>, cas: bool) -> (Outcome, bool) {
    match result {
        Ok(stat) => (Outcome::WriteOk { version: stat.version }, false),
        Err(ZkError::BadVersion { .. }) if cas => (Outcome::CasFail, false),
        // Connection-level failures leave the write in limbo: it may commit
        // after the client gave up.
        Err(ZkError::ConnectionLoss { .. }) | Err(ZkError::Marshalling { .. }) => {
            (Outcome::Indeterminate, true)
        }
        // Everything else was rejected before entering agreement.
        Err(ZkError::SessionExpired { .. }) => (Outcome::Rejected, true),
        Err(_) => (Outcome::Rejected, false),
    }
}

/// One workload client: random reads/writes/CAS/multis against the register,
/// reconnecting (with session re-attach) through failures.
#[allow(clippy::too_many_lines)]
fn worker_loop(
    index: u32,
    mut rng: ChaosRng,
    addrs: Arc<Mutex<Vec<Option<SocketAddr>>>>,
    recorder: Arc<HistoryRecorder>,
    stop: Arc<AtomicBool>,
    secure: bool,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let creds = credentials(secure);
    let mut client: Option<ZkTcpClient> = None;
    let mut seq: u64 = 0;
    let mut last_version: i32 = 0;
    // The consistency guarantees under test are per *session*: a fresh
    // session legitimately starts with a fresh observation floor, so each
    // session gets its own client id in the history (generation in the
    // high bits, worker index in the low byte).
    let mut generation: u32 = 0;
    let mut last_session: Option<i64> = None;
    // Member slot (index into the addr table) this client's session lives
    // on. Sessions are local to the member that created them; after that
    // member restarts on a fresh port, the slot still identifies it, so a
    // re-attach must go there first.
    let mut home: Option<usize> = None;

    while !stop.load(Ordering::Relaxed) {
        let Some(active) = client.as_mut() else {
            let live: Vec<SocketAddr> = addrs.lock().iter().flatten().copied().collect();
            if !live.is_empty() {
                let pick = rng.next_below(live.len() as u64) as usize;
                let rotated: Vec<SocketAddr> =
                    live.iter().skip(pick).chain(live.iter().take(pick)).copied().collect();
                if let Ok(fresh) = ZkTcpClient::connect_ensemble_with(
                    &rotated,
                    Arc::clone(&creds),
                    10_000,
                    RetryPolicy::no_retries(),
                ) {
                    if last_session.is_some_and(|id| id != fresh.session_id()) {
                        generation += 1;
                    }
                    last_session = Some(fresh.session_id());
                    home = addrs.lock().iter().position(|slot| *slot == Some(fresh.addr()));
                    client = Some(fresh);
                    continue;
                }
            }
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };

        let roll = rng.next_below(100);
        let invoke_ns = recorder.now_ns();
        let (kind, outcome, lost) = if roll < 40 {
            // Read.
            let result = active.get_data(REGISTER, false);
            match result {
                Ok((data, stat)) => (
                    OpKind::Read,
                    Outcome::ReadOk { version: stat.version, value: decode_value(&data) },
                    false,
                ),
                Err(ZkError::ConnectionLoss { .. }) | Err(ZkError::Marshalling { .. }) => {
                    (OpKind::Read, Outcome::Indeterminate, true)
                }
                Err(ZkError::SessionExpired { .. }) => (OpKind::Read, Outcome::Rejected, true),
                Err(_) => (OpKind::Read, Outcome::Rejected, false),
            }
        } else if roll < 70 {
            // Unconditional write of a fresh unique value.
            seq += 1;
            let value = (u64::from(index + 1) << 32) | seq;
            let result = active.set_data(REGISTER, encode_value(value), -1);
            let (outcome, lost) = classify_write(&result, false);
            (OpKind::Write { value }, outcome, lost)
        } else if roll < 85 {
            // CAS on the most recently observed version.
            seq += 1;
            let value = (u64::from(index + 1) << 32) | seq;
            let expected = last_version;
            let result = active.set_data(REGISTER, encode_value(value), expected);
            let (outcome, lost) = classify_write(&result, true);
            (OpKind::Cas { value, expected_version: expected }, outcome, lost)
        } else {
            // Atomic multi: register + both mirrors, one transaction.
            seq += 1;
            let value = (u64::from(index + 1) << 32) | seq;
            let ops = vec![
                Op::SetData(SetDataRequest {
                    path: REGISTER.into(),
                    data: encode_value(value),
                    version: -1,
                }),
                Op::SetData(SetDataRequest {
                    path: MIRROR_A.into(),
                    data: encode_value(value),
                    version: -1,
                }),
                Op::SetData(SetDataRequest {
                    path: MIRROR_B.into(),
                    data: encode_value(value),
                    version: -1,
                }),
            ];
            match active.multi(ops) {
                Ok(results) => match results.first() {
                    Some(jute::multi::OpResult::SetData { stat }) => {
                        (OpKind::Write { value }, Outcome::WriteOk { version: stat.version }, false)
                    }
                    // The batch aborted atomically — a definite no-op.
                    _ => (OpKind::Write { value }, Outcome::Rejected, false),
                },
                Err(ZkError::ConnectionLoss { .. }) | Err(ZkError::Marshalling { .. }) => {
                    (OpKind::Write { value }, Outcome::Indeterminate, true)
                }
                Err(ZkError::SessionExpired { .. }) => {
                    (OpKind::Write { value }, Outcome::Rejected, true)
                }
                Err(_) => (OpKind::Write { value }, Outcome::Rejected, false),
            }
        };
        let response_ns = recorder.now_ns();
        if let Outcome::WriteOk { version } = &outcome {
            last_version = *version;
        }
        if let Outcome::ReadOk { version, .. } = &outcome {
            last_version = *version;
        }
        recorder.record(OpRecord {
            client: (generation << 8) | index,
            invoke_ns,
            response_ns,
            kind,
            outcome,
        });
        stats.ops += 1;

        if lost {
            // Try to re-attach the session on a live member, retrying for a
            // bounded window (a full power cycle takes a while to bring the
            // first member back). Only after the budget runs out fall back
            // to a fresh connection — and thus a fresh session — at the top
            // of the loop.
            let old_session = active.session_id();
            let budget = Instant::now() + Duration::from_secs(3);
            // Sessions live on the member that created them, so for the
            // first part of the budget only that member is retried (it may
            // be rebooting onto a fresh port); other members — which would
            // answer with a *fresh* session — are a late fallback.
            let home_only_until = Instant::now() + Duration::from_millis(1500);
            let mut revived = false;
            'revive: while Instant::now() < budget && !stop.load(Ordering::Relaxed) {
                let slots: Vec<Option<SocketAddr>> = addrs.lock().clone();
                let mut sweep: Vec<(usize, SocketAddr)> = Vec::new();
                if let Some(h) = home {
                    if let Some(Some(addr)) = slots.get(h) {
                        sweep.push((h, *addr));
                    }
                }
                if home.is_none() || Instant::now() >= home_only_until {
                    for (slot, addr) in slots.iter().enumerate() {
                        if Some(slot) != home {
                            if let Some(addr) = addr {
                                sweep.push((slot, *addr));
                            }
                        }
                    }
                }
                for (slot, addr) in sweep {
                    if active.reconnect_to(addr).is_ok() {
                        if active.session_id() == old_session {
                            stats.reattaches += 1;
                        } else {
                            // The re-attach fell back to a fresh session.
                            generation += 1;
                        }
                        last_session = Some(active.session_id());
                        home = Some(slot);
                        revived = true;
                        break 'revive;
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            if !revived {
                client = None;
            }
        }
    }
    stats
}

/// Creates the register and mirror znodes (idempotently).
fn setup_paths(client: &mut ZkTcpClient) -> Result<(), String> {
    for (path, data) in [
        ("/chaos", Vec::new()),
        (REGISTER, encode_value(0)),
        (MIRROR_A, encode_value(0)),
        (MIRROR_B, encode_value(0)),
    ] {
        match client.create(path, data, CreateMode::Persistent) {
            Ok(_) | Err(ZkError::NodeExists { .. }) => {}
            Err(err) => return Err(format!("setup create {path}: {err}")),
        }
    }
    Ok(())
}

fn fail(reason: impl Into<String>) -> RunFailure {
    RunFailure { reason: reason.into(), violations: Vec::new() }
}

/// Runs one fault schedule end-to-end. See the module docs for the phases;
/// returns the run's fault/ops tallies, or the first verification failure.
///
/// # Errors
///
/// Fails on linearizability violations, replica divergence, same-epoch
/// split leaders, torn multis, a missed post-power-cycle session re-attach,
/// or harness-level trouble (members that cannot start, no quorum after
/// healing).
#[allow(clippy::too_many_lines)]
pub fn run_schedule(
    spec: EnsembleSpec,
    schedule: &[FaultEvent],
    options: &RunOptions,
) -> Result<RunReport, RunFailure> {
    let mut rng = ChaosRng::new(options.seed ^ 0xC4A0_5C4A);
    let mut ensemble =
        ChaosEnsemble::start(spec, options).map_err(|e| fail(format!("ensemble start: {e}")))?;

    // Wait for the bootstrap leader, then create the register.
    let deadline = Instant::now() + Duration::from_secs(5);
    {
        let mut client = connect_any(&ensemble.client_addrs, options.secure, deadline)
            .map_err(|e| fail(format!("initial connect: {e}")))?;
        let mut last = Err("never attempted".to_string());
        while Instant::now() < deadline {
            last = setup_paths(&mut client);
            if last.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
            if let Ok(fresh) = connect_any(&ensemble.client_addrs, options.secure, deadline) {
                client = fresh;
            }
        }
        last.map_err(|e| fail(format!("register setup: {e}")))?;
        client.close();
    }

    // Split-brain watchdog: two members claiming leadership of the *same*
    // epoch at once is the safety hole the grant election closes.
    let stop = Arc::new(AtomicBool::new(false));
    let split_brain: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let max_epoch = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let watchdog = {
        let members = Arc::clone(&ensemble.members);
        let stop = Arc::clone(&stop);
        let split_brain = Arc::clone(&split_brain);
        let max_epoch = Arc::clone(&max_epoch);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut leaders: HashMap<u32, Vec<NodeId>> = HashMap::new();
                {
                    let members = members.lock();
                    for server in members.iter().flatten() {
                        let epoch = server.epoch();
                        max_epoch.fetch_max(epoch, Ordering::Relaxed);
                        if server.role() == Role::Leader {
                            leaders.entry(epoch).or_default().push(server.id());
                        }
                    }
                }
                for (epoch, ids) in leaders {
                    if ids.len() > 1 {
                        split_brain.lock().push(format!("members {ids:?} both led epoch {epoch}"));
                    }
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // Workload.
    let recorder = Arc::new(HistoryRecorder::new());
    let workers: Vec<_> = (0..options.clients as u32)
        .map(|i| {
            let rng = ChaosRng::new(options.seed).fork(u64::from(i) | 0x8000_0000);
            let addrs = Arc::clone(&ensemble.client_addrs);
            let recorder = Arc::clone(&recorder);
            let stop = Arc::clone(&stop);
            let secure = options.secure;
            std::thread::spawn(move || worker_loop(i, rng, addrs, recorder, stop, secure))
        })
        .collect();

    // Walk the schedule.
    let started = Instant::now();
    let mut events: Vec<&FaultEvent> = schedule.iter().collect();
    events.sort_by_key(|e| e.at);
    let mut harness_error = None;
    for event in events {
        let due = started + event.at;
        while Instant::now() < due {
            std::thread::sleep(Duration::from_millis(2).min(due - Instant::now()));
        }
        if let Err(err) = ensemble.apply(&event.action, &mut rng) {
            harness_error = Some(format!("applying {:?}: {err}", event.action));
            break;
        }
    }
    if harness_error.is_none() {
        while started.elapsed() < options.duration {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Heal, revive, and let the workload breathe on the healthy ensemble so
    // the tail of the history contains post-heal operations.
    if let Err(err) = ensemble.restore() {
        harness_error.get_or_insert(format!("restore: {err}"));
    }
    std::thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::Relaxed);
    let mut stats = WorkerStats::default();
    for worker in workers {
        if let Ok(ws) = worker.join() {
            stats.ops += ws.ops;
            stats.reattaches += ws.reattaches;
        }
    }
    let _ = watchdog.join();
    if let Some(err) = harness_error {
        return Err(fail(format!("harness: {err}")));
    }

    // Barrier write + convergence: every surviving member must reach the
    // same zxid and hold a byte-identical tree.
    let verify_deadline = Instant::now() + Duration::from_secs(15);
    let mut client = connect_any(&ensemble.client_addrs, options.secure, verify_deadline)
        .map_err(|e| fail(format!("post-heal connect: {e}")))?;
    let barrier = loop {
        match client.set_data(REGISTER, encode_value(u64::MAX), -1) {
            Ok(stat) => break stat,
            Err(_) if Instant::now() < verify_deadline => {
                std::thread::sleep(Duration::from_millis(50));
                if let Ok(fresh) =
                    connect_any(&ensemble.client_addrs, options.secure, verify_deadline)
                {
                    client = fresh;
                }
            }
            Err(err) => return Err(fail(format!("barrier write never committed: {err}"))),
        }
    };
    let _ = barrier;
    loop {
        let zxids: Vec<i64> = {
            let members = ensemble.members.lock();
            members.iter().flatten().map(|s| s.last_applied_zxid()).collect()
        };
        let converged = !zxids.is_empty() && zxids.iter().all(|&z| z == zxids[0]);
        if converged {
            break;
        }
        if Instant::now() >= verify_deadline {
            return Err(fail(format!("replicas never converged after healing: zxids {zxids:?}")));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    {
        let members = ensemble.members.lock();
        let snapshots: Vec<(NodeId, Vec<u8>)> = members
            .iter()
            .flatten()
            .map(|s| {
                let replica = s.replica();
                let tree = replica.tree();
                (s.id(), zkserver::persist::encode_snapshot(&tree, &[]))
            })
            .collect();
        if let Some(((first_id, reference), rest)) = snapshots.split_first() {
            for (id, bytes) in rest {
                if bytes != reference {
                    return Err(fail(format!(
                        "replica state diverged after heal: {id} differs from {first_id} \
                         ({} vs {} snapshot bytes)",
                        bytes.len(),
                        reference.len()
                    )));
                }
            }
        }
    }

    // Multi atomicity: the mirrors are only ever written together.
    let mirror_a =
        client.get_data(MIRROR_A, false).map_err(|e| fail(format!("mirror read: {e}")))?;
    let mirror_b =
        client.get_data(MIRROR_B, false).map_err(|e| fail(format!("mirror read: {e}")))?;
    if mirror_a.0 != mirror_b.0 {
        return Err(fail(format!(
            "multi atomicity torn: mirrors hold {:?} vs {:?}",
            mirror_a.0, mirror_b.0
        )));
    }
    client.close();

    // Split-brain observations.
    let observed = split_brain.lock().clone();
    if !observed.is_empty() {
        return Err(fail(format!("same-epoch split leaders observed: {observed:?}")));
    }

    // Linearizability.
    let history = recorder.take();
    let violations = checker::check(&history, (0, 0));
    if !violations.is_empty() {
        return Err(RunFailure {
            reason: format!(
                "{} consistency violation(s) in a history of {} operations",
                violations.len(),
                history.len()
            ),
            violations,
        });
    }

    // Power-cycle runs must demonstrate session durability: at least one
    // client re-attached to a session that predates the full outage.
    let power_cycled = schedule.iter().any(|e| e.action == FaultAction::PowerCycle);
    if power_cycled && stats.reattaches == 0 {
        return Err(fail(
            "no client re-attached to its pre-outage session after the power cycle \
             (session table not recovered from disk)",
        ));
    }

    Ok(RunReport {
        ops: stats.ops,
        history_len: history.len(),
        frames: ensemble.plane.frames(),
        dropped: ensemble.plane.dropped(),
        duplicated: ensemble.plane.duplicated(),
        delayed: ensemble.plane.delayed(),
        reattaches: stats.reattaches,
        max_epoch: max_epoch.load(Ordering::Relaxed),
    })
}

/// Runs a named scenario with its own spec/duration.
///
/// # Errors
///
/// Propagates [`run_schedule`] failures.
pub fn run_scenario(scenario: &Scenario, seed: u64, secure: bool) -> Result<RunReport, RunFailure> {
    let options = RunOptions { seed, secure, duration: scenario.duration, clients: 3 };
    run_schedule(scenario.spec, &(scenario.schedule)(seed), &options)
}

/// The named scenario matrix (`chaos list` prints it).
pub fn catalogue() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "leader-partition",
            summary: "bootstrap leader cut off from the majority mid-load, later healed",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2500),
            schedule: |_| {
                vec![
                    FaultEvent {
                        at: ms(400),
                        action: FaultAction::Partition(vec![
                            vec![NodeId(1)],
                            vec![NodeId(2), NodeId(3)],
                        ]),
                    },
                    FaultEvent { at: ms(1500), action: FaultAction::Heal },
                ]
            },
        },
        Scenario {
            name: "leader-partition-mid-multi",
            summary: "seeded-time leader partition landing while atomic multis are in flight",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2500),
            schedule: |seed| {
                let mut rng = ChaosRng::new(seed ^ 0x11D);
                let at = 300 + rng.next_below(600);
                vec![
                    FaultEvent {
                        at: ms(at),
                        action: FaultAction::Partition(vec![
                            vec![NodeId(1)],
                            vec![NodeId(2), NodeId(3)],
                        ]),
                    },
                    FaultEvent { at: ms(at + 900), action: FaultAction::Heal },
                ]
            },
        },
        Scenario {
            name: "follower-isolation",
            summary: "one follower cut off from everyone, rejoining after heal",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2500),
            schedule: |_| {
                vec![
                    FaultEvent { at: ms(400), action: FaultAction::Isolate(NodeId(3)) },
                    FaultEvent { at: ms(1500), action: FaultAction::Heal },
                ]
            },
        },
        Scenario {
            name: "asymmetric-partition-election",
            summary: "a one-way link break during the election after a leader crash",
            spec: EnsembleSpec::durable(3, 1024),
            duration: ms(3000),
            schedule: |_| {
                vec![
                    FaultEvent {
                        at: ms(300),
                        action: FaultAction::BlockOneWay(NodeId(2), NodeId(3)),
                    },
                    FaultEvent { at: ms(500), action: FaultAction::Kill(0) },
                    FaultEvent { at: ms(1500), action: FaultAction::Heal },
                    FaultEvent { at: ms(1700), action: FaultAction::Restart(0) },
                ]
            },
        },
        Scenario {
            name: "message-chaos",
            summary: "background drop + duplicate + delay on every link for the whole run",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2800),
            schedule: |_| {
                vec![
                    FaultEvent {
                        at: ms(0),
                        action: FaultAction::SetFaults(LinkFaults {
                            drop_permille: 80,
                            duplicate_permille: 40,
                            delay_permille: 80,
                            max_delay: ms(30),
                        }),
                    },
                    FaultEvent { at: ms(2000), action: FaultAction::SetFaults(LinkFaults::none()) },
                ]
            },
        },
        Scenario {
            name: "duplicate-storm",
            summary: "forty percent of all peer frames delivered twice",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2600),
            schedule: |_| {
                vec![
                    FaultEvent {
                        at: ms(0),
                        action: FaultAction::SetFaults(LinkFaults {
                            duplicate_permille: 400,
                            ..LinkFaults::none()
                        }),
                    },
                    FaultEvent { at: ms(2000), action: FaultAction::SetFaults(LinkFaults::none()) },
                ]
            },
        },
        Scenario {
            name: "delay-reorder",
            summary: "heavy random delays reordering nearly half of all peer frames",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2600),
            schedule: |_| {
                vec![
                    FaultEvent {
                        at: ms(0),
                        action: FaultAction::SetFaults(LinkFaults {
                            delay_permille: 450,
                            max_delay: ms(60),
                            ..LinkFaults::none()
                        }),
                    },
                    FaultEvent { at: ms(2000), action: FaultAction::SetFaults(LinkFaults::none()) },
                ]
            },
        },
        Scenario {
            name: "leader-crash-restart",
            summary: "durable leader killed under load, restarted from its WAL",
            spec: EnsembleSpec::durable(3, 64),
            duration: ms(3000),
            schedule: |_| {
                vec![
                    FaultEvent { at: ms(600), action: FaultAction::Kill(0) },
                    FaultEvent { at: ms(1400), action: FaultAction::Restart(0) },
                ]
            },
        },
        Scenario {
            name: "follower-corrupt-rejoin",
            summary: "follower killed, its WAL bit-rotted on disk, then restarted",
            spec: EnsembleSpec::durable(3, 32),
            duration: ms(3000),
            schedule: |_| {
                vec![
                    FaultEvent { at: ms(500), action: FaultAction::Kill(2) },
                    FaultEvent { at: ms(550), action: FaultAction::CorruptStorage(2) },
                    FaultEvent { at: ms(900), action: FaultAction::Restart(2) },
                ]
            },
        },
        Scenario {
            name: "power-cycle",
            summary: "full-ensemble outage and disk recovery; sessions must survive",
            spec: EnsembleSpec::durable(3, 8),
            duration: ms(3200),
            schedule: |_| vec![FaultEvent { at: ms(1000), action: FaultAction::PowerCycle }],
        },
        Scenario {
            name: "split-leader-window",
            summary: "five members, election frames dropped during failover — the \
                      configuration where announcement-based election could crown two leaders",
            spec: EnsembleSpec::durable(5, 1024),
            duration: ms(3500),
            schedule: |_| {
                vec![
                    FaultEvent {
                        at: ms(300),
                        action: FaultAction::SetFaults(LinkFaults {
                            drop_permille: 250,
                            ..LinkFaults::none()
                        }),
                    },
                    FaultEvent { at: ms(500), action: FaultAction::Kill(0) },
                    FaultEvent { at: ms(1600), action: FaultAction::SetFaults(LinkFaults::none()) },
                    FaultEvent { at: ms(1800), action: FaultAction::Restart(0) },
                ]
            },
        },
        Scenario {
            name: "graceful-leader-drain",
            summary: "bootstrap leader drained mid-load: sub-second handoff, probe flip, \
                      monotone counters, no acknowledged write lost",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2500),
            schedule: |_| vec![FaultEvent { at: ms(800), action: FaultAction::Drain(0) }],
        },
        Scenario {
            name: "clock-skew-sessions",
            summary: "members disagree about time by seconds; session expiry must not fork state",
            spec: EnsembleSpec::in_memory(3),
            duration: ms(2800),
            schedule: |_| {
                vec![
                    FaultEvent { at: ms(300), action: FaultAction::SkewClock(1, 4_000) },
                    FaultEvent { at: ms(600), action: FaultAction::SkewClock(2, -4_000) },
                    FaultEvent { at: ms(900), action: FaultAction::SkewClock(0, 2_500) },
                    FaultEvent { at: ms(1900), action: FaultAction::SkewClock(0, 0) },
                    FaultEvent { at: ms(1900), action: FaultAction::SkewClock(1, 0) },
                    FaultEvent { at: ms(1900), action: FaultAction::SkewClock(2, 0) },
                ]
            },
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    catalogue().into_iter().find(|s| s.name == name)
}
