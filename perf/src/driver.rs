//! The load shapes: a closed loop of a fixed number of operations (`sat`),
//! an open loop at a fixed arrival rate (`paced`), and paired depth-1 legs
//! (`twin`). All check every reply against the oracle.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use trace::SpanRecord;

use crate::env;
use crate::gen::{self, GenOp, OpStream};
use crate::oracle::{self, Versions};
use crate::stats;
use crate::topo::{Cluster, Mode, Reply, Req, Session};
use crate::workloads::{self, Spec, KEYS_PER_DIR, SLICES};

/// What the oracle needs to judge the reply to one issued operation.
enum Expect {
    Read { key: usize, version: Option<u32> },
    Exists,
    Children,
    Write { key: usize, version: u32 },
    Multi { writes: Vec<(usize, u32)> },
}

/// One connection's generator, oracle state and precomputed paths.
struct Lane {
    spec: &'static Spec,
    stream: OpStream,
    versions: Versions,
    paths: Arc<Vec<String>>,
    writer: u8,
    attempted: u64,
    /// Write transactions issued (`set_data` or `multi`, one each) and the
    /// payload bytes they carried: the denominators of the `*_per_write`
    /// and write-amplification deltas, exact because the stream is.
    writes: u64,
    user_bytes: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Lane {
    fn new(
        spec: &'static Spec,
        seed: u64,
        conn: usize,
        conns: usize,
        paths: Arc<Vec<String>>,
    ) -> Lane {
        Lane {
            spec,
            stream: OpStream::new(spec, seed, conn, conns),
            versions: Versions::new(spec.total_keys(), spec.znodes, conn, conns),
            paths,
            writer: conn as u8,
            attempted: 0,
            writes: 0,
            user_bytes: 0,
            failed: 0,
            first_failures: Vec::new(),
        }
    }

    /// Draws the next operation and turns it into a request, the
    /// expectation its reply is checked against, and the shard its keys
    /// live on.
    fn next(&mut self) -> (Req, Expect, usize) {
        self.attempted += 1;
        let op = self.stream.next_op();
        let shard = match &op {
            GenOp::Get { key } | GenOp::Exists { key } | GenOp::Children { key } => *key,
            GenOp::Set { key } => *key,
            GenOp::Multi { first, .. } => *first,
        } / self.spec.znodes;
        let (req, expect) = self.request_for(op);
        (req, expect, shard)
    }

    fn request_for(&mut self, op: GenOp) -> (Req, Expect) {
        let spec = self.spec;
        match op {
            GenOp::Get { key } => (
                Req::Get(self.paths[key].clone()),
                Expect::Read { key, version: self.versions.expect_now(key) },
            ),
            GenOp::Exists { key } => (Req::Exists(self.paths[key].clone()), Expect::Exists),
            GenOp::Children { key } => {
                (Req::Children(workloads::dir_path(spec, key)), Expect::Children)
            }
            GenOp::Set { key } => {
                let version = self.versions.bump(key);
                let data = oracle::payload(key, version, self.writer, spec.size_of(key));
                self.writes += 1;
                self.user_bytes += data.len() as u64;
                (Req::Set(self.paths[key].clone(), data), Expect::Write { key, version })
            }
            GenOp::Multi { first, count } => {
                let writes: Vec<(usize, u32)> = self
                    .stream
                    .multi_keys(first, count)
                    .into_iter()
                    .map(|key| (key, self.versions.bump(key)))
                    .collect();
                let sets: Vec<(String, Vec<u8>)> = writes
                    .iter()
                    .map(|&(key, version)| {
                        let data = oracle::payload(key, version, self.writer, spec.size_of(key));
                        (self.paths[key].clone(), data)
                    })
                    .collect();
                self.writes += 1;
                self.user_bytes += sets.iter().map(|(_, data)| data.len() as u64).sum::<u64>();
                (Req::Multi(sets), Expect::Multi { writes })
            }
        }
    }

    /// Judges one reply; a mismatch of any kind is a failed operation.
    fn judge(&mut self, expect: Expect, reply: Reply) {
        let verdict = match (expect, reply) {
            (_, Reply::Failed(reason)) => Err(reason),
            (Expect::Read { key, version }, Reply::Data(data)) => {
                self.versions.check_read(key, version, self.spec.size_of(key), &data)
            }
            (Expect::Exists, Reply::Exists(true)) => Ok(()),
            (Expect::Children, Reply::Children(count)) if count == KEYS_PER_DIR => Ok(()),
            (Expect::Write { key, version }, Reply::Written) => {
                self.versions.acked(key, version);
                Ok(())
            }
            (Expect::Multi { writes }, Reply::MultiWritten(ok)) if ok == writes.len() => {
                for (key, version) in writes {
                    self.versions.acked(key, version);
                }
                Ok(())
            }
            (_, reply) => Err(format!("reply does not fit the request: {reply:?}")),
        };
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.first_failures.len() < 3 {
                self.first_failures.push(reason);
            }
        }
    }
}

pub fn all_paths(spec: &Spec) -> Arc<Vec<String>> {
    Arc::new((0..spec.total_keys()).map(|key| workloads::key_path(spec, key)).collect())
}

/// Result of one closed-loop phase.
#[derive(Debug)]
pub struct SatReport {
    /// When the first timed operation was released.
    pub started: Instant,
    pub attempted: u64,
    /// Write transactions issued and the payload bytes they carried.
    pub writes: u64,
    pub user_bytes: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Aggregate throughput of each slice (fewer than `SLICES` entries only
    /// when the phase was cut short).
    pub slice_ops_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Median resident set over the boundaries of the last quarter of slices.
    pub rss_mib: f64,
    /// Last acknowledged `(key, version)` of every key, all connections.
    pub acked: Vec<(usize, u32)>,
    /// True when the phase hit its deadline and stopped early.
    pub cut_short: bool,
}

/// Called at each slice boundary, by whichever connection completed the
/// boundary operation, with the index of the slice about to start
/// (`SLICES` after the last one).
pub type SliceHook<'a> = &'a (dyn Fn(usize) + Sync);

/// Slice boundaries of a closed loop, counted over the completions of all
/// connections together: the connection whose completion is the boundary
/// operation stamps the time. Per-connection slices would not do — the
/// connections drift apart, and rates of slices that did not overlap in
/// time cannot be added.
struct Marks<'a> {
    completed: AtomicU64,
    warmup: u64,
    per_slice: u64,
    /// `(boundary, when, resident MiB then)`.
    at: Mutex<Vec<(usize, Instant, f64)>>,
    hook: SliceHook<'a>,
}

impl Marks<'_> {
    fn completed_one(&self) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if done < self.warmup || !(done - self.warmup).is_multiple_of(self.per_slice) {
            return;
        }
        let boundary = ((done - self.warmup) / self.per_slice) as usize;
        if boundary <= SLICES {
            (self.hook)(boundary);
            let now = Instant::now();
            self.at.lock().expect("no holder panics").push((boundary, now, env::rss_mib()));
        }
    }
}

/// Closed loop: `ops` operations split over the connections, each keeping
/// `spec.depth` requests in flight. The first tenth is warm-up; the rest is
/// cut into [`SLICES`] slices of equal op count.
pub fn run_sat(
    spec: &'static Spec,
    cluster: &Cluster,
    seed: u64,
    ops: u64,
    conns: usize,
    deadline: Duration,
    hook: SliceHook<'_>,
) -> SatReport {
    let paths = all_paths(spec);
    let per_conn = ops / conns as u64;
    let (warmup, per_slice) = stats::slice_plan(per_conn * conns as u64, SLICES);
    let marks =
        Marks { completed: AtomicU64::new(0), warmup, per_slice, at: Mutex::new(Vec::new()), hook };
    let gate = Barrier::new(conns + 1);
    let (lanes, started, wall_s, cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let paths = Arc::clone(&paths);
                let (gate, marks) = (&gate, &marks);
                scope.spawn(move || {
                    let mut session = cluster.connect(conn);
                    let mut lane = Lane::new(spec, seed, conn, conns, paths);
                    let mut window: VecDeque<Expect> = VecDeque::with_capacity(spec.depth);
                    let mut cut_short = false;
                    gate.wait();
                    let started = Instant::now();
                    for issued in 0..per_conn {
                        if window.len() >= spec.depth {
                            let expect = window.pop_front().expect("window is full");
                            lane.judge(expect, session.complete());
                            marks.completed_one();
                        }
                        // A backstop for a box far slower than the reference
                        // one; looked at once per 64 operations.
                        if issued % 64 == 0 && started.elapsed() > deadline {
                            cut_short = true;
                            break;
                        }
                        let (req, expect, _shard) = lane.next();
                        session.issue(req);
                        window.push_back(expect);
                    }
                    while let Some(expect) = window.pop_front() {
                        lane.judge(expect, session.complete());
                        marks.completed_one();
                    }
                    session.close();
                    (lane, cut_short)
                })
            })
            .collect();
        gate.wait();
        let started = Instant::now();
        let cpu_before = env::cpu_seconds();
        let lanes: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("load connection panicked")).collect();
        let wall_s = started.elapsed().as_secs_f64();
        (lanes, started, wall_s, env::cpu_seconds() - cpu_before)
    });

    let mut at = marks.at.into_inner().expect("no holder panicked");
    at.sort_unstable_by_key(|(boundary, _, _)| *boundary);
    let slice_ops_s = at
        .windows(2)
        .map(|pair| per_slice as f64 / (pair[1].1 - pair[0].1).as_secs_f64())
        .collect();
    // Resident memory over the last quarter of the run, not one reading at
    // the very end: a snapshot's buffers come and go, and a single sample
    // catches them or not (14.5 - 17 MiB on the durable quorum).
    let tail: Vec<f64> = at.iter().skip(at.len() * 3 / 4).map(|(_, _, rss)| *rss).collect();
    let rss_mib = if tail.is_empty() { env::rss_mib() } else { stats::median(&tail) };
    let mut report = SatReport {
        started,
        attempted: 0,
        writes: 0,
        user_bytes: 0,
        failed: 0,
        failures: Vec::new(),
        slice_ops_s,
        wall_s,
        cpu_s,
        rss_mib,
        acked: Vec::new(),
        cut_short: false,
    };
    for (lane, cut_short) in lanes {
        report.attempted += lane.attempted;
        report.writes += lane.writes;
        report.user_bytes += lane.user_bytes;
        report.failed += lane.failed;
        report.acked.extend(lane.versions.own_acked());
        report.failures.extend(lane.first_failures);
        report.cut_short |= cut_short;
    }
    report.acked.sort_unstable();
    report
}

/// Result of one open-loop phase.
#[derive(Debug, Default)]
pub struct PacedReport {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `(seconds into the phase the operation was due, latency from that
    /// instant in µs)`.
    pub latency_us: Vec<(f64, f64)>,
    /// How late each request left, µs.
    pub lag_us: Vec<f64>,
    pub seconds: f64,
    pub wall_s: f64,
}

/// Sleeps most of the way to `due` and `yield_now`-spins the rest: a plain
/// sleep overshoots by tens of microseconds, which would be most of a
/// small operation's latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(250);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop: `conns` connections, each issuing one blocking operation at
/// each of its own seeded exponential arrival times (`rate / conns` each,
/// so the superposition is Poisson at `rate`). A connection still busy
/// when its next operation is due sends it late, and the latency — timed
/// from the intended instant — includes that wait.
pub fn run_paced(
    spec: &'static Spec,
    cluster: &Cluster,
    seed: u64,
    rate: f64,
    seconds: f64,
    conns: usize,
) -> PacedReport {
    let paths = all_paths(spec);
    let gate = Barrier::new(conns + 1);
    let mut report = PacedReport { seconds, ..PacedReport::default() };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let paths = Arc::clone(&paths);
                let gate = &gate;
                scope.spawn(move || {
                    let mut session = cluster.connect(conn);
                    let mut lane = Lane::new(spec, seed, conn, conns, paths);
                    let schedule =
                        gen::arrivals(seed ^ ((conn as u64) << 32), rate / conns as f64, seconds);
                    let mut latency = Vec::with_capacity(schedule.len());
                    let mut lag = Vec::with_capacity(schedule.len());
                    // Warm the connection (session enclave, caches, allocator)
                    // with untimed reads before the clock starts.
                    for key in 0..64.min(spec.plain_keys()) {
                        session.issue(Req::Get(lane.paths[key].clone()));
                        let _ = session.complete();
                    }
                    gate.wait();
                    let start = Instant::now();
                    for offset in &schedule {
                        let due = start + Duration::from_nanos(*offset);
                        wait_until(due);
                        let (req, expect, _shard) = lane.next();
                        let sent = Instant::now();
                        session.issue(req);
                        let reply = session.complete();
                        let done = Instant::now();
                        lane.judge(expect, reply);
                        lag.push((sent - due).as_secs_f64() * 1e6);
                        latency.push((*offset as f64 / 1e9, (done - due).as_secs_f64() * 1e6));
                    }
                    session.close();
                    (lane, latency, lag)
                })
            })
            .collect();
        gate.wait();
        let wall = Instant::now();
        for handle in handles {
            let (lane, latency, lag) = handle.join().expect("paced connection panicked");
            report.attempted += lane.attempted;
            report.failed += lane.failed;
            report.failures.extend(lane.first_failures);
            report.latency_us.extend(latency);
            report.lag_us.extend(lag);
        }
        report.wall_s = wall.elapsed().as_secs_f64();
    });
    report
}

/// Re-reads every key through a fresh session and checks that it holds the
/// last acknowledged version; returns `(keys checked, what is wrong)`.
pub fn verify_final(
    spec: &'static Spec,
    cluster: &Cluster,
    acked: &[(usize, u32)],
) -> (u64, Vec<String>) {
    let paths = all_paths(spec);
    let mut session = cluster.connect(0);
    let mut problems = Vec::new();
    let mut window: VecDeque<(usize, u32)> = VecDeque::new();
    let mut check = |reply: Reply, (key, version): (usize, u32)| {
        let outcome = match reply {
            Reply::Data(data) => oracle::parse(&data).and_then(|(got_key, got_version, _)| {
                if (got_key, got_version) == (key, version) && data.len() == spec.size_of(key) {
                    Ok(())
                } else {
                    Err(format!("holds key {got_key} v{got_version} ({} bytes)", data.len()))
                }
            }),
            other => Err(format!("{other:?}")),
        };
        if let Err(reason) = outcome {
            problems.push(format!("key {key} expected v{version}: {reason}"));
        }
    };
    for &entry in acked {
        if window.len() >= spec.depth {
            check(session.complete(), window.pop_front().expect("window is full"));
        }
        session.issue(Req::Get(paths[entry.0].clone()));
        window.push_back(entry);
    }
    while let Some(entry) = window.pop_front() {
        check(session.complete(), entry);
    }
    session.close();
    (acked.len() as u64, problems)
}

/// Result of the twin phase: per-operation latencies of each leg (µs) and
/// the spans the flight recorder held for the secure and the plain leg.
#[derive(Debug, Default)]
pub struct TwinReport {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub secure_us: Vec<f64>,
    pub plain_us: Vec<f64>,
    /// The plain twin with the gateway hop toggled: through an added
    /// gateway when `hop_adds_gateway`, otherwise straight to the shards of
    /// a topology whose plain leg goes through one.
    pub hop_us: Vec<f64>,
    pub hop_adds_gateway: bool,
    pub secure_spans: Vec<SpanRecord>,
    pub plain_spans: Vec<SpanRecord>,
}

/// One leg of the twin: a lane and the session(s) it talks through — one
/// per shard when it bypasses the gateway of a sharded topology.
struct Leg {
    lane: Lane,
    sessions: Vec<Session>,
    latency_us: Vec<f64>,
    spans: Vec<SpanRecord>,
}

impl Leg {
    /// Runs `ops` blocking operations; keeps their latencies and the spans
    /// the recorder holds afterwards unless this is the warm-up round.
    fn block(&mut self, ops: usize, keep: bool) {
        trace::clear();
        for _ in 0..ops {
            let (req, expect, shard) = self.lane.next();
            let session = match self.sessions.len() {
                1 => &mut self.sessions[0],
                _ => &mut self.sessions[shard],
            };
            let start = Instant::now();
            session.issue(req);
            let reply = session.complete();
            let took = start.elapsed();
            self.lane.judge(expect, reply);
            if keep {
                self.latency_us.push(took.as_secs_f64() * 1e6);
            }
        }
        if keep {
            self.spans.extend(trace::snapshot());
        }
    }
}

/// Paired legs on one op stream, interleaved in blocks so every leg samples
/// the same host weather: the product (secure), its plain twin, and the
/// plain twin with the gateway hop toggled (added where the topology has
/// none, bypassed where it has one). Depth 1, so a latency is a whole
/// round trip and the recorder's spans of one request do not overlap the
/// next one's.
pub fn run_twin(spec: &'static Spec, scratch: &Path, seed: u64, smoke: bool) -> TwinReport {
    const ROUNDS: usize = 5;
    let block =
        (spec.sat_ops_per_budget_s as usize / 10).clamp(50, 2_000) / if smoke { 10 } else { 1 };
    let secure = Cluster::boot(spec, Mode::Secure, scratch);
    secure.preload();
    let plain = Cluster::boot(spec, Mode::Plain, scratch);
    plain.preload();
    let paths = all_paths(spec);
    // Conn 0 of 2 on both twins: identical op streams. The hop leg shares
    // the plain cluster, so it takes the other key range.
    let lane = |conn| Lane::new(spec, seed, conn, 2, Arc::clone(&paths));
    let leg = |lane, sessions| Leg { lane, sessions, latency_us: Vec::new(), spans: Vec::new() };
    let hop_gateway = plain.gateway.is_none().then(|| plain.front_gateway());
    let hop_sessions = match &hop_gateway {
        Some(gateway) => vec![plain.session_to(gateway.local_addr())],
        None => (0..spec.shards()).map(|shard| plain.connect_direct(shard)).collect(),
    };
    let mut legs = [
        leg(lane(0), vec![secure.connect(0)]),
        leg(lane(0), vec![plain.connect(0)]),
        leg(lane(1), hop_sessions),
    ];
    for round in 0..ROUNDS {
        for leg in &mut legs {
            leg.block(block, round > 0);
        }
    }
    let mut report = TwinReport::default();
    let [secure_leg, plain_leg, hop_leg] = legs;
    for leg in [&secure_leg, &plain_leg, &hop_leg] {
        report.attempted += leg.lane.attempted;
        report.failed += leg.lane.failed;
        report.failures.extend(leg.lane.first_failures.iter().cloned());
    }
    for leg in [secure_leg.sessions, plain_leg.sessions, hop_leg.sessions] {
        leg.into_iter().for_each(Session::close);
    }
    report.secure_us = secure_leg.latency_us;
    report.secure_spans = secure_leg.spans;
    report.plain_us = plain_leg.latency_us;
    report.plain_spans = plain_leg.spans;
    report.hop_us = hop_leg.latency_us;
    report.hop_adds_gateway = hop_gateway.is_some();
    if let Some(gateway) = hop_gateway {
        gateway.shutdown();
    }
    secure.shutdown();
    plain.shutdown();
    report
}
