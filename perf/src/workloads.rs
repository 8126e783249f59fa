//! The four frozen workloads. Everything a later PR compares against is
//! a constant in this file: topology, data shape, op mix, client depth,
//! op budget and paced rate. Changing one re-baselines the benchmark.

/// How a workload's members are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One in-memory member running the entry-enclave pipeline.
    SecureMember,
    /// Three durable entry-enclave members; clients on the two followers.
    DurableQuorum,
    /// A routing gateway in front of two in-memory single-member shards,
    /// sealed-prefix shard map, client-side sealing.
    Gateway,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Zipf(f64),
    Uniform,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Exists,
    Children,
    Set,
    /// `ops` `set_data` sub-operations of `payload` bytes each.
    Multi {
        ops: usize,
        payload: usize,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub topology: Topology,
    /// Znodes preloaded (per shard for [`Topology::Gateway`]).
    pub znodes: usize,
    /// Path components of a leaf znode.
    pub path_depth: usize,
    pub payload: usize,
    pub key_dist: KeyDist,
    /// `(kind, weight)`; weights sum to 100.
    pub mix: &'static [(OpKind, u32)],
    /// Requests each connection keeps in flight. The pin rule follows from
    /// it: depth 1 blocks per op, so the closed loop runs pinned to one CPU
    /// (otherwise it measures which vCPU the hypervisor woke); depth >= 8
    /// never sleeps and runs on all CPUs.
    pub depth: usize,
    /// Closed-loop operations per second of `--seconds` budget given to the
    /// `sat` phase: the op count is this times the budget, so it is fixed
    /// per run length and the phase lasts about the budget on the
    /// reference box (2 vCPU). Fixed counts, not durations: in-memory write
    /// cost grows with history, so a fixed-duration loop would punish a
    /// faster build with a longer history.
    pub sat_ops_per_budget_s: u64,
    /// Open-loop arrival rate: 30-40 % of the pinned closed-loop capacity.
    pub paced_rate: f64,
    /// Blocking connections of the open loop, each with its own arrival
    /// stream: enough that a connection is rarely still busy when its next
    /// operation is due.
    pub paced_conns: usize,
    /// Seconds of open loop per second of `--seconds`. More than the 0.6 the
    /// closed loop leaves over only where the disk is in the path: its fsync
    /// time wanders by the second, and only more seconds average that out.
    pub paced_share: f64,
}

impl Spec {
    pub fn shards(&self) -> usize {
        match self.topology {
            Topology::Gateway => 2,
            _ => 1,
        }
    }

    pub fn members(&self) -> usize {
        match self.topology {
            Topology::DurableQuorum => 3,
            _ => 1,
        }
    }

    pub fn total_keys(&self) -> usize {
        self.znodes * self.shards()
    }

    /// Keys (per shard, at the top of the range) reserved for `multi`
    /// sub-operations. They hold the multi's smaller payload and are never
    /// read in the timed loop, so reads keep returning full-size values
    /// however long the run is.
    pub fn multi_keys(&self) -> usize {
        if self.multi_payload().is_some() {
            self.znodes / 8
        } else {
            0
        }
    }

    /// Keys (per shard) that single-key operations draw from.
    pub fn plain_keys(&self) -> usize {
        self.znodes - self.multi_keys()
    }

    fn multi_payload(&self) -> Option<usize> {
        self.mix.iter().find_map(|(kind, _)| match kind {
            OpKind::Multi { payload, .. } => Some(*payload),
            _ => None,
        })
    }

    /// Payload size of `key` (shard-major index): the multi region holds the
    /// multi's sub-operation size, everything else the workload's.
    pub fn size_of(&self, key: usize) -> usize {
        match self.multi_payload() {
            Some(size) if key % self.znodes >= self.plain_keys() => size,
            _ => self.payload,
        }
    }

    /// Whether the closed-loop phase pins the process to one CPU.
    pub fn sat_pinned(&self) -> bool {
        self.depth == 1
    }

    /// Share of the mix that is a write (`set_data` or `multi`).
    pub fn write_fraction(&self) -> f64 {
        let writes: u32 = self
            .mix
            .iter()
            .filter(|(kind, _)| matches!(kind, OpKind::Set | OpKind::Multi { .. }))
            .map(|(_, weight)| weight)
            .sum();
        f64::from(writes) / 100.0
    }
}

/// Keys per leaf directory; `get_children` always lists this many.
pub const KEYS_PER_DIR: usize = 16;

/// Slices the timed part of a closed-loop phase is cut into.
pub const SLICES: usize = 16;

/// The plaintext every payload carries; after a secure workload neither a
/// replica tree nor a data directory may contain it.
pub const MARKER: &[u8; 16] = b"PERF-PLAIN-MARK!";

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "read_hot",
        why: "Cached small reads: netcore + jute + transport open/seal + tree lookup; ZAB/WAL changes must not show here",
        topology: Topology::SecureMember,
        znodes: 2_048,
        path_depth: 4,
        payload: 128,
        key_dist: KeyDist::Zipf(0.99),
        mix: &[(OpKind::Get, 90), (OpKind::Exists, 5), (OpKind::Children, 5)],
        depth: 8,
        sat_ops_per_budget_s: 95_000,
        paced_rate: 16_000.0,
        paced_conns: 2,
        paced_share: 0.6,
    },
    Spec {
        name: "write_quorum",
        why: "1 KiB writes via followers of a 3-member durable quorum: forward, propose, 3 WAL fsyncs, ack, apply",
        topology: Topology::DurableQuorum,
        znodes: 512,
        path_depth: 3,
        payload: 1_024,
        key_dist: KeyDist::Uniform,
        mix: &[(OpKind::Set, 100)],
        depth: 8,
        sat_ops_per_budget_s: 1_250,
        paced_rate: 300.0,
        paced_conns: 4,
        paced_share: 1.25,
    },
    Spec {
        name: "gateway_mixed",
        why: "70/25/5 get/set/multi through the gateway over two in-memory shards: the routing hop is a large share",
        topology: Topology::Gateway,
        znodes: 2_048,
        path_depth: 3,
        payload: 128,
        key_dist: KeyDist::Uniform,
        mix: &[
            (OpKind::Get, 70),
            (OpKind::Set, 25),
            (OpKind::Multi { ops: 4, payload: 128 }, 5),
        ],
        depth: 1,
        sat_ops_per_budget_s: 19_500,
        paced_rate: 8_000.0,
        paced_conns: 2,
        paced_share: 0.6,
    },
    Spec {
        name: "bulk_sealed",
        why: "4 KiB values over 2x the path cache, write-heavy: GCM seal/open is over half the op; history drift shows",
        topology: Topology::SecureMember,
        znodes: 8_192,
        path_depth: 5,
        payload: 4_096,
        key_dist: KeyDist::Uniform,
        mix: &[
            (OpKind::Get, 45),
            (OpKind::Set, 45),
            (OpKind::Multi { ops: 8, payload: 512 }, 10),
        ],
        depth: 8,
        sat_ops_per_budget_s: 10_000,
        paced_rate: 3_000.0,
        paced_conns: 2,
        paced_share: 0.6,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

/// The plaintext path of key `key` (shard-major index) of `spec`.
///
/// Leaf directories hold [`KEYS_PER_DIR`] keys; the levels above fan out in
/// base 8 with the last level taking the remainder, so `path_depth`
/// components always end in `…/k<key>`.
pub fn key_path(spec: &Spec, key: usize) -> String {
    let mut path = dir_path(spec, key);
    path.push_str("/k");
    path.push_str(&key.to_string());
    path
}

/// The leaf directory holding `key`.
pub fn dir_path(spec: &Spec, key: usize) -> String {
    let shard = key / spec.znodes;
    let mut dir = (key % spec.znodes) / KEYS_PER_DIR;
    let mut path = root_path(spec, shard);
    let levels = spec.path_depth - 2;
    for level in 0..levels {
        let digit = if level + 1 == levels { dir } else { dir % 8 };
        dir /= 8;
        path.push('/');
        path.push((b'a' + level as u8) as char);
        path.push_str(&digit.to_string());
    }
    path
}

/// The top-level znode of a shard's subtree (`/p` without a gateway).
pub fn root_path(spec: &Spec, shard: usize) -> String {
    match spec.topology {
        Topology::Gateway => format!("/s{shard}"),
        _ => "/p".to_string(),
    }
}

/// Every directory znode of `spec`, parents before children.
pub fn all_dirs(spec: &Spec) -> Vec<String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut dirs = Vec::new();
    for key in (0..spec.total_keys()).step_by(KEYS_PER_DIR) {
        let leaf = dir_path(spec, key);
        let cuts = leaf.match_indices('/').map(|(at, _)| at).skip(1).chain([leaf.len()]);
        for cut in cuts {
            if seen.insert(leaf[..cut].to_string()) {
                dirs.push(leaf[..cut].to_string());
            }
        }
    }
    dirs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one_hundred_and_names_are_unique() {
        for spec in SPECS.iter() {
            assert_eq!(spec.mix.iter().map(|(_, w)| w).sum::<u32>(), 100, "{}", spec.name);
            assert_eq!(spec.znodes % KEYS_PER_DIR, 0);
            assert!(spec.payload >= 16 + MARKER.len());
        }
        let mut names: Vec<_> = SPECS.iter().map(|spec| spec.name).collect();
        names.dedup();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn paths_have_the_declared_depth_and_sixteen_keys_per_dir() {
        for spec in SPECS.iter() {
            let mut per_dir = std::collections::BTreeMap::new();
            for key in 0..spec.total_keys() {
                let path = key_path(spec, key);
                assert_eq!(path.matches('/').count(), spec.path_depth, "{path}");
                *per_dir.entry(dir_path(spec, key)).or_insert(0usize) += 1;
            }
            assert!(per_dir.values().all(|&count| count == KEYS_PER_DIR));
            assert_eq!(per_dir.len(), spec.total_keys() / KEYS_PER_DIR);
        }
    }

    #[test]
    fn dirs_list_parents_first_and_once() {
        for spec in SPECS.iter() {
            let dirs = all_dirs(spec);
            for (index, dir) in dirs.iter().enumerate() {
                assert!(!dirs[..index].contains(dir));
                if let Some(cut) = dir.rfind('/').filter(|&cut| cut > 0) {
                    assert!(dirs[..index].iter().any(|parent| parent == &dir[..cut]), "{dir}");
                }
            }
            for key in 0..spec.total_keys() {
                assert!(dirs.contains(&dir_path(spec, key)));
            }
        }
    }

    #[test]
    fn pin_rule_follows_depth() {
        for spec in SPECS.iter() {
            assert_eq!(spec.sat_pinned(), spec.depth == 1);
            assert!(spec.depth == 1 || spec.depth >= 8);
        }
    }
}
