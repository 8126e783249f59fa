//! Seeded, deterministic input generation: the RNG, the zipf and
//! exponential samplers, and the per-connection operation stream.
//!
//! Everything a run sends derives from `--seed` alone — keys, op mix and
//! open-loop arrival times — so two runs with one seed offer the servers
//! byte-identical request sequences (per connection) and the program's own
//! `*_per_write` counters repeat exactly.

use crate::workloads::{KeyDist, OpKind, Spec};

/// xoshiro256** seeded through splitmix64. Local on purpose: the sequence
/// must not change when the vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A generator for stream `stream` of `seed`; distinct streams of one
    /// seed are independent (connections, arrival clock, probes).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut state = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        Rng { s: std::array::from_fn(|_| splitmix64(&mut state)) }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Exponential with the given mean (inverse-CDF; never returns infinity).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

/// Zipf(θ) over ranks `0..n` by inverse CDF on a precomputed table: exact,
/// and a draw is one uniform plus a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One generated operation. Keys are indices into the workload's key space;
/// `OpStream` has already mapped writes onto the issuing connection's range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenOp {
    Get {
        key: usize,
    },
    Exists {
        key: usize,
    },
    /// Lists the leaf directory `key` lives in.
    Children {
        key: usize,
    },
    Set {
        key: usize,
    },
    /// `set_data` on `count` consecutive own keys starting at `first`
    /// (wrapping inside the connection's range), in one transaction.
    Multi {
        first: usize,
        count: usize,
    },
}

/// The operation stream of one connection.
///
/// Connection `c` of `conns` owns the keys with `key % conns == c`; every
/// write lands in the issuer's own range so the oracle knows the exact
/// version a later read must return. Reads range over the whole key space.
/// With `shards > 1` op `i` of a connection goes to shard `i % shards`
/// (keys `shard * per_shard ..`), so every session touches every shard.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    zipf: Option<Zipf>,
    mix: &'static [(OpKind, u32)],
    mix_total: u32,
    per_shard: usize,
    /// Keys per shard below the multi region (see `Spec::multi_keys`).
    plain_keys: usize,
    shards: usize,
    conn: usize,
    conns: usize,
    issued: u64,
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64, conn: usize, conns: usize) -> OpStream {
        let zipf = match spec.key_dist {
            KeyDist::Zipf(theta) => Some(Zipf::new(spec.plain_keys(), theta)),
            KeyDist::Uniform => None,
        };
        OpStream {
            rng: Rng::new(seed, 1 + conn as u64),
            zipf,
            mix: spec.mix,
            mix_total: spec.mix.iter().map(|(_, weight)| weight).sum(),
            per_shard: spec.znodes,
            plain_keys: spec.plain_keys(),
            shards: spec.shards(),
            conn,
            conns,
            issued: 0,
        }
    }

    fn draw_key(&mut self) -> usize {
        match &self.zipf {
            // Rank r is key (r * 40503) mod n: hot keys spread over the
            // directories instead of clustering in the first one. 40503 is
            // odd, so the map is a bijection on every power-of-two n.
            Some(zipf) => (zipf.sample(&mut self.rng) * 40_503) % self.plain_keys,
            None => self.rng.below(self.plain_keys as u64) as usize,
        }
    }

    /// Moves `key` (an index inside one shard) onto this connection's range.
    /// Region sizes are multiples of the connection count, so the result
    /// stays in the region `key` was drawn from.
    fn own(&self, key: usize) -> usize {
        key - key % self.conns + self.conn
    }

    pub fn next_op(&mut self) -> GenOp {
        let shard_base = (self.issued as usize % self.shards) * self.per_shard;
        self.issued += 1;
        let mut pick = self.rng.below(u64::from(self.mix_total)) as u32;
        let mut kind = self.mix[0].0;
        for &(candidate, weight) in self.mix {
            if pick < weight {
                kind = candidate;
                break;
            }
            pick -= weight;
        }
        let key = self.draw_key();
        let multi_keys = self.per_shard - self.plain_keys;
        match kind {
            OpKind::Get => GenOp::Get { key: shard_base + key },
            OpKind::Exists => GenOp::Exists { key: shard_base + key },
            OpKind::Children => GenOp::Children { key: shard_base + key },
            OpKind::Set => GenOp::Set { key: shard_base + self.own(key) },
            OpKind::Multi { ops, .. } => {
                let first = self.plain_keys + self.own(key % multi_keys);
                GenOp::Multi { first: shard_base + first, count: ops }
            }
        }
    }

    /// The keys a [`GenOp::Multi`] touches: `count` own keys from `first`,
    /// stepping by the connection count and wrapping inside the shard's
    /// multi region.
    pub fn multi_keys(&self, first: usize, count: usize) -> Vec<usize> {
        let shard_base = first - first % self.per_shard;
        let mut key = first - shard_base;
        (0..count)
            .map(|_| {
                let current = key;
                key += self.conns;
                if key >= self.per_shard {
                    key = self.plain_keys + self.conn;
                }
                shard_base + current
            })
            .collect()
    }
}

/// Intended send offsets (ns from phase start) of an open-loop phase:
/// exponential inter-arrivals at `rate` per second for `seconds`.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0xA221);
    let mean_ns = 1e9 / rate;
    let horizon = seconds * 1e9;
    let mut at = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.05) as usize + 16);
    loop {
        at += rng.exponential(mean_ns);
        if at >= horizon {
            return out;
        }
        out.push(at as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    #[test]
    fn same_seed_same_sequence_different_seed_differs() {
        for spec in SPECS.iter() {
            let ops = |seed: u64| {
                let mut stream = OpStream::new(spec, seed, 1, 2);
                (0..2_000).map(|_| stream.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(ops(7), ops(7), "{}: seed 7 must repeat", spec.name);
            assert_ne!(ops(7), ops(8), "{}: seeds must differ", spec.name);
        }
        assert_eq!(arrivals(3, 4_000.0, 0.5), arrivals(3, 4_000.0, 0.5));
        assert_ne!(arrivals(3, 4_000.0, 0.5), arrivals(4, 4_000.0, 0.5));
    }

    #[test]
    fn connections_draw_independent_streams() {
        let spec = &SPECS[0];
        let mut a = OpStream::new(spec, 5, 0, 2);
        let mut b = OpStream::new(spec, 5, 1, 2);
        let same = (0..500).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 250, "streams of two connections look identical ({same}/500)");
    }

    #[test]
    fn writes_stay_in_the_issuers_range_and_shards_alternate() {
        for spec in SPECS.iter() {
            for conn in 0..2 {
                let mut stream = OpStream::new(spec, 11, conn, 2);
                for index in 0..5_000usize {
                    let shard = index % spec.shards();
                    let in_shard = |key: usize| key / spec.znodes == shard;
                    match stream.next_op() {
                        GenOp::Set { key } => {
                            assert_eq!(key % spec.znodes % 2, conn);
                            assert!(in_shard(key));
                        }
                        GenOp::Multi { first, count } => {
                            for key in stream.multi_keys(first, count) {
                                assert_eq!(key % spec.znodes % 2, conn);
                                assert!(in_shard(key), "multi must stay on one shard");
                            }
                        }
                        GenOp::Get { key } | GenOp::Exists { key } | GenOp::Children { key } => {
                            assert!(in_shard(key));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn op_mix_matches_the_declared_weights() {
        for spec in SPECS.iter() {
            let mut stream = OpStream::new(spec, 1, 0, 2);
            let total = 40_000;
            let mut writes = 0usize;
            for _ in 0..total {
                if matches!(stream.next_op(), GenOp::Set { .. } | GenOp::Multi { .. }) {
                    writes += 1;
                }
            }
            let declared: u32 = spec
                .mix
                .iter()
                .filter(|(kind, _)| matches!(kind, OpKind::Set | OpKind::Multi { .. }))
                .map(|(_, weight)| weight)
                .sum();
            let expected = f64::from(declared) / 100.0;
            let observed = writes as f64 / total as f64;
            assert!((observed - expected).abs() < 0.01, "{}: {observed} vs {expected}", spec.name);
        }
    }

    #[test]
    fn zipf_is_skewed_and_exact_at_the_head() {
        let zipf = Zipf::new(2_048, 0.99);
        let mut rng = Rng::new(42, 9);
        let draws = 200_000;
        let mut counts = vec![0u32; 2_048];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=2_048).map(|r| 1.0 / (r as f64).powf(0.99)).sum();
        let head = f64::from(counts[0]) / f64::from(draws);
        assert!((head - 1.0 / harmonic).abs() < 0.005, "rank-0 share {head}");
        assert!(counts[0] > counts[9] && counts[9] > counts[999]);
        assert_eq!(counts.iter().sum::<u32>(), draws);
    }

    #[test]
    fn zipf_rank_scatter_is_a_bijection() {
        for n in [512usize, 2_048, 8_192] {
            let mut seen = vec![false; n];
            for rank in 0..n {
                seen[(rank * 40_503) % n] = true;
            }
            assert!(seen.iter().all(|&hit| hit));
        }
    }

    #[test]
    fn exponential_arrivals_have_the_requested_rate_and_shape() {
        let times = arrivals(99, 10_000.0, 4.0);
        let rate = times.len() as f64 / 4.0;
        assert!((rate - 10_000.0).abs() < 200.0, "rate {rate}");
        assert!(times.windows(2).all(|pair| pair[0] <= pair[1]));
        let gaps: Vec<f64> = times.windows(2).map(|pair| (pair[1] - pair[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|gap| (gap - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential: standard deviation equals the mean.
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1, 1);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
    }
}
