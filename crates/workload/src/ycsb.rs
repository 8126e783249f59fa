//! YCSB-style workload generator (Figure 11).
//!
//! The paper complements its own evaluator with the YCSB benchmark suite: a
//! mixed synchronous read/write workload issued by 35 threads, 500 k
//! operations per payload size. YCSB selects records with a Zipfian
//! distribution; this module reproduces the request-key distribution and the
//! read/update mix so the same workload can be replayed against the analytic
//! model or the real servers.

use jute::records::{CreateMode, CreateRequest, GetDataRequest, SetDataRequest};
use jute::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::variant::OpKind;

/// YCSB workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbWorkload {
    /// Fraction of reads (YCSB workload A = 0.5, B = 0.95).
    pub read_proportion: f64,
    /// Number of records (znodes) in the working set.
    pub record_count: usize,
    /// Payload size per record in bytes.
    pub payload: usize,
    /// Zipfian skew parameter (0 = uniform; YCSB default is 0.99).
    pub zipf_theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YcsbWorkload {
    fn default() -> Self {
        // The paper's Figure 11 uses a mixed read/write workload; YCSB
        // workload A (50:50) with the default Zipfian skew is the closest
        // published configuration.
        YcsbWorkload {
            read_proportion: 0.5,
            record_count: 1_000,
            payload: 1_024,
            zipf_theta: 0.99,
            seed: 7,
        }
    }
}

/// A Zipfian integer generator over `[0, n)` using the standard YCSB
/// construction (Gray et al.).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: usize,
    theta: f64,
    zeta_n: f64,
    alpha: f64,
    eta: f64,
}

impl Zipfian {
    /// Creates a generator over `[0, n)` with skew `theta` (0 = uniform-ish).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipfian domain must be non-empty");
        let zeta_n: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta_2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Zipfian { n, theta, zeta_n, alpha, eta }
    }

    /// Draws the next value.
    pub fn next_value(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let value = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        value.min(self.n - 1)
    }
}

/// One YCSB operation.
#[derive(Debug, Clone, PartialEq)]
pub struct YcsbOp {
    /// Which record is targeted.
    pub record: usize,
    /// Read or update.
    pub kind: OpKind,
    /// The concrete request.
    pub request: Request,
}

impl YcsbWorkload {
    /// Path of record `index`.
    pub fn record_path(index: usize) -> String {
        format!("/ycsb/user{index:08}")
    }

    /// Requests that load the initial records.
    pub fn load_requests(&self) -> Vec<Request> {
        let mut requests = vec![Request::Create(CreateRequest {
            path: "/ycsb".to_string(),
            data: Vec::new(),
            mode: CreateMode::Persistent,
        })];
        for record in 0..self.record_count {
            requests.push(Request::Create(CreateRequest {
                path: Self::record_path(record),
                data: vec![b'x'; self.payload],
                mode: CreateMode::Persistent,
            }));
        }
        requests
    }

    /// Generates the transaction phase: `count` operations with the configured
    /// read/update mix and Zipfian record selection.
    pub fn generate(&self, count: usize) -> Vec<YcsbOp> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipfian::new(self.record_count, self.zipf_theta);
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let record = zipf.next_value(&mut rng);
            let path = Self::record_path(record);
            if rng.gen::<f64>() < self.read_proportion {
                ops.push(YcsbOp {
                    record,
                    kind: OpKind::Get,
                    request: Request::GetData(GetDataRequest { path, watch: false }),
                });
            } else {
                ops.push(YcsbOp {
                    record,
                    kind: OpKind::Set,
                    request: Request::SetData(SetDataRequest {
                        path,
                        data: vec![rng.gen::<u8>(); self.payload],
                        version: -1,
                    }),
                });
            }
        }
        ops
    }

    /// The operation mix as weights, for the analytic cost model.
    pub fn mix(&self) -> Vec<(OpKind, f64)> {
        vec![(OpKind::Get, self.read_proportion), (OpKind::Set, 1.0 - self.read_proportion)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_phase_creates_all_records() {
        let workload = YcsbWorkload { record_count: 10, ..YcsbWorkload::default() };
        let load = workload.load_requests();
        assert_eq!(load.len(), 11);
        assert_eq!(load[1].path(), Some("/ycsb/user00000000"));
    }

    #[test]
    fn mix_matches_read_proportion() {
        let workload =
            YcsbWorkload { read_proportion: 0.75, record_count: 100, ..YcsbWorkload::default() };
        let ops = workload.generate(20_000);
        let reads = ops.iter().filter(|o| o.kind == OpKind::Get).count() as f64 / 20_000.0;
        assert!((0.72..0.78).contains(&reads), "{reads}");
    }

    #[test]
    fn zipfian_is_skewed_towards_low_indices() {
        let workload = YcsbWorkload { record_count: 1000, ..YcsbWorkload::default() };
        let ops = workload.generate(50_000);
        let hot = ops.iter().filter(|o| o.record < 100).count() as f64 / 50_000.0;
        // With theta = 0.99, the hottest 10% of records receive well over half
        // of the accesses.
        assert!(hot > 0.5, "{hot}");
        // All records stay in range.
        assert!(ops.iter().all(|o| o.record < 1000));
    }

    #[test]
    fn uniform_theta_spreads_accesses() {
        let workload = YcsbWorkload {
            zipf_theta: 0.01,
            record_count: 100,
            seed: 3,
            ..YcsbWorkload::default()
        };
        let ops = workload.generate(50_000);
        let hot = ops.iter().filter(|o| o.record < 10).count() as f64 / 50_000.0;
        assert!(hot < 0.30, "{hot}");
    }

    #[test]
    fn generation_is_deterministic() {
        let workload = YcsbWorkload::default();
        assert_eq!(workload.generate(100), workload.generate(100));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zipfian_rejects_empty_domain() {
        let _ = Zipfian::new(0, 0.99);
    }
}
