//! Figure 6: throughput of the 70:30 GET/SET mix (1 KiB payload) as the number
//! of client threads grows — synchronous (6a) and asynchronous (6b).
//!
//! By default the analytic cost model generates the curves. With `--net` the
//! experiment instead drives *real TCP connections* against live servers
//! (vanilla and SecureKeeper) on loopback, measuring actual connection
//! concurrency through the networked transport:
//!
//! ```text
//! cargo run --release --bin fig06_client_scaling -- --net
//! ```

use std::sync::Arc;

use securekeeper::integration::{secure_standalone, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use workload::costmodel::ServiceCostModel;
use workload::metrics::{Figure, Series};
use workload::netdriver::run_mixed_get_set;
use workload::variant::{RequestMode, Variant};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::session::MonotonicClock;
use zkserver::{ZkReplica, ZkTcpServer};

/// Payload size of the Figure 6 mix.
const PAYLOAD_BYTES: usize = 1024;
/// Operations each connection performs in the networked mode.
const OPS_PER_CLIENT: usize = 400;

fn run_networked_mode() {
    bench::print_header(
        "Figure 6 (networked) — measured throughput of the 70:30 mix vs real TCP connections",
        "paper §6.1, Figure 6: each data point drives N live loopback connections",
    );
    let client_counts = [1usize, 2, 4, 8, 16, 32];
    let mut figure = Figure::new(
        "Figure 6 (networked) — measured loopback throughput",
        "Client Connections",
        "Requests/s",
    );

    // Vanilla ZooKeeper: plain transport, passthrough interceptor.
    let mut native = Series::new("zookeeper (measured)");
    {
        let replica = Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())));
        let server = ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback");
        for &clients in &client_counts {
            let credentials: Arc<dyn SessionCredentials> = Arc::new(PlainCredentials);
            let report = run_mixed_get_set(
                server.local_addr(),
                credentials,
                clients,
                OPS_PER_CLIENT,
                PAYLOAD_BYTES,
            )
            .expect("networked run");
            native.push(clients as f64, report.throughput_rps);
        }
        server.shutdown();
    }
    figure.add(native);

    // SecureKeeper: entry enclaves on the connection path, encrypted wire.
    let mut secure = Series::new("securekeeper (measured)");
    {
        let config = SecureKeeperConfig::with_label("fig06-net");
        let (replica, _interceptor, _counter) = secure_standalone(&config);
        let server = ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback");
        for &clients in &client_counts {
            let credentials: Arc<dyn SessionCredentials> = Arc::new(SecureSessionCredentials);
            let report = run_mixed_get_set(
                server.local_addr(),
                credentials,
                clients,
                OPS_PER_CLIENT,
                PAYLOAD_BYTES,
            )
            .expect("networked run");
            secure.push(clients as f64, report.throughput_rps);
        }
        server.shutdown();
    }
    figure.add(secure);

    bench::print_figure(&figure);
}

fn main() {
    if std::env::args().any(|arg| arg == "--net") {
        run_networked_mode();
        return;
    }
    bench::print_header(
        "Figure 6 — throughput of the 70:30 mix vs number of client threads",
        "paper §6.1, Figures 6a/6b: sync saturates around 300 threads, async around 5",
    );
    let model = ServiceCostModel::default();
    let mix = ServiceCostModel::paper_mix();

    let mut sync_figure =
        Figure::new("Figure 6a — synchronous requests", "Client Threads", "Requests/s");
    for variant in Variant::all() {
        let mut series = Series::new(variant.label());
        for clients in [1usize, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
            series.push(
                clients as f64,
                model.mixed_throughput_rps(variant, &mix, 1024, RequestMode::Synchronous, clients),
            );
        }
        sync_figure.add(series);
    }
    bench::print_figure(&sync_figure);

    let mut async_figure =
        Figure::new("Figure 6b — asynchronous requests", "Client Threads", "Requests/s");
    for variant in Variant::all() {
        let mut series = Series::new(variant.label());
        for clients in 2usize..=16 {
            series.push(
                clients as f64,
                model.mixed_throughput_rps(variant, &mix, 1024, RequestMode::Asynchronous, clients),
            );
        }
        async_figure.add(series);
    }
    bench::print_figure(&async_figure);
}
