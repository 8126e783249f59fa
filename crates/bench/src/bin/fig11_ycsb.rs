//! Figure 11: YCSB-style mixed synchronous read/write workload, throughput
//! versus payload size.

use workload::costmodel::ServiceCostModel;
use workload::metrics::{Figure, Series};
use workload::variant::{RequestMode, Variant};
use workload::ycsb::YcsbWorkload;

fn main() {
    bench::print_header(
        "Figure 11 — YCSB mixed synchronous workload",
        "paper §6.2, Figure 11: 35 threads, mixed reads/writes, 500k operations",
    );
    let model = ServiceCostModel::default();
    let workload = YcsbWorkload::default();
    let mix = workload.mix();

    let mut figure =
        Figure::new("Figure 11 — YCSB throughput vs payload", "Payload [Byte]", "Requests/s");
    for variant in Variant::all() {
        let mut series = Series::new(variant.label());
        for &payload in &bench::payload_sweep() {
            series.push(
                payload as f64,
                model.mixed_throughput_rps(variant, &mix, payload, RequestMode::Synchronous, 35),
            );
        }
        figure.add(series);
    }
    bench::print_figure(&figure);

    println!("zipfian record selection sanity check (theta = {:.2}):", workload.zipf_theta);
    let ops = workload.generate(20_000);
    let hot = ops.iter().filter(|o| o.record < workload.record_count / 10).count() as f64
        / ops.len() as f64;
    println!("  hottest 10% of records receive {:.0}% of the accesses", hot * 100.0);
}
