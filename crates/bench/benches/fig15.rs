//! Figure 15: latency reduction vs RSV_FACTOR for small (1KB) requests (§5.4).

fn main() {
    let total = if hermes_bench::full_scale() {
        1 << 30
    } else {
        96 << 20
    };
    hermes_bench::sweep::rsv_sensitivity(15, "small (1KB)", 1024, total);
}
