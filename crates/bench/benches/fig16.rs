//! Figure 16: latency reduction vs RSV_FACTOR for large (256KB) requests (§5.4).

fn main() {
    hermes_bench::sweep::rsv_sensitivity(16, "large (256KB)", 256 * 1024, 1 << 30);
}
