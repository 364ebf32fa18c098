//! One rate scan per streamed solve: the pass that plans the solve is
//! the one the kernel iterates from, and a budget below the exact floor
//! escalates to aggregation bounds without a second scan. A test binary
//! of its own, because trace subscribers are process-global.

use reliab_obs as obs;
use reliab_spec::{solve_str_with, SolveOptions};
use std::sync::Arc;

#[test]
fn one_rate_scan_per_streamed_solve() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/tandem_rework_stream.json"
    ))
    .unwrap();
    let mem = Arc::new(obs::MemorySubscriber::default());
    obs::install_subscriber(mem.clone());
    for (budget, method) in [
        (None, "stream-sor"),
        (Some(1 << 20), "stream-sor"),
        (Some(4096), "stream-bounds"),
    ] {
        mem.clear();
        let mut opts = SolveOptions::default();
        opts.mem_budget = budget;
        let report = solve_str_with(&text, &opts).unwrap();
        assert_eq!(report.stats.method, Some(method), "budget {budget:?}");
        assert_eq!(mem.count_spans("stream.scan"), 1, "budget {budget:?}");
        assert_eq!(
            mem.count_spans("stream.bounds"),
            if method == "stream-bounds" { 5 } else { 0 },
            "budget {budget:?}: one bracket per requested measure"
        );
    }
    obs::clear_subscribers();
}
