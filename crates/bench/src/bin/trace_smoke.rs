//! Observability smoke: runs one traced trial offline, validates its
//! trace, and writes the artifacts next to the other experiment
//! results. Exits nonzero if any invariant fails.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin trace_smoke [invocations]
//! ```

use seuss_bench::{positional, positionals, run_trace_smoke};

fn main() {
    let invocations: u64 = positional(&positionals(), 0, "invocations", 40);
    eprintln!("running traced trial ({invocations} invocations)…");

    let smoke = match run_trace_smoke(invocations) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace smoke FAILED: {e}");
            std::process::exit(1);
        }
    };

    let _ = std::fs::create_dir_all("results");
    let trace_path = "results/trace_smoke.jsonl";
    let metrics_path = "results/trace_smoke_metrics.json";
    if let Err(e) = std::fs::write(trace_path, &smoke.trace_jsonl) {
        eprintln!("cannot write {trace_path}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(metrics_path, &smoke.metrics_json) {
        eprintln!("cannot write {metrics_path}: {e}");
        std::process::exit(1);
    }

    println!(
        "trace smoke OK: {} requests, {} trace lines, {} segments\n  \
         {trace_path}\n  {metrics_path}",
        smoke.completed, smoke.trace_lines, smoke.segments
    );
}
