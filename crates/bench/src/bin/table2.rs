//! Regenerates Table 2: latency improvements across AO levels.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin table2 [iterations] [--workers N]
//! ```

use seuss_bench::{positional, positionals, ratio, run_table2, workers_arg, Table};

fn main() {
    let iterations: u32 = positional(&positionals(), 0, "iterations", 100);
    let workers = workers_arg(3);
    eprintln!(
        "running Table 2 AO ablation ({iterations} invocations per cell, {workers} worker threads)…"
    );
    let started = std::time::Instant::now();
    let r = run_table2(iterations, workers);
    eprintln!(
        "took {:.2} s on {workers} worker threads",
        started.elapsed().as_secs_f64()
    );

    let mut t = Table::new(
        "Table 2: latency across anticipatory optimizations",
        &["", "No AO", "Network AO", "Network + Interpreter AO"],
    );
    t.row(&[
        "Cold start (measured ms)".into(),
        format!("{:.1}", r.none.cold_ms),
        format!("{:.1}", r.network.cold_ms),
        format!("{:.1}", r.full.cold_ms),
    ]);
    t.row(&[
        "Cold start (paper ms)".into(),
        "42".into(),
        "16.8".into(),
        "7.5".into(),
    ]);
    t.row(&[
        "Warm start (measured ms)".into(),
        format!("{:.1}", r.none.warm_ms),
        format!("{:.1}", r.network.warm_ms),
        format!("{:.1}", r.full.warm_ms),
    ]);
    t.row(&[
        "Warm start (paper ms)".into(),
        "7.6".into(),
        "5.5".into(),
        "3.5".into(),
    ]);
    println!("{}", t.render());
    println!(
        "cold-start reduction from both AOs: {} (paper: {:.1}x)",
        ratio(r.none.cold_ms, r.full.cold_ms),
        42.0 / 7.5
    );
}
