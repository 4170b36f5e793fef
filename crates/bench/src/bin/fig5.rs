//! Regenerates Figure 5: end-to-end request latency percentiles of a NOP
//! function at three function set sizes.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin fig5 [mem_mib] [--workers N]
//! ```

use seuss_bench::{positional, positionals, run_fig5, workers_arg, Table};

fn main() {
    let mem_mib: u64 = positional(&positionals(), 0, "mem_mib", 24 * 1024);
    let workers = workers_arg(1);
    let sizes = [64, 2_048, 16_384];
    eprintln!("running Figure 5 at set sizes {sizes:?} ({workers} worker threads)…");
    let started = std::time::Instant::now();
    let rows = run_fig5(&sizes, None, mem_mib, workers);
    eprintln!(
        "sweep took {:.2} s on {workers} worker threads",
        started.elapsed().as_secs_f64()
    );

    for row in &rows {
        let mut t = Table::new(
            format!(
                "Figure 5: latency percentiles, {} functions (ms)",
                row.set_size
            ),
            &["backend", "p1", "p25", "p50", "p75", "p99", "mean"],
        );
        for (name, s) in [("SEUSS", row.seuss), ("Linux", row.linux)] {
            t.row(&[
                name.into(),
                format!("{:.1}", s.p1),
                format!("{:.1}", s.p25),
                format!("{:.1}", s.p50),
                format!("{:.1}", s.p75),
                format!("{:.1}", s.p99),
                format!("{:.1}", s.mean),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "paper shape: comparable tens-of-ms distributions at 64 functions\n\
         (Linux lower — the shim hop); Linux explodes to seconds once its\n\
         container cache saturates, SEUSS stays within tens of ms."
    );
}
