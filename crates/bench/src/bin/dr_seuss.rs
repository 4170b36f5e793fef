//! DR-SEUSS (§9 future work): quantifies distributed snapshot migration.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin dr_seuss [nodes] [functions]
//! ```
//!
//! See [`seuss_bench::dr_seuss`] for the scenario and the strategies it
//! compares.

use seuss_bench::{positional, positionals, run_dr_seuss};

fn main() {
    let args = positionals();
    let nodes: usize = positional(&args, 0, "nodes", 4);
    let functions: u64 = positional(&args, 1, "functions", 64);
    eprintln!("running DR-SEUSS on a {nodes}-node cluster ({functions} functions)…");
    let report = run_dr_seuss(nodes, functions);
    eprintln!(
        "done ({:.0} ms of virtual init per node)\n",
        report.init.as_millis_f64()
    );
    print!("{}", report.render());
}
