//! Fault figure: availability under an injected fault schedule — SEUSS
//! with retry/backoff vs the no-retry ablation vs the Linux baseline.
//!
//! ```sh
//! cargo run --release -p seuss-bench --bin figfault -- [period_s] [bursts] [csv_path] \
//!     [--workers N] [--fault-plan <spec>] [--fault-seed N]
//! ```
//!
//! Without `--fault-plan` the default schedule injects a node crash
//! (2 s reboot) overlapping a 30% packet-loss window. The run is
//! self-checking: it executes at 1 worker thread and at `--workers`,
//! fails on any byte divergence between the two CSVs, and — under the
//! default schedule — verifies the resilience contract: the resilient
//! side recovers to 100% availability with a small fraction of the
//! ablation's errors, while the ablation reports errors. Exits nonzero
//! on any violation.

use seuss::faults::spec::compile;
use seuss_bench::cli::{fault_seed_arg, fault_spec_arg};
use seuss_bench::{
    availability_csv, default_fault_spec, per_second_series, positional, positionals, run_figfault,
    workers_arg, FaultOutcome,
};
use seuss_platform::BurstParams;

fn timeline(out: &FaultOutcome) -> String {
    let mut s = String::new();
    for side in [&out.resilient, &out.no_retry, &out.linux] {
        let series = per_second_series(&side.records);
        let cols = series.last().map_or(0, |b| b.second as usize) + 1;
        let mut marks = vec![' '; cols];
        for b in &series {
            marks[b.second as usize] = if b.errors > 0 {
                'x'
            } else if b.p99_ms > 1_000.0 {
                '~'
            } else {
                '.'
            };
        }
        s.push_str(&format!(
            "  {:>14} |{}| min availability {:5.1}% {}\n",
            side.label,
            marks.into_iter().collect::<String>(),
            side.min_availability_pct,
            if side.recovered {
                "(recovered)"
            } else {
                "(NOT recovered)"
            },
        ));
    }
    s
}

fn main() {
    let args = positionals();
    let period: u64 = positional(&args, 0, "period", 16);
    let bursts: u32 = positional(&args, 1, "bursts", 10);
    let csv_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "results/figfault.csv".to_string());
    let workers = workers_arg(4);

    let mut params = BurstParams::paper(period);
    params.bursts = bursts;
    let default_spec = fault_spec_arg().is_none();
    let spec = fault_spec_arg().unwrap_or_else(|| default_fault_spec(&params));
    let seed = fault_seed_arg().unwrap_or(42);
    let plan = match compile(&spec, seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("invalid --fault-plan {spec:?}: {e}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "running fault experiment: {} fault event(s) [{spec}] over {bursts} bursts every \
         {period}s (workers 1 vs {workers})…",
        plan.len()
    );
    let started = std::time::Instant::now();
    let base = run_figfault(params, 16 * 1024, 1, &plan);
    let wall_base = started.elapsed().as_secs_f64();
    let started = std::time::Instant::now();
    let out = run_figfault(params, 16 * 1024, workers, &plan);
    let wall = started.elapsed().as_secs_f64();

    let base_csv = availability_csv(&base);
    let csv = availability_csv(&out);
    if base_csv != csv {
        eprintln!("figfault FAILED: artifacts diverge between workers=1 and workers={workers}");
        std::process::exit(1);
    }

    println!("== Availability under faults: {spec} (seed {seed}) ==\n");
    println!("  per-second timeline ('.' ok, '~' p99 >1s, 'x' errors):");
    print!("{}", timeline(&out));
    for side in [&out.resilient, &out.no_retry, &out.linux] {
        println!(
            "  {:>14}: {} ok / {} err",
            side.label, side.completed, side.errors
        );
    }

    if default_spec {
        let mut bad = false;
        if !out.resilient.recovered {
            eprintln!(
                "figfault FAILED: resilient availability must return to 100% after the faults"
            );
            bad = true;
        }
        if out.no_retry.errors == 0 {
            eprintln!("figfault FAILED: the no-retry ablation should surface errors");
            bad = true;
        }
        if out.resilient.errors * 5 >= out.no_retry.errors.max(1) {
            eprintln!(
                "figfault FAILED: retry should absorb most faults (resilient {} errors vs \
                 ablation {})",
                out.resilient.errors, out.no_retry.errors
            );
            bad = true;
        }
        if bad {
            std::process::exit(1);
        }
        println!(
            "\nresilience contract holds: retry/backoff absorbs the crash and loss window \
             ({} vs {} errors without retries), availability back to 100% after recovery",
            out.resilient.errors, out.no_retry.errors
        );
    }

    if let Some(dir) = std::path::Path::new(&csv_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&csv_path, &csv) {
        eprintln!("cannot write {csv_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "byte-identical at workers=1 and workers={workers}; wall {wall_base:.2} s -> \
         {wall:.2} s\navailability series written to {csv_path}"
    );
}
