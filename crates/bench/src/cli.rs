//! Shared argv parsing for the bench binaries.
//!
//! Every driver accepts the same flag family, parsed once into a
//! [`BenchArgs`] value instead of each binary re-scanning `argv`:
//!
//! - `--workers N` / `-j N` — OS threads for the experiment sweep
//!   (fallback: the [`WORKERS_ENV`] environment variable). Worker count
//!   is execution speed only — results are byte-identical at every
//!   value (see [`crate::parallel`]).
//! - `--fault-plan <spec>` / `--fault-seed N` — fault schedule (see
//!   [`seuss::faults::spec`] for the grammar).
//! - `--store-blocks N` — capacity of the snapshot storage tier's
//!   device, in blocks (`figtier`).
//!
//! All flags (and their values) are stripped from
//! [`BenchArgs::positionals`], so the binaries' positional arguments
//! keep working unchanged; [`positional`] reads one of them, and exits 2
//! on a value that does not parse, like a malformed flag. The free
//! functions below are thin wrappers over one [`BenchArgs::parse`] for
//! binaries that only need one knob.

use std::str::FromStr;

use seuss::faults::{spec, FaultPlan};

/// Environment variable that sets the worker-thread count when no
/// `--workers` flag is given. Execution speed only: artifacts are
/// byte-identical at every value.
pub const WORKERS_ENV: &str = "SEUSS_EXEC_WORKERS";

/// Every shared bench flag, parsed once.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchArgs {
    /// Worker-thread count (flag, else env, else the driver's default;
    /// always at least 1).
    pub workers: usize,
    /// Raw `--fault-plan` spec string, if given.
    pub fault_spec: Option<String>,
    /// `--fault-seed` value, if given.
    pub fault_seed: Option<u64>,
    /// `--store-blocks` value, if given.
    pub store_blocks: Option<u64>,
    /// The arguments left over once every flag is stripped.
    pub positionals: Vec<String>,
}

/// Parses a worker-thread count, from `--workers` or [`WORKERS_ENV`]
/// alike: a positive integer, surrounding whitespace allowed. `None`
/// for zero or anything unparseable.
fn parse_workers(value: &str) -> Option<usize> {
    value.trim().parse().ok().filter(|&n| n >= 1)
}

/// Positional argument `index`: `default` when absent, else its parse as
/// a `T`. `None` when it is present but does not parse.
fn parse_positional<T: FromStr>(args: &[String], index: usize, default: T) -> Option<T> {
    match args.get(index) {
        None => Some(default),
        Some(v) => v.parse().ok(),
    }
}

/// Positional argument `index`, called `name` in the error message:
/// `default` when absent. A value that does not parse as a
/// non-negative integer prints a usage error and exits 2.
pub fn positional<T: FromStr>(args: &[String], index: usize, name: &str, default: T) -> T {
    parse_positional(args, index, default)
        .unwrap_or_else(|| bad_flag(name, &args[index], "a non-negative integer"))
}

/// A flag value: `--flag v` or `--flag=v`.
fn valued(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(flag) {
            if let Some(v) = v.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

/// The flags that take a value — the strip list for positionals.
const VALUED: &[&str] = &[
    "--workers",
    "-j",
    "--fault-plan",
    "--fault-seed",
    "--store-blocks",
];

fn strip_flags(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if VALUED.contains(&a.as_str()) {
            skip_value = true;
            continue;
        }
        if VALUED
            .iter()
            .any(|f| a.len() > f.len() && a.starts_with(f) && a.as_bytes()[f.len()] == b'=')
        {
            continue;
        }
        out.push(a.clone());
    }
    out
}

fn bad_flag(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("invalid {flag} {value:?}: expected {expected}");
    std::process::exit(2);
}

impl BenchArgs {
    /// Parses a raw argument list (no program name). Malformed flag
    /// values print a usage error and exit 2.
    pub fn from_args(args: &[String], default_workers: usize) -> Self {
        let workers_value = valued(args, "--workers")
            .or_else(|| valued(args, "-j"))
            .map(|v| ("--workers", v))
            .or_else(|| std::env::var(WORKERS_ENV).ok().map(|v| (WORKERS_ENV, v)));
        let workers = match workers_value {
            Some((source, v)) => {
                parse_workers(&v).unwrap_or_else(|| bad_flag(source, &v, "a thread count"))
            }
            None => default_workers.max(1),
        };
        let fault_seed = valued(args, "--fault-seed").map(|v| {
            v.parse()
                .unwrap_or_else(|_| bad_flag("--fault-seed", &v, "an integer seed"))
        });
        let store_blocks = valued(args, "--store-blocks").map(|v| {
            v.parse()
                .unwrap_or_else(|_| bad_flag("--store-blocks", &v, "a block count"))
        });
        BenchArgs {
            workers,
            fault_spec: valued(args, "--fault-plan"),
            fault_seed,
            store_blocks,
            positionals: strip_flags(args),
        }
    }

    /// Parses the process argv.
    pub fn parse(default_workers: usize) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::from_args(&args, default_workers)
    }

    /// The fault schedule: `--fault-plan` compiled under `--fault-seed`
    /// (default `default_seed`, which should be the trial seed so
    /// `?`-randomized instants reproduce). No flag means
    /// [`FaultPlan::none`] — the fault-free fast path. A malformed spec
    /// prints the parse error and exits 2.
    pub fn fault_plan(&self, default_seed: u64) -> FaultPlan {
        let seed = self.fault_seed.unwrap_or(default_seed);
        match &self.fault_spec {
            None => FaultPlan::none(),
            Some(s) => match spec::compile(s, seed) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("invalid --fault-plan {s:?}: {e}");
                    std::process::exit(2);
                }
            },
        }
    }
}

/// The worker-thread count for this invocation (see [`BenchArgs`]).
pub fn workers_arg(default: usize) -> usize {
    BenchArgs::parse(default).workers
}

/// The positional command-line arguments (all shared flags stripped).
pub fn positionals() -> Vec<String> {
    BenchArgs::parse(1).positionals
}

/// The raw `--fault-plan` spec string, if the flag was given.
pub fn fault_spec_arg() -> Option<String> {
    BenchArgs::parse(1).fault_spec
}

/// The `--fault-seed` value, if the flag was given.
pub fn fault_seed_arg() -> Option<u64> {
    BenchArgs::parse(1).fault_seed
}

/// The compiled fault schedule (see [`BenchArgs::fault_plan`]).
pub fn fault_plan_arg(default_seed: u64) -> FaultPlan {
    BenchArgs::parse(1).fault_plan(default_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_args(&v(args), 1)
    }

    #[test]
    fn parses_every_flag_spelling() {
        assert_eq!(parse(&["--workers", "4"]).workers, 4);
        assert_eq!(parse(&["--workers=8"]).workers, 8);
        assert_eq!(parse(&["-j", "2"]).workers, 2);
        assert_eq!(parse(&["64", "--workers", "3"]).workers, 3);
        // Without a flag the env var decides, then the caller's default.
        let fallback = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|v| parse_workers(&v))
            .unwrap_or(5);
        assert_eq!(BenchArgs::from_args(&v(&["64"]), 5).workers, fallback);
    }

    #[test]
    fn worker_counts_must_be_positive_integers() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 2\n"), Some(2));
        assert_eq!(parse_workers("0"), None);
        assert_eq!(parse_workers("-1"), None);
        assert_eq!(parse_workers("four"), None);
        assert_eq!(parse_workers(""), None);
    }

    #[test]
    fn positionals_parse_or_default_and_reject_garbage() {
        let args = v(&["64", "abc", "-3", ""]);
        assert_eq!(parse_positional(&args, 0, 7u64), Some(64));
        assert_eq!(parse_positional(&args, 1, 7u64), None);
        assert_eq!(parse_positional(&args, 2, 7u32), None);
        assert_eq!(parse_positional(&args, 3, 7usize), None);
        // Absent: the default, whatever the type.
        assert_eq!(parse_positional(&args, 4, 7u64), Some(7));
        assert_eq!(parse_positional(&[], 0, 475u32), Some(475));
        assert_eq!(positional(&args, 0, "count", 1u64), 64);
        assert_eq!(positional(&args, 9, "count", 1u64), 1);
    }

    #[test]
    fn stripping_preserves_positionals() {
        assert_eq!(
            parse(&["64", "--workers", "4", "out.csv"]).positionals,
            v(&["64", "out.csv"])
        );
        assert_eq!(parse(&["--workers=4", "64"]).positionals, v(&["64"]));
        assert_eq!(parse(&["-j", "2"]).positionals, Vec::<String>::new());
        assert_eq!(parse(&["a", "b"]).positionals, v(&["a", "b"]));
    }

    #[test]
    fn parses_fault_flags_in_every_spelling() {
        assert_eq!(
            parse(&["--fault-plan", "crash@1s+2s"]).fault_spec,
            Some("crash@1s+2s".to_string())
        );
        assert_eq!(
            parse(&["64", "--fault-plan=loss@1s+2s:0.5"]).fault_spec,
            Some("loss@1s+2s:0.5".to_string())
        );
        assert_eq!(parse(&["64"]).fault_spec, None);
        assert_eq!(parse(&["--fault-plan"]).fault_spec, None);

        assert_eq!(parse(&["--fault-seed", "7"]).fault_seed, Some(7));
        assert_eq!(parse(&["--fault-seed=99"]).fault_seed, Some(99));
        assert_eq!(parse(&["64"]).fault_seed, None);
    }

    #[test]
    fn stripping_removes_fault_flags_and_keeps_positionals() {
        assert_eq!(
            parse(&[
                "64",
                "--fault-plan",
                "crash@1s+2s",
                "out.csv",
                "--fault-seed=7",
            ])
            .positionals,
            v(&["64", "out.csv"])
        );
        assert_eq!(
            parse(&["--fault-plan=crash@1s+2s", "--fault-seed", "7"]).positionals,
            Vec::<String>::new()
        );
        // A flag-like positional that merely shares a prefix survives.
        assert_eq!(
            parse(&["--fault-planner", "x"]).positionals,
            v(&["--fault-planner", "x"])
        );
    }

    #[test]
    fn fault_spec_and_seed_compose_with_workers_flags() {
        let a = parse(&["8", "--workers", "4", "--fault-plan=crash@1s+2s", "f.csv"]);
        assert_eq!(a.workers, 4);
        assert_eq!(a.fault_spec, Some("crash@1s+2s".to_string()));
        assert_eq!(a.positionals, v(&["8", "f.csv"]));
    }

    #[test]
    fn store_blocks_sets_the_device_block_count() {
        let a = parse(&["--store-blocks", "512", "8"]);
        assert_eq!(a.store_blocks, Some(512));
        assert_eq!(a.positionals, v(&["8"]));
        assert_eq!(parse(&["--store-blocks=4096"]).store_blocks, Some(4096));
        assert_eq!(parse(&["8"]).store_blocks, None);
    }
}
