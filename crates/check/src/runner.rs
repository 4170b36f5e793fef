//! The property runner: seeded case loop, failure shrinking, and replay.
//!
//! Every case derives its own 64-bit seed from the property name and the
//! case index, so a failure report can name the exact seed that produced
//! it. Setting `SEUSS_CHECK_SEED=<seed>` re-runs only that case — the
//! generator replays byte-identically — which turns any CI failure into a
//! local one-liner.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use simcore::SimRng;

use crate::gen::Gen;

/// Environment variable that replays one exact failing case.
pub const SEED_ENV: &str = "SEUSS_CHECK_SEED";
/// Environment variable that overrides the per-property case count.
pub const CASES_ENV: &str = "SEUSS_CHECK_CASES";

/// Parses a [`CASES_ENV`] or [`SEED_ENV`] value: a positive integer,
/// surrounding whitespace allowed. The error names the variable and the
/// value — zero cases would pass every property vacuously, and a seed
/// that does not parse would run the whole suite instead of the replay.
fn parse_setting<T: std::str::FromStr + Default + PartialEq>(
    var: &str,
    value: &str,
) -> Result<T, String> {
    value
        .trim()
        .parse()
        .ok()
        .filter(|n| *n != T::default())
        .ok_or_else(|| format!("invalid {var}={value:?}: expected a positive integer"))
}

/// Reads [`parse_setting`]'s variable; `None` when unset, a panic when
/// set to anything but a positive integer.
fn setting<T: std::str::FromStr + Default + PartialEq>(var: &str) -> Option<T> {
    let value = std::env::var_os(var)?;
    Some(parse_setting(var, &value.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")))
}

/// Runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of random cases to run (overridden by `SEUSS_CHECK_CASES`).
    pub cases: u32,
    /// Cap on accepted shrink steps before reporting what we have.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: setting(CASES_ENV).unwrap_or(64),
            max_shrink_steps: 4096,
        }
    }
}

impl Config {
    /// A config running exactly `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// A failed property, fully described: the seed to replay it, the raw
/// counterexample, and the shrunk one.
#[derive(Clone, Debug)]
pub struct Failure<T> {
    /// Property name.
    pub property: String,
    /// Seed that generated the original counterexample.
    pub seed: u64,
    /// 0-based index of the failing case.
    pub case: u32,
    /// The counterexample exactly as generated.
    pub original: T,
    /// The minimized counterexample after shrinking.
    pub minimized: T,
    /// Number of accepted (strictly-simplifying) shrink steps.
    pub shrink_steps: u32,
    /// The property's error message on the minimized value.
    pub message: String,
}

impl<T: std::fmt::Debug> Failure<T> {
    /// The human-facing report, including the replay incantation.
    pub fn report(&self) -> String {
        format!(
            "seuss-check: property '{}' failed (case {}, seed {})\n\
             \x20 replay: {}={} cargo test\n\
             \x20 original:  {:?}\n\
             \x20 minimized: {:?} ({} shrink steps)\n\
             \x20 error: {}",
            self.property,
            self.case,
            self.seed,
            SEED_ENV,
            self.seed,
            self.original,
            self.minimized,
            self.shrink_steps,
            self.message
        )
    }
}

/// FNV-1a, the stable name→seed hash (never touches the wall clock, so
/// the whole suite is hermetic and replayable by construction).
fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Derives the per-case seed from the property's base seed.
fn case_seed(base: u64, case: u32) -> u64 {
    // SplitMix64 finalizer over (base + golden-ratio stride) — cheap,
    // well-mixed, and documented in simcore::rng.
    let mut z = base.wrapping_add((case as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

// Shrinking re-runs the property dozens of times on values that panic;
// silence the default "thread panicked" spew for panics we catch.
thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `prop` once, converting both `Err` and panics into messages.
fn run_case<T, F>(prop: &F, value: &T) -> Result<(), String>
where
    F: Fn(&T) -> Result<(), String>,
{
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| prop(value)));
    QUIET.with(|q| q.set(false));
    match outcome {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked with non-string payload".into());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Greedy shrink loop: keep taking the first strictly-simpler candidate
/// that still fails until no candidate fails or the step cap is hit.
fn shrink_failure<G, F>(
    gen: &G,
    prop: &F,
    mut value: G::Value,
    mut message: String,
    cap: u32,
) -> (G::Value, String, u32)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let mut steps = 0u32;
    'outer: while steps < cap {
        for cand in gen.shrink(&value) {
            if let Err(msg) = run_case(prop, &cand) {
                value = cand;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break; // no candidate fails: local minimum
    }
    (value, message, steps)
}

/// Runs the property with [`Config::default`]; panics with a replayable
/// report on failure. This is the entry point test code should use.
pub fn check<G, F>(name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    check_with(Config::default(), name, gen, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with<G, F>(config: Config, name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    if let Some(failure) = run_check(config, name, gen, &prop) {
        panic!("{}", failure.report());
    }
}

/// The non-panicking core: returns the (shrunk) failure, if any. Exposed
/// so seuss-check can test its own failure path.
pub fn run_check<G, F>(config: Config, name: &str, gen: &G, prop: &F) -> Option<Failure<G::Value>>
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let replay: Option<u64> = setting(SEED_ENV);
    let base = fnv1a(name);
    let cases = if replay.is_some() { 1 } else { config.cases };

    for case in 0..cases {
        let seed = replay.unwrap_or_else(|| case_seed(base, case));
        let value = gen.generate(&mut SimRng::new(seed));
        if let Err(message) = run_case(prop, &value) {
            let (minimized, message, shrink_steps) =
                shrink_failure(gen, prop, value.clone(), message, config.max_shrink_steps);
            return Some(Failure {
                property: name.to_string(),
                seed,
                case,
                original: value,
                minimized,
                shrink_steps,
                message,
            });
        }
    }
    None
}

/// Returns `Err` with a formatted message when the condition is false —
/// the property-body counterpart of `assert!`.
#[macro_export]
macro_rules! ensure {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("condition failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Equality counterpart of [`ensure!`], showing both sides on failure.
#[macro_export]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} != {} ({:?} vs {:?})",
                stringify!($a),
                stringify!($b),
                a,
                b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} ({:?} vs {:?})",
                format!($($fmt)+),
                a,
                b
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{range, vecs};

    #[test]
    fn passing_property_is_silent() {
        check("runner_pass", &range(0u64, 100), |&v| {
            ensure!(v <= 100, "bound violated: {v}");
            Ok(())
        });
    }

    #[test]
    fn deliberate_failure_minimizes_and_reports_seed() {
        // The classic shrinking demo: "no vector sums past 100" is false;
        // the minimal counterexample is a single element.
        let gen = vecs(range(0u64, 50), 0, 20);
        let f = run_check(
            Config::with_cases(256),
            "runner_shrink_demo",
            &gen,
            &|v: &Vec<u64>| {
                ensure!(
                    v.iter().sum::<u64>() <= 100,
                    "sum {}",
                    v.iter().sum::<u64>()
                );
                Ok(())
            },
        )
        .expect("property must fail");
        // Shrinking reached a local minimum: the counterexample still
        // fails, and every single element is load-bearing — dropping the
        // smallest would make the property pass again.
        let sum: u64 = f.minimized.iter().sum();
        let min = *f.minimized.iter().min().expect("nonempty");
        assert!(sum > 100, "must still fail: {:?}", f.minimized);
        assert!(
            sum - min <= 100,
            "not locally minimal, {:?} can lose an element",
            f.minimized
        );
        assert!(f.minimized.len() <= 5, "still oversized: {:?}", f.minimized);
        assert!(f.shrink_steps > 0);
        // The reported seed replays to the reported original.
        let replayed = gen.generate(&mut SimRng::new(f.seed));
        assert_eq!(replayed, f.original, "seed does not replay");
        let report = f.report();
        assert!(report.contains(SEED_ENV));
        assert!(report.contains(&f.seed.to_string()));
    }

    #[test]
    fn panics_are_caught_and_shrunk() {
        let gen = range(0u64, 1000);
        let f = run_check(Config::with_cases(200), "runner_panic_demo", &gen, &|&v| {
            assert!(v < 10, "panicking on {v}");
            Ok(())
        })
        .expect("must fail");
        assert_eq!(f.minimized, 10, "minimal panicking value");
        assert!(f.message.contains("panic"));
    }

    #[test]
    fn integers_shrink_to_boundary() {
        let f = run_check(
            Config::with_cases(200),
            "runner_int_boundary",
            &range(0u64, 100_000),
            &|&v| {
                ensure!(v < 4_242, "too big: {v}");
                Ok(())
            },
        )
        .expect("must fail");
        assert_eq!(f.minimized, 4_242, "exact boundary found by binary search");
    }

    #[test]
    fn settings_must_be_positive_integers() {
        assert_eq!(parse_setting::<u32>(CASES_ENV, "16"), Ok(16));
        assert_eq!(parse_setting::<u64>(SEED_ENV, " 42\n"), Ok(42));
        for bad in ["0", "-3", "abc", ""] {
            let err = parse_setting::<u32>(CASES_ENV, bad).expect_err(bad);
            assert!(
                err.contains(CASES_ENV) && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
        let err = parse_setting::<u64>(SEED_ENV, "abc").expect_err("garbage seed");
        assert!(err.contains(SEED_ENV) && err.contains("\"abc\""), "{err}");
    }

    #[test]
    fn case_seeds_are_stable() {
        // Hermeticity: the same property name yields the same seeds in
        // every build, forever. These constants are part of the contract.
        assert_eq!(case_seed(fnv1a("x"), 0), case_seed(fnv1a("x"), 0));
        assert_ne!(case_seed(fnv1a("x"), 0), case_seed(fnv1a("x"), 1));
        assert_ne!(case_seed(fnv1a("x"), 0), case_seed(fnv1a("y"), 0));
    }
}
