//! `seuss` — a from-scratch Rust reproduction of *SEUSS: Skip Redundant
//! Paths to Make Serverless Fast* (Cadden et al., EuroSys 2020).
//!
//! SEUSS deploys serverless functions from **unikernel snapshots**: a
//! function's whole stack (library OS + language runtime + function code)
//! lives in one flat address space; capturing it is a page-table
//! operation; deploying it is a shallow page-table clone with
//! copy-on-write sharing. Combined with **snapshot stacks** (function
//! snapshots are page-level diffs on a shared runtime snapshot) and
//! **anticipatory optimization** (pre-executing common paths before the
//! base capture), cold starts drop from hundreds of milliseconds to
//! single-digit milliseconds and tens of thousands of function contexts
//! fit in memory.
//!
//! This crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `simcore` | deterministic discrete-event engine, virtual time, stats |
//! | [`mem`] | `seuss-mem` | physical frame pool with refcounts and OOM accounting |
//! | [`paging`] | `seuss-paging` | software 4-level page tables, COW, dirty tracking |
//! | [`interp`] | `miniscript` | JS-like interpreter whose heap lives in guest pages |
//! | [`net`] | `seuss-net` | TCP model, per-core NAT proxy, Linux-bridge bottleneck |
//! | [`snapshot`] | `seuss-snapshot` | snapshots, snapshot stacks, capture/deploy |
//! | [`unikernel`] | `seuss-unikernel` | Rumprun-style UCs with the invocation driver |
//! | [`core`] | `seuss-core` | the SEUSS OS node: cold/warm/hot paths, AO, caches |
//! | [`baseline`] | `seuss-baseline` | process / Docker / Firecracker baselines |
//! | [`store`] | `seuss-store` | NVMe snapshot tier: demotion, prefetch-on-restore |
//! | [`trace`] | `seuss-trace` | virtual-time spans, events, metrics, JSONL export |
//! | [`platform`] | `seuss-platform` | OpenWhisk-like control-plane simulation and the §7 load generators |
//! | [`faults`] | `seuss-faults` | deterministic fault plans, retry/backoff policies |
//!
//! # Examples
//!
//! Boot a paper-scale node and watch the three invocation paths:
//!
//! ```
//! use seuss::core::{Invocation, SeussConfig, SeussNode};
//!
//! let cfg = SeussConfig::builder()
//!     .mem_mib(2048) // shrink for the doctest
//!     .build()
//!     .unwrap();
//! let (mut node, _init) = SeussNode::new(cfg).unwrap();
//! let src = "function main(args) { return 6 * 7; }";
//! match node.invoke(1, src, &[]).unwrap() {
//!     Invocation::Completed { result, costs, .. } => {
//!         assert_eq!(result, "42");
//!         // Cold path: deploy + import + capture + run, single-digit ms.
//!         assert!(costs.total().as_millis_f64() < 10.0);
//!     }
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;

pub use error::{Error, Result};

pub use miniscript as interp;
pub use seuss_baseline as baseline;
pub use seuss_core as core;
pub use seuss_faults as faults;
pub use seuss_mem as mem;
pub use seuss_net as net;
pub use seuss_paging as paging;
pub use seuss_platform as platform;
pub use seuss_snapshot as snapshot;
pub use seuss_store as store;
pub use seuss_trace as trace;
pub use seuss_unikernel as unikernel;
pub use simcore as sim;
