//! The repository's benchmark: three workloads over one generated
//! Biozon-shaped database (`BiozonConfig::default().scaled(2.0)`, l = 3,
//! the paper's six entity-set pairs, the default prune threshold and
//! domain scorer), driven only through the crates' public entry points
//! in their default configuration.
//!
//! * `explore` — a closed-loop client over `Method::try_eval_with`,
//!   round-robin over the eight catalog methods, on Table-2 grid
//!   queries drawn with Zipf popularity: the paper's interactive use.
//! * `lookup` — the same client with one endpoint pinned to a single
//!   entity, each request run by all eight methods: point selections
//!   where index plans win and the optimizer's fixed cost dominates.
//! * `serve` — an open loop of Poisson arrivals into a `ts_server::Server`:
//!   the only workload through admission, queueing and degradation.
//!
//! Every run first sets up [`setup::SETUPS`] times: generation plus the
//! full offline build (graph, parallel `compute_catalog`, prune, score)
//! and an idle server over it. That is where the paper's offline cost is
//! measured; a workload of repeated builds would only repeat it at the
//! price of shorter query runs. Every run checks its outputs outside the
//! timed region.
//!
//! Every workload reports the same end-to-end metrics (`setup_s`,
//! `catalog_mib`, `peak_rss_mib`, `p50_us`, `qps`); what a request is
//! differs: one method call on `explore`, all eight on `lookup`, one
//! evaluation on a server worker on `serve`. With tracing
//! on, a run records spans around each call into a layer and reports
//! every per-layer metric: after its own traced phase it runs a short one
//! through the layers it bypasses (the server for `explore` and `lookup`,
//! direct calls for `serve`). The calls that exist only to derive those
//! metrics run only then.

pub mod gen;
pub mod query;
pub mod report;
pub mod serve;
pub mod setup;
pub mod trace;

use report::Report;
use trace::Tracer;

/// A traced run first repeats the untraced measurement for this share
/// of `--seconds`, as the reference `trace.overhead_share` compares
/// against, then measures with spans on for the full `--seconds`.
pub const REFERENCE_SHARE: f64 = 0.25;

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over Table-2 grid queries.
    Explore,
    /// Closed loop over entity-pinned queries.
    Lookup,
    /// Open loop into the server.
    Serve,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::Lookup, Workload::Serve];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Lookup => "lookup",
            Workload::Serve => "serve",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Database scale ([`setup::SCALE`] except in the crate's own tests).
    pub scale: f64,
}

/// Run one workload. Spans, if any, stay in `tracer`.
pub fn run(opts: &Options, tracer: &Tracer) -> Report {
    match opts.workload {
        Workload::Explore | Workload::Lookup => query::run(opts, tracer),
        Workload::Serve => serve::run(opts, tracer),
    }
}
