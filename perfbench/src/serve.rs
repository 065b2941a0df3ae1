//! `serve`: an open loop into a `ts_server::Server`. One generator
//! thread submits on a seeded Poisson schedule at a fixed rate; a pool
//! of waiter threads observes each response as soon as it arrives, so
//! no response waits behind an earlier, slower ticket.
//!
//! Its end-to-end figures are the server's: `p50_us` is the median
//! service time (a response's `EvalOutcome::wall_ms`: how long its
//! evaluation ran on a worker) and `qps` the rate of answered requests,
//! which stays at the offered [`RATE`] unless the server falls behind.
//! Two figures that would follow the server's speed more closely were
//! left to the traced run, as each moved by more than a quarter between
//! runs on a shared two-core host: the latency from each request's
//! scheduled send time (`loadgen.latency_*`), which behind a FIFO queue
//! depends on the few lookups that run 100+ ms, and the capacity the
//! busy time implies (`server.busy_share`), a mean over the same heavy
//! tail.

use std::collections::HashMap;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use ts_core::{Exhausted, Method, QueryContext, Snapshot, Work};
use ts_server::{BudgetSpec, QueryResponse, Server, ServerConfig, Ticket};

use crate::gen::{Grid, Request, Rng, Stream};
use crate::query::{self, METHODS, WARMUP};
use crate::report::{median, nproc, peak_rss_mib, percentile, Report};
use crate::setup::{set_up, Env};
use crate::trace::{durations_us, self_times_us, Span, Tracer};
use crate::{Options, Workload};

/// Offered load in requests per second, constant across commits. Chosen
/// once, on the commit that introduced this benchmark: its two workers
/// were a fifth to a third busy on a two-core machine. At twice the rate
/// (about half busy) the latency median moved 40% between runs.
pub const RATE: f64 = 50.0;
/// Step quota of every request (in `Work` units). It degrades a
/// minority of the requests: the unconstrained scans of the
/// non-early-terminating methods.
pub const STEP_QUOTA: u64 = 150_000;
/// Deadline of every request; loose enough that it rarely fires.
pub const DEADLINE_MS: u64 = 2_000;
/// Admission queue capacity: far above the queue an unsaturated server
/// builds, so shedding means overload.
pub const QUEUE_CAP: usize = 1024;
/// Threads observing responses.
const WAITERS: usize = 16;

fn budget() -> BudgetSpec {
    BudgetSpec { deadline_ms: Some(DEADLINE_MS), step_quota: Some(STEP_QUOTA), row_quota: None }
}

/// What every workload serves from: a `Server` with one worker per core
/// over the finished build, and the query grid. The server stays idle
/// unless a phase submits to it; `explore` and `lookup` call the methods
/// on its snapshot directly.
pub fn serving(env: Env) -> (Server, Grid) {
    let config = ServerConfig {
        workers: nproc(),
        queue_cap: QUEUE_CAP,
        default_budget: budget(),
        ..Default::default()
    };
    let grid = Grid::new(&env.biozon);
    let (db, b) = (env.biozon.db, env.built);
    (Server::new(Snapshot::new(db, b.graph, b.schema, b.catalog), config), grid)
}

struct Done {
    id: usize,
    latency_us: f64,
    resp: Option<QueryResponse>,
}

/// The requests of one phase through the server.
#[derive(Default)]
pub(crate) struct Phase {
    sent: Vec<(Request, Method)>,
    done: Vec<Done>,
    late_us: Vec<f64>,
    max_depth: usize,
    stats: ts_server::Stats,
    wall_s: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_us).collect()
    }

    /// Per answered request: the time its evaluation took on a worker.
    fn service_us(&self) -> Vec<f64> {
        self.done.iter().filter_map(|d| Some(d.resp.as_ref()?.outcome()?.wall_ms * 1e3)).collect()
    }

    /// Requests answered (`Ok` or `Degraded`) per second of the phase,
    /// the wait for the last response included: the offered rate unless
    /// the server falls behind or refuses requests.
    fn served_qps(&self) -> f64 {
        (self.stats.ok + self.stats.degraded) as f64 / self.wall_s
    }
}

fn diff(a: ts_server::Stats, b: ts_server::Stats) -> ts_server::Stats {
    ts_server::Stats {
        submitted: b.submitted - a.submitted,
        shed: b.shed - a.shed,
        ok: b.ok - a.ok,
        degraded: b.degraded - a.degraded,
        rejected: b.rejected - a.rejected,
        failed: b.failed - a.failed,
        busy_us: b.busy_us - a.busy_us,
    }
}

/// Submit `stream`'s requests on the Poisson schedule for `secs` (at
/// least one), each to one method, round-robin; then wait for every
/// response.
pub(crate) fn phase(
    server: &Server,
    grid: &Grid,
    stream: &mut Stream,
    rng: &mut Rng,
    secs: f64,
    tracer: &Tracer,
) -> Phase {
    let mut out = Phase::default();
    let before = server.stats();
    let (tx, rx) = mpsc::channel::<(usize, Ticket, Instant)>();
    let rx = Mutex::new(rx);
    let start = Instant::now();
    let done = std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = rx.lock().expect("no waiter panics holding the lock").recv();
                        let Ok((id, ticket, due)) = next else { return done };
                        let resp = ticket.wait();
                        let seen = Instant::now();
                        if let Some(o) = resp.outcome() {
                            let req = tracer.record("serve.request", due, seen, None, id as u64);
                            let served = seen - Duration::from_secs_f64(o.wall_ms / 1e3);
                            tracer.record("server.service", served.max(due), seen, req, id as u64);
                        }
                        let latency_us = (seen - due).as_secs_f64() * 1e6;
                        done.push(Done { id, latency_us, resp: Some(resp) });
                    }
                })
            })
            .collect();
        let mut at = 0.0;
        let mut refused = Vec::new();
        loop {
            at += -(1.0 - rng.unit()).ln() / RATE;
            if at >= secs && !out.sent.is_empty() {
                break;
            }
            let due = start + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
            let (n, req) = stream.next_request();
            let m = METHODS[stream.slot(n, METHODS.len())];
            let id = out.sent.len();
            out.sent.push((req, m));
            match server.submit_with(m, grid.query(&req), budget()) {
                Ok(ticket) => tx.send((id, ticket, due)).expect("waiters outlive the generator"),
                Err(_) => refused.push(Done { id, latency_us: f64::INFINITY, resp: None }),
            }
            if tracer.on() {
                out.max_depth = out.max_depth.max(server.queue_depth());
            }
        }
        drop(tx);
        // A waiter that panicked loses its responses; `run` counts them.
        for w in waiters {
            refused.extend(w.join().unwrap_or_default());
        }
        refused
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out.done = done;
    out.done.sort_by_key(|d| d.id);
    out.stats = diff(before, server.stats());
    out
}

/// Every `Ok` answer equals a direct evaluation of the same (method,
/// query), run on every core after the run; every `Degraded` answer
/// holds at most k well-formed rows.
fn check(ctx: &QueryContext<'_>, grid: &Grid, phases: &[&Phase], rep: &mut Report) {
    type Rows = Vec<(ts_core::TopologyId, f64)>;
    let answered = || {
        phases
            .iter()
            .flat_map(|p| p.done.iter().filter_map(|d| Some((p.sent[d.id], d.resp.as_ref()?))))
    };
    let mut keys: Vec<(Request, Method)> = answered()
        .filter(|(_, r)| matches!(r, QueryResponse::Ok(_)))
        .map(|(key, _)| key)
        .collect::<std::collections::HashSet<_>>()
        .into_iter()
        .collect();
    keys.sort_by_key(|(r, m)| (r.shape, r.k, r.scheme.index(), m.name()));
    let chunk = keys.len().div_ceil(nproc()).max(1);
    let direct: HashMap<(Request, Method), Rows> = std::thread::scope(|s| {
        let parts: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(req, m)| {
                            let o = m.try_eval_with(ctx, &grid.query(&req), Work::new());
                            ((req, m), o.map(|o| o.topologies).unwrap_or_default())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().unwrap_or_default()).collect()
    });
    for ((req, m), resp) in answered() {
        match resp {
            QueryResponse::Ok(o) if direct.get(&(req, m)) != Some(&o.topologies) => {
                rep.mismatch(format!("serve {m} on {req:?}: Ok answer differs from a direct call"));
            }
            QueryResponse::Degraded { partial, .. } => {
                let q = grid.query(&req);
                let ranked = partial.method.is_topk();
                let pair = ts_core::EsPair::new(q.es1, q.es2);
                let mut tids = partial.tids();
                tids.sort_unstable();
                tids.dedup();
                let bad_row = partial.topologies.iter().any(|&(t, sc)| {
                    t as usize >= ctx.catalog.topology_count()
                        || ctx.catalog.meta(t).espair != pair
                        || (ranked && ctx.catalog.meta(t).scores[req.scheme.index()] != sc)
                });
                let sorted = !ranked || partial.topologies.windows(2).all(|w| w[0].1 >= w[1].1);
                let too_many = ranked && partial.topologies.len() > req.k;
                if bad_row || !sorted || too_many || tids.len() != partial.topologies.len() {
                    rep.mismatch(format!("serve {m} on {req:?}: malformed Degraded answer"));
                }
            }
            _ => {}
        }
    }
}

/// Check every response of `phases`, count their requests as attempted
/// and the refused, failed and lost ones as failed, and shut the server
/// down.
pub(crate) fn finish(
    server: Server,
    ctx: &QueryContext<'_>,
    grid: &Grid,
    phases: &[&Phase],
    rep: &mut Report,
) {
    check(ctx, grid, phases, rep);
    let report = server.shutdown();
    if !report.worker_panics.is_empty() {
        rep.mismatch(format!("server workers died: {:?}", report.worker_panics));
    }
    for p in phases {
        let lost = (p.sent.len() - p.done.len()) as u64;
        if lost > 0 {
            rep.mismatch(format!("{lost} responses were never observed"));
        }
        rep.attempted += p.sent.len() as u64;
        rep.failed += p.stats.shed + p.stats.rejected + p.stats.failed + lost;
    }
}

/// The per-layer metrics of a traced phase through the server: queue
/// wait against service time, the degrade ladder, and the load
/// generator's own validity.
pub(crate) fn layer_metrics(traced: &Phase, spans: &[Span], rep: &mut Report) {
    let self_us = self_times_us(spans);
    let wait: Vec<f64> = spans
        .iter()
        .zip(&self_us)
        .filter(|(s, _)| s.name == "serve.request")
        .map(|(_, &t)| t)
        .collect();
    rep.latency("server.queue_wait_", &wait);
    rep.latency("server.service_", &durations_us(spans, "server.service"));
    let st = traced.stats;
    let busy = st.busy_us as f64 / 1e6 / nproc() as f64 / traced.wall_s;
    rep.add("server.busy_share", busy, "share");
    rep.add("server.max_queue_depth", traced.max_depth as f64, "count");
    rep.add("server.shed", st.shed as f64, "count");
    rep.add("server.rejected", st.rejected as f64, "count");
    rep.add("server.failed", st.failed as f64, "count");
    rep.add("server.degraded", st.degraded as f64, "count");
    let degraded = || {
        traced.done.iter().filter_map(|d| match &d.resp {
            Some(QueryResponse::Degraded { reason, fell_back, .. }) => {
                Some((*reason, fell_back.is_some()))
            }
            _ => None,
        })
    };
    rep.add("server.fell_back", degraded().filter(|d| d.1).count() as f64, "count");
    rep.add(
        "server.exhausted_steps",
        degraded().filter(|d| d.0 == Exhausted::Steps).count() as f64,
        "count",
    );
    rep.add(
        "server.exhausted_deadline",
        degraded().filter(|d| d.0 == Exhausted::Deadline).count() as f64,
        "count",
    );
    rep.latency("loadgen.latency_", &traced.latencies());
    rep.add("loadgen.sent", traced.sent.len() as f64, "count");
    let mut late = traced.late_us.clone();
    rep.add("loadgen.late_p99_us", percentile(&mut late, 0.99).unwrap_or(0.0), "us");
}

/// Run `serve`. The traced run also calls the methods directly on the
/// same stream for a short phase, for the per-layer metrics of the
/// layers under the server.
pub fn run(opts: &Options, tracer: &Tracer) -> Report {
    let mut rep = Report { correct: true, ..Report::default() };
    let setup = set_up(opts.scale, tracer, serving);
    let (server, grid) = (&setup.value.0, &setup.value.1);
    let snap = server.snapshot();
    let ctx = snap.ctx();
    let mut stream = Stream::new(Workload::Serve, grid, opts.seed);
    for _ in 0..WARMUP {
        let (n, req) = stream.next_request();
        let m = METHODS[stream.slot(n, METHODS.len())];
        if let Ok(t) = server.submit_with(m, grid.query(&req), budget()) {
            t.wait();
        }
    }

    let mut rng = Rng::new(opts.seed, 3);
    let secs = if tracer.on() { opts.seconds * crate::REFERENCE_SHARE } else { opts.seconds };
    let untraced = phase(server, grid, &mut stream, &mut rng, secs, &Tracer::new(false));
    let traced =
        tracer.on().then(|| phase(server, grid, &mut stream, &mut rng, opts.seconds, tracer));
    let direct = tracer.on().then(|| query::phase(&ctx, grid, &mut stream, 1, secs, tracer));

    query::check_calls(&ctx, grid, &direct.iter().collect::<Vec<_>>(), &mut rep);
    setup.check_and_trace(&ctx, tracer, &mut rep);
    let (Some(traced), Some(direct)) = (traced, direct) else {
        setup.report(&mut rep, ctx.catalog);
        rep.p50(&untraced.service_us());
        rep.add("qps", untraced.served_qps(), "1/s");
        rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
        finish(setup.value.0, &ctx, grid, &[&untraced], &mut rep);
        return rep;
    };
    let spans = tracer.spans();
    layer_metrics(&traced, &spans, &mut rep);
    query::layer_metrics(&direct, &spans, &mut rep);
    finish(setup.value.0, &ctx, grid, &[&untraced, &traced], &mut rep);
    rep.add("failed_share", rep.failed as f64 / rep.attempted.max(1) as f64, "share");
    let p50 = |p: &Phase| median(&p.service_us());
    rep.add("trace.overhead_share", (p50(&traced) - p50(&untraced)) / p50(&untraced), "share");
    rep
}
