//! `explore` and `lookup`: one closed-loop client calling
//! `Method::try_eval_with` directly on the eight catalog methods:
//! round-robin on `explore`, all eight per request on `lookup` (see
//! [`calls_per_request`]). SQL is left out: at hundreds of milliseconds
//! per query it would turn either workload into a SQL benchmark.

use std::collections::HashMap;
use std::time::Instant;

use ts_core::{EvalOutcome, Method, QueryContext, RankScheme, TopologyId, Work};

use crate::gen::{Grid, Request, Rng, Shape, Stream};
use crate::report::{mean, median, peak_rss_mib, percentile, Report};
use crate::serve;
use crate::setup::set_up;
use crate::trace::{durations_us, Span, Tracer};
use crate::{Options, Workload};

/// The eight catalog methods, in the paper's Table 2 order.
pub const METHODS: [Method; 8] = [
    Method::FullTop,
    Method::FastTop,
    Method::FullTopK,
    Method::FastTopK,
    Method::FullTopKEt,
    Method::FastTopKEt,
    Method::FullTopKOpt,
    Method::FastTopKOpt,
];

/// Untimed requests that let caches fill before the measured phase.
pub const WARMUP: usize = 16;

/// Metric-name form of a method: `Full-Top-k-ET` → `full-top-k-et`.
pub fn slug(m: Method) -> String {
    m.name().to_lowercase()
}

/// A call's result, reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// An unranked method: FNV hash and size of the sorted tid set.
    Set(u64, usize),
    /// A ranked method: its `(tid, score)` rows.
    Ranked(Vec<(TopologyId, f64)>),
}

impl Answer {
    /// Reduce an outcome.
    pub fn of(m: Method, o: &EvalOutcome) -> Answer {
        if m.is_topk() {
            Answer::Ranked(o.topologies.clone())
        } else {
            let set = o.tid_set();
            Answer::Set(set_hash(&set), set.len())
        }
    }
}

/// FNV-1a over a sorted tid set.
pub fn set_hash(set: &[TopologyId]) -> u64 {
    set.iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &t| (h ^ u64::from(t)).wrapping_mul(0x0000_0100_0000_01b3))
}

pub(crate) struct Sample {
    req: Request,
    method: Method,
    us: f64,
    work: u64,
    answer: Result<Answer, String>,
    results: usize,
}

/// One Opt call with both candidate plans run back-to-back with it.
struct OptProbe {
    fast: bool,
    opt_us: f64,
    opt_work: u64,
    et_us: f64,
    et_work: u64,
    regular_us: f64,
}

/// The calls of one phase of direct calls.
#[derive(Default)]
pub(crate) struct Phase {
    /// One per method call.
    samples: Vec<Sample>,
    /// Per request: the summed time of its calls, infinite if one failed.
    requests: Vec<f64>,
    wall_s: f64,
    probes: Vec<OptProbe>,
    select_rows: Vec<f64>,
}

fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Method calls per request: `explore` and `serve` send each request to
/// one method, round-robin; `lookup` runs every request through all
/// eight. Half of the eight answer a lookup in under a millisecond and
/// the rest take one to forty, so a per-call median would sit in the gap
/// between the two groups and jump with a few calls; the time of all
/// eight varies smoothly.
pub fn calls_per_request(w: Workload) -> usize {
    match w {
        Workload::Lookup => METHODS.len(),
        _ => 1,
    }
}

/// The methods request `n` of `stream` goes to: `calls` of them, starting
/// at its round-robin slot, so every method leads equally often.
fn methods_of(stream: &Stream, n: u64, calls: usize) -> impl Iterator<Item = Method> {
    let first = stream.slot(n, METHODS.len());
    (0..calls).map(move |j| METHODS[(first + j) % METHODS.len()])
}

/// Call the methods directly, request after request, until `secs` have
/// passed (at least one request).
pub(crate) fn phase(
    ctx: &QueryContext<'_>,
    grid: &Grid,
    stream: &mut Stream,
    calls: usize,
    secs: f64,
    tracer: &Tracer,
) -> Phase {
    let mut out = Phase::default();
    let start = Instant::now();
    loop {
        let (id, req) = stream.next_request();
        let q = grid.query(&req);
        let root = tracer.open("query", None, id);
        if tracer.on() {
            // σ on both endpoints: the selection every plan performs.
            let rows: usize = tracer.span("storage.select", root, id, || {
                [(q.es1, &q.con1), (q.es2, &q.con2)]
                    .iter()
                    .map(|&(es, con)| {
                        ctx.db.table(ctx.db.entity_set(usize::from(es)).table).scan(con).len()
                    })
                    .sum()
            });
            out.select_rows.push(rows as f64);
        }
        let mut total_us = 0.0;
        for m in methods_of(stream, id, calls) {
            let run = |c: Method, name: &str| {
                time_us(|| tracer.span(name, root, id, || c.try_eval_with(ctx, &q, Work::new())))
            };
            // Back-to-back candidate plans of an Opt call: (ET work, ET
            // µs, regular µs). They run before the Opt call on every
            // other probe of a variant, so neither side always finds the
            // data warm.
            let probe = candidates(m).filter(|_| tracer.on());
            let plans = |(et, regular, v): (Method, Method, &str)| {
                let (e, et_us) = run(et, &format!("optimizer.{v}.et"));
                let (_, regular_us) = run(regular, &format!("optimizer.{v}.regular"));
                (e.map_or(u64::MAX, |e| e.work), et_us, regular_us)
            };
            let fast = m == Method::FastTopKOpt;
            let first = || out.probes.iter().filter(|p| p.fast == fast).count().is_multiple_of(2);
            let before = probe.filter(|_| first()).map(plans);
            let (r, us) = run(m, &format!("core.{}", slug(m)));
            let plans = before.or_else(|| probe.map(plans));
            let (work, results, answer) = match &r {
                Ok(o) => (o.work, o.topologies.len(), Ok(Answer::of(m, o))),
                Err(e) => (0, 0, Err(e.to_string())),
            };
            if let (Ok(o), Some((et_work, et_us, regular_us))) = (&r, plans) {
                out.probes.push(OptProbe {
                    fast,
                    opt_us: us,
                    opt_work: o.work,
                    et_us,
                    et_work,
                    regular_us,
                });
            }
            total_us += if answer.is_ok() { us } else { f64::INFINITY };
            out.samples.push(Sample { req, method: m, us, work, answer, results });
        }
        tracer.close(root);
        out.requests.push(total_us);
        if start.elapsed().as_secs_f64() >= secs {
            out.wall_s = start.elapsed().as_secs_f64();
            return out;
        }
    }
}

/// The two plans an Opt method chooses between: (ET, regular, variant).
fn candidates(m: Method) -> Option<(Method, Method, &'static str)> {
    match m {
        Method::FullTopKOpt => Some((Method::FullTopKEt, Method::FullTopK, "full")),
        Method::FastTopKOpt => Some((Method::FastTopKEt, Method::FastTopK, "fast")),
        _ => None,
    }
}

/// Check every answer against references computed after the run: each
/// unranked method returns Full-Top's tid set; each ranked method
/// returns tids from that set, with their catalog scores, and the same
/// top-k score multiset as a complete Full-Top-k ranking (ties allowed).
fn check(ctx: &QueryContext<'_>, grid: &Grid, samples: &[&Sample], rep: &mut Report) {
    let mut sets: HashMap<Shape, Vec<TopologyId>> = HashMap::new();
    let mut ranked: HashMap<(Shape, RankScheme), Vec<f64>> = HashMap::new();
    let all = ctx.catalog.topology_count().max(1);
    for s in samples {
        let Ok(answer) = &s.answer else { continue };
        let q = grid.query(&s.req);
        let set = sets.entry(s.req.shape).or_insert_with(|| {
            Method::FullTop.try_eval(ctx, &q).map(|o| o.tid_set()).unwrap_or_default()
        });
        match answer {
            Answer::Set(h, n) => {
                if (*h, *n) != (set_hash(set), set.len()) {
                    rep.mismatch(format!(
                        "{} on {:?}: tid set differs from Full-Top",
                        s.method, s.req
                    ));
                }
            }
            Answer::Ranked(rows) => {
                let full = ranked.entry((s.req.shape, s.req.scheme)).or_insert_with(|| {
                    let q = q.clone().with_k(all);
                    let o = Method::FullTopK.try_eval(ctx, &q);
                    o.map(|o| o.topologies.iter().map(|&(_, sc)| sc).collect()).unwrap_or_default()
                });
                let want = &full[..s.req.k.min(full.len())];
                let mut got: Vec<f64> = rows.iter().map(|&(_, sc)| sc).collect();
                got.sort_unstable_by(|a, b| b.total_cmp(a));
                let foreign = rows.iter().any(|&(t, sc)| {
                    set.binary_search(&t).is_err()
                        || ctx.catalog.meta(t).scores[s.req.scheme.index()] != sc
                });
                if got != want || foreign {
                    rep.mismatch(format!(
                        "{} on {:?}: top-k {:?} vs Full-Top-k scores {:?}",
                        s.method, s.req, rows, want
                    ));
                }
            }
        }
    }
}

/// Check every direct call of `phases`; count them as attempted and
/// their errors as failed.
pub(crate) fn check_calls(
    ctx: &QueryContext<'_>,
    grid: &Grid,
    phases: &[&Phase],
    rep: &mut Report,
) {
    let samples: Vec<&Sample> = phases.iter().flat_map(|p| &p.samples).collect();
    rep.attempted += samples.len() as u64;
    rep.failed += samples.iter().filter(|s| s.answer.is_err()).count() as u64;
    check(ctx, grid, &samples, rep);
}

/// The per-layer metrics of a traced phase of direct calls: the methods
/// (ts-core), their metered work (ts-exec), the optimizer's choice and
/// the σ scans (ts-storage).
pub(crate) fn layer_metrics(traced: &Phase, spans: &[Span], rep: &mut Report) {
    for m in METHODS {
        let mut us = durations_us(spans, &format!("core.{}", slug(m)));
        rep.add(format!("core.{}.p50_us", slug(m)), percentile(&mut us, 0.5).unwrap_or(0.0), "us");
    }
    let results: Vec<f64> = traced.samples.iter().map(|s| s.results as f64).collect();
    rep.add("core.results_per_q", mean(&results), "count");
    for m in METHODS {
        let of_m: Vec<&Sample> = traced.samples.iter().filter(|s| s.method == m).collect();
        let work: u64 = of_m.iter().map(|s| s.work).sum();
        let ns: f64 = of_m.iter().map(|s| s.us * 1e3).sum();
        rep.add(
            format!("exec.{}.work_per_q", slug(m)),
            work as f64 / of_m.len().max(1) as f64,
            "count",
        );
        rep.add(format!("exec.{}.ns_per_work", slug(m)), ns / work.max(1) as f64, "ns");
    }
    for (fast, v) in [(false, "full"), (true, "fast")] {
        let p: Vec<&OptProbe> = traced.probes.iter().filter(|p| p.fast == fast).collect();
        let chose_et = |p: &OptProbe| p.opt_work == p.et_work;
        let chosen = |p: &OptProbe| if chose_et(p) { p.et_us } else { p.regular_us };
        let et = p.iter().filter(|p| chose_et(p)).count();
        let over: Vec<f64> = p.iter().map(|p| p.opt_us - chosen(p)).collect();
        let best: f64 = p.iter().map(|p| p.et_us.min(p.regular_us)).sum();
        rep.add(format!("optimizer.{v}.et_share"), et as f64 / p.len().max(1) as f64, "share");
        rep.add(format!("optimizer.{v}.overhead_us"), median(&over), "us");
        rep.add(
            format!("optimizer.{v}.regret"),
            p.iter().map(|p| chosen(p)).sum::<f64>() / best,
            "x",
        );
    }
    rep.add("storage.select_us", median(&durations_us(spans, "storage.select")), "us");
    rep.add("storage.selected_rows_per_q", mean(&traced.select_rows), "count");
}

/// Run `explore` or `lookup`. The traced run also sends the workload's
/// requests through the server for a short phase, for the server's
/// per-layer metrics.
pub fn run(opts: &Options, tracer: &Tracer) -> Report {
    let mut rep = Report { correct: true, ..Report::default() };
    let setup = set_up(opts.scale, tracer, serve::serving);
    let (server, grid) = (&setup.value.0, &setup.value.1);
    let snap = server.snapshot();
    let ctx = snap.ctx();
    let mut stream = Stream::new(opts.workload, grid, opts.seed);
    let calls = calls_per_request(opts.workload);
    for _ in 0..WARMUP {
        let (n, req) = stream.next_request();
        for m in methods_of(&stream, n, calls) {
            let _ = m.try_eval_with(&ctx, &grid.query(&req), Work::new());
        }
    }

    let secs = if tracer.on() { opts.seconds * crate::REFERENCE_SHARE } else { opts.seconds };
    let untraced = phase(&ctx, grid, &mut stream, calls, secs, &Tracer::new(false));
    let traced = tracer.on().then(|| phase(&ctx, grid, &mut stream, calls, opts.seconds, tracer));
    let served = tracer.on().then(|| {
        let mut rng = Rng::new(opts.seed, 3);
        serve::phase(server, grid, &mut stream, &mut rng, secs, tracer)
    });

    let phases: Vec<&Phase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    check_calls(&ctx, grid, &phases, &mut rep);
    setup.check_and_trace(&ctx, tracer, &mut rep);
    let (Some(traced), Some(served)) = (traced, served) else {
        setup.report(&mut rep, ctx.catalog);
        rep.p50(&untraced.requests);
        rep.add("qps", untraced.requests.len() as f64 / untraced.wall_s, "1/s");
        rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
        serve::finish(setup.value.0, &ctx, grid, &[], &mut rep);
        return rep;
    };
    let spans = tracer.spans();
    layer_metrics(&traced, &spans, &mut rep);
    serve::layer_metrics(&served, &spans, &mut rep);
    serve::finish(setup.value.0, &ctx, grid, &[&served], &mut rep);
    rep.add("failed_share", rep.failed as f64 / rep.attempted as f64, "share");
    let p50 = |p: &Phase| median(&p.requests);
    rep.add("trace.overhead_share", (p50(&traced) - p50(&untraced)) / p50(&untraced), "share");
    rep
}
