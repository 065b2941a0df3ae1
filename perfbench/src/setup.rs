//! Shared set-up: the generated database and the full offline build,
//! repeated [`SETUPS`] times per run. The set-up's own metrics and
//! checks live here: `setup_s`, `catalog_mib`, the catalog
//! digest check, and the traced run's build-side layer probes.

use std::time::Instant;

use ts_biozon::{domain_scorer, generate, Biozon, BiozonConfig, SchemaIds};
use ts_core::{
    compute_catalog, prune_catalog, score_catalog, Catalog, ComputeOptions, ComputeStats, EsPair,
    PruneOptions, PruneReport, QueryContext,
};
use ts_graph::{canonical_code, enumerate_pair_paths, DataGraph, SchemaGraph};

use crate::gen::{paper_pairs, L};
use crate::report::{median, nproc, Report};
use crate::trace::{durations_us, SpanId, Tracer};
use crate::MIB;

/// Database scale of every workload (11 660 entities at 2.0).
pub const SCALE: f64 = 2.0;
/// Set-ups per run: `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The output of one full offline build.
pub struct Built {
    /// Data graph.
    pub graph: DataGraph,
    /// Schema graph.
    pub schema: SchemaGraph,
    /// Pruned, scored catalog.
    pub catalog: Catalog,
    /// Build statistics.
    pub stats: ComputeStats,
    /// What pruning did.
    pub prune: PruneReport,
}

/// Generate the database every workload uses.
pub fn generate_db(scale: f64) -> Biozon {
    generate(&BiozonConfig::default().scaled(scale))
}

/// Options of the offline build: the six paper pairs at `L`, parallel
/// over at most `threads` workers.
pub fn compute_options(ids: &SchemaIds, threads: usize) -> ComputeOptions {
    let pairs = paper_pairs(ids).iter().map(|&(x, y)| EsPair::new(x, y)).collect();
    ComputeOptions {
        es_pairs: Some(pairs),
        parallel: true,
        max_threads: threads,
        ..ComputeOptions::with_l(L)
    }
}

/// Graph, catalog computation, pruning and scoring over `b`.
pub fn build(b: &Biozon, threads: usize, tracer: &Tracer, parent: SpanId) -> Built {
    let (graph, schema) = tracer.span("graph.from_db", parent, 0, || {
        let graph = DataGraph::from_db(&b.db).expect("the generated database is consistent");
        (graph, SchemaGraph::from_db(&b.db))
    });
    let opts = compute_options(&b.ids, threads);
    let (mut catalog, stats) =
        tracer.span("core.compute", parent, 0, || compute_catalog(&b.db, &graph, &schema, &opts));
    let prune = tracer
        .span("core.prune", parent, 0, || prune_catalog(&mut catalog, PruneOptions::default()));
    tracer.span("core.score", parent, 0, || score_catalog(&mut catalog, &domain_scorer(&b.ids)));
    Built { graph, schema, catalog, stats, prune }
}

/// A database with its finished build.
pub struct Env {
    /// Generated database.
    pub biozon: Biozon,
    /// Its offline build.
    pub built: Built,
}

impl Env {
    /// The context the methods run against.
    pub fn ctx(&self) -> QueryContext<'_> {
        QueryContext {
            db: &self.biozon.db,
            graph: &self.built.graph,
            schema: &self.built.schema,
            catalog: &self.built.catalog,
        }
    }
}

/// The last of a run's set-ups, with what all of them measured.
pub struct SetUp<T> {
    /// What the workload made of the last set-up.
    pub value: T,
    ids: SchemaIds,
    stats: ComputeStats,
    prune: PruneReport,
    setup_s: Vec<f64>,
    digests: Vec<u64>,
}

/// Generate and build [`SETUPS`] times, turning each [`Env`] into what
/// the workload serves from with `finish`; all but the last are dropped
/// before the next starts. `setup_s` covers generation, the build and
/// `finish`, not the digest taken for the checks.
pub fn set_up<T>(scale: f64, tracer: &Tracer, mut finish: impl FnMut(Env) -> T) -> SetUp<T> {
    let threads = nproc();
    let (mut setup_s, mut digests) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let root = tracer.open("setup", None, 0);
        let t = Instant::now();
        let biozon = tracer.span("biozon.generate", root, 0, || generate_db(scale));
        let built = build(&biozon, threads, tracer, root);
        let env_s = t.elapsed().as_secs_f64();
        digests.push(built.catalog.fnv_digest());
        let (ids, stats, prune) = (biozon.ids, built.stats.clone(), built.prune.clone());
        let t = Instant::now();
        let value = finish(Env { biozon, built });
        setup_s.push(env_s + t.elapsed().as_secs_f64());
        tracer.close(root);
        last = Some(SetUp { value, ids, stats, prune, setup_s: Vec::new(), digests: Vec::new() });
    }
    let mut out = last.expect("at least one set-up");
    (out.setup_s, out.digests) = (setup_s, digests);
    out
}

impl<T> SetUp<T> {
    /// The set-up's end-to-end metrics.
    pub fn report(&self, rep: &mut Report, catalog: &Catalog) {
        rep.add("setup_s", median(&self.setup_s), "s");
        rep.add("catalog_mib", catalog.heap_size() as f64 / MIB, "MiB");
    }

    /// Every set-up built the same catalog. The traced run also checks
    /// it against a one-thread build, which it times, and probes the
    /// graph layer: path enumeration over the six pairs, and
    /// `canonical_code` of every catalog topology against its stored
    /// code. Spans, counters and probes become the build-side
    /// per-layer metrics.
    pub fn check_and_trace(&self, ctx: &QueryContext<'_>, tracer: &Tracer, rep: &mut Report) {
        for (i, &d) in self.digests.iter().enumerate() {
            if d != self.digests[0] {
                rep.mismatch(format!("set-up {i}: catalog digest {d:x} != {:x}", self.digests[0]));
            }
        }
        if !tracer.on() {
            return;
        }
        let spans = tracer.spans();
        let ms = |name: &str| median(&durations_us(&spans, name)) / 1e3;
        rep.add("biozon.generate_ms", ms("biozon.generate"), "ms");
        rep.add("graph.from_db_ms", ms("graph.from_db"), "ms");
        let compute_ms = ms("core.compute");
        rep.add("core.compute_ms", compute_ms, "ms");
        rep.add("core.prune_ms", ms("core.prune"), "ms");
        rep.add("core.score_ms", ms("core.score"), "ms");
        let s = &self.stats;
        rep.add("core.pairs", s.pairs as f64, "count");
        rep.add("core.topologies", s.topologies as f64, "count");
        rep.add("core.canon_hit_rate", s.canon_hit_rate(), "share");
        rep.add("core.canon_misses", s.canon_misses as f64, "count");
        rep.add("core.sig_hashes", s.sig_hashes as f64, "count");
        rep.add("core.truncated_pairs", s.truncated_pairs as f64, "count");
        rep.add("storage.alltops_rows", self.prune.alltops_rows as f64, "count");
        rep.add("storage.lefttops_rows", self.prune.lefttops_rows as f64, "count");
        rep.add("storage.excptops_rows", self.prune.excptops_rows as f64, "count");
        rep.add("core.pair_bytes", ctx.catalog.pair_bytes() as f64, "B");
        let db_bytes: usize = (0..ctx.db.table_count()).map(|t| ctx.db.table(t).heap_size()).sum();
        rep.add(
            "core.catalog_bytes_per_db_byte",
            ctx.catalog.heap_size() as f64 / db_bytes as f64,
            "x",
        );

        let t = Instant::now();
        let (mut one, _) = tracer.span("core.compute_one_thread", None, 0, || {
            compute_catalog(ctx.db, ctx.graph, ctx.schema, &compute_options(&self.ids, 1))
        });
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        rep.add("core.compute_serial_ms", serial_ms, "ms");
        rep.add("core.parallel_speedup", serial_ms / compute_ms, "x");
        prune_catalog(&mut one, PruneOptions::default());
        score_catalog(&mut one, &domain_scorer(&self.ids));
        if one.fnv_digest() != self.digests[0] {
            rep.mismatch(format!(
                "one-thread build digest {:x} != {:x}",
                one.fnv_digest(),
                self.digests[0]
            ));
        }

        let t = Instant::now();
        let paths: usize = tracer.span("graph.enumerate", None, 0, || {
            paper_pairs(&self.ids)
                .iter()
                .map(|&(x, y)| enumerate_pair_paths(ctx.graph, ctx.schema, x, y, L).path_count())
                .sum()
        });
        rep.add("graph.enumerate_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        rep.add("graph.paths", paths as f64, "count");
        let metas = ctx.catalog.metas();
        let t = Instant::now();
        let bad = tracer.span("graph.canon", None, 0, || {
            metas.iter().filter(|m| canonical_code(&m.graph) != m.code).count()
        });
        rep.add(
            "graph.canon_us",
            t.elapsed().as_secs_f64() * 1e6 / metas.len().max(1) as f64,
            "us",
        );
        if bad > 0 {
            rep.mismatch(format!("{bad} catalog topologies disagree with canonical_code"));
        }
    }
}
