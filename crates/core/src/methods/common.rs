//! Shared plumbing for the evaluation strategies.

use std::cell::OnceCell;

use ts_exec::{Endpoint, Work};
use ts_graph::PathSig;
use ts_storage::FastSet;
use ts_storage::{Predicate, Table, Value};

use crate::catalog::{Catalog, EsPair, TopologyId, Tops};
use crate::methods::QueryContext;
use crate::query::{RankScheme, TopologyQuery};

/// The query oriented to the catalog's normalized espair: constraints
/// for the `from` side and the `to` side of stored (E1, E2) pairs.
pub struct Oriented<'q> {
    /// Normalized entity-set pair.
    pub espair: EsPair,
    /// Constraint on E1 (the `espair.from` entity set).
    pub con_from: &'q Predicate,
    /// Constraint on E2 (the `espair.to` entity set).
    pub con_to: &'q Predicate,
}

/// Orient a query to catalog storage order.
pub fn orient<'q>(q: &'q TopologyQuery) -> Oriented<'q> {
    let espair = EsPair::new(q.es1, q.es2);
    if q.es1 <= q.es2 {
        Oriented { espair, con_from: &q.con1, con_to: &q.con2 }
    } else {
        Oriented { espair, con_from: &q.con2, con_to: &q.con1 }
    }
}

/// The backing table of an entity set plus its primary-key column.
pub fn entity_table<'a>(ctx: &QueryContext<'a>, es: u16) -> (&'a Table, usize) {
    let def = ctx.db.entity_set(es as usize);
    let table = ctx.db.table(def.table);
    // lint: allow(unwrap-in-lib): Database::add_entity_set rejects tables
    // without a primary key, so every entity-set table carries one
    let pk = table.schema().primary_key.expect("entity sets have primary keys");
    (table, pk)
}

/// The entity id a `pk = id` constraint pins, if `con` is exactly that.
pub fn pinned_id(con: &Predicate, pk: usize) -> Option<i64> {
    match *con {
        Predicate::Eq(col, Value::Int(id)) if col == pk => Some(id),
        _ => None,
    }
}

/// Estimated selectivity of `con` over `table`, from its statistics.
fn selectivity(table: &Table, con: &Predicate) -> f64 {
    table.stats().map_or(1.0, |s| con.selectivity(s))
}

/// Estimated `(cost, rows)` of σ_con over entity set `es`: one pk probe
/// for a pin, a full scan otherwise; rows from the table statistics.
pub fn selection_estimate(ctx: &QueryContext<'_>, es: u16, con: &Predicate) -> (f64, f64) {
    let (table, pk) = entity_table(ctx, es);
    let n = table.len() as f64;
    let cost = if pinned_id(con, pk).is_some() { 1.0 } else { n };
    (cost, selectivity(table, con) * n)
}

/// The two endpoints of one evaluation, with each side's σ computed at
/// most once: the first plan step that needs a side's selected ids
/// scans for them (or probes a pin), and every later step of the same
/// evaluation (an index plan's residual check, Fast-Top's online
/// checks, the gated pruned checks) reuses the set. Side `0` is the
/// catalog's E1 (`espair.from`, tops column 0), side `1` is E2.
pub struct Selections<'a> {
    ctx: &'a QueryContext<'a>,
    q: &'a TopologyQuery,
    /// The query oriented to catalog storage order.
    pub(crate) o: Oriented<'a>,
    ids: [OnceCell<FastSet<i64>>; 2],
}

impl<'a> Selections<'a> {
    /// Nothing selected yet.
    pub fn new(ctx: &'a QueryContext<'a>, q: &'a TopologyQuery) -> Self {
        Selections { ctx, q, o: orient(q), ids: [OnceCell::new(), OnceCell::new()] }
    }

    /// The context the query runs in.
    pub(crate) fn ctx(&self) -> &'a QueryContext<'a> {
        self.ctx
    }

    /// The query.
    pub(crate) fn query(&self) -> &'a TopologyQuery {
        self.q
    }

    /// Entity set and constraint of side `side`.
    pub(crate) fn side(&self, side: usize) -> (u16, &'a Predicate) {
        if side == 0 {
            (self.o.espair.from, self.o.con_from)
        } else {
            (self.o.espair.to, self.o.con_to)
        }
    }

    /// Estimated selectivity of side `side`'s constraint.
    pub(crate) fn rho(&self, side: usize) -> f64 {
        let (es, con) = self.side(side);
        selectivity(entity_table(self.ctx, es).0, con)
    }

    /// Side `side`'s selected entity ids, selected on first use.
    pub(crate) fn ids(&self, side: usize, work: &Work) -> &FastSet<i64> {
        let (es, con) = self.side(side);
        self.ids[side].get_or_init(|| selected_ids(self.ctx, es, con, work))
    }

    /// True once side `side` has been selected.
    pub(crate) fn has_ids(&self, side: usize) -> bool {
        self.ids[side].get().is_some()
    }

    /// Side `side` as a semi-join endpoint: its entity table probed by
    /// primary key with tops column `side`.
    pub(crate) fn endpoint(&self, side: usize) -> Endpoint<'a> {
        let (es, con) = self.side(side);
        let (table, pk) = entity_table(self.ctx, es);
        Endpoint { table, col: side, pred: con, pin: pinned_id(con, pk) }
    }

    /// Both endpoints, the one with the lower estimated selectivity
    /// first, so most rejected tops rows cost one probe.
    pub(crate) fn probe_order(&self) -> (Endpoint<'a>, Endpoint<'a>) {
        if self.rho(1) < self.rho(0) {
            (self.endpoint(1), self.endpoint(0))
        } else {
            (self.endpoint(0), self.endpoint(1))
        }
    }
}

/// TopInfo of `espair` in `scheme`'s score order, as the group ids a
/// [`ts_exec::SemiDgj`] pulls: every topology with rows in `tops` (on
/// LeftTops the pruned ones, which have none, are skipped).
pub(crate) fn topinfo(
    catalog: &Catalog,
    scheme: RankScheme,
    espair: EsPair,
    tops: Tops,
) -> impl Iterator<Item = Value> + Clone + '_ {
    catalog
        .ranked(scheme, espair)
        .iter()
        .filter(move |&&tid| !(tops == Tops::Left && catalog.meta(tid).pruned))
        .map(|&tid| Value::Int(i64::from(tid)))
}

/// Entity ids of `es` satisfying `con` — the σ of the paper's plans. A
/// `pk = id` pin is answered by one metered pk probe; any other
/// constraint by a metered sequential scan.
pub fn selected_ids(ctx: &QueryContext<'_>, es: u16, con: &Predicate, work: &Work) -> FastSet<i64> {
    let (table, pk) = entity_table(ctx, es);
    let mut out = FastSet::default();
    if let Some(id) = pinned_id(con, pk) {
        work.tick(1);
        if table.by_pk(&Value::Int(id)).is_some() {
            out.insert(id);
        }
        return out;
    }
    if ts_exec::engine() == ts_exec::Engine::Batch {
        use ts_exec::BatchOperator;
        let mut scan = ts_exec::BatchTableScan::new(table, con.clone(), work.clone());
        while let Some(b) = scan.next_batch() {
            for i in b.sel_iter() {
                out.insert(b.value(pk, i).as_int());
            }
        }
        return out;
    }
    for row in table.rows() {
        work.tick(1);
        if con.eval_ref(row) {
            out.insert(row.as_int(pk));
        }
    }
    out
}

/// Decode a path signature into `(types, rels)` oriented so that
/// `types[0] == start_type`, if possible.
pub fn decode_sig(sig: &PathSig, start_type: u16) -> Option<(Vec<u16>, Vec<u16>)> {
    let v = &sig.0;
    debug_assert!(v.len() % 2 == 1, "signature interleaves types and rels");
    let types: Vec<u16> = v.iter().step_by(2).copied().collect();
    let rels: Vec<u16> = v.iter().skip(1).step_by(2).copied().collect();
    if types.first() == Some(&start_type) {
        return Some((types, rels));
    }
    if types.last() == Some(&start_type) {
        let mut t = types;
        let mut r = rels;
        t.reverse();
        r.reverse();
        return Some((t, r));
    }
    None
}

/// How many times more entities E1 must select than E2 before
/// [`online_path_check`] walks from E2.
const WALK_FROM_E2_RATIO: usize = 4;

/// The online existence check for a pruned path topology (§4.3): is
/// there a pair `(a ∈ A, b ∈ B)` connected by an instance of the
/// topology's label walk that is **not** in the exception table?
///
/// This is the paper's lower sub-query of SQL1 — a join along the path's
/// relationship tables with `NOT EXISTS (SELECT 1 FROM ExcpTops …)` —
/// executed as a label-constrained DFS with first-witness early exit.
/// The DFS starts from E2 only when E1 selects more than
/// `WALK_FROM_E2_RATIO` (4) times as many entities: a witness found
/// early ends the walk, so a merely smaller start set does not always
/// pay (walking from the smaller side on every query raised one grid
/// query's Fast-Top-k-ET work above its ceiling).
pub fn online_path_check(
    ctx: &QueryContext<'_>,
    tid: TopologyId,
    a_ids: &FastSet<i64>,
    b_ids: &FastSet<i64>,
    work: &Work,
) -> bool {
    let from_e2 = a_ids.len() > WALK_FROM_E2_RATIO * b_ids.len();
    path_witness(ctx, tid, a_ids, b_ids, from_e2, work)
}

/// [`online_path_check`]'s DFS, walked out of E2 (label path reversed)
/// when `from_e2` holds and out of E1 otherwise.
fn path_witness(
    ctx: &QueryContext<'_>,
    tid: TopologyId,
    a_ids: &FastSet<i64>,
    b_ids: &FastSet<i64>,
    from_e2: bool,
    work: &Work,
) -> bool {
    let meta = ctx.catalog.meta(tid);
    // lint: allow(unwrap-in-lib): callers run the online check only for pruned
    // topologies, and pruning selects only path-shaped victims (path_sig is Some)
    let sig = meta.path_sig.as_ref().expect("online check requires a path topology");
    let Some((mut types, mut rels)) = decode_sig(sig, meta.espair.from) else {
        return false;
    };
    let (start_es, starts, ends) = if from_e2 {
        types.reverse();
        rels.reverse();
        (meta.espair.to, b_ids, a_ids)
    } else {
        (meta.espair.from, a_ids, b_ids)
    };
    let g = ctx.graph;
    // Label-constrained DFS: position i must have type types[i]. `path`
    // holds the current path, indexed by depth: an entry popped at depth
    // `pos` was pushed by `path[pos - 1]`, and everything popped since
    // sat at depth `pos` or deeper, so `path[..pos]` are its ancestors.
    let mut stack: Vec<(u32, usize)> = Vec::new();
    let mut path: Vec<u32> = Vec::with_capacity(rels.len() + 1);
    for &s in starts {
        let Some(start) = g.node(start_es, s) else { continue };
        stack.push((start, 0));
        while let Some((node, pos)) = stack.pop() {
            path.truncate(pos);
            path.push(node);
            if pos == rels.len() {
                let e = g.node_entity(node);
                if ends.contains(&e) {
                    work.tick(1); // exception-table probe, keyed (E1, E2)
                    let (a, b) = if from_e2 { (e, s) } else { (s, e) };
                    if !ctx.catalog.excp_contains(a, b, tid) {
                        return true;
                    }
                }
                continue;
            }
            for &(rid, next) in g.neighbors(node) {
                work.tick(1);
                if rid != rels[pos] || g.node_type(next) != types[pos + 1] {
                    continue;
                }
                if path.contains(&next) {
                    continue; // simple paths only
                }
                stack.push((next, pos + 1));
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_sig_orients_both_ways() {
        // Sig for P(0) -ue(1)- U(1) -uc(2)- D(2): [0,1,1,2,2].
        let sig = PathSig(vec![0, 1, 1, 2, 2]);
        let (t, r) = decode_sig(&sig, 0).unwrap();
        assert_eq!(t, vec![0, 1, 2]);
        assert_eq!(r, vec![1, 2]);
        let (t2, r2) = decode_sig(&sig, 2).unwrap();
        assert_eq!(t2, vec![2, 1, 0]);
        assert_eq!(r2, vec![2, 1]);
        assert!(decode_sig(&sig, 9).is_none());
    }

    fn figure3_context(
        threshold: u64,
    ) -> (ts_storage::Database, ts_graph::DataGraph, ts_graph::SchemaGraph, crate::Catalog) {
        let (db, g, schema) = ts_graph::fixtures::figure3();
        let opts = crate::compute::ComputeOptions::with_l(3);
        let (mut cat, _) = crate::compute::compute_catalog(&db, &g, &schema, &opts);
        crate::prune::prune_catalog(&mut cat, crate::PruneOptions { threshold, max_pruned: 64 });
        (db, g, schema, cat)
    }

    #[test]
    fn selected_ids_answers_a_pk_pin_with_one_probe() {
        use ts_exec::{set_engine, Engine};
        use ts_graph::fixtures::PROTEIN;
        let (db, g, schema, cat) = figure3_context(u64::MAX);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        for engine in [Engine::Batch, Engine::Tuple] {
            set_engine(engine);
            for (id, want) in [(78i64, vec![78i64]), (79, vec![])] {
                let work = Work::new();
                let got = selected_ids(&ctx, PROTEIN, &Predicate::eq(0, id), &work);
                assert_eq!(got.into_iter().collect::<Vec<_>>(), want, "{engine:?} id {id}");
                assert_eq!(work.get(), 1, "{engine:?} id {id}");
            }
        }
        set_engine(Engine::Batch);
    }

    #[test]
    fn online_path_check_verdict_is_independent_of_walk_side() {
        // Every pruned topology, every selection of no, one or all
        // entities per side: walking out of E1 and out of E2 must agree.
        // (78, 215) has a P-U-D path listed in the exception table, so a
        // reverse walk that probed ExcpTops as (E2, E1) would disagree.
        let (db, g, schema, cat) = figure3_context(0);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let selections = |es: u16| {
            let (table, pk) = entity_table(&ctx, es);
            let ids: Vec<i64> = table.rows().map(|r| r.as_int(pk)).collect();
            let mut out: Vec<FastSet<i64>> =
                vec![FastSet::default(), ids.iter().copied().collect()];
            out.extend(ids.iter().map(|&id| std::iter::once(id).collect()));
            out
        };
        let pruned: Vec<TopologyId> =
            cat.metas().iter().filter(|m| m.pruned).map(|m| m.id).collect();
        assert!(!pruned.is_empty(), "threshold 0 prunes the path topologies");
        let (mut witnessed, mut blocked) = (0, 0);
        for tid in pruned {
            let espair = cat.meta(tid).espair;
            for a in selections(espair.from) {
                for b in selections(espair.to) {
                    let from_e1 = path_witness(&ctx, tid, &a, &b, false, &Work::new());
                    let from_e2 = path_witness(&ctx, tid, &a, &b, true, &Work::new());
                    assert_eq!(from_e1, from_e2, "tid {tid}: A={a:?} B={b:?}");
                    witnessed += usize::from(from_e1);
                    let excepted =
                        a.iter().any(|&x| b.iter().any(|&y| cat.excp_contains(x, y, tid)));
                    blocked += usize::from(!from_e1 && a.len() == 1 && excepted);
                }
            }
        }
        assert!(witnessed > 0 && blocked > 0, "witnessed {witnessed}, blocked {blocked}");
    }
}
