//! The Full-Top method (§3.2): query the precomputed AllTops table.
//!
//! The paper's SQL:
//!
//! ```sql
//! SELECT distinct AT.TID
//! FROM Protein P, DNA D, AllTops AT
//! WHERE P.desc.ct('enzyme') and D.type = 'mRNA'
//!   and P.ID = AT.E1 and D.ID = AT.E2
//! ```
//!
//! [`distinct_tids`] answers this `SELECT DISTINCT TID` for Full-Top,
//! Fast-Top (over LeftTops) and both `*-Top-k` methods with one of two
//! physical plans, picked before any σ runs by the [`PlanCosts`]
//! estimate of each plan's `Work` from catalog statistics:
//!
//! * **index** ([`index_plan`]) — select one side, probe the tops
//!   table's index on it (E1 on col 0, E2 on col 1) per selected entity,
//!   and check the other side of each row read: by one pk probe per row
//!   while the rows are fewer than that side's σ costs, else against its
//!   σ ("the selective predicates enable Full-Top to scan only a small
//!   part of the AllTops table", §6.2.2);
//! * **semi** ([`semi_plan`]) — the DGJ insight of §5.3 applied to the
//!   complete answer: walk the espair's topologies, probe each one's
//!   rows through the TID index, and stop at its first witness. It runs
//!   the same engine-independent [`SemiDgj`] as the ET plans, with no σ
//!   at all.
//!
//! [`hash_plan`], the plan the commercial systems chose (Fig. 14: scan
//! the whole tops table, keep rows whose E1 and E2 are both selected),
//! is kept as the reference the other plans are tested against. It is
//! never picked: with unselective predicates the semi plan reads about
//! one row per topology, with selective ones an index plan reads only
//! the selected entities' runs, and both beat a full scan.
//!
//! A side's σ is computed at most once per evaluation ([`Selections`]),
//! so Fast-Top's online checks and the gated pruned checks reuse it.

use std::time::Instant;

use ts_exec::{SemiDgj, Work};
use ts_storage::{FastSet, RowRef, Table, Value};

use crate::catalog::{TopologyId, Tops};
use crate::methods::common::{selection_estimate, topinfo, Selections};
use crate::methods::{EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, work: Work) -> EvalOutcome {
    // lint: allow(nondeterministic-source): wall-clock timing statistic only;
    // it lands in the outcome's millis field and never reaches catalog bytes
    let start = Instant::now();
    let (tids, plan) = distinct_tids(&Selections::new(ctx, q), Tops::All, &work);
    EvalOutcome {
        method: Method::FullTop,
        topologies: tids.into_iter().map(|t| (t, 0.0)).collect(),
        work: work.get(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        detail: format!("DISTINCT TID over AllTops: {plan} plan"),
        exhausted: work.exhausted(),
    }
}

/// The physical plan behind a [`distinct_tids`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// [`index_plan`] driven from tops column `0` (E1) or `1` (E2).
    Index(usize),
    /// [`semi_plan`].
    Semi,
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Plan::Index(col) => write!(f, "index-E{}", col + 1),
            Plan::Semi => write!(f, "semi"),
        }
    }
}

/// Estimated `Work` of each [`Plan`] for one query over one tops table,
/// from statistics alone (entity-table selectivities, the catalog's
/// per-espair run-length histograms); it mirrors how each plan meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCosts {
    /// Driven from side 0 / side 1: the driving σ, one probe per
    /// selected entity, one unit per row of its runs (`ρ` times the rows
    /// its entity set holds in that column), and the cheaper residual
    /// check (the other σ, or one pk probe per run row).
    index: [f64; 2],
    /// `T + Σ_t min(run_t, 1/(ρ_from·ρ_to))·(2 + ρ_first)` over the
    /// espair's `T` topologies with rows: one unit per topology, and per
    /// row read before the expected first witness one unit, one probe of
    /// the more selective endpoint and, when it admits, one of the other.
    semi: f64,
}

impl PlanCosts {
    /// Estimate every plan of `sel`'s query over `tops`.
    pub fn estimate(sel: &Selections<'_>, tops: Tops) -> PlanCosts {
        let ctx = sel.ctx();
        let catalog = ctx.catalog;
        let sides = [0, 1].map(|side| {
            let (es, con) = sel.side(side);
            let (sigma, selected) = selection_estimate(ctx, es, con);
            let rho = sel.rho(side).clamp(0.0, 1.0);
            (sigma, selected, rho * catalog.side_rows(tops, side, es) as f64, rho)
        });
        let index = [0, 1].map(|side| {
            let (sigma, selected, run_rows, _) = sides[side];
            sigma + selected + run_rows + sides[1 - side].0.min(run_rows)
        });
        let (rho_from, rho_to) = (sides[0].3, sides[1].3);
        let semi = catalog.run_stats(tops, sel.o.espair).map_or(0.0, |runs| {
            let cap = 1.0 / (rho_from * rho_to).max(1e-12);
            runs.topologies as f64 + runs.capped_rows(cap) * (2.0 + rho_from.min(rho_to))
        });
        PlanCosts { index, semi }
    }

    /// The cheapest plan and its estimate.
    pub fn best(&self) -> (Plan, f64) {
        [(Plan::Index(0), self.index[0]), (Plan::Index(1), self.index[1]), (Plan::Semi, self.semi)]
            .into_iter()
            .fold((Plan::Semi, f64::INFINITY), |best, c| if c.1 < best.1 { c } else { best })
    }
}

/// The shared `SELECT DISTINCT TID` over a topology-pairs table (AllTops
/// for Full-Top, LeftTops for Fast-Top): the sorted distinct TIDs of rows
/// whose E1/E2 entities satisfy the oriented constraints, by the plan
/// [`PlanCosts`] estimates cheapest, which it also returns.
pub(crate) fn distinct_tids(
    sel: &Selections<'_>,
    tops: Tops,
    work: &Work,
) -> (Vec<TopologyId>, Plan) {
    match PlanCosts::estimate(sel, tops).best().0 {
        Plan::Index(col) => {
            let (tids, drove) = index_plan(sel, tops, col, work);
            (tids, Plan::Index(drove))
        }
        Plan::Semi => (semi_plan(sel, tops, work), Plan::Semi),
    }
}

/// The hash plan: select both sides, scan the whole tops table, keep
/// the TIDs of rows whose E1 and E2 are both selected. The reference
/// the picked plans are tested against; [`distinct_tids`] never runs it.
pub fn hash_plan(sel: &Selections<'_>, tops: Tops, work: &Work) -> Vec<TopologyId> {
    let (from, to) = (sel.ids(0, work), sel.ids(1, work));
    let rows = sel.ctx().catalog.tops(tops).rows();
    distinct_kept(rows, work, |row| from.contains(&row.as_int(0)) && to.contains(&row.as_int(1)))
}

/// The index plan driven from side `col`: probe the tops table's index
/// on `col` once per entity that side selects, then check the other
/// side of each row read. While the rows read are fewer than the other
/// side's σ would cost, each is checked with one pk probe; otherwise the
/// other side is selected too, and then the side whose runs are shorter
/// in total drives: it is looked up only while its runs cost less than
/// the ones already read. Returns the sorted TIDs and the column that
/// drove.
pub fn index_plan(
    sel: &Selections<'_>,
    tops: Tops,
    col: usize,
    work: &Work,
) -> (Vec<TopologyId>, usize) {
    let table = sel.ctx().catalog.tops(tops);
    let drive = sel.ids(col, work);
    let (mut runs, cost) = index_runs(table, col, drive, usize::MAX, work).unwrap_or_default();
    let (other_es, other_con) = sel.side(1 - col);
    let run_rows = cost - drive.len();
    if !sel.has_ids(1 - col)
        && (run_rows as f64) < selection_estimate(sel.ctx(), other_es, other_con).0
    {
        let other = sel.endpoint(1 - col);
        let rows = runs.into_iter().flatten().map(|&rid| table.row(rid));
        return (distinct_kept(rows, work, |row| other.admits(row, work)), col);
    }
    let mut col = col;
    if let Some((other, _)) = index_runs(table, 1 - col, sel.ids(1 - col, work), cost, work) {
        (runs, col) = (other, 1 - col);
    }
    let check = sel.ids(1 - col, work);
    let rows = runs.into_iter().flatten().map(|&rid| table.row(rid));
    (distinct_kept(rows, work, |row| check.contains(&row.as_int(1 - col))), col)
}

/// The semi-join plan: pull the espair's topologies from TopInfo and
/// stop each at its first witness row ([`SemiDgj`], the more selective
/// endpoint probed first, a pinned one by comparing ids). No σ runs.
pub fn semi_plan(sel: &Selections<'_>, tops: Tops, work: &Work) -> Vec<TopologyId> {
    let catalog = sel.ctx().catalog;
    let groups = topinfo(catalog, sel.query().scheme, sel.o.espair, tops);
    let (first, second) = sel.probe_order();
    let mut semi = SemiDgj::new(groups, catalog.tops(tops), 2, first, second, work.clone());
    let mut tids = Vec::new();
    while let Some(tid) = semi.next_group() {
        // A row quota drops the group that exceeds it, as the budgeted
        // drivers do.
        work.count_row();
        if work.interrupted() {
            break;
        }
        tids.push(tid.as_int() as TopologyId);
    }
    tids.sort_unstable();
    tids
}

/// The sorted distinct TIDs of the tops `rows` that `keep` admits, one
/// unit per row read; `keep` runs only on rows of TIDs not yet found. Each new TID counts as a result row against the
/// row quota, and the one that exceeds it is dropped.
fn distinct_kept<'t>(
    rows: impl Iterator<Item = RowRef<'t>>,
    work: &Work,
    keep: impl Fn(RowRef<'t>) -> bool,
) -> Vec<TopologyId> {
    let mut tids = FastSet::default();
    for row in rows {
        if work.interrupted() {
            break;
        }
        work.tick(1);
        let tid = row.as_int(2) as TopologyId;
        if !tids.contains(&tid) && keep(row) {
            work.count_row();
            if work.interrupted() {
                break;
            }
            tids.insert(tid);
        }
    }
    // Hash-set order must not leak into the result: sort the ids.
    let mut v: Vec<TopologyId> = tids.into_iter().collect();
    v.sort_unstable();
    v
}

/// The non-empty rid runs of `ids` in `tops`'s index on `col`, one
/// metered lookup per id, with their cost (one unit per lookup plus one
/// per rid). `None` as soon as the cost exceeds `bound`.
fn index_runs<'t>(
    tops: &'t Table,
    col: usize,
    ids: &FastSet<i64>,
    bound: usize,
    work: &Work,
) -> Option<(Vec<&'t [u32]>, usize)> {
    let mut runs = Vec::new();
    let mut cost = 0usize;
    for &id in ids {
        work.tick(1); // index probe
        let run = tops.index_probe(col, &Value::Int(id));
        cost += 1 + run.len();
        if cost > bound {
            return None;
        }
        if !run.is_empty() {
            runs.push(run);
        }
    }
    Some((runs, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::query::TopologyQuery;
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_graph::{DataGraph, SchemaGraph};
    use ts_storage::{Database, Predicate};

    fn setup() -> (Database, DataGraph, SchemaGraph, crate::Catalog) {
        let (db, g, schema) = figure3();
        let (cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        (db, g, schema, cat)
    }

    #[test]
    fn example_query_returns_t1_to_t4() {
        // §2.2: Q = {(Protein, desc.ct('enzyme')), (DNA, type='mRNA')}
        // selects proteins {32, 78, 44} and all three DNAs; the topology
        // result is {T1, T2, T3, T4}.
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            DNA,
            Predicate::eq(1, "mRNA"),
            3,
        );
        let out = eval(&ctx, &q, Work::new());
        assert_eq!(out.tid_set().len(), 4, "expected T1..T4: {:?}", out.topologies);
        assert!(out.work > 0);
    }

    #[test]
    fn selective_constraint_narrows_result() {
        // Only protein 34 ("vitamin D inducible protein") — its only pair
        // is (34, 215) wait: 34 encodes 215 and 34-u103... pairs (34,215)
        // via encodes and via u103; that pair's topologies are computed
        // from both paths.
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q =
            TopologyQuery::new(PROTEIN, Predicate::contains(1, "vitamin"), DNA, Predicate::True, 3);
        let out = eval(&ctx, &q, Work::new());
        assert!(!out.topologies.is_empty());
        assert!(out.tid_set().len() < 4);
    }

    #[test]
    fn empty_selection_yields_empty_result() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "nonexistent-keyword"),
            DNA,
            Predicate::True,
            3,
        );
        let out = eval(&ctx, &q, Work::new());
        assert!(out.topologies.is_empty());
    }

    #[test]
    fn query_orientation_is_symmetric() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q1 = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            DNA,
            Predicate::eq(1, "mRNA"),
            3,
        );
        let q2 = TopologyQuery::new(
            DNA,
            Predicate::eq(1, "mRNA"),
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            3,
        );
        assert_eq!(eval(&ctx, &q1, Work::new()).tid_set(), eval(&ctx, &q2, Work::new()).tid_set());
    }
}
