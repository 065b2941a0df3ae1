//! Full-Top-k-Opt and Fast-Top-k-Opt (§5.4): cost-based choice between
//! the sort-based top-k plan and the early-termination DGJ plan.
//!
//! The choice is the paper's: estimate the cost of the regular plan
//! (full evaluation + sort + fetch-k) and the Theorem-1 expected cost of
//! the DGJ stack, run the cheaper. The regular plan is priced by the
//! same [`PlanCosts`] estimate `full_top::distinct_tids` picks its plan
//! by; when that plan is the semi-join, the ET plan is the same
//! topology walk stopped after k witnesses and is taken outright. The
//! estimates consume only catalog statistics (cardinalities, predicate
//! selectivities from `ts-storage` stats, per-topology frequencies as
//! group cardinalities).

use ts_optimizer::{et_stack_cost, DgjOpParams, DgjStackParams};

use crate::catalog::Tops;
use crate::methods::common::{entity_table, Selections};
use crate::methods::full_top::{Plan, PlanCosts};
use crate::methods::{et, topk, EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Which family the optimizer arbitrates for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Full-Top-k vs Full-Top-k-ET.
    Full,
    /// Fast-Top-k vs Fast-Top-k-ET.
    Fast,
}

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    variant: Variant,
    work: ts_exec::Work,
) -> EvalOutcome {
    let sel = Selections::new(ctx, q);
    let tops = match variant {
        Variant::Full => Tops::All,
        Variant::Fast => Tops::Left,
    };
    // Regular plan cost: the estimate `full_top::distinct_tids` runs its
    // cheapest plan by. When that plan is the semi-join, the ET plan is
    // the same topology walk stopped after k witnesses: it never costs
    // more, and is taken without pricing it.
    let (plan, plan_cost) = PlanCosts::estimate(&sel, tops).best();
    let (choose_et, estimates) = if plan == Plan::Semi {
        (true, format!("regular plan is semi, est {plan_cost:.1}"))
    } else {
        let (et_cost, regular_cost) = price(ctx, &sel, variant, plan_cost);
        (et_cost < regular_cost, format!("ET est {et_cost:.1} vs regular est {regular_cost:.1}"))
    };
    let mut out = if choose_et {
        match variant {
            Variant::Full => et::eval(ctx, q, et::Variant::Full, et::EtPlanKind::Idgj, work),
            Variant::Fast => et::eval(ctx, q, et::Variant::Fast, et::EtPlanKind::Idgj, work),
        }
    } else {
        match variant {
            Variant::Full => topk::eval(ctx, q, topk::Variant::Full, work),
            Variant::Fast => topk::eval(ctx, q, topk::Variant::Fast, work),
        }
    };
    out.detail = format!(
        "opt chose {} ({estimates}); inner: {}",
        if choose_et { "ET" } else { "regular" },
        out.detail
    );
    out.method = match variant {
        Variant::Full => Method::FullTopKOpt,
        Variant::Fast => Method::FastTopKOpt,
    };
    out
}

/// The estimated cost of the ET plan (Theorem 1) and of the regular plan
/// whose `DISTINCT TID` part `full_top::distinct_tids` estimates at
/// `plan_cost`, both with the TopInfo walk or sort over the espair's `m`
/// unpruned topologies.
fn price(
    ctx: &QueryContext<'_>,
    sel: &Selections<'_>,
    variant: Variant,
    plan_cost: f64,
) -> (f64, f64) {
    let o = &sel.o;
    let (from_table, _) = entity_table(ctx, o.espair.from);
    let (to_table, _) = entity_table(ctx, o.espair.to);

    let rho_from =
        from_table.stats().map(|s| o.con_from.selectivity(s)).unwrap_or(0.5).clamp(1e-6, 1.0);
    let rho_to = to_table.stats().map(|s| o.con_to.selectivity(s)).unwrap_or(0.5).clamp(1e-6, 1.0);

    let skip_pruned = variant == Variant::Fast;
    // Group cardinalities in score order: LeftTops rows per topology.
    let ranked = ctx.catalog.ranked(sel.query().scheme, o.espair);
    let mut groups: Vec<f64> = Vec::with_capacity(ranked.len());
    let mut pruned = 0usize;
    for &tid in ranked {
        let meta = ctx.catalog.meta(tid);
        pruned += usize::from(meta.pruned);
        if !(skip_pruned && meta.pruned) {
            groups.push(meta.freq as f64);
        }
    }
    let m = groups.len() as f64;

    // ET cost: Theorem 1 over the two entity joins, plus streaming the
    // TopInfo rows. Probe costs are calibrated to the engine: each tuple
    // examined by an IDGJ level costs an index probe plus ~2 iterator
    // ticks (emit + downstream pull/filter).
    const TUPLE_OVERHEAD: f64 = 2.0;
    let stack = DgjStackParams {
        ops: vec![
            DgjOpParams { fanout: 1.0, rho: rho_from, probe_cost: 1.0 + TUPLE_OVERHEAD },
            DgjOpParams { fanout: 1.0, rho: rho_to, probe_cost: 1.0 + TUPLE_OVERHEAD },
        ],
        groups,
    };
    let et_cost = et_stack_cost(&stack, sel.query().k) + m;

    let mut regular_cost = plan_cost + m;
    if variant == Variant::Fast {
        // Gated pruned checks: each pruned topology may walk the selected
        // from-side, but the first-witness early exit usually stops far
        // sooner (factor 0.25, calibrated against the engine).
        regular_cost += 0.25 * pruned as f64 * from_table.len() as f64 * rho_from;
    }
    (et_cost, regular_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::prune::{prune_catalog, PruneOptions};
    use crate::query::RankScheme;
    use crate::score::{score_catalog, DomainScorer};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_storage::Predicate;

    fn setup() -> (ts_storage::Database, ts_graph::DataGraph, ts_graph::SchemaGraph, crate::Catalog)
    {
        let (db, g, schema) = figure3();
        let (mut cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        score_catalog(&mut cat, &DomainScorer::default());
        (db, g, schema, cat)
    }

    #[test]
    fn opt_matches_both_candidate_plans() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        for scheme in RankScheme::all() {
            let q = TopologyQuery::new(
                PROTEIN,
                Predicate::contains(1, "enzyme"),
                DNA,
                Predicate::eq(1, "mRNA"),
                3,
            )
            .with_scheme(scheme);
            let o = eval(&ctx, &q, Variant::Fast, ts_exec::Work::new());
            let base = topk::eval(&ctx, &q, topk::Variant::Fast, ts_exec::Work::new());
            assert_eq!(o.tid_set(), base.tid_set(), "scheme={scheme}");
            assert!(o.detail.contains("opt chose"));
            assert_eq!(o.method, Method::FastTopKOpt);
        }
    }

    #[test]
    fn full_variant_reports_method() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let o = eval(&ctx, &q, Variant::Full, ts_exec::Work::new());
        assert_eq!(o.method, Method::FullTopKOpt);
    }
}
