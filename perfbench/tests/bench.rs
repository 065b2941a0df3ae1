//! The benchmark's own tests: generator determinism, lookup
//! distinctness, metric declarations, and a tiny-scale smoke run of
//! every workload in both modes, each reporting every metric its mode
//! declares.

use std::collections::HashSet;

use perfbench::gen::{Con, Explore, Grid, Lookup};
use perfbench::trace::Tracer;
use perfbench::{run, setup, Options, Workload};

const TINY: f64 = 0.05;

fn grid() -> Grid {
    Grid::new(&setup::generate_db(TINY))
}

#[test]
fn streams_are_deterministic_in_the_seed() {
    let g = grid();
    let explore = |seed| {
        let mut e = Explore::new(&g, seed);
        (0..300).map(|_| e.next_request()).collect::<Vec<_>>()
    };
    let lookup = |seed| {
        let mut l = Lookup::new(&g, seed);
        (0..150).map(|_| l.next_request()).collect::<Vec<_>>()
    };
    assert_eq!(explore(7), explore(7));
    assert_ne!(explore(7), explore(8));
    assert_eq!(lookup(7), lookup(7));
    assert_ne!(lookup(7), lookup(8));
    let repeats = 300 - explore(7).into_iter().collect::<HashSet<_>>().len();
    assert!(repeats > 0, "Zipf popularity makes explore requests repeat");
}

#[test]
fn lookup_requests_are_pairwise_distinct() {
    let g = grid();
    let mut l = Lookup::new(&g, 3);
    let reqs: Vec<_> = (0..120).map(|_| l.next_request()).collect();
    let mut pinned = HashSet::new();
    for r in &reqs {
        let (es1, es2) = g.entity_sets(r.shape);
        let pin = match (r.shape.con1, r.shape.con2) {
            (Con::Entity(id), Con::Choice(_)) => (es1, id),
            (Con::Choice(_), Con::Entity(id)) => (es2, id),
            other => panic!("exactly one endpoint is pinned: {other:?}"),
        };
        assert!(pinned.insert(pin), "entity {pin:?} pinned twice");
    }
}

/// `"name"` values of one section of BENCHMARK.json.
fn declared(section: &str) -> HashSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let end = text[start..].find(']').map_or(text.len(), |e| start + e);
    text[start..end]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn smoke_run_of_every_workload_reports_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options { workload, seed: 5, seconds: 0.4, trace, scale: TINY };
            let rep = run(&opts, &Tracer::new(trace));
            let label = format!("{} trace={trace}", workload.name());
            assert!(rep.correct, "{label}: {:?}", rep.notes);
            assert!(rep.attempted >= 1, "{label}");
            assert_eq!(rep.failed, 0, "{label}");
            assert!(rep.json().starts_with("{\"correct\": true"), "{label}");
            let mut got = HashSet::new();
            for m in &rep.metrics {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                assert!(m.name.chars().all(ok), "{label}: bad metric name {}", m.name);
                assert!(m.value.is_finite(), "{label}: {} = {}", m.name, m.value);
                assert!(got.insert(m.name.clone()), "{label}: {} reported twice", m.name);
            }
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&got, want, "{label}: reported metrics differ from BENCHMARK.json");
        }
    }
}
