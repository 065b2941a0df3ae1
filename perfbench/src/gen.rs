//! The benchmark's own seeded query generator.
//!
//! The program under test only ever sees the [`TopologyQuery`]s built
//! here, so an edit to `ts_biozon::query_mix` cannot change what the
//! benchmark measures. Every stream is a pure function of its seed.

use ts_biozon::generate::{KW_MEDIUM, KW_SELECTIVE, KW_UNSELECTIVE};
use ts_biozon::{Biozon, SchemaIds};
use ts_core::{RankScheme, TopologyQuery};
use ts_storage::{Database, Predicate};

use crate::Workload;

/// Path-length limit of every query and of the catalog.
pub const L: usize = 3;
/// Largest k drawn (k is uniform in `1..=MAX_K`, as in Table 2).
pub const MAX_K: usize = 20;
/// Zipf exponent of `explore` popularity over the grid's cells. Request
/// popularity at web proxies follows Zipf with exponents 0.64 to 0.83
/// (Breslau et al., "Web Caching and Zipf-like Distributions: Evidence
/// and Implications", INFOCOM 1999); 0.7 lies inside that range. It is
/// not derived from `BiozonConfig::zipf_skew`, which shapes the data
/// graph's degrees, not query popularity.
pub const ZIPF_S: f64 = 0.7;
/// Salt of the popularity ranking of the grid's cells. The ranking is
/// the same for every seed, as in YCSB's scrambled Zipfian: seeds vary
/// the request sequence, not which queries are popular, so the mix, and
/// with it every figure, does not hinge on which cells one seed ranks
/// first.
const RANKING_SALT: u64 = 0x7a1f;
/// Salt of the entities and k of `lookup`'s rounds, the same for every
/// seed for the same reason.
const ROUND_SALT: u64 = 0x3e71;

/// SplitMix64: a seeded stream independent of any crate's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `salt` separates streams drawn from one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One endpoint constraint: an index into the entity set's Table-2
/// choices, or a primary-key pin to one entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Con {
    /// Index into the entity set's constraint choices (`Predicate::True` first).
    Choice(u8),
    /// `Predicate::eq(pk, id)`.
    Entity(i64),
}

/// What a query's answer depends on apart from k and the rank scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Shape {
    /// Index into [`Grid::pairs`].
    pub pair: u8,
    /// Constraint on the first entity set of the pair.
    pub con1: Con,
    /// Constraint on the second entity set of the pair.
    pub con2: Con,
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Entity sets and constraints.
    pub shape: Shape,
    /// Top-k.
    pub k: usize,
    /// Ranking scheme.
    pub scheme: RankScheme,
}

/// The Table-2 query space over one generated database.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The paper's six entity-set pairs.
    pub pairs: [(u16, u16); 6],
    /// Per entity set: constraint choices, `Predicate::True` first.
    choices: Vec<Vec<Predicate>>,
    /// Per entity set: primary-key column and every entity id.
    entities: Vec<(usize, Vec<i64>)>,
}

/// The paper's six entity-set pairs (Table 1 / Fig. 11).
pub fn paper_pairs(ids: &SchemaIds) -> [(u16, u16); 6] {
    [
        (ids.protein, ids.dna),
        (ids.protein, ids.interaction),
        (ids.protein, ids.unigene),
        (ids.dna, ids.interaction),
        (ids.dna, ids.unigene),
        (ids.unigene, ids.interaction),
    ]
}

fn column(db: &Database, es: u16, name: &str) -> usize {
    let table = db.table(db.entity_set(usize::from(es)).table);
    table
        .schema()
        .column_id(name)
        .unwrap_or_else(|| panic!("{} has no {name}", table.schema().name))
}

impl Grid {
    /// The query space of `b`: DNA endpoints are unconstrained or select
    /// a `type` (mRNA / EST); every other endpoint is unconstrained or a
    /// selective / medium / unselective `desc` keyword.
    pub fn new(b: &Biozon) -> Grid {
        let (db, ids) = (&b.db, &b.ids);
        let mut choices = vec![Vec::new(); db.entity_sets().len()];
        let mut entities = vec![(0, Vec::new()); db.entity_sets().len()];
        for es in [ids.protein, ids.dna, ids.unigene, ids.interaction] {
            choices[usize::from(es)] = if es == ids.dna {
                let ty = column(db, es, "type");
                vec![Predicate::True, Predicate::eq(ty, "mRNA"), Predicate::eq(ty, "EST")]
            } else {
                let desc = column(db, es, "desc");
                vec![
                    Predicate::True,
                    Predicate::contains(desc, KW_SELECTIVE),
                    Predicate::contains(desc, KW_MEDIUM),
                    Predicate::contains(desc, KW_UNSELECTIVE),
                ]
            };
            let table = db.table(db.entity_set(usize::from(es)).table);
            let pk = table.schema().primary_key.expect("entity tables have a primary key");
            entities[usize::from(es)] = (pk, table.rows().map(|r| r.as_int(pk)).collect());
        }
        Grid { pairs: paper_pairs(ids), choices, entities }
    }

    /// Number of constraint choices of entity set `es`.
    pub fn choice_count(&self, es: u16) -> usize {
        self.choices[usize::from(es)].len()
    }

    fn predicate(&self, es: u16, con: Con) -> Predicate {
        match con {
            Con::Choice(i) => self.choices[usize::from(es)][usize::from(i)].clone(),
            Con::Entity(id) => Predicate::eq(self.entities[usize::from(es)].0, id),
        }
    }

    /// Entity sets of a shape, in query order.
    pub fn entity_sets(&self, s: Shape) -> (u16, u16) {
        self.pairs[usize::from(s.pair)]
    }

    /// Both endpoint predicates of a shape.
    pub fn predicates(&self, s: Shape) -> (Predicate, Predicate) {
        let (es1, es2) = self.entity_sets(s);
        (self.predicate(es1, s.con1), self.predicate(es2, s.con2))
    }

    /// The query the program receives for `r`.
    pub fn query(&self, r: &Request) -> TopologyQuery {
        let (es1, es2) = self.entity_sets(r.shape);
        let (c1, c2) = self.predicates(r.shape);
        TopologyQuery::new(es1, c1, es2, c2, L).with_k(r.k).with_scheme(r.scheme)
    }

    /// Every shape of the Table-2 grid: 6 pairs × endpoint constraints.
    pub fn shapes(&self) -> Vec<Shape> {
        let mut out = Vec::new();
        for (p, &(es1, es2)) in self.pairs.iter().enumerate() {
            for c1 in 0..self.choice_count(es1) {
                out.extend((0..self.choice_count(es2)).map(|c2| Shape {
                    pair: p as u8,
                    con1: Con::Choice(c1 as u8),
                    con2: Con::Choice(c2 as u8),
                }));
            }
        }
        out
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// `explore`: Table-2 grid cells drawn with Zipf popularity over a fixed
/// ranking (see `RANKING_SALT`), so popular queries repeat.
#[derive(Debug, Clone)]
pub struct Explore {
    ranked: Vec<Request>,
    cdf: Vec<f64>,
    rng: Rng,
}

impl Explore {
    /// The stream for `seed`.
    pub fn new(grid: &Grid, seed: u64) -> Explore {
        let mut ranked: Vec<Request> = grid
            .shapes()
            .into_iter()
            .flat_map(|shape| {
                RankScheme::all()
                    .into_iter()
                    .flat_map(move |scheme| (1..=MAX_K).map(move |k| Request { shape, k, scheme }))
            })
            .collect();
        shuffle(&mut ranked, &mut Rng::new(0, RANKING_SALT));
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=ranked.len())
            .map(|r| {
                acc += (r as f64).powf(-ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Explore { ranked, cdf, rng: Rng::new(seed, 1) }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let u = self.rng.unit();
        let i = self.cdf.partition_point(|&c| c <= u).min(self.ranked.len() - 1);
        self.ranked[i]
    }
}

/// `lookup`: one endpoint pinned to a single entity, the other
/// constrained from the grid's choices.
///
/// Requests come in rounds. A round holds one request per (pair, pinned
/// side, other endpoint's choice, rank scheme) combination, each pinning
/// the next entity of its set in a fixed order, so no two requests of a
/// run pin the same entity and none share work (until an entity set runs
/// out and starts over). Which entities and which k a round holds is the
/// same for every seed (see `ROUND_SALT`); the seed shuffles the order
/// within each round. Entity degrees are Zipf-skewed and a run completes
/// only one to two rounds, so with entities drawn per seed a run's median
/// moved by a third between seeds, with whichever hubs it pinned.
#[derive(Debug, Clone)]
pub struct Lookup {
    /// Every combination, in a fixed order.
    combos: Vec<(u8, bool, u8, RankScheme)>,
    /// The rest of the current round, popped from the back.
    round: Vec<Request>,
    /// Per entity set: the entities not pinned yet, popped from the back.
    unused: Vec<Vec<i64>>,
    entities: Vec<Vec<i64>>,
    pairs: [(u16, u16); 6],
    /// Draws the rounds' entity order and k: the same for every seed.
    fixed: Rng,
    /// Shuffles each round.
    rng: Rng,
}

impl Lookup {
    /// The stream for `seed`.
    pub fn new(grid: &Grid, seed: u64) -> Lookup {
        let mut combos = Vec::new();
        for (p, &(es1, es2)) in grid.pairs.iter().enumerate() {
            for (side, other) in [(false, es2), (true, es1)] {
                for c in 0..grid.choice_count(other) {
                    combos.extend(RankScheme::all().map(|s| (p as u8, side, c as u8, s)));
                }
            }
        }
        let entities: Vec<Vec<i64>> = grid.entities.iter().map(|(_, ids)| ids.clone()).collect();
        Lookup {
            combos,
            round: Vec::new(),
            unused: vec![Vec::new(); entities.len()],
            entities,
            pairs: grid.pairs,
            fixed: Rng::new(0, ROUND_SALT),
            rng: Rng::new(seed, 2),
        }
    }

    fn pin(&mut self, es: usize) -> i64 {
        if self.unused[es].is_empty() {
            self.unused[es] = self.entities[es].clone();
            shuffle(&mut self.unused[es], &mut self.fixed);
        }
        self.unused[es].pop().expect("entity sets of the paper pairs are not empty")
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if self.round.is_empty() {
            for i in 0..self.combos.len() {
                let (pair, side, choice, scheme) = self.combos[i];
                let (es1, es2) = self.pairs[usize::from(pair)];
                let id = self.pin(usize::from(if side { es2 } else { es1 }));
                let (con1, con2) = if side {
                    (Con::Choice(choice), Con::Entity(id))
                } else {
                    (Con::Entity(id), Con::Choice(choice))
                };
                let k = 1 + self.fixed.below(MAX_K);
                self.round.push(Request { shape: Shape { pair, con1, con2 }, k, scheme });
            }
            shuffle(&mut self.round, &mut self.rng);
        }
        self.round.pop().expect("a round holds every combination")
    }
}

enum Source {
    Explore(Explore),
    Lookup(Lookup),
    Both(Explore, Lookup),
}

/// The request stream of a workload: `explore`'s, `lookup`'s, or, for
/// `serve`, the two alternating. Requests are numbered from 0 across
/// every phase of a run.
pub struct Stream {
    source: Source,
    n: u64,
}

impl Stream {
    /// The stream of `w` for `seed`.
    pub fn new(w: Workload, grid: &Grid, seed: u64) -> Stream {
        let source = match w {
            Workload::Explore => Source::Explore(Explore::new(grid, seed)),
            Workload::Lookup => Source::Lookup(Lookup::new(grid, seed)),
            Workload::Serve => Source::Both(Explore::new(grid, seed), Lookup::new(grid, seed)),
        };
        Stream { source, n: 0 }
    }

    /// The next request and its number.
    pub fn next_request(&mut self) -> (u64, Request) {
        let n = self.n;
        self.n += 1;
        let req = match &mut self.source {
            Source::Explore(e) => e.next_request(),
            Source::Lookup(l) => l.next_request(),
            Source::Both(e, _) if n.is_multiple_of(2) => e.next_request(),
            Source::Both(_, l) => l.next_request(),
        };
        (n, req)
    }

    /// Where request `n` starts in a round-robin over `methods` methods
    /// that runs within each class of request.
    pub fn slot(&self, n: u64, methods: usize) -> usize {
        let classes = if matches!(self.source, Source::Both(..)) { 2 } else { 1 };
        (n / classes) as usize % methods
    }
}
