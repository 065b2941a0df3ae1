//! The topology catalog: `AllTops`, `TopInfo`, `LeftTops`, `ExcpTops`.
//!
//! §3.2 of the paper: "Full-Top creates a AllTops table that stores for
//! every pair of entities in the database, the l-topologies by which they
//! are related" plus "an associated TopInfo table (that stores additional
//! information about topologies)". §4.2 prunes AllTops into `LeftTops`
//! and the exception table `ExcpTops` (Fig. 13).
//!
//! The catalog keeps two synchronized representations:
//!
//! * **metadata** — interned topologies ([`TopologyMeta`]: canonical
//!   code, structure graph, frequency, scores, pruned flag) and a
//!   CSR-shaped per-pair store (which topologies and which path classes
//!   each connected pair has — the information pruning needs). Pair
//!   entries live in two catalog-level buffers (`pair_topos`,
//!   `pair_sigs`) addressed through one offset table, mirroring
//!   `ts-graph`'s `PathArena`; a pair is read through a borrowing
//!   [`PairView`], and no per-pair heap allocation exists anywhere;
//! * **materialized relational tables** — real [`ts_storage::Table`]s
//!   with hash indexes, which the query methods execute against and
//!   whose byte sizes reproduce Table 1.
//!
//! Entity ids must be globally unique across entity sets (the paper:
//! "assuming that the IDs of different biological objects are not
//! overlapping"); [`Catalog::finalize`] enforces this.

use ts_graph::{CanonicalCode, LGraph, PathSig};
use ts_storage::cast;
use ts_storage::{fast_hash_u16s, ColumnDef, FastMap, Table, TableSchema, Value, ValueType};

use crate::query::RankScheme;

/// Identifier of a topology in the catalog.
pub type TopologyId = u32;

/// A normalized (unordered) pair of entity sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EsPair {
    /// Smaller entity-set id.
    pub from: u16,
    /// Larger entity-set id.
    pub to: u16,
}

impl EsPair {
    /// Normalize `(a, b)` so that `from <= to`.
    pub fn new(a: u16, b: u16) -> Self {
        if a <= b {
            EsPair { from: a, to: b }
        } else {
            EsPair { from: b, to: a }
        }
    }
}

/// One of the two topology-pairs tables the regular and ET plans read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tops {
    /// AllTops: every (E1, E2, TID) row.
    All,
    /// LeftTops: AllTops minus the pruned topologies' rows.
    Left,
}

/// The shape of one espair's rid runs in a tops table's TID index: how
/// many topologies have rows, how many rows they hold, and a log2
/// histogram of run lengths. Plan costing reads it instead of walking
/// every topology's metadata per query.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RunStats {
    /// Topologies with at least one row.
    pub(crate) topologies: u64,
    /// Rows over all of them.
    pub(crate) rows: u64,
    /// `buckets[b] = (runs, rows)` of the runs of length in `[2^b, 2^(b+1))`.
    buckets: Vec<(u64, u64)>,
}

impl RunStats {
    fn add(&mut self, run: u64) {
        if run == 0 {
            return;
        }
        let b = run.ilog2() as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, (0, 0));
        }
        self.buckets[b].0 += 1;
        self.buckets[b].1 += run;
        self.topologies += 1;
        self.rows += run;
    }

    /// `Σ_t min(run_t, cap)`: exact for the buckets wholly below or above
    /// `cap`; the bucket `cap` falls in contributes `min(rows, runs·cap)`.
    pub(crate) fn capped_rows(&self, cap: f64) -> f64 {
        self.buckets.iter().map(|&(runs, rows)| (rows as f64).min(runs as f64 * cap)).sum()
    }

    fn heap_size(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<(u64, u64)>()
    }
}

/// Everything the catalog knows about one topology.
#[derive(Debug, Clone)]
pub struct TopologyMeta {
    /// Catalog id (also the TID stored in the relational tables).
    pub id: TopologyId,
    /// The entity-set pair this topology relates.
    pub espair: EsPair,
    /// Representative structure graph.
    pub graph: LGraph,
    /// Canonical code (identity).
    pub code: CanonicalCode,
    /// Interned id of `code` in the catalog's code table — the compact
    /// key dedup lookups use instead of cloning the code vector.
    pub code_id: u32,
    /// Frequency: number of entity pairs related by this topology
    /// (`freq(es1, es2, T)` in §4.2.1).
    pub freq: u64,
    /// If the topology is a single simple path between the pair's entity
    /// sets, its signature — only such topologies are pruning-eligible
    /// and online-checkable (§4.3's path sub-queries).
    pub path_sig: Option<PathSig>,
    /// True once the pruning module moved this topology out of LeftTops.
    pub pruned: bool,
    /// Scores per [`RankScheme`] (Freq, Rare, Domain).
    pub scores: [f64; 3],
}

/// Identity of one connected entity pair in the CSR pair store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairKey {
    /// Entity-set pair (normalized).
    pub espair: EsPair,
    /// Entity id of the `espair.from` side.
    pub e1: i64,
    /// Entity id of the `espair.to` side.
    pub e2: i64,
}

/// End offsets of one pair's slices in the shared CSR buffers. Entry
/// `i + 1` holds pair `i`'s exclusive ends; entry 0 is the all-zero
/// sentinel, so `offsets[i]..offsets[i + 1]` is pair `i`'s range in
/// both buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairOffsets {
    /// Exclusive end in the topology-id buffer.
    pub topos: u32,
    /// Exclusive end in the signature-id buffer.
    pub sigs: u32,
}

/// Borrowed view of one pair's catalog entry — the CSR replacement for
/// the old owning per-pair record (which carried two heap `Vec`s per
/// connected pair).
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    /// Entity-set pair (normalized).
    pub espair: EsPair,
    /// Entity id of the `espair.from` side.
    pub e1: i64,
    /// Entity id of the `espair.to` side.
    pub e2: i64,
    /// Topologies relating the pair (`l-Top(e1, e2)`), sorted, deduped.
    pub topos: &'a [TopologyId],
    /// Interned signatures of the pair's path equivalence classes.
    pub sigs: &'a [u32],
}

impl PairView<'_> {
    /// The pair's key.
    pub fn key(&self) -> PairKey {
        PairKey { espair: self.espair, e1: self.e1, e2: self.e2 }
    }
}

/// The topology catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Path-length limit `l` the catalog was computed at.
    pub l: usize,
    metas: Vec<TopologyMeta>,
    code_index: FastMap<(EsPair, u32), TopologyId>,
    /// CSR pair store: keys sorted by (espair, e1, e2) after finalize,
    /// with both value streams in shared catalog-level buffers.
    pair_keys: Vec<PairKey>,
    pair_offsets: Vec<PairOffsets>,
    pair_topos: Vec<TopologyId>,
    pair_sigs: Vec<u32>,
    sigs: Vec<PathSig>,
    /// Signature dedup index keyed by the *precomputed* fast hash of the
    /// signature bytes: the offline build hashes each signature once in
    /// the worker, caches the hash alongside the interned id, and this
    /// index re-interns at merge time without re-walking any signature.
    /// Values are candidate-id lists (identity = full byte compare).
    sig_index: FastMap<u64, Vec<u32>>,
    codes: Vec<CanonicalCode>,
    code_ids: FastMap<CanonicalCode, u32>,
    /// Pairs whose Definition-2 product was truncated by guard rails.
    pub truncated_pairs: u64,
    /// AllTops(E1, E2, TID) — indexes on E1, E2, TID.
    pub alltops: Table,
    /// LeftTops(E1, E2, TID) — AllTops minus pruned topologies.
    pub lefttops: Table,
    /// ExcpTops(E1, E2, TID) — exception pairs for pruned topologies.
    pub excptops: Table,
    /// TopInfo in score order, one vector per [`RankScheme`]: every
    /// topology id, grouped by espair (ascending) and, within an espair,
    /// by descending score with ties broken by id. Rebuilt whenever the
    /// scores change ([`Catalog::rank`]).
    ranking: [Vec<TopologyId>; 3],
    /// Each espair's run in the `ranking` vectors: `(espair, start)`,
    /// sorted by espair; a run ends where the next one starts.
    rank_runs: Vec<(EsPair, u32)>,
    /// Per [`Tops`] table, each espair's [`RunStats`], sorted by espair.
    /// Rebuilt at [`Catalog::finalize`] and by pruning, which rewrites
    /// LeftTops.
    run_stats: [Vec<(EsPair, RunStats)>; 2],
    finalized: bool,
}

fn tops_schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            ColumnDef::new("E1", ValueType::Int),
            ColumnDef::new("E2", ValueType::Int),
            ColumnDef::new("TID", ValueType::Int),
        ],
        None,
    )
}

impl Catalog {
    /// Empty catalog for path limit `l`.
    pub fn new(l: usize) -> Self {
        Catalog {
            l,
            metas: Vec::new(),
            code_index: FastMap::default(),
            pair_keys: Vec::new(),
            pair_offsets: vec![PairOffsets::default()],
            pair_topos: Vec::new(),
            pair_sigs: Vec::new(),
            sigs: Vec::new(),
            sig_index: FastMap::default(),
            codes: Vec::new(),
            code_ids: FastMap::default(),
            truncated_pairs: 0,
            alltops: Table::new(tops_schema("AllTops")),
            lefttops: Table::new(tops_schema("LeftTops")),
            excptops: Table::new(tops_schema("ExcpTops")),
            ranking: [Vec::new(), Vec::new(), Vec::new()],
            rank_runs: Vec::new(),
            run_stats: [Vec::new(), Vec::new()],
            finalized: false,
        }
    }

    /// Intern a path signature, returning its id.
    pub fn intern_sig(&mut self, sig: PathSig) -> u32 {
        let hash = fast_hash_u16s(&sig.0);
        self.intern_sig_prehashed(sig, hash)
    }

    /// Intern a signature whose fast hash was already computed (and
    /// cached alongside its worker-local id) — the merge-time path: the
    /// catalog never re-hashes a signature the worker hashed.
    pub fn intern_sig_prehashed(&mut self, sig: PathSig, hash: u64) -> u32 {
        let ids = self.sig_index.entry(hash).or_default();
        for &id in ids.iter() {
            if self.sigs[id as usize] == sig {
                return id;
            }
        }
        let id = cast::to_u32(self.sigs.len());
        ids.push(id);
        self.sigs.push(sig);
        id
    }

    /// Signature by id.
    pub fn sig(&self, id: u32) -> &PathSig {
        &self.sigs[id as usize]
    }

    /// Id of an interned signature, if present.
    pub fn sig_id(&self, sig: &PathSig) -> Option<u32> {
        let ids = self.sig_index.get(&fast_hash_u16s(&sig.0))?;
        ids.iter().copied().find(|&id| self.sigs[id as usize] == *sig)
    }

    /// Number of interned signatures.
    pub fn sig_count(&self) -> usize {
        self.sigs.len()
    }

    /// Intern a canonical code, returning its id. Lookups borrow the
    /// code; it is cloned only the first time it is seen.
    pub fn intern_code(&mut self, code: &CanonicalCode) -> u32 {
        if let Some(&id) = self.code_ids.get(code) {
            return id;
        }
        let id = cast::to_u32(self.codes.len());
        self.code_ids.insert(code.clone(), id);
        self.codes.push(code.clone());
        id
    }

    /// Canonical code by interned id.
    pub fn code(&self, id: u32) -> &CanonicalCode {
        &self.codes[id as usize]
    }

    /// Id of an interned code, if present.
    pub fn code_id(&self, code: &CanonicalCode) -> Option<u32> {
        self.code_ids.get(code).copied()
    }

    /// Number of distinct canonical codes interned.
    pub fn code_count(&self) -> usize {
        self.codes.len()
    }

    /// Intern a topology (espair + canonical code), returning its id.
    pub fn intern_topology(
        &mut self,
        espair: EsPair,
        graph: LGraph,
        code: CanonicalCode,
        path_sig: Option<PathSig>,
    ) -> TopologyId {
        self.intern_topology_with(espair, graph, code, |_| path_sig)
    }

    /// Like [`Catalog::intern_topology`], but the path-signature
    /// detection runs only when the topology is genuinely new — dedup
    /// hits (the overwhelming majority: one per pair-topology incidence)
    /// cost one map probe and nothing else.
    pub fn intern_topology_with(
        &mut self,
        espair: EsPair,
        graph: LGraph,
        code: CanonicalCode,
        path_sig: impl FnOnce(&LGraph) -> Option<PathSig>,
    ) -> TopologyId {
        let code_id = self.intern_code(&code);
        if let Some(&id) = self.code_index.get(&(espair, code_id)) {
            return id;
        }
        let id = self.metas.len() as TopologyId;
        self.code_index.insert((espair, code_id), id);
        let path_sig = path_sig(&graph);
        self.metas.push(TopologyMeta {
            id,
            espair,
            graph,
            code,
            code_id,
            freq: 0,
            path_sig,
            pruned: false,
            scores: [0.0; 3],
        });
        id
    }

    /// Record a pair: append its key and copy both value slices into the
    /// shared CSR buffers (no per-pair allocation).
    pub fn add_pair(
        &mut self,
        espair: EsPair,
        e1: i64,
        e2: i64,
        topos: &[TopologyId],
        sigs: &[u32],
    ) {
        self.pair_keys.push(PairKey { espair, e1, e2 });
        self.pair_topos.extend_from_slice(topos);
        self.pair_sigs.extend_from_slice(sigs);
        self.pair_offsets.push(PairOffsets {
            // lint: allow(unwrap-in-lib): deliberate capacity guard — try_from turns
            // silent 32-bit truncation into a loud failure at append time
            topos: u32::try_from(self.pair_topos.len()).expect("CSR topo buffer exceeds u32"),
            // lint: allow(unwrap-in-lib): deliberate capacity guard, as above
            sigs: u32::try_from(self.pair_sigs.len()).expect("CSR sig buffer exceeds u32"),
        });
    }

    /// Pre-size the CSR pair store for a bulk append.
    pub fn reserve_pairs(&mut self, pairs: usize, topos: usize, sigs: usize) {
        self.pair_keys.reserve(pairs);
        self.pair_offsets.reserve(pairs);
        self.pair_topos.reserve(topos);
        self.pair_sigs.reserve(sigs);
    }

    /// Number of connected pairs recorded.
    pub fn pair_count(&self) -> usize {
        self.pair_keys.len()
    }

    /// One pair's entry, by position.
    pub fn pair(&self, i: usize) -> PairView<'_> {
        let k = self.pair_keys[i];
        let (o0, o1) = (self.pair_offsets[i], self.pair_offsets[i + 1]);
        PairView {
            espair: k.espair,
            e1: k.e1,
            e2: k.e2,
            topos: &self.pair_topos[o0.topos as usize..o1.topos as usize],
            sigs: &self.pair_sigs[o0.sigs as usize..o1.sigs as usize],
        }
    }

    /// Iterate all pairs (sorted by `(espair, e1, e2)` after finalize).
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = PairView<'_>> {
        (0..self.pair_count()).map(|i| self.pair(i))
    }

    /// The offset table of the CSR pair store (`pair_count() + 1`
    /// entries, monotone, terminated by the buffer lengths) — exposed so
    /// the invariant tests can audit the layout directly.
    pub fn pair_offsets(&self) -> &[PairOffsets] {
        &self.pair_offsets
    }

    /// The shared topology-id buffer behind every pair's `topos` slice.
    pub fn pair_topo_buffer(&self) -> &[TopologyId] {
        &self.pair_topos
    }

    /// The shared signature-id buffer behind every pair's `sigs` slice.
    pub fn pair_sig_buffer(&self) -> &[u32] {
        &self.pair_sigs
    }

    /// Payload bytes of the CSR pair store (keys + offset table + both
    /// shared buffers). The old layout spent two heap allocations per
    /// pair on top of the same payload.
    pub fn pair_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pair_keys.len() * size_of::<PairKey>()
            + self.pair_offsets.len() * size_of::<PairOffsets>()
            + self.pair_topos.len() * size_of::<TopologyId>()
            + self.pair_sigs.len() * size_of::<u32>()
    }

    /// Approximate heap footprint of the whole catalog in bytes: CSR
    /// pair store, topology metadata (structure graphs, codes,
    /// signatures), interners, the score-ordered TopInfo, and the three
    /// materialized tables (rows plus index postings). This is the
    /// figure the offline-build bench records alongside build time.
    pub fn heap_size(&self) -> usize {
        use std::mem::size_of;
        let metas: usize = self
            .metas
            .iter()
            .map(|m| {
                size_of::<TopologyMeta>()
                    + m.graph.labels.len() * size_of::<u16>()
                    + m.graph.edges.len() * size_of::<(u8, u8, u16)>()
                    + m.code.0.len() * size_of::<u32>()
                    + m.path_sig.as_ref().map_or(0, |s| s.0.len() * size_of::<u16>())
            })
            .sum();
        let interners: usize =
            self.sigs.iter().map(|s| s.0.len() * size_of::<u16>()).sum::<usize>()
                + self.codes.iter().map(|c| c.0.len() * size_of::<u32>()).sum::<usize>();
        let ranking = self.ranking.iter().map(|r| r.len() * size_of::<TopologyId>()).sum::<usize>()
            + self.rank_runs.len() * size_of::<(EsPair, u32)>();
        let run_stats: usize = self
            .run_stats
            .iter()
            .flatten()
            .map(|(_, s)| size_of::<(EsPair, RunStats)>() + s.heap_size())
            .sum();
        self.pair_bytes()
            + metas
            + interners
            + ranking
            + run_stats
            + self.alltops.heap_size()
            + self.lefttops.heap_size()
            + self.excptops.heap_size()
    }

    /// Sort the CSR pair store by key. Builds run espair-by-espair with
    /// entities ascending, so the store is usually already sorted and
    /// the permutation rebuild is skipped.
    fn sort_pairs(&mut self) {
        if self.pair_keys.windows(2).all(|w| w[0] <= w[1]) {
            return;
        }
        let mut perm: Vec<u32> = (0..cast::to_u32(self.pair_keys.len())).collect();
        perm.sort_by_key(|&i| self.pair_keys[i as usize]);
        let mut keys = Vec::with_capacity(self.pair_keys.len());
        let mut offsets = Vec::with_capacity(self.pair_offsets.len());
        let mut topos = Vec::with_capacity(self.pair_topos.len());
        let mut sigs = Vec::with_capacity(self.pair_sigs.len());
        offsets.push(PairOffsets::default());
        for &i in &perm {
            let i = i as usize;
            let (o0, o1) = (self.pair_offsets[i], self.pair_offsets[i + 1]);
            keys.push(self.pair_keys[i]);
            topos.extend_from_slice(&self.pair_topos[o0.topos as usize..o1.topos as usize]);
            sigs.extend_from_slice(&self.pair_sigs[o0.sigs as usize..o1.sigs as usize]);
            offsets.push(PairOffsets {
                topos: cast::to_u32(topos.len()),
                sigs: cast::to_u32(sigs.len()),
            });
        }
        self.pair_keys = keys;
        self.pair_offsets = offsets;
        self.pair_topos = topos;
        self.pair_sigs = sigs;
    }

    /// Finish the build: sort pairs, compute frequencies, materialize the
    /// AllTops table with its indexes (LeftTops starts as a full copy;
    /// run [`crate::prune::prune_catalog`] to shrink it).
    pub fn finalize(&mut self) {
        assert!(!self.finalized, "finalize called twice");
        self.finalized = true;
        self.sort_pairs();

        // Every occurrence in the shared topo buffer is one (pair,
        // topology) incidence — exactly one future AllTops row.
        for &tid in &self.pair_topos {
            self.metas[tid as usize].freq += 1;
        }
        // Materialize AllTops straight into its column buffers: with the
        // reserve, the whole loop performs zero heap allocations (the
        // bench's allocation counter holds it to O(columns)).
        self.alltops.reserve(self.pair_topos.len());
        for (i, k) in self.pair_keys.iter().enumerate() {
            let (lo, hi) =
                (self.pair_offsets[i].topos as usize, self.pair_offsets[i + 1].topos as usize);
            for &tid in &self.pair_topos[lo..hi] {
                self.alltops
                    .insert_ints(&[k.e1, k.e2, tid as i64])
                    // lint: allow(unwrap-in-lib): alltops is created by this type
                    // with a fixed 3-Int-column schema; arity and types match
                    .expect("alltops schema is fixed");
            }
        }
        self.alltops.create_index_bulk(0);
        self.alltops.create_index_bulk(1);
        self.alltops.create_index_bulk(2);
        self.alltops.analyze();

        // LeftTops starts as a full copy (under its own name) — cloned
        // wholesale rather than re-inserted, re-indexed, and re-analyzed
        // row by row.
        self.lefttops = self.alltops.clone_renamed("LeftTops");
        self.excptops.create_index_bulk(0);
        self.excptops.analyze();
        self.rank();
        self.summarize_runs();
    }

    /// The AllTops or LeftTops table.
    pub(crate) fn tops(&self, tops: Tops) -> &Table {
        match tops {
            Tops::All => &self.alltops,
            Tops::Left => &self.lefttops,
        }
    }

    /// Rows per topology of `espair` in `tops` (a pruned topology has
    /// none in LeftTops); `None` for an espair without topologies.
    pub(crate) fn run_stats(&self, tops: Tops, espair: EsPair) -> Option<&RunStats> {
        let stats = &self.run_stats[tops as usize];
        let i = stats.binary_search_by_key(&espair, |&(p, _)| p).ok()?;
        Some(&stats[i].1)
    }

    /// Rows of `tops` whose column `col` (0 = E1, 1 = E2) names an
    /// entity of set `es`: what the index on `col` holds for that set,
    /// summed over every espair it sits on that side of.
    pub(crate) fn side_rows(&self, tops: Tops, col: usize, es: u16) -> u64 {
        let side = |p: EsPair| if col == 0 { p.from } else { p.to };
        self.run_stats[tops as usize]
            .iter()
            .filter(|(p, _)| side(*p) == es)
            .map(|(_, s)| s.rows)
            .sum()
    }

    /// Rebuild [`Catalog::run_stats`] from the frequencies and pruned
    /// flags: a topology's AllTops run is its frequency, and its
    /// LeftTops run the same unless it is pruned.
    pub(crate) fn summarize_runs(&mut self) {
        for tops in [Tops::All, Tops::Left] {
            let mut out = Vec::with_capacity(self.rank_runs.len());
            for &(espair, _) in &self.rank_runs {
                let mut s = RunStats::default();
                for &tid in self.ranked(RankScheme::Freq, espair) {
                    let m = &self.metas[tid as usize];
                    s.add(if tops == Tops::Left && m.pruned { 0 } else { m.freq });
                }
                out.push((espair, s));
            }
            self.run_stats[tops as usize] = out;
        }
    }

    /// All topology metadata.
    pub fn metas(&self) -> &[TopologyMeta] {
        &self.metas
    }

    /// Mutable access for the pruning and scoring modules.
    pub(crate) fn metas_mut(&mut self) -> &mut [TopologyMeta] {
        &mut self.metas
    }

    /// Metadata of one topology.
    pub fn meta(&self, tid: TopologyId) -> &TopologyMeta {
        &self.metas[tid as usize]
    }

    /// Number of interned topologies.
    pub fn topology_count(&self) -> usize {
        self.metas.len()
    }

    /// Topology ids for an entity-set pair, ascending.
    pub fn topologies_for(&self, espair: EsPair) -> Vec<TopologyId> {
        self.metas.iter().filter(|m| m.espair == espair).map(|m| m.id).collect()
    }

    /// Frequency distribution for an entity-set pair, descending — the
    /// series plotted in Fig. 11.
    pub fn freq_distribution(&self, espair: EsPair) -> Vec<u64> {
        let mut f: Vec<u64> = self
            .metas
            .iter()
            .filter(|m| m.espair == espair && m.freq > 0)
            .map(|m| m.freq)
            .collect();
        f.sort_unstable_by(|a, b| b.cmp(a));
        f
    }

    /// Topology ids of an entity-set pair ranked by a scheme, descending
    /// score (ties broken by id for determinism) — the TopInfo-by-score
    /// stream consumed by top-k plans, borrowed from the catalog.
    pub fn ranked(&self, scheme: RankScheme, espair: EsPair) -> &[TopologyId] {
        let ranking = &self.ranking[scheme.index()];
        let Ok(i) = self.rank_runs.binary_search_by_key(&espair, |&(p, _)| p) else {
            return &[];
        };
        let end = self.rank_runs.get(i + 1).map_or(ranking.len(), |&(_, start)| start as usize);
        &ranking[self.rank_runs[i].1 as usize..end]
    }

    /// Rebuild the score-ordered TopInfo behind [`Catalog::ranked`] from
    /// the current scores. Runs at [`Catalog::finalize`] and again after
    /// [`crate::score::score_catalog`].
    pub(crate) fn rank(&mut self) {
        // Sort contiguous (espair, score, id) keys rather than ids that
        // point back into the much larger metadata records.
        let mut keyed: Vec<(EsPair, f64, TopologyId)> = Vec::with_capacity(self.metas.len());
        for scheme in RankScheme::all() {
            let s = scheme.index();
            keyed.clear();
            keyed.extend(self.metas.iter().map(|m| (m.espair, m.scores[s], m.id)));
            keyed.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0).then_with(|| b.1.total_cmp(&a.1)).then_with(|| a.2.cmp(&b.2))
            });
            self.ranking[s] = keyed.iter().map(|&(_, _, id)| id).collect();
        }
        self.rank_runs.clear();
        for (i, &tid) in self.ranking[0].iter().enumerate() {
            let espair = self.metas[tid as usize].espair;
            if self.rank_runs.last().is_none_or(|&(p, _)| p != espair) {
                self.rank_runs.push((espair, cast::to_u32(i)));
            }
        }
    }

    /// True if `(e1, e2, tid)` is in the exception table.
    pub fn excp_contains(&self, e1: i64, e2: i64, tid: TopologyId) -> bool {
        self.excptops.index_probe(0, &Value::Int(e1)).iter().any(|&rid| {
            let r = self.excptops.row(rid);
            r.as_int(1) == e2 && r.as_int(2) == tid as i64
        })
    }

    /// Order-sensitive FNV-1a (64-bit) digest of the catalog's logical
    /// content: `l`, every topology's metadata (espair, canonical code,
    /// frequency, pruned flag, scores, path signature), the CSR pair
    /// store, the truncation counter, and all three materialized tables
    /// row by row. Identical builds produce identical digests, so the
    /// serving layer's fault-injection tests pin the digest before and
    /// after a panic storm to prove a shared snapshot is never mutated
    /// in place.
    pub fn fnv_digest(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn put(&mut self, x: u64) {
                const PRIME: u64 = 0x0000_0100_0000_01b3;
                for b in x.to_le_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.put(self.l as u64);
        h.put(self.metas.len() as u64);
        for m in &self.metas {
            h.put(u64::from(m.espair.from));
            h.put(u64::from(m.espair.to));
            h.put(m.code.0.len() as u64);
            for &c in &m.code.0 {
                h.put(u64::from(c));
            }
            h.put(m.freq);
            h.put(u64::from(m.pruned));
            for s in m.scores {
                h.put(s.to_bits());
            }
            match &m.path_sig {
                None => h.put(u64::MAX),
                Some(sig) => {
                    h.put(sig.0.len() as u64);
                    for &u in &sig.0 {
                        h.put(u64::from(u));
                    }
                }
            }
        }
        h.put(self.pair_keys.len() as u64);
        for k in &self.pair_keys {
            h.put(u64::from(k.espair.from));
            h.put(u64::from(k.espair.to));
            h.put(k.e1 as u64);
            h.put(k.e2 as u64);
        }
        for o in &self.pair_offsets {
            h.put(u64::from(o.topos));
            h.put(u64::from(o.sigs));
        }
        for &t in &self.pair_topos {
            h.put(u64::from(t));
        }
        for &s in &self.pair_sigs {
            h.put(u64::from(s));
        }
        h.put(self.truncated_pairs);
        for table in [&self.alltops, &self.lefttops, &self.excptops] {
            h.put(table.len() as u64);
            for r in table.rows() {
                for col in 0..3 {
                    h.put(r.as_int(col) as u64);
                }
            }
        }
        h.0
    }

    /// Per-espair byte sizes of the three tables (Table 1 of the paper).
    /// Row payload plus index-posting overhead, attributed to the espair
    /// that owns each row's TID.
    pub fn space_report(&self) -> Vec<(EsPair, SpaceRow)> {
        let mut acc: FastMap<EsPair, SpaceRow> = FastMap::default();
        let per_row = |t: &Table| {
            if t.is_empty() {
                0
            } else {
                t.heap_size() / t.len()
            }
        };
        #[derive(Clone, Copy)]
        enum Which {
            All,
            Left,
            Excp,
        }
        let parts: [(&Table, Which, usize); 3] = [
            (&self.alltops, Which::All, per_row(&self.alltops)),
            (&self.lefttops, Which::Left, per_row(&self.lefttops)),
            (&self.excptops, Which::Excp, per_row(&self.excptops)),
        ];
        for (table, which, bytes) in parts {
            for r in table.rows() {
                let tid = r.as_int(2) as usize;
                let espair = self.metas[tid].espair;
                let slot = acc.entry(espair).or_default();
                match which {
                    Which::All => slot.alltops_bytes += bytes,
                    Which::Left => slot.lefttops_bytes += bytes,
                    Which::Excp => slot.excptops_bytes += bytes,
                }
            }
        }
        let mut out: Vec<(EsPair, SpaceRow)> = acc.into_iter().collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

/// One row of the Table-1 space report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceRow {
    /// Bytes attributable to this espair in AllTops.
    pub alltops_bytes: usize,
    /// Bytes in LeftTops.
    pub lefttops_bytes: usize,
    /// Bytes in ExcpTops.
    pub excptops_bytes: usize,
}

impl SpaceRow {
    /// LeftTops+ExcpTops as a fraction of AllTops (the paper's "Ratio").
    pub fn ratio(&self) -> f64 {
        if self.alltops_bytes == 0 {
            return 0.0;
        }
        (self.lefttops_bytes + self.excptops_bytes) as f64 / self.alltops_bytes as f64
    }
}
