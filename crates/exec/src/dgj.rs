//! The Distinct Group Join operator family (§5.3 of the paper).
//!
//! DGJ operators satisfy two properties:
//!
//! * **(a)** they understand groups of tuples, and preserve the order of
//!   groups from the input to the output (here: the input stream is
//!   clustered by a *group column* — topology id in score order — and
//!   output tuples stay clustered the same way);
//! * **(b)** they allow efficiently skipping from one group to the next
//!   via `advance_to_next_group`, "which is in addition to the usual
//!   getNext method supported by regular operators".
//!
//! [`Idgj`] is the (index) nested-loops implementation: order
//! preservation is free (any NLJ preserves outer order) and group skip
//! just discontinues the current loop and delegates the skip to its
//! input. [`Hdgj`] is the hash implementation: it joins one group at a
//! time, re-evaluating (re-scanning) the inner relation for each group —
//! the overhead the paper's cost-based optimizer weighs against the
//! early-termination benefit.
//!
//! [`SemiDgj`] is the whole IDGJ stack of Fig. 15 (a) fused into one
//! semi-join: the plan only asks *whether* a group has a surviving row,
//! so it reads borrowed rows, stops at the first witness, and builds no
//! joined tuples.

use ts_storage::faults::{self, sites, FireAction};
use ts_storage::{FastMap, Predicate, Row, RowId, RowRef, Table, Value};

use crate::batch::{Batch, BatchOperator, BoxedBatchOp};
use crate::join::probe_inner_columnwise;
use crate::op::{BoxedOp, Operator, Work};

/// Index nested-loops DGJ.
///
/// For each outer tuple, probes `inner`'s index on `inner_col` with the
/// outer tuple's `outer_col` value and emits `outer ++ inner` rows.
/// The outer stream must be clustered by `group_col`.
pub struct Idgj<'a> {
    outer: BoxedOp<'a>,
    inner: &'a Table,
    outer_col: usize,
    inner_col: usize,
    group_col: usize,
    pending: Vec<Row>,
    /// Lookahead used when the input cannot skip groups itself.
    lookahead: Option<Row>,
    /// Group value of the last outer row consumed.
    current_group: Option<Value>,
    work: Work,
}

impl<'a> Idgj<'a> {
    /// Build an IDGJ over a group-clustered outer stream.
    pub fn new(
        outer: BoxedOp<'a>,
        outer_col: usize,
        inner: &'a Table,
        inner_col: usize,
        group_col: usize,
        work: Work,
    ) -> Self {
        Idgj {
            outer,
            inner,
            outer_col,
            inner_col,
            group_col,
            pending: Vec::new(),
            lookahead: None,
            current_group: None,
            work,
        }
    }

    /// Probe the inner index and queue `outer ++ inner` tuples (reversed:
    /// [`Operator::next`] pops from the end). Output tuples are built in
    /// one allocation from the borrowed inner rows.
    fn push_matches(&mut self, outer_row: &Row) {
        self.work.tick(1);
        let inner: &'a Table = self.inner;
        let key = outer_row.get(self.outer_col);
        if inner.schema().primary_key == Some(self.inner_col) {
            if let Some(r) = inner.by_pk(key) {
                self.pending.push(outer_row.concat_ref(r));
            }
        } else {
            for &rid in inner.index_probe(self.inner_col, key).iter().rev() {
                self.pending.push(outer_row.concat_ref(inner.row(rid)));
            }
        }
    }

    fn next_outer(&mut self) -> Option<Row> {
        if let Some(r) = self.lookahead.take() {
            return Some(r);
        }
        self.outer.next()
    }
}

impl Operator for Idgj<'_> {
    fn next(&mut self) -> Option<Row> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            if let Some(r) = self.pending.pop() {
                return Some(r);
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return None;
            }
            let outer_row = self.next_outer()?;
            self.work.tick(1);
            self.current_group = Some(outer_row.get(self.group_col).clone());
            self.push_matches(&outer_row);
        }
    }

    fn rewind(&mut self) {
        self.outer.rewind();
        self.pending.clear();
        self.lookahead = None;
        self.current_group = None;
    }

    fn grouped(&self) -> bool {
        true
    }

    /// Discontinue the current loop and skip the input to its next group
    /// (the paper: "IDGJ preserves property (b) by simply discontinuing
    /// the current loop and invoking advanceToNextGroup on its input").
    fn advance_to_next_group(&mut self) {
        self.pending.clear();
        let Some(current) = self.current_group.clone() else {
            return; // nothing consumed yet: already at a group boundary
        };
        if self.outer.grouped() {
            self.outer.advance_to_next_group();
        } else {
            // Fallback: drain until the group column changes, buffering
            // the first row of the next group.
            loop {
                match self.outer.next() {
                    None => break,
                    Some(r) => {
                        self.work.tick(1);
                        if *r.get(self.group_col) != current {
                            self.lookahead = Some(r);
                            break;
                        }
                    }
                }
            }
        }
        self.current_group = None;
    }
}

/// Vectorized index nested-loops DGJ.
///
/// Consumes the group-clustered outer stream one batch at a time and
/// probes `inner`'s index per outer row, emitting one output batch per
/// consumed outer batch. Both stream invariants hold: outer batches of
/// a grouped input carry exactly one group, so output batches do too
/// (property (a)); with an ungrouped outer, each pulled batch is split
/// at its first group boundary and the remainder parked as lookahead.
pub struct BatchIdgj<'a> {
    outer: BoxedBatchOp<'a>,
    inner: &'a Table,
    outer_col: usize,
    inner_col: usize,
    group_col: usize,
    /// Parked outer batches, in stream order: unprobed chunk remainders
    /// of the current group, split remainders, and the first batch of
    /// the next group buffered by the advance fallback. Invariant: any
    /// front batch still in `current_group` is an unprobed remainder;
    /// batches behind it start later groups.
    pending: std::collections::VecDeque<Batch<'a>>,
    current_group: Option<Value>,
    /// Outer rows probed per pull within the current group; starts at
    /// [`PROBE_CHUNK0`] and doubles, so an early-terminating consumer
    /// that skips after the first witness abandons most of the group's
    /// probes while full drains amortize to whole batches.
    chunk: usize,
    work: Work,
}

/// First probe chunk of each [`BatchIdgj`] group (see `chunk` above).
const PROBE_CHUNK0: usize = 4;

impl<'a> BatchIdgj<'a> {
    /// Build a batch IDGJ over a group-clustered outer stream.
    pub fn new(
        outer: BoxedBatchOp<'a>,
        outer_col: usize,
        inner: &'a Table,
        inner_col: usize,
        group_col: usize,
        work: Work,
    ) -> Self {
        BatchIdgj {
            outer,
            inner,
            outer_col,
            inner_col,
            group_col,
            pending: std::collections::VecDeque::new(),
            current_group: None,
            chunk: PROBE_CHUNK0,
            work,
        }
    }

    /// Pull the next single-group outer batch, splitting a multi-group
    /// batch (possible only with an ungrouped outer) at its first
    /// boundary and parking the remainder.
    fn next_outer(&mut self) -> Option<Batch<'a>> {
        let mut b = self.pending.pop_front().or_else(|| self.outer.next_batch())?;
        // lint: allow(panic-on-worker-path): operators never emit an empty
        // batch (next_batch returns None instead), and next_outer never
        // parks an empty remainder
        let group = b.value(self.group_col, b.first().expect("non-empty batch"));
        let split: Vec<u32> = b
            .sel_iter()
            .skip_while(|&i| b.value(self.group_col, i) == group)
            .map(ts_storage::cast::to_u32)
            .collect();
        if !split.is_empty() {
            let keep: Vec<u32> = b
                .sel_iter()
                .take(b.selected() - split.len())
                .map(ts_storage::cast::to_u32)
                .collect();
            let mut rest = b.clone();
            rest.set_sel(split);
            self.pending.push_front(rest);
            b.set_sel(keep);
        }
        Some(b)
    }
}

impl<'a> BatchOperator<'a> for BatchIdgj<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return None;
            }
            let mut ob = self.next_outer()?;
            // lint: allow(panic-on-worker-path): operators never emit an empty
            // batch (next_batch returns None instead), and next_outer never
            // parks an empty remainder
            let group = ob.value(self.group_col, ob.first().expect("non-empty batch"));
            if self.current_group.as_ref() != Some(&group) {
                self.chunk = PROBE_CHUNK0;
            }
            self.current_group = Some(group);
            // Probe at most `chunk` outer rows this pull; park the rest
            // of the group so a group skip can abandon it unprobed.
            if ob.selected() > self.chunk {
                let keep: Vec<u32> =
                    ob.sel_iter().take(self.chunk).map(ts_storage::cast::to_u32).collect();
                let rest: Vec<u32> =
                    ob.sel_iter().skip(self.chunk).map(ts_storage::cast::to_u32).collect();
                let mut r = ob.clone();
                r.set_sel(rest);
                self.pending.push_front(r);
                ob.set_sel(keep);
            }
            self.chunk = (self.chunk * 2).min(crate::batch::batch_rows());
            self.work.tick(ob.selected() as u64);
            let out =
                probe_inner_columnwise(&ob, self.inner, self.outer_col, self.inner_col, &self.work);
            if let Some(b) = out {
                return Some(b);
            }
        }
    }

    fn rewind(&mut self) {
        self.outer.rewind();
        self.pending.clear();
        self.current_group = None;
    }

    fn grouped(&self) -> bool {
        true
    }

    fn advance_to_next_group(&mut self) {
        let Some(current) = self.current_group.clone() else {
            return; // nothing consumed yet: already at a group boundary
        };
        // Drop unprobed chunk remainders of the skipped group — this is
        // the early-termination saving: those rows are never probed.
        while let Some(front) = self.pending.front() {
            // lint: allow(panic-on-worker-path): operators never emit an empty
            // batch (next_batch returns None instead), and next_outer never
            // parks an empty remainder
            let g = front.value(self.group_col, front.first().expect("non-empty batch"));
            if g != current {
                break;
            }
            self.pending.pop_front();
        }
        // A parked batch now starts a later group (deque invariant).
        if self.pending.is_empty() {
            if self.outer.grouped() {
                self.outer.advance_to_next_group();
            } else {
                // Fallback: drain batches until the group changes,
                // parking the first batch of the next group.
                while let Some(b) = self.next_outer() {
                    self.work.tick(b.selected() as u64);
                    // lint: allow(panic-on-worker-path): operators never emit an empty
                    // batch (next_batch returns None instead), and next_outer never
                    // parks an empty remainder
                    let g = b.value(self.group_col, b.first().expect("non-empty batch"));
                    if g != current {
                        self.pending.push_front(b);
                        break;
                    }
                }
            }
        }
        self.current_group = None;
    }
}

/// One endpoint of a [`SemiDgj`]: the entity table probed by primary
/// key with a tops row's `col` value, and the predicate the entity row
/// must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct Endpoint<'a> {
    /// Entity table (probed through its primary-key index).
    pub table: &'a Table,
    /// Column of the tops table holding the entity id.
    pub col: usize,
    /// Predicate on the entity table's own columns.
    pub pred: &'a Predicate,
    /// The one entity id `pred` admits, when it is a `pk = id` pin: a
    /// tops row naming another id fails without a pk probe.
    pub pin: Option<i64>,
}

impl Endpoint<'_> {
    /// One probe (one `Work` unit): does the entity `tops_row` names
    /// exist and satisfy the predicate? A pinned endpoint first compares
    /// the id with its pin.
    pub fn admits(&self, tops_row: RowRef<'_>, work: &Work) -> bool {
        self.probe(tops_row, work).is_some_and(|rid| self.pred.eval_ref(self.table.row(rid)))
    }

    /// [`Endpoint::admits`] remembering each entity's predicate verdict
    /// in `memo`, indexed by entity row id (0 = not evaluated yet, 1 =
    /// passes, 2 = fails), so an entity many tops rows name is evaluated
    /// once. Same `Work`.
    fn admits_memo(&self, tops_row: RowRef<'_>, work: &Work, memo: &mut Vec<u8>) -> bool {
        let Some(rid) = self.probe(tops_row, work) else { return false };
        if matches!(self.pred, Predicate::True) {
            return true;
        }
        if self.pin.is_some() {
            // Only the pinned entity gets past the probe: nothing to remember.
            return self.pred.eval_ref(self.table.row(rid));
        }
        if memo.is_empty() {
            memo.resize(self.table.len(), 0);
        }
        let verdict = &mut memo[rid as usize];
        if *verdict == 0 {
            *verdict = if self.pred.eval_ref(self.table.row(rid)) { 1 } else { 2 };
        }
        *verdict == 1
    }

    /// The pk probe (one `Work` unit): the row id of the entity
    /// `tops_row` names, if it exists and matches the pin.
    fn probe(&self, tops_row: RowRef<'_>, work: &Work) -> Option<RowId> {
        work.tick(1);
        let id = tops_row.as_int(self.col);
        if self.pin.is_some_and(|pin| pin != id) {
            return None;
        }
        self.table.rowid_by_pk(&Value::Int(id))
    }
}

/// Semi-join DGJ: the index nested-loops DGJ stack of Fig. 15 (a) —
/// `σ(to) ⋈ σ(from) ⋈ tops ⋈ TopInfo` — fused for a consumer that only
/// needs each surviving group once.
///
/// For each group id pulled from `groups` (TopInfo in score order) it
/// walks the group's borrowed rid run in the tops table's index on
/// `group_col`; for each tops row it probes the `first` endpoint, then
/// the `second`, and evaluates their predicates on the borrowed rows,
/// remembering each unpinned entity's verdict so an entity many rows
/// name is evaluated once. Callers pass the more selective endpoint
/// first, so most rejected rows cost one probe. The first row passing
/// both is the group's witness: the operator emits the one-column row
/// `[group]` and moves on, so it never examines a row past the witness
/// and builds no joined tuples.
///
/// `Work`: one unit per group pulled, one per tops row examined, one per
/// endpoint probe. Each emitted row is a whole group, so
/// [`Operator::advance_to_next_group`] has nothing left to skip.
pub struct SemiDgj<'a, I> {
    start: I,
    groups: I,
    tops: &'a Table,
    group_col: usize,
    first: Endpoint<'a>,
    second: Endpoint<'a>,
    /// Predicate verdicts of `first`'s and `second`'s entities.
    memo: [Vec<u8>; 2],
    work: Work,
}

impl<'a, I: Iterator<Item = Value> + Clone> SemiDgj<'a, I> {
    /// Build a semi-join DGJ over a stream of group ids; `tops` must be
    /// indexed on `group_col`.
    pub fn new(
        groups: I,
        tops: &'a Table,
        group_col: usize,
        first: Endpoint<'a>,
        second: Endpoint<'a>,
        work: Work,
    ) -> Self {
        let memo = [Vec::new(), Vec::new()];
        SemiDgj { start: groups.clone(), groups, tops, group_col, first, second, memo, work }
    }
}

impl<I: Iterator<Item = Value> + Clone> SemiDgj<'_, I> {
    /// The next group with a witness row, as its bare group value:
    /// [`Operator::next`] without the one-column row around it, for a
    /// consumer that drains every group.
    pub fn next_group(&mut self) -> Option<Value> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return None;
            }
            let group = self.groups.next()?;
            self.work.tick(1);
            for &rid in self.tops.index_probe(self.group_col, &group) {
                if self.work.interrupted() {
                    return None;
                }
                self.work.tick(1);
                let r = self.tops.row(rid);
                let [first_memo, second_memo] = &mut self.memo;
                if self.first.admits_memo(r, &self.work, first_memo)
                    && self.second.admits_memo(r, &self.work, second_memo)
                {
                    return Some(group);
                }
            }
        }
    }
}

impl<I: Iterator<Item = Value> + Clone> Operator for SemiDgj<'_, I> {
    fn next(&mut self) -> Option<Row> {
        self.next_group().map(|group| Row::new(vec![group]))
    }

    fn rewind(&mut self) {
        self.groups = self.start.clone();
    }

    fn grouped(&self) -> bool {
        true
    }

    /// A no-op: [`Operator::next`] emits one row per group and has
    /// already left that group behind.
    fn advance_to_next_group(&mut self) {}
}

/// Hash DGJ: joins one group at a time.
///
/// For each group of outer tuples it hashes the group, then re-evaluates
/// the inner operator from scratch (`rewind` + full scan), probing the
/// group hash. Matches are emitted in outer order, keeping property (a).
pub struct Hdgj<'a> {
    outer: BoxedOp<'a>,
    inner: BoxedOp<'a>,
    outer_col: usize,
    inner_col: usize,
    group_col: usize,
    queue: std::collections::VecDeque<Row>,
    lookahead: Option<Row>,
    exhausted: bool,
    work: Work,
}

impl<'a> Hdgj<'a> {
    /// Build an HDGJ over a group-clustered outer stream.
    pub fn new(
        outer: BoxedOp<'a>,
        outer_col: usize,
        inner: BoxedOp<'a>,
        inner_col: usize,
        group_col: usize,
        work: Work,
    ) -> Self {
        Hdgj {
            outer,
            inner,
            outer_col,
            inner_col,
            group_col,
            queue: std::collections::VecDeque::new(),
            lookahead: None,
            exhausted: false,
            work,
        }
    }

    /// Materialize the next group of outer rows and join it.
    fn fill_group(&mut self) {
        while self.queue.is_empty() && !self.exhausted {
            if self.work.interrupted() {
                return;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return;
            }
            // Gather one group of outer rows.
            let first = match self.lookahead.take().or_else(|| self.outer.next()) {
                Some(r) => r,
                None => {
                    self.exhausted = true;
                    return;
                }
            };
            self.work.tick(1);
            let group = first.get(self.group_col).clone();
            let mut group_rows = vec![first];
            loop {
                match self.outer.next() {
                    None => break,
                    Some(r) => {
                        self.work.tick(1);
                        if *r.get(self.group_col) == group {
                            group_rows.push(r);
                        } else {
                            self.lookahead = Some(r);
                            break;
                        }
                    }
                }
            }
            // Hash the group on the join key.
            let mut hash: FastMap<Value, Vec<usize>> = FastMap::default();
            for (i, r) in group_rows.iter().enumerate() {
                hash.entry(r.get(self.outer_col).clone()).or_default().push(i);
            }
            // Re-evaluate the inner relation for this group.
            self.inner.rewind();
            let mut matches: Vec<(usize, Row)> = Vec::new();
            while let Some(inner_row) = self.inner.next() {
                self.work.tick(1);
                if let Some(idxs) = hash.get(inner_row.get(self.inner_col)) {
                    for &i in idxs {
                        matches.push((i, group_rows[i].concat(&inner_row)));
                    }
                }
            }
            // Emit in outer order within the group.
            matches.sort_by_key(|&(i, _)| i);
            self.queue.extend(matches.into_iter().map(|(_, r)| r));
            // If the group had no matches, loop to the next group.
        }
    }
}

impl Operator for Hdgj<'_> {
    fn next(&mut self) -> Option<Row> {
        self.fill_group();
        self.queue.pop_front()
    }

    fn rewind(&mut self) {
        self.outer.rewind();
        self.inner.rewind();
        self.queue.clear();
        self.lookahead = None;
        self.exhausted = false;
    }

    fn grouped(&self) -> bool {
        true
    }

    fn advance_to_next_group(&mut self) {
        // The current group is fully materialized in the queue; skipping
        // is dropping the rest of it. (The inner re-scan for this group
        // has already been paid — part of HDGJ's cost profile, §5.4.)
        self.queue.clear();
    }
}

/// Vectorized hash DGJ: joins one group at a time, like the tuple
/// [`Hdgj`] — gathers one group of outer rows (possibly several
/// batches), hashes it on the join key, re-evaluates the inner operator
/// from scratch (`rewind` + full batch scan), and emits the group's
/// matches as a single output batch in outer order.
pub struct BatchHdgj<'a> {
    outer: BoxedBatchOp<'a>,
    inner: BoxedBatchOp<'a>,
    outer_col: usize,
    inner_col: usize,
    group_col: usize,
    /// The current group's joined output, if not yet emitted.
    queued: Option<Batch<'a>>,
    /// Parked outer batch starting the next group (stream order).
    pending: std::collections::VecDeque<Batch<'a>>,
    exhausted: bool,
    work: Work,
}

impl<'a> BatchHdgj<'a> {
    /// Build a batch HDGJ over a group-clustered outer stream.
    pub fn new(
        outer: BoxedBatchOp<'a>,
        outer_col: usize,
        inner: BoxedBatchOp<'a>,
        inner_col: usize,
        group_col: usize,
        work: Work,
    ) -> Self {
        BatchHdgj {
            outer,
            inner,
            outer_col,
            inner_col,
            group_col,
            queued: None,
            pending: std::collections::VecDeque::new(),
            exhausted: false,
            work,
        }
    }

    /// Pull the next single-group outer batch (splitting multi-group
    /// batches from an ungrouped outer, as in [`BatchIdgj`]).
    fn next_outer(&mut self) -> Option<Batch<'a>> {
        let mut b = self.pending.pop_front().or_else(|| self.outer.next_batch())?;
        // lint: allow(panic-on-worker-path): operators never emit an empty
        // batch (next_batch returns None instead), and next_outer never
        // parks an empty remainder
        let group = b.value(self.group_col, b.first().expect("non-empty batch"));
        let split: Vec<u32> = b
            .sel_iter()
            .skip_while(|&i| b.value(self.group_col, i) == group)
            .map(ts_storage::cast::to_u32)
            .collect();
        if !split.is_empty() {
            let keep: Vec<u32> = b
                .sel_iter()
                .take(b.selected() - split.len())
                .map(ts_storage::cast::to_u32)
                .collect();
            let mut rest = b.clone();
            rest.set_sel(split);
            self.pending.push_front(rest);
            b.set_sel(keep);
        }
        Some(b)
    }

    /// Materialize the next group of outer rows and join it.
    fn fill_group(&mut self) {
        while self.queued.is_none() && !self.exhausted {
            if self.work.interrupted() {
                return;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return;
            }
            // Gather one group of outer rows (may span several batches).
            let Some(first) = self.next_outer() else {
                self.exhausted = true;
                return;
            };
            self.work.tick(first.selected() as u64);
            // lint: allow(panic-on-worker-path): operators never emit an empty
            // batch (next_batch returns None instead), and next_outer never
            // parks an empty remainder
            let group = first.value(self.group_col, first.first().expect("non-empty batch"));
            let mut group_rows: Vec<Row> = first.materialize();
            while self.pending.is_empty() {
                let Some(b) = self.next_outer() else { break };
                // lint: allow(panic-on-worker-path): operators never emit an empty
                // batch (next_batch returns None instead), and next_outer never
                // parks an empty remainder
                let g = b.value(self.group_col, b.first().expect("non-empty batch"));
                self.work.tick(b.selected() as u64);
                if g == group {
                    group_rows.extend(b.materialize());
                } else {
                    self.pending.push_front(b);
                    break;
                }
            }
            // Hash the group on the join key.
            let mut hash: FastMap<Value, Vec<usize>> = FastMap::default();
            for (i, r) in group_rows.iter().enumerate() {
                hash.entry(r.get(self.outer_col).clone()).or_default().push(i);
            }
            // Re-evaluate the inner relation for this group.
            self.inner.rewind();
            let mut matches: Vec<(usize, Row)> = Vec::new();
            while let Some(ib) = self.inner.next_batch() {
                self.work.tick(ib.selected() as u64);
                for ri in ib.sel_iter() {
                    if let Some(idxs) = hash.get(&ib.value(self.inner_col, ri)) {
                        for &i in idxs {
                            matches.push((i, group_rows[i].concat(&ib.materialize_row(ri))));
                        }
                    }
                }
            }
            // Emit in outer order within the group.
            matches.sort_by_key(|&(i, _)| i);
            if !matches.is_empty() {
                let rows: Vec<Row> = matches.into_iter().map(|(_, r)| r).collect();
                self.queued = Some(Batch::from_rows(&rows));
            }
            // If the group had no matches, loop to the next group.
        }
    }
}

impl<'a> BatchOperator<'a> for BatchHdgj<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        self.fill_group();
        self.queued.take()
    }

    fn rewind(&mut self) {
        self.outer.rewind();
        self.inner.rewind();
        self.queued = None;
        self.pending.clear();
        self.exhausted = false;
    }

    fn grouped(&self) -> bool {
        true
    }

    fn advance_to_next_group(&mut self) {
        // The current group is fully materialized in the queue; skipping
        // is dropping the rest of it. (The inner re-scan for this group
        // has already been paid — part of HDGJ's cost profile, §5.4.)
        self.queued = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{collect_all, collect_distinct_topk};
    use crate::scan::ValuesScan;
    use ts_storage::{row, ColumnDef, TableSchema, ValueType};

    /// Outer stream: (group, key) clustered by group in score order.
    fn outer_rows() -> Vec<Row> {
        vec![
            row![100i64, 1i64],
            row![100i64, 2i64],
            row![100i64, 3i64],
            row![200i64, 2i64],
            row![200i64, 9i64],
            row![300i64, 3i64],
        ]
    }

    fn inner_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "Inner",
            vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Str)],
            None,
        ));
        t.insert(row![2i64, "two"]).unwrap();
        t.insert(row![3i64, "three"]).unwrap();
        t.insert(row![3i64, "tres"]).unwrap();
        t.create_index(0);
        t
    }

    fn grouped_outer() -> BoxedOp<'static> {
        Box::new(ValuesScan::grouped(outer_rows(), 0, Work::new()))
    }

    #[test]
    fn idgj_joins_in_group_order() {
        let t = inner_table();
        let mut j = Idgj::new(grouped_outer(), 1, &t, 0, 0, Work::new());
        let got = collect_all(&mut j);
        // Group 100: keys 1 (no match), 2 -> two, 3 -> three, tres.
        // Group 200: 2 -> two, 9 none. Group 300: 3 -> three, tres.
        assert_eq!(got.len(), 6);
        let groups: Vec<i64> = got.iter().map(|r| r.get(0).as_int()).collect();
        assert_eq!(groups, vec![100, 100, 100, 200, 300, 300]);
    }

    #[test]
    fn idgj_group_skip_delegates() {
        let t = inner_table();
        let w = Work::new();
        let mut j = Idgj::new(grouped_outer(), 1, &t, 0, 0, w.clone());
        let first = j.next().unwrap();
        assert_eq!(first.get(0).as_int(), 100);
        j.advance_to_next_group();
        let next = j.next().unwrap();
        assert_eq!(next.get(0).as_int(), 200);
        j.advance_to_next_group();
        let last = j.next().unwrap();
        assert_eq!(last.get(0).as_int(), 300);
    }

    #[test]
    fn idgj_fallback_drain_when_input_ungrouped() {
        let t = inner_table();
        // Plain ValuesScan: not grouped -> IDGJ drains manually.
        let outer: BoxedOp<'static> = Box::new(ValuesScan::new(outer_rows(), Work::new()));
        let mut j = Idgj::new(outer, 1, &t, 0, 0, Work::new());
        j.next().unwrap();
        j.advance_to_next_group();
        assert_eq!(j.next().unwrap().get(0).as_int(), 200);
    }

    #[test]
    fn idgj_advance_before_any_next_is_noop() {
        let t = inner_table();
        let mut j = Idgj::new(grouped_outer(), 1, &t, 0, 0, Work::new());
        j.advance_to_next_group();
        assert_eq!(j.next().unwrap().get(0).as_int(), 100);
    }

    #[test]
    fn hdgj_matches_idgj_output() {
        let t = inner_table();
        let mut i = Idgj::new(grouped_outer(), 1, &t, 0, 0, Work::new());
        let inner_scan: BoxedOp<'_> = Box::new(TableScanHelper::new(&t));
        let mut h = Hdgj::new(grouped_outer(), 1, inner_scan, 0, 0, Work::new());
        assert_eq!(collect_all(&mut i), collect_all(&mut h));
    }

    #[test]
    fn hdgj_rescans_inner_per_group() {
        let t = inner_table();
        let w = Work::new();
        let inner_scan: BoxedOp<'_> = Box::new(TableScanHelper::new(&t));
        let mut h = Hdgj::new(grouped_outer(), 1, inner_scan, 0, 0, w.clone());
        let _ = collect_all(&mut h);
        // 3 groups × 3 inner rows = 9 inner touches at minimum.
        assert!(w.get() >= 9 + 6, "work = {}", w.get());
    }

    #[test]
    fn hdgj_group_skip() {
        let t = inner_table();
        let inner_scan: BoxedOp<'_> = Box::new(TableScanHelper::new(&t));
        let mut h = Hdgj::new(grouped_outer(), 1, inner_scan, 0, 0, Work::new());
        let first = h.next().unwrap();
        assert_eq!(first.get(0).as_int(), 100);
        h.advance_to_next_group();
        assert_eq!(h.next().unwrap().get(0).as_int(), 200);
    }

    #[test]
    fn distinct_topk_over_idgj() {
        let t = inner_table();
        let mut j = Idgj::new(grouped_outer(), 1, &t, 0, 0, Work::new());
        let top2 = collect_distinct_topk(&mut j, 0, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].get(0).as_int(), 100);
        assert_eq!(top2[1].get(0).as_int(), 200);
    }

    fn batch_grouped_outer<'a>() -> BoxedBatchOp<'a> {
        Box::new(crate::scan::BatchValuesScan::grouped(outer_rows(), 0, Work::new()))
    }

    #[test]
    fn batch_idgj_matches_tuple_idgj() {
        let t = inner_table();
        let mut tup = Idgj::new(grouped_outer(), 1, &t, 0, 0, Work::new());
        let mut bat = BatchIdgj::new(batch_grouped_outer(), 1, &t, 0, 0, Work::new());
        assert_eq!(crate::driver::batch_collect_all(&mut bat), collect_all(&mut tup));
    }

    #[test]
    fn batch_idgj_group_skip() {
        let t = inner_table();
        let mut j = BatchIdgj::new(batch_grouped_outer(), 1, &t, 0, 0, Work::new());
        let first = j.next_batch().unwrap();
        assert_eq!(first.try_int(0, first.first().unwrap()), Some(100));
        j.advance_to_next_group();
        let next = j.next_batch().unwrap();
        assert_eq!(next.try_int(0, next.first().unwrap()), Some(200));
    }

    #[test]
    fn batch_idgj_fallback_drain_when_input_ungrouped() {
        let t = inner_table();
        // Ungrouped outer: one multi-group batch, split internally.
        let outer: BoxedBatchOp<'_> =
            Box::new(crate::scan::BatchValuesScan::new(outer_rows(), Work::new()));
        let mut j = BatchIdgj::new(outer, 1, &t, 0, 0, Work::new());
        let b = j.next_batch().unwrap();
        assert_eq!(b.try_int(0, b.first().unwrap()), Some(100));
        j.advance_to_next_group();
        assert_eq!(j.next_batch().map(|b| b.try_int(0, b.first().unwrap())), Some(Some(200)));
    }

    #[test]
    fn batch_hdgj_matches_tuple_hdgj() {
        let t = inner_table();
        let inner_tup: BoxedOp<'_> = Box::new(TableScanHelper::new(&t));
        let mut tup = Hdgj::new(grouped_outer(), 1, inner_tup, 0, 0, Work::new());
        let inner_bat: crate::batch::BoxedBatchOp<'_> = Box::new(crate::scan::BatchTableScan::new(
            &t,
            ts_storage::Predicate::True,
            Work::new(),
        ));
        let mut bat = BatchHdgj::new(batch_grouped_outer(), 1, inner_bat, 0, 0, Work::new());
        assert_eq!(crate::driver::batch_collect_all(&mut bat), collect_all(&mut tup));
    }

    #[test]
    fn batch_hdgj_group_skip_and_rescan_cost() {
        let t = inner_table();
        let w = Work::new();
        let inner: crate::batch::BoxedBatchOp<'_> =
            Box::new(crate::scan::BatchTableScan::new(&t, ts_storage::Predicate::True, w.clone()));
        let mut h = BatchHdgj::new(batch_grouped_outer(), 1, inner, 0, 0, w.clone());
        let first = h.next_batch().unwrap();
        assert_eq!(first.try_int(0, first.first().unwrap()), Some(100));
        h.advance_to_next_group();
        let next = h.next_batch().unwrap();
        assert_eq!(next.try_int(0, next.first().unwrap()), Some(200));
        let _ = crate::driver::batch_collect_all(&mut h);
        // Inner re-scanned per group: at least 3 groups × 3 inner rows.
        assert!(w.get() >= 9, "work = {}", w.get());
    }

    #[test]
    fn batch_distinct_topk_over_idgj() {
        let t = inner_table();
        let mut j = BatchIdgj::new(batch_grouped_outer(), 1, &t, 0, 0, Work::new());
        let top2 = crate::driver::batch_collect_distinct_topk(&mut j, 0, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].get(0).as_int(), 100);
        assert_eq!(top2[1].get(0).as_int(), 200);
    }

    /// Semi-join fixture: entity tables `A(id, tag)` and `B(id, tag)`
    /// and a tops table `T(E1, E2, TID)` indexed on TID. Group 100's
    /// rows: (1, 10) fails at A, (2, 10) passes A and fails at B,
    /// (2, 20) passes both. Group 200's only row (1, 20) fails at A.
    /// Group 300's first row (2, 20) is a witness; its second is never
    /// read.
    fn semi_fixture() -> (Table, Table, Table) {
        let entity = |name: &str, rows: [(i64, &str); 2]| {
            let mut t = Table::new(TableSchema::new(
                name,
                vec![ColumnDef::new("id", ValueType::Int), ColumnDef::new("tag", ValueType::Str)],
                Some(0),
            ));
            for (id, tag) in rows {
                t.insert(row![id, tag]).unwrap();
            }
            t
        };
        let a = entity("A", [(1, "no"), (2, "yes")]);
        let b = entity("B", [(10, "no"), (20, "yes")]);
        let mut tops = Table::new(TableSchema::new(
            "T",
            vec![
                ColumnDef::new("E1", ValueType::Int),
                ColumnDef::new("E2", ValueType::Int),
                ColumnDef::new("TID", ValueType::Int),
            ],
            None,
        ));
        for r in
            [[1, 10, 100], [2, 10, 100], [2, 20, 100], [1, 20, 200], [2, 20, 300], [1, 10, 300]]
        {
            tops.insert_ints(&r).unwrap();
        }
        tops.create_index(2);
        (a, b, tops)
    }

    fn semi<'a>(
        (a, b, tops): &'a (Table, Table, Table),
        pred: &'a Predicate,
        work: &Work,
    ) -> SemiDgj<'a, std::vec::IntoIter<Value>> {
        let groups = vec![Value::Int(100), Value::Int(200), Value::Int(300)];
        let from = Endpoint { table: a, col: 0, pred, pin: None };
        let to = Endpoint { table: b, col: 1, pred, pin: None };
        SemiDgj::new(groups.into_iter(), tops, 2, from, to, work.clone())
    }

    #[test]
    fn semi_dgj_emits_groups_with_a_witness() {
        let fx = semi_fixture();
        let yes = Predicate::eq(1, "yes");
        let w = Work::new();
        let mut j = semi(&fx, &yes, &w);
        let got: Vec<i64> = collect_all(&mut j).iter().map(|r| r.get(0).as_int()).collect();
        assert_eq!(got, vec![100, 300]);
        // Groups: 3. Rows: 3 + 1 + 1. Probes: 1 + 2 + 2 (group 100),
        // 1 (group 200), 2 (group 300).
        assert_eq!(w.get(), 3 + 5 + 8);
        j.rewind();
        assert_eq!(j.next().map(|r| r.get(0).as_int()), Some(100));
    }

    #[test]
    fn semi_dgj_k1_stops_at_the_first_witness() {
        let fx = semi_fixture();
        let w = Work::new();
        let mut j = semi(&fx, &Predicate::True, &w);
        let top1 = crate::driver::collect_distinct_topk_budgeted(&mut j, 0, 1, &w);
        assert_eq!(top1, vec![row![100i64]]);
        // One group, one tops row, two pk probes.
        assert_eq!(w.get(), 4);
    }

    #[test]
    fn semi_dgj_pinned_endpoint_emits_the_unpinned_groups() {
        // Pin B to each id (and to one that does not exist), probed
        // first or second: the groups must be exactly those of the
        // unpinned, from-first probe order with the same predicate.
        let (a, b, tops) = semi_fixture();
        let groups = || vec![Value::Int(100), Value::Int(200), Value::Int(300)].into_iter();
        let run = |first: Endpoint<'_>, second: Endpoint<'_>| {
            let w = Work::new();
            let mut j = SemiDgj::new(groups(), &tops, 2, first, second, w.clone());
            let got: Vec<i64> = collect_all(&mut j).iter().map(|r| r.get(0).as_int()).collect();
            (got, w.get())
        };
        let any = Predicate::True;
        for id in [10i64, 20, 99] {
            let pin = Predicate::eq(0, id);
            let from = Endpoint { table: &a, col: 0, pred: &any, pin: None };
            let unpinned = Endpoint { table: &b, col: 1, pred: &pin, pin: None };
            let pinned = Endpoint { pin: Some(id), ..unpinned };
            let (want, from_first_work) = run(from, unpinned);
            assert_eq!(run(from, pinned).0, want, "pin {id} probed second");
            let (got, work) = run(pinned, from);
            assert_eq!(got, want, "pin {id} probed first");
            // A row the pin rejects costs one probe instead of two.
            assert!(work <= from_first_work, "pin {id}: {work} > {from_first_work}");
        }
    }

    /// Minimal rewindable scan over a table for HDGJ inners in tests.
    struct TableScanHelper<'a> {
        t: &'a Table,
        pos: usize,
    }
    impl<'a> TableScanHelper<'a> {
        fn new(t: &'a Table) -> Self {
            TableScanHelper { t, pos: 0 }
        }
    }
    impl Operator for TableScanHelper<'_> {
        fn next(&mut self) -> Option<Row> {
            if self.pos < self.t.len() {
                let r = self.t.row(self.pos as u32).to_row();
                self.pos += 1;
                Some(r)
            } else {
                None
            }
        }
        fn rewind(&mut self) {
            self.pos = 0;
        }
    }
}
