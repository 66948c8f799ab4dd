/// An inclusive axis-aligned bounding range `(x_lo, y_lo, x_hi, y_hi)`.
type Bbox = (i64, i64, i64, i64);

/// An immutable uniform grid over `i64` space, stored as a sorted-cell
/// CSR table.
///
/// All items are given at once to [`GridIndex::from_boxes`], each with an
/// inclusive bounding range; the item's id is its position in that list.
/// The index is the backbone of overlapping-shifter extraction,
/// edge-crossing detection and layout validation, which would otherwise be
/// quadratic on full-chip inputs.
///
/// The cell size should be on the order of the interaction distance (e.g.
/// the shifter spacing rule, or the typical edge length); an item then
/// covers O(1) cells in well-behaved layouts.
///
/// # Layout
///
/// Every (cell, item) incidence is one entry. The build sorts the entries
/// by `(cell x, cell y, id)` and splits them into the sorted, unique
/// occupied cell keys, a `starts` offset table and one flat `ids` array:
/// cell `k` holds `ids[starts[k]..starts[k + 1]]`, ascending. Memory is
/// O(entries + occupied cells) whatever the coordinate extent, so two
/// boxes at opposite ends of the `i32` range with a one-dbu cell cost no
/// more than two neighbouring ones.
///
/// # Exactly-once reporting
///
/// Neither traversal needs a dedup set. A result is *owned* by the single
/// cell containing the min-corner of an intersection, and only that cell
/// reports it:
///
/// * [`GridIndex::query`] reports an item from the cell holding the
///   min-corner of the item's box ∩ the query box — allocation-free,
///   visiting only the occupied cells in the window;
/// * [`GridIndex::for_each_candidate_pair`] reports a pair from the cell
///   holding the min-corner of the two boxes' intersection, streaming
///   without materializing the pair set. [`GridIndex::shards`] cuts the
///   occupied cells into contiguous bands so disjoint slices of that
///   traversal run on worker threads ([`GridIndex::par_collect_pairs`]).
///
/// ```
/// use aapsm_geom::GridIndex;
/// let grid = GridIndex::from_boxes(
///     256,
///     [(0, 0, 100, 100), (90, 90, 200, 200), (10_000, 10_000, 10_100, 10_100)],
/// );
/// let mut pairs = grid.candidate_pairs();
/// pairs.sort_unstable();
/// assert_eq!(pairs, vec![(0, 1)]);
/// let mut hits = Vec::new();
/// grid.query((-50, -50, 95, 95), |id| hits.push(id));
/// hits.sort_unstable();
/// assert_eq!(hits, vec![0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct GridIndex {
    cell: i64,
    /// Occupied cell coordinates, sorted and unique.
    keys: Vec<(i64, i64)>,
    /// `keys.len() + 1` offsets into `ids`.
    starts: Vec<usize>,
    /// Column directory: `(cell x, first index into keys)` per occupied
    /// column, ascending.
    columns: Vec<(i64, usize)>,
    /// Item ids per occupied cell, ascending within a cell.
    ids: Vec<u32>,
    /// Bounding range per item id.
    boxes: Vec<Bbox>,
}

/// A partition of a grid's occupied cells into contiguous bands, produced
/// by [`GridIndex::shards`].
///
/// Cells are ordered lexicographically by cell coordinate; a shard is a
/// contiguous range of that order. Every occupied cell belongs to exactly
/// one shard, and every candidate pair is owned by exactly one cell, so
/// the shards induce a disjoint, exhaustive partition of the pair
/// traversal — the basis of the parallel detection front-end.
#[derive(Clone, Debug)]
pub struct GridShards {
    /// `count() + 1` offsets into the grid's occupied cells; shard `s`
    /// covers cells `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
}

impl GridShards {
    /// Number of shards.
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }
}

/// Resolves a `parallelism` knob: `0` = one worker per available CPU,
/// otherwise the value itself (at least 1).
pub fn resolve_workers(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        parallelism
    }
}

/// Units of work below which auto parallelism stays on the calling thread.
const SERIAL_FALLBACK_WORK: usize = 2048;

/// The one serial-fallback policy of every parallel stage: the worker
/// count [`resolve_workers`] gives, except that auto parallelism
/// (`parallelism = 0`) runs fewer than 2048 units of `work` on the
/// calling thread, where thread spawn/join would cost more than the work.
/// A stage counts work in its natural unit (indexed items, constraints,
/// graph edges, dual edges). An explicit degree is always honored, and
/// the choice is purely one of scheduling: results are bit-identical.
pub fn workers_for(parallelism: usize, work: usize) -> usize {
    if parallelism == 0 && work < SERIAL_FALLBACK_WORK {
        1
    } else {
        resolve_workers(parallelism)
    }
}

/// Maps `f` over `0..count` on at most `workers` scoped threads and
/// returns the results **in index order** — the shared worker-pool
/// scaffold of every parallel stage in this workspace.
///
/// Indices are handed out through an atomic cursor (self-balancing
/// without pre-sorting by size); each worker owns one `init()` state for
/// its whole batch (a solver arena, say) and buffers `(index, result)`
/// pairs locally, and the buffers are stitched by index afterwards, so
/// the output is independent of scheduling. `workers <= 1` (or a single
/// item) runs inline on the calling thread with the same one `init()`.
///
/// # Panic isolation
///
/// A panic in `f` is caught per item instead of taking down the whole
/// map: the panicking worker discards its (possibly poisoned) state,
/// re-`init()`s, and keeps draining the cursor; after the join, every
/// failed index is retried **once, serially, with a fresh state**. `f`
/// being a pure function of its index (the scaffold's standing
/// contract — worker state is reusable scratch that never influences
/// results), a transiently-injected panic heals to a bit-identical
/// output. A second panic on the retry is genuine and is propagated via
/// [`std::panic::resume_unwind`]. The serial path applies the same
/// catch-and-retry, so every parallelism degree has identical semantics.
///
/// # Panics
///
/// Propagates panics from `f` that recur on the retry, and any panic
/// from `init()`.
// Invariant, not an error path: the expects assert index-coverage of the
// batching (every slot filled exactly once) and deliberately re-raise
// worker panics per the documented # Panics contract.
#[allow(clippy::expect_used)]
pub fn par_map_indexed<T, S, I, F>(count: usize, workers: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    // One guarded application. `AssertUnwindSafe` is sound here because a
    // failed state is thrown away, never observed again.
    let attempt = |state: &mut S, i: usize| catch_unwind(AssertUnwindSafe(|| f(state, i)));
    // Retry pass over the indices whose first attempt panicked: once,
    // serially, each with a pristine state; a second panic propagates.
    let retry = |slots: &mut [Option<T>], failed: Vec<usize>| {
        for i in failed {
            let mut state = init();
            match attempt(&mut state, i) {
                Ok(out) => slots[i] = Some(out),
                Err(payload) => resume_unwind(payload),
            }
        }
    };

    if workers <= 1 || count <= 1 {
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut failed = Vec::new();
        let mut state = init();
        for (i, slot) in slots.iter_mut().enumerate() {
            match attempt(&mut state, i) {
                Ok(out) => *slot = Some(out),
                Err(_) => {
                    failed.push(i);
                    state = init();
                }
            }
        }
        retry(&mut slots, failed);
        return slots
            .into_iter()
            .map(|s| s.expect("every index is produced exactly once"))
            .collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    // Workers run under the caller's fault plan (debug builds), which is
    // thread-local and would otherwise stay behind on this thread.
    let plan = aapsm_fault::ArmedPlan::current();
    let batches: Vec<Vec<(usize, Option<T>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(count))
            .map(|_| {
                scope.spawn(|| {
                    plan.run(|| {
                        let mut state = init();
                        let mut batch = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            match attempt(&mut state, i) {
                                Ok(out) => batch.push((i, Some(out))),
                                Err(_) => {
                                    batch.push((i, None));
                                    state = init();
                                }
                            }
                        }
                        batch
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    let mut failed = Vec::new();
    for (i, out) in batches.into_iter().flatten() {
        match out {
            Some(out) => slots[i] = Some(out),
            None => failed.push(i),
        }
    }
    failed.sort_unstable();
    retry(&mut slots, failed);
    slots
        .into_iter()
        .map(|s| s.expect("every index is produced exactly once"))
        .collect()
}

impl GridIndex {
    /// Builds the index over `boxes` with the given cell size (dbu); item
    /// `i` is the `i`-th box.
    ///
    /// Costs one sort of the (cell, item) entries: O(E log E) time and
    /// O(E) memory for E entries, whatever the coordinate extent — a
    /// counting sort over the cell range would not be (a one-dbu cell over
    /// the sanitized `i32` coordinate range spans 2^32 columns). When the
    /// occupied cell hull has at most 2^32 cells, which covers any
    /// realistic cell size, each entry packs into one `u64` sort key.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size <= 0`, a range is inverted, or there are more
    /// than `u32::MAX` boxes.
    pub fn from_boxes(cell_size: i64, boxes: impl IntoIterator<Item = Bbox>) -> Self {
        assert!(cell_size > 0, "cell size must be positive");
        let boxes: Vec<Bbox> = boxes.into_iter().collect();
        assert!(u32::try_from(boxes.len()).is_ok(), "too many boxes");
        let mut entry_count = 0usize;
        let mut hull: Option<Bbox> = None;
        for bx in &boxes {
            assert!(bx.0 <= bx.2 && bx.1 <= bx.3, "inverted bbox");
            let r = cell_range(cell_size, bx);
            let (w, h) = (
                span(r.0, r.2).saturating_add(1),
                span(r.1, r.3).saturating_add(1),
            );
            entry_count = entry_count.saturating_add(w.saturating_mul(h) as usize);
            hull = Some(hull.map_or(r, |h| {
                (h.0.min(r.0), h.1.min(r.1), h.2.max(r.2), h.3.max(r.3))
            }));
        }
        let mut grid = GridIndex {
            cell: cell_size,
            keys: Vec::new(),
            starts: Vec::new(),
            columns: Vec::new(),
            ids: Vec::with_capacity(entry_count),
            boxes: Vec::new(),
        };
        if let Some((x0, y0, x1, y1)) = hull {
            let bits = |span: u64| u64::BITS - span.leading_zeros();
            let (x_bits, y_bits) = (bits(span(x0, x1)), bits(span(y0, y1)));
            if x_bits + y_bits <= 32 {
                // (cell x offset, cell y offset, id) packed high to low.
                let mut packed: Vec<u64> = Vec::with_capacity(entry_count);
                for_each_entry(&boxes, cell_size, |cx, cy, id| {
                    let cell = span(x0, cx) << y_bits | span(y0, cy);
                    packed.push(cell << 32 | u64::from(id));
                });
                packed.sort_unstable();
                let y_mask = (1u64 << y_bits) - 1;
                grid.push_sorted(packed.into_iter().map(|e| {
                    let cell = e >> 32;
                    (
                        x0.wrapping_add((cell >> y_bits) as i64),
                        y0.wrapping_add((cell & y_mask) as i64),
                        e as u32,
                    )
                }));
            } else {
                let mut entries: Vec<(i64, i64, u32)> = Vec::with_capacity(entry_count);
                for_each_entry(&boxes, cell_size, |cx, cy, id| entries.push((cx, cy, id)));
                entries.sort_unstable();
                grid.push_sorted(entries.into_iter());
            }
        }
        grid.boxes = boxes;
        grid
    }

    /// Appends `(cell x, cell y, id)` entries sorted by that triple as the
    /// CSR tables.
    fn push_sorted(&mut self, entries: impl Iterator<Item = (i64, i64, u32)>) {
        for (cx, cy, id) in entries {
            if self.keys.last() != Some(&(cx, cy)) {
                if self.columns.last().map(|c| c.0) != Some(cx) {
                    self.columns.push((cx, self.keys.len()));
                }
                self.keys.push((cx, cy));
                self.starts.push(self.ids.len());
            }
            self.ids.push(id);
        }
        self.starts.push(self.ids.len());
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The bounding range item `id` was indexed with.
    pub fn bbox(&self, id: u32) -> Bbox {
        self.boxes[id as usize]
    }

    /// Hull of every item's bounding range (`None` when empty). Linear
    /// scan; callers clamping open-ended query regions pay it once per
    /// batch.
    pub fn bounds(&self) -> Option<Bbox> {
        self.boxes
            .iter()
            .copied()
            .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1), a.2.max(b.2), a.3.max(b.3)))
    }

    /// The ids stored in occupied cell `k`.
    fn cell_ids(&self, k: usize) -> &[u32] {
        &self.ids[self.starts[k]..self.starts[k + 1]]
    }

    /// Calls `f` once for every item whose bounding range touches `bbox`
    /// (closed ranges: touching at an edge or corner counts), in
    /// unspecified order.
    ///
    /// Exactly-once without a dedup table: an item is reported only by
    /// the cell containing the min-corner of its range ∩ `bbox`. Both
    /// ranges cover that cell, so it lies in the visited window and lists
    /// the item. Visits only occupied cells, so a query far larger than
    /// the grid costs O(occupied columns · log cells + cells + hits) and
    /// allocates nothing.
    pub fn query(&self, bbox: Bbox, mut f: impl FnMut(u32)) {
        let cell = self.cell;
        let (cx_lo, cy_lo) = (bbox.0.div_euclid(cell), bbox.1.div_euclid(cell));
        let (cx_hi, cy_hi) = (bbox.2.div_euclid(cell), bbox.3.div_euclid(cell));
        let first = self.columns.partition_point(|&(cx, _)| cx < cx_lo);
        for (c, &(cx, start)) in self.columns.iter().enumerate().skip(first) {
            if cx > cx_hi {
                break;
            }
            let end = self
                .columns
                .get(c + 1)
                .map_or(self.keys.len(), |next| next.1);
            let column = &self.keys[start..end];
            let lo = start + column.partition_point(|&(_, cy)| cy < cy_lo);
            for k in lo..end {
                let cy = self.keys[k].1;
                if cy > cy_hi {
                    break;
                }
                // The owner's x is max(item's first column, cx_lo): on the
                // window's first column every touching item is owned
                // there, elsewhere only items starting in this column are
                // (likewise for y).
                let (first_x, first_y) = (cx == cx_lo, cy == cy_lo);
                for &id in self.cell_ids(k) {
                    let bx = self.boxes[id as usize];
                    if ranges_touch(bx, bbox)
                        && (first_x || bx.0.div_euclid(cell) == cx)
                        && (first_y || bx.1.div_euclid(cell) == cy)
                    {
                        f(id);
                    }
                }
            }
        }
    }

    /// The cell owning the pair `(a, b)`: the one containing the min-corner
    /// of the intersection of their bounding ranges. Both boxes cover that
    /// cell, so both ids appear in its list and the owner reports the pair
    /// exactly once across the whole traversal.
    fn owner_cell(&self, a: usize, b: usize) -> (i64, i64) {
        let (ba, bb) = (self.boxes[a], self.boxes[b]);
        (
            ba.0.max(bb.0).div_euclid(self.cell),
            ba.1.max(bb.1).div_euclid(self.cell),
        )
    }

    /// Partitions the occupied cells into at most `count` contiguous bands
    /// of near-equal cell population (lexicographic cell order).
    pub fn shards(&self, count: usize) -> GridShards {
        let cells = self.keys.len();
        let count = count.clamp(1, cells.max(1));
        let bounds = (0..=count).map(|s| s * cells / count).collect();
        GridShards { bounds }
    }

    /// Streams the candidate pairs owned by shard `shard` of `shards`, in
    /// deterministic (cell, id) order. Each intersecting pair `(i, j)`
    /// with `i < j` is reported by exactly one shard, exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards.count()`. `shards` must come from this
    /// index.
    pub fn for_each_candidate_pair_in_shard(
        &self,
        shards: &GridShards,
        shard: usize,
        mut f: impl FnMut(u32, u32),
    ) {
        for k in shards.bounds[shard]..shards.bounds[shard + 1] {
            let key = self.keys[k];
            let ids = self.cell_ids(k);
            for (n, &a) in ids.iter().enumerate() {
                for &b in &ids[n + 1..] {
                    // Ids ascend within a cell, so `a < b`.
                    if ranges_touch(self.boxes[a as usize], self.boxes[b as usize])
                        && self.owner_cell(a as usize, b as usize) == key
                    {
                        f(a, b);
                    }
                }
            }
        }
    }

    /// Streams all unordered intersecting pairs `(i, j)` with `i < j`,
    /// each exactly once, without materializing the pair set.
    pub fn for_each_candidate_pair(&self, mut f: impl FnMut(u32, u32)) {
        let shards = self.shards(1);
        for s in 0..shards.count() {
            self.for_each_candidate_pair_in_shard(&shards, s, &mut f);
        }
    }

    /// All unordered pairs `(i, j)` with `i < j` whose bounding ranges
    /// intersect. Each pair is reported exactly once.
    ///
    /// Materializing convenience over [`GridIndex::for_each_candidate_pair`];
    /// hot paths should prefer the streaming or sharded traversal.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        self.for_each_candidate_pair(|a, b| pairs.push((a, b)));
        pairs
    }

    /// Sharded parallel pair traversal: applies `map` to every candidate
    /// pair and collects the `Some` results **in shard order**, so the
    /// output is bit-identical for every `parallelism` degree (`0` = one
    /// worker per CPU, `1` = run on the calling thread, `k` = at most `k`
    /// workers).
    ///
    /// Shards are handed to workers through an atomic cursor
    /// (self-balancing); each worker buffers its `(shard, results)` pairs
    /// locally and the buffers are stitched by shard index afterwards.
    /// Auto parallelism falls back to serial per [`workers_for`], with
    /// indexed items as the unit of work.
    pub fn par_collect_pairs<T, F>(&self, parallelism: usize, map: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u32, u32) -> Option<T> + Sync,
    {
        let workers = workers_for(parallelism, self.len());
        if workers <= 1 || self.keys.len() <= 1 {
            let mut out = Vec::new();
            self.for_each_candidate_pair(|a, b| out.extend(map(a, b)));
            return out;
        }
        // Over-shard relative to the worker count so one dense band cannot
        // serialize the traversal; merge in shard order.
        let shards = self.shards(workers * 4);
        par_map_indexed(
            shards.count(),
            workers,
            || (),
            |(), s| {
                let mut out = Vec::new();
                self.for_each_candidate_pair_in_shard(&shards, s, |a, b| out.extend(map(a, b)));
                out
            },
        )
        .into_iter()
        .flatten()
        .collect()
    }
}

/// The inclusive range of cells `(x_lo, y_lo, x_hi, y_hi)` a box covers.
fn cell_range(cell: i64, bx: &Bbox) -> Bbox {
    (
        bx.0.div_euclid(cell),
        bx.1.div_euclid(cell),
        bx.2.div_euclid(cell),
        bx.3.div_euclid(cell),
    )
}

/// Calls `f(cell x, cell y, id)` for every cell each box covers, in id
/// order.
fn for_each_entry(boxes: &[Bbox], cell: i64, mut f: impl FnMut(i64, i64, u32)) {
    for (id, bx) in boxes.iter().enumerate() {
        let (x_lo, y_lo, x_hi, y_hi) = cell_range(cell, bx);
        for cx in x_lo..=x_hi {
            for cy in y_lo..=y_hi {
                f(cx, cy, id as u32);
            }
        }
    }
}

/// `hi - lo` for `lo <= hi`, exact over the whole `i64` range.
fn span(lo: i64, hi: i64) -> u64 {
    hi.wrapping_sub(lo) as u64
}

fn ranges_touch(a: Bbox, b: Bbox) -> bool {
    a.0 <= b.2 && b.0 <= a.2 && a.1 <= b.3 && b.1 <= a.3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_pairs(boxes: &[Bbox]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..boxes.len() {
            for j in i + 1..boxes.len() {
                if ranges_touch(boxes[i], boxes[j]) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn brute_query(boxes: &[Bbox], probe: Bbox) -> Vec<u32> {
        (0..boxes.len() as u32)
            .filter(|&i| ranges_touch(boxes[i as usize], probe))
            .collect()
    }

    fn random_boxes(seed: u64, n: usize) -> Vec<Bbox> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(-1000..1000);
                let y = rng.gen_range(-1000..1000);
                let w = rng.gen_range(1..300);
                let h = rng.gen_range(1..300);
                (x, y, x + w, y + h)
            })
            .collect()
    }

    /// Sorted query hits, asserting no id is reported twice.
    fn query_once(grid: &GridIndex, probe: Bbox) -> Vec<u32> {
        let mut hits = Vec::new();
        grid.query(probe, |id| hits.push(id));
        hits.sort_unstable();
        let len = hits.len();
        hits.dedup();
        assert_eq!(hits.len(), len, "an id was reported twice for {probe:?}");
        hits
    }

    /// Pairs and queries of `grid` equal brute force over `boxes`.
    fn assert_matches_brute(grid: &GridIndex, boxes: &[Bbox], probes: &[Bbox]) {
        let mut got = grid.candidate_pairs();
        got.sort_unstable();
        assert_eq!(got, brute_pairs(boxes));
        for &probe in probes {
            assert_eq!(
                query_once(grid, probe),
                brute_query(boxes, probe),
                "{probe:?}"
            );
        }
    }

    #[test]
    fn pairs_match_brute_force() {
        for seed in 0..20 {
            let boxes = random_boxes(seed, 60);
            let grid = GridIndex::from_boxes(128, boxes.iter().copied());
            let mut got = grid.candidate_pairs();
            got.sort_unstable();
            let mut want = brute_pairs(&boxes);
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn streaming_reports_each_pair_exactly_once() {
        for seed in [3u64, 17, 40] {
            let boxes = random_boxes(seed, 80);
            let grid = GridIndex::from_boxes(100, boxes.iter().copied());
            let mut counts: std::collections::HashMap<(u32, u32), usize> =
                std::collections::HashMap::new();
            grid.for_each_candidate_pair(|a, b| {
                assert!(a < b);
                *counts.entry((a, b)).or_default() += 1;
            });
            assert!(counts.values().all(|&c| c == 1), "seed {seed}");
            let mut got: Vec<_> = counts.into_keys().collect();
            got.sort_unstable();
            let mut want = brute_pairs(&boxes);
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn shards_partition_the_traversal() {
        let boxes = random_boxes(11, 120);
        let grid = GridIndex::from_boxes(96, boxes.iter().copied());
        let serial = grid.candidate_pairs();
        for count in [1, 2, 3, 5, 8, 1000] {
            let shards = grid.shards(count);
            assert!(shards.count() >= 1);
            let mut sharded = Vec::new();
            for s in 0..shards.count() {
                grid.for_each_candidate_pair_in_shard(&shards, s, |a, b| sharded.push((a, b)));
            }
            // Shard-order concatenation equals the serial streaming order.
            assert_eq!(sharded, serial, "shard count {count}");
        }
    }

    #[test]
    fn par_collect_is_bit_identical_to_serial() {
        let boxes = random_boxes(29, 150);
        let grid = GridIndex::from_boxes(128, boxes.iter().copied());
        let serial = grid.par_collect_pairs(1, |a, b| Some((a, b)));
        assert_eq!(serial, grid.candidate_pairs());
        for parallelism in [0usize, 2, 4, 8] {
            let par = grid.par_collect_pairs(parallelism, |a, b| Some((a, b)));
            assert_eq!(par, serial, "parallelism {parallelism}");
        }
        // Filtering maps stay deterministic too.
        let odd = |a: u32, b: u32| ((a + b) % 2 == 1).then_some((a, b));
        assert_eq!(
            grid.par_collect_pairs(4, odd),
            grid.par_collect_pairs(1, odd)
        );
    }

    #[test]
    fn query_finds_touching_items() {
        let grid = GridIndex::from_boxes(100, [(0, 0, 50, 50), (500, 500, 600, 600)]);
        assert_eq!(query_once(&grid, (40, 40, 60, 60)), vec![0]);
        // Touching at a corner counts.
        assert_eq!(query_once(&grid, (50, 50, 70, 70)), vec![0]);
        assert!(query_once(&grid, (200, 200, 210, 210)).is_empty());
    }

    /// The exactly-once query against brute force: random boxes probed by
    /// random windows, windows larger than the whole grid, degenerate
    /// (zero-width / zero-height) boxes on both sides, corner-only
    /// contacts, all over negative and positive coordinates.
    #[test]
    fn query_reports_each_touching_item_exactly_once() {
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut boxes = random_boxes(seed, 70);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..20 {
                let (x, y) = (rng.gen_range(-1200..1200), rng.gen_range(-1200..1200));
                let len = rng.gen_range(0..400);
                boxes.push(match rng.gen_range(0..3) {
                    0 => (x, y, x, y + len),
                    1 => (x, y, x + len, y),
                    _ => (x, y, x, y),
                });
            }
            // Corner-only contacts with existing boxes, on both diagonals.
            for i in 0..10 {
                let (x0, y0, x1, y1) = boxes[i];
                boxes.push((x1, y1, x1 + 37, y1 + 41));
                boxes.push((x0 - 53, y1, x0, y1 + 29));
                boxes.push((x1, y0 - 31, x1 + 17, y0));
            }
            for cell in [5i64, 64, 250, 5000] {
                let grid = GridIndex::from_boxes(cell, boxes.iter().copied());
                let mut probes: Vec<Bbox> = vec![
                    (i64::MIN / 2, i64::MIN / 2, i64::MAX / 2, i64::MAX / 2),
                    (-5000, -5000, 5000, 5000),
                    (-1000, 0, 1000, 0),
                    (0, -1000, 0, 1000),
                ];
                for _ in 0..40 {
                    let (x, y) = (rng.gen_range(-1500..1500), rng.gen_range(-1500..1500));
                    let (w, h) = (rng.gen_range(0..600), rng.gen_range(0..600));
                    probes.push((x, y, x + w, y + h));
                }
                // Probes that touch boxes only at corners or edges.
                for &(x0, y0, x1, y1) in boxes.iter().take(15) {
                    probes.push((x1, y1, x1 + 10, y1 + 10));
                    probes.push((x0 - 10, y0 - 10, x0, y0));
                    probes.push((x1, y0, x1, y1));
                }
                assert_matches_brute(&grid, &boxes, &probes);
            }
        }
    }

    #[test]
    fn negative_coordinates_work() {
        let grid = GridIndex::from_boxes(64, [(-500, -500, -400, -400), (-450, -450, -300, -300)]);
        assert_eq!(grid.candidate_pairs(), vec![(0, 1)]);
    }

    /// Build memory follows the occupied cells, not the coordinate extent:
    /// two boxes at opposite sanitize limits on a one-dbu grid span 2^32
    /// cells per axis, yet build and answer like brute force.
    #[test]
    fn sparse_extreme_extent_builds_in_entry_memory() {
        let limit = i64::from(i32::MAX) - 1000;
        let boxes = vec![
            (-limit, -limit, -limit + 3, -limit + 2),
            (limit - 2, limit - 3, limit, limit),
            (-limit + 3, -limit + 2, -limit + 5, -limit + 9),
        ];
        let grid = GridIndex::from_boxes(1, boxes.iter().copied());
        assert_eq!(grid.keys.len(), 4 * 3 + 3 * 4 + 3 * 8 - 1);
        assert_eq!(grid.bounds(), Some((-limit, -limit, limit, limit)));
        let probes = [
            (-limit, -limit, limit, limit),
            (i64::MIN / 2, i64::MIN / 2, i64::MAX / 2, i64::MAX / 2),
            (-limit + 3, -limit + 2, -limit + 3, -limit + 2),
            (limit, limit, limit + 5, limit + 5),
            (0, 0, 0, 0),
        ];
        assert_matches_brute(&grid, &boxes, &probes);
        assert_eq!(grid.candidate_pairs(), vec![(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_boxes() {
        GridIndex::from_boxes(10, [(0, 0, 1, 1), (5, 5, 4, 6)]);
    }

    /// Successor of the per-item `update` test: an end-to-end cut moves
    /// and stretches boxes, and a grid built from the moved boxes answers
    /// pairs and queries like a fresh build of the same boxes at another
    /// cell size and like brute force.
    #[test]
    fn rebuild_after_cut_matches_fresh_and_brute_force() {
        let boxes = random_boxes(51, 70);
        // Shift the upper half as an end-to-end cut would, stretch one
        // straddler, leave the rest alone.
        let cut = 0i64;
        let width = 500i64;
        let moved: Vec<Bbox> = boxes
            .iter()
            .map(|&(x0, y0, x1, y1)| {
                if x0 >= cut {
                    (x0 + width, y0, x1 + width, y1)
                } else if x1 > cut {
                    (x0, y0, x1 + width, y1)
                } else {
                    (x0, y0, x1, y1)
                }
            })
            .collect();
        let grid = GridIndex::from_boxes(96, moved.iter().copied());
        for (i, b) in moved.iter().enumerate() {
            assert_eq!(grid.bbox(i as u32), *b);
        }
        let fresh = GridIndex::from_boxes(40, moved.iter().copied());
        let mut a = grid.candidate_pairs();
        let mut b = fresh.candidate_pairs();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        let probes = [
            (-400, -400, 0, 0),
            (600, -200, 900, 400),
            (0, -2000, 0, 2000),
        ];
        for &probe in &probes {
            assert_eq!(query_once(&grid, probe), query_once(&fresh, probe));
        }
        assert_matches_brute(&grid, &moved, &probes);
    }

    #[test]
    fn par_map_heals_a_transient_panic_per_degree() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1usize, 2, 4, 8] {
            // Each index panics exactly on its first attempt for one
            // chosen victim; the retry pass must heal it to the same
            // output the fault-free map produces.
            let victim = 7usize;
            let attempts = AtomicUsize::new(0);
            let out = par_map_indexed(
                16,
                workers,
                || (),
                |(), i| {
                    if i == victim && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("transient worker fault");
                    }
                    i * i
                },
            );
            assert_eq!(
                out,
                (0..16).map(|i| i * i).collect::<Vec<_>>(),
                "workers {workers}"
            );
            assert_eq!(attempts.load(Ordering::SeqCst), 2, "workers {workers}");
        }
    }

    #[test]
    fn par_map_propagates_a_persistent_panic() {
        for workers in [1usize, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map_indexed(
                    8,
                    workers,
                    || (),
                    |(), i| {
                        if i == 3 {
                            panic!("persistent worker fault");
                        }
                        i
                    },
                )
            });
            let payload = caught.expect_err("second failure must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "persistent worker fault", "workers {workers}");
        }
    }

    #[test]
    fn par_map_reinits_state_after_a_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A panicking item must not leave its half-mutated state visible
        // to later items: the worker re-inits. We detect reuse of a
        // poisoned state by marking it before the panic.
        let attempts = AtomicUsize::new(0);
        let out = par_map_indexed(
            12,
            1,
            || false, // state: "poisoned" marker
            |poisoned, i| {
                assert!(
                    !*poisoned,
                    "item {i} saw a state poisoned by a caught panic"
                );
                if i == 5 && attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    *poisoned = true;
                    panic!("poisoning fault");
                }
                i
            },
        );
        assert_eq!(out, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn bounds_track_hull() {
        assert_eq!(GridIndex::from_boxes(64, []).bounds(), None);
        let grid = GridIndex::from_boxes(64, [(0, 0, 10, 10), (200, 100, 220, 130)]);
        assert_eq!(grid.bounds(), Some((0, 0, 220, 130)));
        assert_eq!(query_once(&grid, (205, 105, 210, 110)), vec![1]);
        assert!(query_once(&grid, (100, 100, 120, 130)).is_empty());
    }
}
