//! Unit-disc radio topology snapshots.
//!
//! Built for two regimes at once: the paper's 50-peer scenarios, where
//! the snapshot must be *byte-identical* to the original O(n²) pairwise
//! build so seeded runs reproduce exactly, and 1 000+-peer scale-ups,
//! where construction is a spatial hash (O(n·k) for average degree `k`)
//! and queries run allocation-free against a caller-owned
//! [`TopologyScratch`].
//!
//! A [`Topology`] is every row at once. The engine, which re-takes its
//! snapshot every 200 ms and after every switched peer, long before most
//! rows are read, holds a [`TopologySnapshot`] instead: a row built when
//! first asked for, by filtering a Verlet neighbour list that outlives
//! the snapshot while no node has moved more than half its skin.

use std::collections::VecDeque;

use mp2p_mobility::{CellGrid, Point};
use mp2p_sim::{NodeId, TopologyStats};

/// A snapshot of the radio graph: two *connected* nodes are neighbours iff
/// they are within communication range (`C_Range`, 250 m in Table 1).
///
/// Disconnected nodes (the paper's switched-off peers, Section 4.5) keep a
/// position but have no edges.
///
/// # Layout and construction
///
/// Adjacency is stored in CSR form — one flat [`NodeId`] array plus an
/// offset per node — with every per-node slice sorted ascending by id.
/// That gives [`Topology::neighbors`] zero-indirection slice access,
/// [`Topology::are_neighbors`] an O(log k) binary search, and the whole
/// snapshot two allocations (both recycled across rebuilds by
/// [`TopologyBuilder`]).
///
/// Construction bins nodes into a [`CellGrid`] with cell side equal to
/// the radio range, so each node only checks candidates in its 3 × 3
/// cell block. The sorted emission order is *exactly* what the reference
/// O(n²) ascending-pair scan ([`Topology::with_link_filter_naive`])
/// produces, so swapping builds never changes event order, RNG draws, or
/// any downstream result — the determinism guarantee the golden-fixture
/// tests pin down.
///
/// # Example
///
/// ```
/// use mp2p_mobility::Point;
/// use mp2p_net::{Topology, TopologyScratch};
/// use mp2p_sim::NodeId;
///
/// let positions = vec![Point::new(0.0, 0.0), Point::new(200.0, 0.0), Point::new(400.0, 0.0)];
/// let topo = Topology::new(&positions, &[true, true, true], 250.0);
/// let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
/// assert!(topo.are_neighbors(a, b));
/// assert!(!topo.are_neighbors(a, c));
/// assert_eq!(topo.hops_with(&mut TopologyScratch::new(), a, c), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    /// CSR offsets: node `i`'s neighbours are
    /// `adjacency[offsets[i]..offsets[i + 1]]`. Always `n + 1` entries.
    offsets: Vec<u32>,
    /// Flat neighbour array; each node's slice is sorted ascending.
    adjacency: Vec<NodeId>,
    connected: Vec<bool>,
    range: f64,
}

impl Topology {
    /// Builds a snapshot from per-node positions and up/down flags.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn new(positions: &[Point], connected: &[bool], range: f64) -> Self {
        Topology::with_link_filter(positions, connected, range, |_, _| true)
    }

    /// Builds a snapshot like [`Topology::new`] but suppresses any edge
    /// for which `keep(i, j)` (with `i < j`, both indices up and within
    /// range) returns false. This is the fault-injection hook: a
    /// scheduled partition keeps only edges whose endpoints lie on the
    /// same side of a cut, without touching the nodes themselves.
    ///
    /// `keep` must be a pure function of `(i, j)`: the spatial-hash build
    /// may evaluate it from both endpoints of a pair (at most twice),
    /// unlike the reference build's exactly-once.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn with_link_filter(
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Self {
        TopologyBuilder::new().rebuild(None, positions, connected, range, keep)
    }

    /// The reference O(n²) build: the original ascending-(i, j) pairwise
    /// scan. Retained as the behavioural oracle — equivalence proptests
    /// and the old-vs-new benches compare the spatial-hash build against
    /// it — not for production use.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn with_link_filter_naive(
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Self {
        assert_eq!(
            positions.len(),
            connected.len(),
            "positions/connected length mismatch"
        );
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be positive"
        );
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        for i in 0..n {
            if !connected[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !connected[j] {
                    continue;
                }
                if positions[i].distance(positions[j]) <= range && keep(i, j) {
                    neighbors[i].push(NodeId::new(j as u32));
                    neighbors[j].push(NodeId::new(i as u32));
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::new();
        for row in &neighbors {
            offsets.push(adjacency.len() as u32);
            adjacency.extend_from_slice(row);
        }
        offsets.push(adjacency.len() as u32);
        Topology {
            offsets,
            adjacency,
            connected: connected.to_vec(),
            range,
        }
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The radio range the snapshot was built with, in metres.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Total directed edge count (each radio link counts twice).
    pub fn edge_count(&self) -> usize {
        self.adjacency.len()
    }

    /// True if `node` is switched on.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.connected[node.index()]
    }

    /// The current one-hop neighbours of `node`, ascending by id (empty
    /// if down).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// True if `a` and `b` are both up and within range. O(log k) binary
    /// search over `a`'s sorted neighbour slice.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Minimum hop count from `from` to `to`, if a multi-hop path exists.
    /// Allocation-free once `scratch` has grown to this snapshot's node
    /// count.
    pub fn hops_with(
        &self,
        scratch: &mut TopologyScratch,
        from: NodeId,
        to: NodeId,
    ) -> Option<u32> {
        self.bfs_with(scratch, from, Some(to))
    }

    /// Writes a minimum-hop path from `from` to `to` (inclusive of both
    /// endpoints) into `out`, clearing it first. Returns false — with
    /// `out` left empty — when no path exists. Allocation-free once
    /// `scratch` and `out` are warm.
    pub fn shortest_path_with(
        &self,
        scratch: &mut TopologyScratch,
        from: NodeId,
        to: NodeId,
        out: &mut Vec<NodeId>,
    ) -> bool {
        out.clear();
        if from == to {
            out.push(from);
            return true;
        }
        if !self.is_up(from) || !self.is_up(to) {
            return false;
        }
        if self.bfs_with(scratch, from, Some(to)).is_none() {
            return false;
        }
        out.push(to);
        let mut cur = to;
        while cur != from {
            // Every stamped node except the root has its parent recorded.
            cur = NodeId::new(scratch.parent[cur.index()]);
            out.push(cur);
        }
        out.reverse();
        true
    }

    /// Writes the TTL-`ttl` flood scope of `from` — every node strictly
    /// within `ttl` hops, excluding `from` itself — into `out` (clearing
    /// it first), in BFS discovery order. Allocation-free once `scratch`
    /// and `out` are warm.
    pub fn within_hops_with(
        &self,
        scratch: &mut TopologyScratch,
        from: NodeId,
        ttl: u32,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        if ttl == 0 || !self.is_up(from) {
            return;
        }
        scratch.begin(self.len());
        scratch.visit_root(from);
        while let Some(u) = scratch.queue.pop_front() {
            let du = scratch.dist[u.index()];
            if du == ttl {
                continue;
            }
            for &v in self.neighbors(u) {
                if scratch.stamp[v.index()] != scratch.epoch {
                    scratch.stamp[v.index()] = scratch.epoch;
                    scratch.dist[v.index()] = du + 1;
                    out.push(v);
                    scratch.queue.push_back(v);
                }
            }
        }
    }

    /// Connected components among up nodes, each sorted by id; singleton
    /// components for isolated up nodes are included, down nodes are not.
    /// The returned nested vectors are fresh allocations — components is
    /// a diagnostic query, not a hot-path one — but the BFS bookkeeping
    /// reuses `scratch`.
    pub fn components_with(&self, scratch: &mut TopologyScratch) -> Vec<Vec<NodeId>> {
        scratch.begin(self.len());
        let mut out = Vec::new();
        for start in 0..self.len() {
            if scratch.stamp[start] == scratch.epoch || !self.connected[start] {
                continue;
            }
            let root = NodeId::new(start as u32);
            let mut comp = vec![root];
            scratch.stamp[start] = scratch.epoch;
            scratch.queue.push_back(root);
            while let Some(u) = scratch.queue.pop_front() {
                for &v in self.neighbors(u) {
                    if scratch.stamp[v.index()] != scratch.epoch {
                        scratch.stamp[v.index()] = scratch.epoch;
                        comp.push(v);
                        scratch.queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// BFS from `root` recording distances and parents in `scratch`;
    /// returns the target's distance if `target` is given and reachable.
    fn bfs_with(
        &self,
        scratch: &mut TopologyScratch,
        root: NodeId,
        target: Option<NodeId>,
    ) -> Option<u32> {
        if !self.is_up(root) {
            return None;
        }
        if target == Some(root) {
            return Some(0);
        }
        scratch.begin(self.len());
        scratch.visit_root(root);
        while let Some(u) = scratch.queue.pop_front() {
            let du = scratch.dist[u.index()];
            for &v in self.neighbors(u) {
                if scratch.stamp[v.index()] != scratch.epoch {
                    scratch.stamp[v.index()] = scratch.epoch;
                    scratch.dist[v.index()] = du + 1;
                    scratch.parent[v.index()] = u.index() as u32;
                    if target == Some(v) {
                        return Some(du + 1);
                    }
                    scratch.queue.push_back(v);
                }
            }
        }
        None
    }
}

/// Reusable BFS bookkeeping for [`Topology`] queries: epoch-stamped
/// visited marks, distances, parent links and the traversal queue.
///
/// A scratch grows to the largest node count it has served and is then
/// allocation-free: "visited" is reset by bumping a generation counter
/// (`epoch`), not by clearing arrays, so starting a query costs O(1).
/// One scratch serves any number of topologies and queries, strictly one
/// query at a time.
#[derive(Debug, Default, Clone)]
pub struct TopologyScratch {
    /// Current query generation; `stamp[i] == epoch` means node `i` was
    /// visited by the query in progress.
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    /// Parent node index, valid only for stamped non-root nodes.
    parent: Vec<u32>,
    queue: VecDeque<NodeId>,
}

impl TopologyScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TopologyScratch::default()
    }

    /// Starts a new query over `n` nodes: grows buffers if needed and
    /// advances the epoch. On the (once per 2³²-query) epoch wrap the
    /// stamps are hard-cleared so stale marks can never alias.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, 0);
            self.parent.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Marks `root` visited at distance 0 and enqueues it.
    fn visit_root(&mut self, root: NodeId) {
        self.stamp[root.index()] = self.epoch;
        self.dist[root.index()] = 0;
        self.queue.push_back(root);
    }
}

/// Counting-sort cell bins over one set of positions, and the cell walk
/// that reads them: the one spatial hash behind both
/// [`TopologyBuilder::rebuild`] (every row, into a CSR) and a
/// [`TopologySnapshot`]'s Verlet candidate lists.
#[derive(Debug)]
struct CellBins {
    grid: CellGrid,
    /// Linear cell index per node (valid only for binned nodes).
    cell_idx: Vec<u32>,
    /// Cursor/boundary array over cells; after [`CellBins::fill`], cell
    /// `c` holds nodes `order[start(c)..cell_start[c]]` where `start(c)`
    /// is `0` for the first cell and `cell_start[c - 1]` otherwise.
    cell_start: Vec<u32>,
    /// Binned node indices grouped by cell, ascending within a cell.
    order: Vec<u32>,
}

/// Relative half-width of the band around `range²` inside which
/// [`Reach::within`] distrusts the squared distance and asks `hypot`, as
/// the reference build does for every pair. The band is exact, not
/// approximate: `dx² + dy²` carries at most three ulp (≈ 7e-16) of
/// relative error and `hypot` under one, so outside the band the two
/// agree with six orders of magnitude to spare; a NaN falls through both
/// comparisons into the `hypot` path. The Verlet tests of a
/// [`TopologySnapshot`] take the same margin on the safe side.
const GUARD_BAND: f64 = 1e-9;

/// How much farther than the radio range, in metres, a
/// [`TopologySnapshot`]'s candidate lists reach: an epoch lasts until
/// some node has moved `SKIN / 2` from where it stood at its start.
const SKIN: f64 = 25.0;

impl Default for CellBins {
    fn default() -> Self {
        CellBins {
            grid: CellGrid::from_points(&[], 1.0),
            cell_idx: Vec::new(),
            cell_start: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl CellBins {
    /// Bins the nodes `binned` admits into cells of side `side` by
    /// counting sort, in ascending id order so each cell's list is already
    /// sorted.
    fn fill(&mut self, positions: &[Point], binned: impl Fn(usize) -> bool, side: f64) {
        let n = positions.len();
        let grid = CellGrid::from_points(positions, side);
        let cells = grid.cell_count();
        assert!(
            u32::try_from(cells).is_ok(),
            "cell grid too fine: {cells} cells"
        );
        self.grid = grid;
        self.cell_idx.clear();
        self.cell_idx.resize(n, 0);
        self.cell_start.clear();
        self.cell_start.resize(cells + 1, 0);
        for i in (0..n).filter(|&i| binned(i)) {
            let c = grid.cell_index(positions[i]);
            self.cell_idx[i] = c as u32;
            self.cell_start[c + 1] += 1;
        }
        for c in 0..cells {
            self.cell_start[c + 1] += self.cell_start[c];
        }
        let total = self.cell_start[cells] as usize;
        self.order.clear();
        self.order.resize(total, 0);
        for i in (0..n).filter(|&i| binned(i)) {
            let c = self.cell_idx[i] as usize;
            self.order[self.cell_start[c] as usize] = i as u32;
            self.cell_start[c] += 1;
        }
        // After the fill, cell_start[c] is the *end* of cell c (and the
        // start of cell c + 1), which is exactly what scan_row reads.
    }

    /// Appends to `out`, ascending by id, every binned node `j ≠ i` of
    /// `i`'s 3 × 3 cell block that `accept` takes. `positions` are the
    /// ones the bins were filled from.
    fn scan_row(
        &self,
        i: usize,
        positions: &[Point],
        accept: impl Fn(usize) -> bool,
        out: &mut Vec<NodeId>,
    ) {
        let grid = &self.grid;
        let (cx, cy) = grid.cell_coords(positions[i]);
        let row_start = out.len();
        for cell_y in cy.saturating_sub(1)..=(cy + 1).min(grid.rows() - 1) {
            for cell_x in cx.saturating_sub(1)..=(cx + 1).min(grid.cols() - 1) {
                let c = grid.index_of(cell_x, cell_y);
                let lo = if c == 0 { 0 } else { self.cell_start[c - 1] } as usize;
                let hi = self.cell_start[c] as usize;
                for &j in &self.order[lo..hi] {
                    if j as usize != i && accept(j as usize) {
                        out.push(NodeId::new(j));
                    }
                }
            }
        }
        // Cells were scanned row-major, so the nodes arrive cell-sorted,
        // not id-sorted; restore the reference build's ascending order.
        out[row_start..].sort_unstable();
    }
}

/// The reference build's `distance <= range` test, decided from the
/// squared distance where that is safe. `dx² + dy²` carries a few ulp
/// (~1e-15) of relative error and libm `hypot` under one, six orders of
/// magnitude inside [`GUARD_BAND`], so outside the band the two tests
/// cannot disagree; pairs within it get the exact `hypot` comparison the
/// reference build makes.
#[derive(Debug, Clone, Copy)]
struct Reach {
    range: f64,
    surely_in: f64,
    surely_out: f64,
}

impl Reach {
    /// Panics if `range` is not finite and positive.
    fn new(range: f64) -> Reach {
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be positive"
        );
        let range_sq = range * range;
        Reach {
            range,
            surely_in: range_sq * (1.0 - GUARD_BAND),
            surely_out: range_sq * (1.0 + GUARD_BAND),
        }
    }

    /// True if `p` and `q` are within range. The squared distance is the
    /// same in either orientation (a difference only changes sign);
    /// `hypot` is asked in the ascending-id orientation of the reference
    /// build (`asc`: `p` has the lower id), so results match it bit for
    /// bit.
    fn within(self, p: Point, q: Point, asc: bool) -> bool {
        let dist_sq = squared_distance(p, q);
        dist_sq <= self.surely_in
            || (dist_sq < self.surely_out
                && if asc { p.distance(q) } else { q.distance(p) } <= self.range)
    }
}

fn squared_distance(p: Point, q: Point) -> f64 {
    let (dx, dy) = (p.x - q.x, p.y - q.y);
    dx * dx + dy * dy
}

impl Topology {
    /// Every row at once, as a CSR snapshot: `row(i, out)` appends up
    /// node `i`'s row to `out`. Cannibalises `recycle`'s arrays when
    /// given.
    fn from_rows(
        recycle: Option<Topology>,
        connected: &[bool],
        range: f64,
        mut row: impl FnMut(usize, &mut Vec<NodeId>),
    ) -> Topology {
        let (mut offsets, mut adjacency, mut conn) = match recycle {
            Some(t) => {
                let Topology {
                    mut offsets,
                    mut adjacency,
                    mut connected,
                    ..
                } = t;
                offsets.clear();
                adjacency.clear();
                connected.clear();
                (offsets, adjacency, connected)
            }
            None => (
                Vec::with_capacity(connected.len() + 1),
                Vec::new(),
                Vec::new(),
            ),
        };
        conn.extend_from_slice(connected);
        for (i, &up) in connected.iter().enumerate() {
            offsets.push(adjacency.len() as u32);
            if up {
                row(i, &mut adjacency);
            }
        }
        offsets.push(adjacency.len() as u32);
        Topology {
            offsets,
            adjacency,
            connected: conn,
            range,
        }
    }
}

/// Builds [`Topology`] snapshots with reusable scratch: the spatial-hash
/// bins and — via [`TopologyBuilder::rebuild`]'s `recycle` parameter —
/// the CSR arrays of a retired snapshot. A steady-state rebuild (same
/// node count, similar degree) performs no heap allocation.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    bins: CellBins,
}

impl TopologyBuilder {
    /// An empty builder; scratch grows on first build.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Builds a snapshot; equivalent to [`Topology::with_link_filter`]
    /// but reusing this builder's scratch.
    pub fn build(
        &mut self,
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Topology {
        self.rebuild(None, positions, connected, range, keep)
    }

    /// Builds a snapshot, cannibalising `recycle`'s CSR buffers when
    /// given so steady-state refreshes allocate nothing. The produced
    /// snapshot is identical to [`Topology::with_link_filter`]'s for the
    /// same inputs (see that method for the `keep` purity contract).
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `range` is not finite
    /// and positive.
    pub fn rebuild(
        &mut self,
        recycle: Option<Topology>,
        positions: &[Point],
        connected: &[bool],
        range: f64,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Topology {
        let reach = Reach::new(range);
        assert_eq!(positions.len(), connected.len(), "length mismatch");
        self.bins.fill(positions, |i| connected[i], range);
        let bins = &self.bins;
        Topology::from_rows(recycle, connected, range, |i, out| {
            let p = positions[i];
            let linked =
                |j: usize| reach.within(p, positions[j], i < j) && keep(i.min(j), i.max(j));
            bins.scan_row(i, positions, linked, out);
        })
    }
}

/// The open bisection partitions of a [`TopologySnapshot`]: a link
/// survives only between two nodes on the same side of every midline
/// set. Data, not a closure, so a snapshot can apply it to any pair at
/// any later time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartitionCut {
    /// `x` of a vertical cut: links crossing it drop.
    pub mid_x: Option<f64>,
    /// `y` of a horizontal cut: links crossing it drop.
    pub mid_y: Option<f64>,
}

impl PartitionCut {
    /// True if no open cut separates `a` from `b`.
    pub fn keeps(&self, a: Point, b: Point) -> bool {
        self.mid_x.is_none_or(|mid| (a.x < mid) == (b.x < mid))
            && self.mid_y.is_none_or(|mid| (a.y < mid) == (b.y < mid))
    }
}

/// The radio graph at one instant, with adjacency rows built when asked
/// for, from Verlet neighbour lists that outlive the instant.
///
/// [`TopologySnapshot::refresh`] stores the positions, the up flags and
/// the open [`PartitionCut`]. A row is a pure function of those inputs,
/// so building it at the first [`TopologySnapshot::neighbors`] call —
/// and keeping it until the next refresh — yields exactly the row
/// [`TopologyBuilder::rebuild`] would have built up front, and rows
/// nobody asks for are never built. A single link is tested from the two
/// stored positions ([`TopologySnapshot::linked`]); queries over the
/// whole graph get the CSR [`Topology`], materialised from the same rows
/// at most once per refresh ([`TopologySnapshot::graph`]).
///
/// # Verlet epochs
///
/// An *epoch* bins every node, up or down, where it stood at the epoch's
/// start, in cells of side `range + SKIN` (`SKIN` = 25 m). A node's
/// candidate list — every other node then within `range + SKIN`,
/// ascending by id — is collected when its row is first asked in the
/// epoch. A row is the candidates that pass the reference build's tests
/// now: both ends up, the guarded range test in the ascending
/// orientation, and the cut on the current positions. No cell is scanned
/// and nothing is sorted.
///
/// The rows are exact. A refresh starts a new epoch when the node count
/// changes or some node has moved more than `SKIN / 2` since the epoch's
/// start. If `i` and `j` are in range now and each has moved at most
/// `SKIN / 2`, the triangle inequality puts them within `range + SKIN` at
/// the start, so `j` is among `i`'s candidates. The rule reads measured
/// displacements, not a speed bound, so it holds for every mobility
/// model, waypoint legs that end on a rounded millisecond included. Both
/// tests take the `GUARD_BAND` margin on the safe side — an epoch holds
/// while every squared displacement is at most `(SKIN / 2)² · (1 −
/// GUARD_BAND)`, a candidate is taken up to `(range + SKIN)² · (1 +
/// GUARD_BAND)` — so a few ulp of rounding cannot drop a neighbour.
///
/// Every buffer is recycled across refreshes: a warm refresh, an epoch
/// restart, the candidate lists and rows asked of it and the graph
/// perform no heap allocation.
///
/// # Example
///
/// ```
/// use mp2p_mobility::Point;
/// use mp2p_net::{PartitionCut, TopologySnapshot};
/// use mp2p_sim::NodeId;
///
/// let line = [0.0, 200.0, 400.0].map(|x| (Point::new(x, 0.0), true));
/// let mut snapshot = TopologySnapshot::new(250.0);
/// snapshot.refresh(PartitionCut::default(), line);
/// let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
/// assert_eq!(snapshot.neighbors(b), [a, c]);
/// assert!(snapshot.linked(a, b) && !snapshot.linked(a, c));
/// assert_eq!(snapshot.stats().rows_built, 1);
/// ```
#[derive(Debug)]
pub struct TopologySnapshot {
    reach: Reach,
    positions: Vec<Point>,
    up: Vec<bool>,
    cut: PartitionCut,
    epoch: Epoch,
    /// Where node `i`'s row sits in `arena`, once it has been built.
    rows: Vec<Option<(u32, u32)>>,
    /// The rows built since the last refresh, in the order asked.
    arena: Vec<NodeId>,
    /// The whole graph; describes this snapshot only while
    /// `graph_current`, otherwise a retired one kept for its arrays.
    graph: Option<Topology>,
    graph_current: bool,
    stats: TopologyStats,
}

/// A Verlet epoch of a [`TopologySnapshot`]: every node's position at its
/// start, those positions binned, and the candidate lists collected from
/// them so far.
#[derive(Debug, Default)]
struct Epoch {
    anchor: Vec<Point>,
    /// `anchor`, every node binned, in cells of side `range + SKIN`.
    bins: CellBins,
    /// Where node `i`'s candidate list sits in `arena`, once collected.
    lists: Vec<Option<(u32, u32)>>,
    arena: Vec<NodeId>,
}

impl Epoch {
    /// True if the lists still serve `positions`: the same nodes, none
    /// displaced more than `SKIN / 2` from its anchor.
    fn holds(&self, positions: &[Point]) -> bool {
        let limit = (SKIN / 2.0) * (SKIN / 2.0) * (1.0 - GUARD_BAND);
        positions.len() == self.anchor.len()
            && (positions.iter().zip(&self.anchor)).all(|(&p, &q)| squared_distance(p, q) <= limit)
    }

    /// Starts a new epoch at `positions`, forgetting every list.
    fn restart(&mut self, positions: &[Point], range: f64) {
        self.anchor.clear();
        self.anchor.extend_from_slice(positions);
        self.bins.fill(&self.anchor, |_| true, range + SKIN);
        self.lists.clear();
        self.lists.resize(positions.len(), None);
        self.arena.clear();
    }

    /// Node `i`'s candidates: every other node within `range + SKIN` of
    /// it at the epoch's start, ascending by id; collected on first
    /// request.
    fn candidates(&mut self, i: usize) -> &[NodeId] {
        let (lo, hi) = match self.lists[i] {
            Some(list) => list,
            None => {
                let lo = self.arena.len() as u32;
                let side = self.bins.grid.cell();
                let limit = side * side * (1.0 + GUARD_BAND);
                let (anchor, p) = (&self.anchor, self.anchor[i]);
                let near = |j: usize| squared_distance(p, anchor[j]) <= limit;
                self.bins.scan_row(i, anchor, near, &mut self.arena);
                let list = (lo, self.arena.len() as u32);
                self.lists[i] = Some(list);
                list
            }
        };
        &self.arena[lo as usize..hi as usize]
    }
}

/// Appends node `i`'s row at the instant of `positions`, `up` and `cut`
/// to `out`: its `epoch` candidates that the reference build links to it.
fn filter_row(
    epoch: &mut Epoch,
    i: usize,
    (positions, up, cut, reach): (&[Point], &[bool], PartitionCut, Reach),
    out: &mut Vec<NodeId>,
) {
    if !up[i] {
        return;
    }
    let p = positions[i];
    for &j in epoch.candidates(i) {
        let (j, q) = (j.index(), positions[j.index()]);
        if up[j] && reach.within(p, q, i < j) && cut.keeps(p, q) {
            out.push(NodeId::new(j as u32));
        }
    }
}

impl TopologySnapshot {
    /// An empty snapshot (no nodes) for radio range `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not finite and positive.
    pub fn new(range: f64) -> Self {
        TopologySnapshot {
            reach: Reach::new(range),
            positions: Vec::new(),
            up: Vec::new(),
            cut: PartitionCut::default(),
            epoch: Epoch::default(),
            rows: Vec::new(),
            arena: Vec::new(),
            graph: None,
            graph_current: false,
            stats: TopologyStats::default(),
        }
    }

    /// Re-takes the snapshot: one `(position, up)` per node in id order,
    /// under `cut`. Forgets every row and the graph of the previous one,
    /// and starts a new Verlet epoch if a node has moved too far.
    pub fn refresh(&mut self, cut: PartitionCut, nodes: impl IntoIterator<Item = (Point, bool)>) {
        self.positions.clear();
        self.up.clear();
        for (position, up) in nodes {
            self.positions.push(position);
            self.up.push(up);
        }
        self.cut = cut;
        if !self.epoch.holds(&self.positions) {
            self.epoch.restart(&self.positions, self.reach.range);
        }
        self.rows.clear();
        self.rows.resize(self.positions.len(), None);
        self.arena.clear();
        self.graph_current = false;
        self.stats.snapshots += 1;
    }

    /// Snapshots taken and rows built so far.
    pub fn stats(&self) -> TopologyStats {
        self.stats
    }

    /// The one-hop neighbours of `node`, ascending by id (empty if down):
    /// the row [`Topology::neighbors`] of [`TopologySnapshot::graph`]
    /// holds, built here on first request.
    pub fn neighbors(&mut self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        let (lo, hi) = match self.rows[i] {
            Some(row) => row,
            None => {
                let lo = self.arena.len();
                let now = (&self.positions[..], &self.up[..], self.cut, self.reach);
                filter_row(&mut self.epoch, i, now, &mut self.arena);
                self.stats.rows_built += 1;
                let row = (lo as u32, self.arena.len() as u32);
                self.rows[i] = Some(row);
                row
            }
        };
        &self.arena[lo as usize..hi as usize]
    }

    /// True if `a` and `b` are neighbours: the reference build's own
    /// test on the two stored positions, with no row built.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        let (i, j) = (a.index().min(b.index()), a.index().max(b.index()));
        let (p, q) = (self.positions[i], self.positions[j]);
        i != j
            && self.up[i]
            && self.up[j]
            && p.distance(q) <= self.reach.range
            && self.cut.keeps(p, q)
    }

    /// The whole graph, for component and path queries. Materialised on
    /// the first call after a refresh, from the same rows as
    /// [`TopologySnapshot::neighbors`], into the arrays of the previous
    /// materialisation.
    pub fn graph(&mut self) -> &Topology {
        if !self.graph_current {
            let retired = self.graph.take();
            let now = (&self.positions[..], &self.up[..], self.cut, self.reach);
            let epoch = &mut self.epoch;
            let graph = Topology::from_rows(retired, now.1, now.3.range, |i, out| {
                filter_row(epoch, i, now, out)
            });
            self.stats.rows_built += self.positions.len() as u64;
            self.graph = Some(graph);
            self.graph_current = true;
        }
        self.graph.as_ref().expect("materialised above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A line of nodes spaced 200 m apart with 250 m range: a path graph.
    fn line(n: usize) -> Topology {
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect();
        Topology::new(&positions, &vec![true; n], 250.0)
    }

    // One-shot forms of the scratch queries, a fresh scratch per call.

    fn hops(t: &Topology, from: NodeId, to: NodeId) -> Option<u32> {
        t.hops_with(&mut TopologyScratch::new(), from, to)
    }

    fn shortest_path(t: &Topology, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let mut out = Vec::new();
        t.shortest_path_with(&mut TopologyScratch::new(), from, to, &mut out)
            .then_some(out)
    }

    fn within_hops(t: &Topology, from: NodeId, ttl: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        t.within_hops_with(&mut TopologyScratch::new(), from, ttl, &mut out);
        out
    }

    fn components(t: &Topology) -> Vec<Vec<NodeId>> {
        t.components_with(&mut TopologyScratch::new())
    }

    #[test]
    fn adjacency_is_symmetric_on_line() {
        let t = line(5);
        for i in 0..5u32 {
            for j in 0..5u32 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                assert_eq!(t.are_neighbors(a, b), t.are_neighbors(b, a));
                assert_eq!(t.are_neighbors(a, b), i.abs_diff(j) == 1);
            }
        }
    }

    #[test]
    fn hops_along_line() {
        let t = line(6);
        assert_eq!(hops(&t, NodeId::new(0), NodeId::new(5)), Some(5));
        assert_eq!(hops(&t, NodeId::new(2), NodeId::new(2)), Some(0));
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let t = line(4);
        let path = shortest_path(&t, NodeId::new(0), NodeId::new(3)).unwrap();
        assert_eq!(path.first(), Some(&NodeId::new(0)));
        assert_eq!(path.last(), Some(&NodeId::new(3)));
        for pair in path.windows(2) {
            assert!(t.are_neighbors(pair[0], pair[1]));
        }
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn down_node_partitions_the_line() {
        let positions: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect();
        let mut up = vec![true; 5];
        up[2] = false;
        let t = Topology::new(&positions, &up, 250.0);
        assert_eq!(hops(&t, NodeId::new(0), NodeId::new(4)), None);
        assert!(t.neighbors(NodeId::new(2)).is_empty());
        assert_eq!(components(&t).len(), 2);
    }

    #[test]
    fn within_hops_matches_ttl_scope() {
        let t = line(8);
        let reach = within_hops(&t, NodeId::new(0), 3);
        let mut ids: Vec<u32> = reach.iter().map(|n| n.index() as u32).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(within_hops(&t, NodeId::new(0), 0).is_empty());
    }

    #[test]
    fn link_filter_cuts_edges_without_touching_nodes() {
        let positions: Vec<Point> = (0..6).map(|i| Point::new(i as f64 * 200.0, 0.0)).collect();
        // Cut the line between indices 2 and 3 (a bisection at x = 500).
        let t = Topology::with_link_filter(&positions, &[true; 6], 250.0, |i, j| {
            (positions[i].x < 500.0) == (positions[j].x < 500.0)
        });
        assert!(t.is_up(NodeId::new(2)) && t.is_up(NodeId::new(3)));
        assert!(!t.are_neighbors(NodeId::new(2), NodeId::new(3)));
        assert_eq!(hops(&t, NodeId::new(0), NodeId::new(5)), None);
        assert_eq!(components(&t).len(), 2);
        // The permissive filter reproduces `new` exactly.
        let unfiltered = Topology::new(&positions, &[true; 6], 250.0);
        for i in 0..6u32 {
            for j in 0..6u32 {
                let (a, b) = (NodeId::new(i), NodeId::new(j));
                if i.abs_diff(j) == 1 && (i.min(j) != 2) {
                    assert!(t.are_neighbors(a, b));
                }
                assert_eq!(
                    unfiltered.are_neighbors(a, b),
                    i.abs_diff(j) == 1,
                    "new() adjacency unchanged"
                );
            }
        }
    }

    #[test]
    fn components_cover_all_up_nodes_once() {
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(1_000.0, 0.0),
            Point::new(1_100.0, 0.0),
            Point::new(5_000.0, 5_000.0),
        ];
        let t = Topology::new(&positions, &[true; 5], 250.0);
        let comps = components(&t);
        assert_eq!(comps.len(), 3);
        let total: usize = comps.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn neighbor_slices_are_sorted_ascending() {
        let mut rng = mp2p_sim::SimRng::from_seed(9, 0);
        let terrain = mp2p_mobility::Terrain::paper_default();
        let positions: Vec<Point> = (0..80).map(|_| terrain.random_point(&mut rng)).collect();
        let t = Topology::new(&positions, &[true; 80], 250.0);
        for i in 0..80u32 {
            let nb = t.neighbors(NodeId::new(i));
            assert!(
                nb.windows(2).all(|w| w[0] < w[1]),
                "node {i}: neighbour slice not strictly ascending: {nb:?}"
            );
        }
    }

    #[test]
    fn grid_build_matches_naive_reference() {
        let mut rng = mp2p_sim::SimRng::from_seed(11, 0);
        let terrain = mp2p_mobility::Terrain::paper_default();
        let positions: Vec<Point> = (0..100).map(|_| terrain.random_point(&mut rng)).collect();
        let mut up = vec![true; 100];
        up[3] = false;
        up[77] = false;
        let keep = |i: usize, j: usize| !(i + j).is_multiple_of(7);
        let grid = Topology::with_link_filter(&positions, &up, 250.0, keep);
        let naive = Topology::with_link_filter_naive(&positions, &up, 250.0, keep);
        assert_eq!(grid.edge_count(), naive.edge_count());
        for i in 0..100u32 {
            assert_eq!(
                grid.neighbors(NodeId::new(i)),
                naive.neighbors(NodeId::new(i)),
                "node {i}: grid and naive neighbour lists differ"
            );
        }
    }

    #[test]
    fn builder_recycles_without_changing_results() {
        let mut rng = mp2p_sim::SimRng::from_seed(12, 0);
        let terrain = mp2p_mobility::Terrain::paper_default();
        let mut builder = TopologyBuilder::new();
        let mut prev: Option<Topology> = None;
        for round in 0..5 {
            let positions: Vec<Point> = (0..60).map(|_| terrain.random_point(&mut rng)).collect();
            let up = vec![true; 60];
            let fresh = Topology::new(&positions, &up, 250.0);
            let rebuilt = builder.rebuild(prev.take(), &positions, &up, 250.0, |_, _| true);
            for i in 0..60u32 {
                assert_eq!(
                    fresh.neighbors(NodeId::new(i)),
                    rebuilt.neighbors(NodeId::new(i)),
                    "round {round}, node {i}"
                );
            }
            prev = Some(rebuilt);
        }
    }

    #[test]
    fn scratch_queries_match_allocating_queries() {
        let mut rng = mp2p_sim::SimRng::from_seed(13, 0);
        let terrain = mp2p_mobility::Terrain::new(1_000.0, 1_000.0);
        let positions: Vec<Point> = (0..40).map(|_| terrain.random_point(&mut rng)).collect();
        let t = Topology::new(&positions, &[true; 40], 250.0);
        let mut scratch = TopologyScratch::new();
        let mut buf = Vec::new();
        for a in 0..40u32 {
            let from = NodeId::new(a);
            for b in 0..40u32 {
                let to = NodeId::new(b);
                assert_eq!(t.hops_with(&mut scratch, from, to), hops(&t, from, to));
                let found = t.shortest_path_with(&mut scratch, from, to, &mut buf);
                assert_eq!(
                    found.then(|| buf.clone()),
                    shortest_path(&t, from, to),
                    "path {a}->{b}"
                );
            }
            for ttl in 0..4u32 {
                t.within_hops_with(&mut scratch, from, ttl, &mut buf);
                assert_eq!(buf, within_hops(&t, from, ttl), "scope {a} ttl {ttl}");
            }
        }
        assert_eq!(t.components_with(&mut scratch), components(&t));
    }

    #[test]
    fn empty_topology_is_well_formed() {
        let t = Topology::new(&[], &[], 250.0);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.edge_count(), 0);
        assert!(components(&t).is_empty());
    }

    proptest! {
        /// Symmetry and irreflexivity of the neighbour relation on random
        /// geometric graphs.
        #[test]
        fn prop_neighbor_relation(seed in any::<u64>(), n in 2usize..40) {
            let mut rng = mp2p_sim::SimRng::from_seed(seed, 0);
            let terrain = mp2p_mobility::Terrain::paper_default();
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let t = Topology::new(&positions, &vec![true; n], 250.0);
            for i in 0..n {
                let a = NodeId::new(i as u32);
                prop_assert!(!t.are_neighbors(a, a));
                for &b in t.neighbors(a) {
                    prop_assert!(t.are_neighbors(b, a));
                    prop_assert!(positions[a.index()].distance(positions[b.index()]) <= 250.0);
                }
            }
        }

        /// BFS path length equals the reported hop count and the path is
        /// valid edge-by-edge.
        #[test]
        fn prop_path_matches_hops(seed in any::<u64>(), n in 2usize..30) {
            let mut rng = mp2p_sim::SimRng::from_seed(seed, 1);
            let terrain = mp2p_mobility::Terrain::new(800.0, 800.0);
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let t = Topology::new(&positions, &vec![true; n], 250.0);
            let (a, b) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            match (hops(&t, a, b), shortest_path(&t, a, b)) {
                (Some(h), Some(path)) => {
                    prop_assert_eq!(path.len() as u32, h + 1);
                    for pair in path.windows(2) {
                        prop_assert!(t.are_neighbors(pair[0], pair[1]));
                    }
                }
                (None, None) => {}
                (hops, path) => prop_assert!(false, "hops {hops:?} vs path {path:?} disagree"),
            }
        }

        /// within_hops(ttl) is exactly the set at BFS distance 1..=ttl.
        #[test]
        fn prop_within_hops_consistent(seed in any::<u64>(), n in 2usize..25, ttl in 1u32..6) {
            let mut rng = mp2p_sim::SimRng::from_seed(seed, 2);
            let terrain = mp2p_mobility::Terrain::new(1_000.0, 1_000.0);
            let positions: Vec<Point> = (0..n).map(|_| terrain.random_point(&mut rng)).collect();
            let t = Topology::new(&positions, &vec![true; n], 250.0);
            let root = NodeId::new(0);
            let mut reach: Vec<NodeId> = within_hops(&t, root, ttl);
            reach.sort_unstable();
            let mut expected: Vec<NodeId> = (1..n)
                .map(|i| NodeId::new(i as u32))
                .filter(|&v| matches!(hops(&t, root, v), Some(h) if h <= ttl))
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(reach, expected);
        }
    }
}
