//! Compact DAG representation of a single job.
//!
//! A [`JobGraph`] stores the precedence DAG of one job in one buffer: the
//! child lists in CSR form, each node's height, and the number of nodes at
//! each depth. No parent list is stored: the schedulers read heights and
//! depth counts, and a reader that needs in-degrees or a node's parent
//! derives them from the child lists. The representation is immutable
//! after construction via [`GraphBuilder`], which validates acyclicity and
//! computes the heights and depth counts once.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::sync::Arc;

/// Identifier of a subjob (vertex) within a single job's DAG.
///
/// Node ids are dense indices `0..n` local to one [`JobGraph`]; ids of
/// different jobs are unrelated (the paper's vertex sets are disjoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

serde::impl_serde_newtype!(NodeId(u32));

impl NodeId {
    /// The node id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Errors produced while building or validating a [`JobGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the graph under construction.
        n: u32,
    },
    /// A self-loop `(v, v)` was added.
    SelfLoop(u32),
    /// The edge set contains a directed cycle.
    Cyclic,
    /// The same edge was added twice.
    DuplicateEdge(u32, u32),
    /// The graph has no nodes. The paper's jobs are non-empty (a job with no
    /// subjobs has no completion time).
    Empty,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node v{node} out of range (n = {n})")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at v{v}"),
            GraphError::Cyclic => write!(f, "edge set contains a directed cycle"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge (v{u}, v{v})"),
            GraphError::Empty => write!(f, "job graph must contain at least one subjob"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable DAG of unit-time subjobs, with its structure computed once.
///
/// [`GraphBuilder::build`] validates the edge list and fills one buffer of
/// `u32`s, laid out as
///
/// ```text
/// child offsets (n+1) | children (e) | heights (n) | depth counts (span)
/// ```
///
/// `2n + 1 + e + span` words: 783 for a 256-node tree, 54 for a 16-node
/// one. The buffer is an `Arc<[u32]>` allocated once at exactly that
/// length. A job's DAG is fixed when it is released and only ever read, so
/// a clone shares the buffer instead of copying it (O(1), no allocation),
/// and a `JobGraph` is 24 bytes. The offsets index the buffer itself, so a
/// child list is one slice, in ascending id order. The height and
/// depth-count parts are what LPF (heights, Section 5.1) and the Lemma 5.1
/// bound (the depth profile `W(d)`) read on every run; here they are a
/// slice away instead of a graph walk. Parents are not stored:
/// [`in_degrees`](Self::in_degrees) counts them in one pass over
/// [`edge_heads`](Self::edge_heads), and an out-forest's parent array is
/// derived from the child lists. A `JobGraph` therefore always satisfies:
///
/// * `n() >= 1`;
/// * every child list is strictly ascending;
/// * heights strictly decrease along every edge, so ordering nodes by
///   decreasing height is a topological order ([`topo_order`](Self::topo_order)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobGraph {
    n: u32,
    /// Number of edges.
    e: u32,
    /// The layout above, shared by every clone. Its length is exactly
    /// `2n + 1 + e + span`.
    data: Arc<[u32]>,
}

impl JobGraph {
    /// Number of subjobs. This equals the job's *work* `W` because subjobs
    /// are unit time (Section 3 of the paper).
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The job's work `W` — the aggregate number of subjobs.
    #[inline]
    pub fn work(&self) -> u64 {
        self.n as u64
    }

    /// Number of precedence edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.e as usize
    }

    /// Start of the heights in `data`.
    #[inline]
    fn height_base(&self) -> usize {
        self.n as usize + 1 + self.e as usize
    }

    /// Children (immediate successors) of `v`, in ascending id order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[u32] {
        let v = v.index();
        &self.data[self.data[v] as usize..self.data[v + 1] as usize]
    }

    /// The head of every edge: the child lists of nodes `0..n`, concatenated.
    /// A node's in-degree is the number of times it occurs here.
    #[inline]
    pub fn edge_heads(&self) -> &[u32] {
        &self.data[self.n as usize + 1..self.height_base()]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.children(v).len()
    }

    /// In-degree of every node, counted in one pass over
    /// [`edge_heads`](Self::edge_heads).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut d = vec![0u32; self.n()];
        for &c in self.edge_heads() {
            d[c as usize] += 1;
        }
        d
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).map(NodeId)
    }

    /// A topological order of the nodes: decreasing height, ties by id.
    /// Heights strictly decrease along every edge, so every edge goes
    /// forward in this order. It is sorted on each call, not stored.
    pub fn topo_order(&self) -> Vec<u32> {
        let h = self.heights();
        let mut order: Vec<u32> = (0..self.n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(h[v as usize]));
        order
    }

    /// Source nodes (in-degree 0). For an out-tree this is the single root.
    pub fn sources(&self) -> Vec<NodeId> {
        let d = self.in_degrees();
        self.nodes().filter(|&v| d[v.index()] == 0).collect()
    }

    /// Sink nodes (out-degree 0), i.e. the leaves of an out-tree.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Per-node **height** `H(v)`: the number of nodes on the longest
    /// directed path from `v` to a sink, so a sink has height 1
    /// (paper, Section 5). Heights drive the Longest-Path-First priority.
    /// Computed once by [`GraphBuilder::build`]; this is a slice of it.
    #[inline]
    pub fn heights(&self) -> &[u32] {
        let at = self.height_base();
        &self.data[at..at + self.n as usize]
    }

    /// `depth_counts()[d - 1]` is the number of nodes of depth exactly `d`,
    /// for `d` in `1..=span`: the depth profile the paper's Lemma 5.1 reads
    /// (see [`DepthProfile`](crate::DepthProfile)). Computed once by
    /// [`GraphBuilder::build`]; this is a slice of it.
    #[inline]
    pub fn depth_counts(&self) -> &[u32] {
        &self.data[self.height_base() + self.n as usize..]
    }

    /// Per-node **depth** `D(v)`: the number of nodes on the longest directed
    /// path from a source to `v`, so a source has depth 1 (paper, Section 5;
    /// for out-trees this is the usual root distance + 1). Only the count of
    /// nodes per depth is stored ([`depth_counts`](Self::depth_counts)); this
    /// pushes depths along the child lists in topological order.
    pub fn depths(&self) -> Vec<u32> {
        let mut d = vec![1u32; self.n()];
        for v in self.topo_order() {
            let dv = d[v as usize] + 1;
            for &c in self.children(NodeId(v)) {
                d[c as usize] = d[c as usize].max(dv);
            }
        }
        d
    }

    /// The job's **span** `P`: the number of nodes on the longest directed
    /// path. The span lower-bounds the job's flow in *any* schedule. It is
    /// the length of [`depth_counts`](Self::depth_counts), so O(1).
    #[inline]
    pub fn span(&self) -> u64 {
        self.depth_counts().len() as u64
    }

    /// Collect all edges `(u, v)`, in ascending order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut e = Vec::with_capacity(self.num_edges());
        for v in 0..self.n {
            for &c in self.children(NodeId(v)) {
                e.push((v, c));
            }
        }
        e
    }

    /// The induced subgraph on the nodes with `keep[v] == true`, with dense
    /// re-labelling. Returns the subgraph and the map from new node ids to
    /// original ids. Panics if no node is kept.
    ///
    /// The guess-and-double wrapper (paper Section 5.4) restarts
    /// Algorithm 𝒜 on the *unexecuted* portion of each job; since executed
    /// sets are ancestor-closed, the kept set is descendant-closed and the
    /// subgraph of an out-forest is again an out-forest. The scheduler
    /// passes such sets as masks instead of building the subgraph. This
    /// materialized form stays public as the reference that the core
    /// proptests check `lpf_levels_restricted` and the masked restarts
    /// against.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (JobGraph, Vec<u32>) {
        assert_eq!(keep.len(), self.n(), "keep mask length mismatch");
        let mut new_id = vec![u32::MAX; self.n()];
        let mut old_id = Vec::new();
        for v in 0..self.n() {
            if keep[v] {
                new_id[v] = old_id.len() as u32;
                old_id.push(v as u32);
            }
        }
        assert!(!old_id.is_empty(), "induced subgraph must be non-empty");
        let mut b = GraphBuilder::new(old_id.len());
        for (u, v) in self.edges() {
            if keep[u as usize] && keep[v as usize] {
                b.edge(new_id[u as usize], new_id[v as usize]);
            }
        }
        (b.build().expect("subgraph of a DAG is a DAG"), old_id)
    }

    /// Disjoint union of jobs: relabels each graph's nodes into one graph.
    /// Used by the paper's batching reduction (Section 5.4), which merges all
    /// jobs arriving in a window into a single job. Returns per-input offsets
    /// of the relabelling alongside the union.
    pub fn disjoint_union(graphs: &[&JobGraph]) -> (JobGraph, Vec<u32>) {
        assert!(!graphs.is_empty(), "disjoint_union of zero graphs");
        let total: u32 = graphs.iter().map(|g| g.n).sum();
        let mut b = GraphBuilder::new(total as usize);
        let mut offsets = Vec::with_capacity(graphs.len());
        let mut off = 0u32;
        for g in graphs {
            offsets.push(off);
            for (u, v) in g.edges() {
                b.edge(off + u, off + v);
            }
            off += g.n;
        }
        (b.build().expect("union of DAGs is a DAG"), offsets)
    }
}

// Serde: serialize as (n, edges) and rebuild (re-validating) on deserialize,
// so a hand-edited instance file cannot smuggle in a cyclic "DAG".
impl Serialize for JobGraph {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("edges".to_string(), self.edges().to_value()),
        ])
    }
}

impl Deserialize for JobGraph {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let n = u32::from_value(v.get("n").ok_or_else(|| SerdeError::missing_field("n"))?)?;
        let edges = Vec::<(u32, u32)>::from_value(
            v.get("edges").ok_or_else(|| SerdeError::missing_field("edges"))?,
        )?;
        let mut b = GraphBuilder::new(n as usize);
        for (u, v) in edges {
            b.edge(u, v);
        }
        b.build().map_err(SerdeError::custom)
    }
}

/// Mutable builder for [`JobGraph`]. Collect edges, then [`build`](Self::build)
/// validates and freezes the graph.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// Start a builder for a graph with `n` nodes (ids `0..n`), with room
    /// for the `n - 1` edges of an out-tree on them.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::with_capacity(n.saturating_sub(1)) }
    }

    /// Append `k` fresh nodes, returning the id of the first.
    pub fn add_nodes(&mut self, k: usize) -> u32 {
        let first = self.n as u32;
        self.n += k;
        first
    }

    /// Current number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add a precedence edge `u -> v` (`u` must finish before `v` starts).
    pub fn edge(&mut self, u: u32, v: u32) -> &mut Self {
        self.edges.push((u, v));
        self
    }

    /// Validate and freeze into a [`JobGraph`].
    ///
    /// Checks, in this order: non-empty; then each edge in insertion order
    /// for ids in range and no self-loop; then no duplicate edge (the
    /// smallest duplicated `(u, v)` is reported); then no directed cycle.
    /// The same passes compute every node's height and the number of nodes
    /// at each depth, so a graph's consumers never walk it for them. They
    /// fill a working buffer, which is then copied into the graph's shared
    /// one at its exact length: one retained allocation, and no `realloc`.
    ///
    /// The validating pass also records two facts about the edge list:
    ///
    /// * *forward*: every edge has `u < v`. The ids are then a topological
    ///   order, so the graph is acyclic and Kahn's peel is skipped.
    /// * *canonical order*: the list is strictly ascending by `(u, v)`, as
    ///   [`JobGraph::edges`], the serde form and the gateway's binary codec
    ///   emit it, or by `(v, u)`, as a generator that adds one edge per new
    ///   node, in id order, emits it. Every child list then comes out of
    ///   the counting sort strictly ascending, so the per-node sort and
    ///   duplicate check is skipped.
    ///
    /// A list with both is built in two sweeps of the edges after the
    /// validating pass: back to front to place the children and push each
    /// final height to the parent, and front to back to push depths. Any
    /// other list gets the per-node check unless it is canonical, then
    /// Kahn's peel unless it is forward, then heights and depths by passes
    /// over the child lists in topological order. On a 2-core host
    /// (`examples/graph_build.rs`), 256-node random recursive trees build
    /// in about 13 ns per node in canonical order and about 45 with their
    /// edges shuffled, and relabelled DAGs through the peel in about 63.
    pub fn build(&self) -> Result<JobGraph, GraphError> {
        let n = self.n;
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let n32 = u32::try_from(n).expect("graph too large for u32 node ids");
        let e = self.edges.len();
        // Layout of `data` (see `JobGraph`), the working copy: the depth
        // counts come last and number `span <= n`, so reserving `n` for
        // them means it is never moved while they are counted.
        let children_at = n + 1;
        let height_base = children_at + e;
        let counts_at = height_base + n;
        assert!(counts_at + n <= u32::MAX as usize, "graph too large for u32 offsets");
        let mut data = Vec::with_capacity(counts_at + n);
        data.resize(height_base, 0u32);
        data.resize(counts_at, 1u32);

        // Validate, count each node's children, and record whether every
        // edge points forward and whether the list is strictly ascending
        // by `(u, v)` or by `(v, u)`. `prev` starts at `(0, 0)`, below
        // every edge that is not a self-loop.
        let (mut forward, mut by_tail, mut by_head) = (true, true, true);
        let mut prev = (0, 0);
        for &(u, v) in &self.edges {
            if u >= n32 {
                return Err(GraphError::NodeOutOfRange { node: u, n: n32 });
            }
            if v >= n32 {
                return Err(GraphError::NodeOutOfRange { node: v, n: n32 });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            forward &= u < v;
            by_tail &= prev < (u, v);
            by_head &= (prev.1, prev.0) < (v, u);
            prev = (u, v);
            data[u as usize] += 1;
        }
        let canonical = by_tail || by_head;
        // Counts to list *ends*; placing an entry decrements its node's
        // end, which leaves the offset at the list's start.
        let mut end = children_at as u32;
        for c in &mut data[..n] {
            end += *c;
            *c = end;
        }
        data[n] = end;

        // Each node's depth less one. Zeroed, it also serves as the peel's
        // in-degree counts, which the peel leaves at zero again.
        let mut depth = vec![0u32; n];
        if forward && canonical {
            // Child lists by counting sort: placing the edges back to front
            // keeps each list in insertion order. In either canonical order,
            // every edge out of `v` comes after every edge into it, so the
            // same sweep pushes each final height to the parent, and a
            // sweep front to back pushes each final depth to the child.
            for &(u, v) in self.edges.iter().rev() {
                let (u, v) = (u as usize, v as usize);
                data[u] -= 1;
                let slot = data[u] as usize;
                data[slot] = v as u32;
                data[height_base + u] = data[height_base + u].max(data[height_base + v] + 1);
            }
            for &(u, v) in &self.edges {
                depth[v as usize] = depth[v as usize].max(depth[u as usize] + 1);
            }
        } else {
            for &(u, v) in self.edges.iter().rev() {
                data[u as usize] -= 1;
                let slot = data[u as usize] as usize;
                data[slot] = v;
            }
            // A list in canonical order leaves every child list strictly
            // ascending. Any other is checked node by node, and only an
            // out-of-order child list is sorted.
            if !canonical {
                for u in 0..n {
                    let (lo, hi) = (data[u] as usize, data[u + 1] as usize);
                    let list = &mut data[lo..hi];
                    if !list.windows(2).all(|w| w[0] < w[1]) {
                        list.sort_unstable();
                        if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                            return Err(GraphError::DuplicateEdge(u as u32, w[0]));
                        }
                    }
                }
            }
            // The topological order: a forward list's is the ids, any
            // other's is Kahn's peel order, over in-degrees counted from
            // the child lists.
            let mut order = Vec::with_capacity(n);
            if forward {
                order.extend(0..n32);
            } else {
                let indeg = &mut depth;
                for &c in &data[children_at..height_base] {
                    indeg[c as usize] += 1;
                }
                order.extend((0..n32).filter(|&v| indeg[v as usize] == 0));
                let mut head = 0;
                while head < order.len() {
                    let v = order[head] as usize;
                    head += 1;
                    for &c in &data[data[v] as usize..data[v + 1] as usize] {
                        indeg[c as usize] -= 1;
                        if indeg[c as usize] == 0 {
                            order.push(c);
                        }
                    }
                }
                if order.len() != n {
                    return Err(GraphError::Cyclic);
                }
            }
            // Heights pulled from the children in reverse topological
            // order, depths pushed to them in topological order.
            for &v in order.iter().rev() {
                let v = v as usize;
                let mut h = 0;
                for &c in &data[data[v] as usize..data[v + 1] as usize] {
                    h = h.max(data[height_base + c as usize]);
                }
                data[height_base + v] = h + 1;
            }
            for &v in &order {
                let v = v as usize;
                let d = depth[v] + 1;
                for &c in &data[data[v] as usize..data[v + 1] as usize] {
                    depth[c as usize] = depth[c as usize].max(d);
                }
            }
        }
        // The nodes per depth.
        data.resize(counts_at + n, 0);
        let mut span = 0;
        for &d in &depth {
            data[counts_at + d as usize] += 1;
            span = span.max(d as usize + 1);
        }

        // Frozen into one allocation of exactly the layout's length.
        Ok(JobGraph {
            n: n32,
            e: e as u32,
            data: Arc::from(&data[..counts_at + span]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> JobGraph {
        // 0 -> {1, 2} -> 3
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(1, 3).edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.work(), 1);
        assert_eq!(g.span(), 1);
        assert_eq!(g.heights(), vec![1]);
        assert_eq!(g.depths(), vec![1]);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(0)]);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 2);
        assert_eq!(b.build().unwrap_err(), GraphError::NodeOutOfRange { node: 2, n: 2 });
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(1, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::SelfLoop(1));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).edge(0, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(0, 1));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).edge(2, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn two_cycle_rejected() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).edge(1, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn diamond_adjacency() {
        let g = diamond();
        assert_eq!(g.children(NodeId(0)), &[1, 2]);
        assert_eq!(g.children(NodeId(1)), &[3]);
        assert_eq!(g.children(NodeId(3)), &[] as &[u32]);
        assert_eq!(g.edge_heads(), &[1, 2, 3, 3]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
        assert_eq!(g.out_degree(NodeId(0)), 2);
    }

    #[test]
    fn diamond_metrics() {
        let g = diamond();
        assert_eq!(g.work(), 4);
        assert_eq!(g.span(), 3);
        assert_eq!(g.heights(), vec![3, 2, 2, 1]);
        assert_eq!(g.depths(), vec![1, 2, 2, 3]);
        assert_eq!(g.depth_counts(), &[1, 2, 1]);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
    }

    #[test]
    fn buffer_has_exactly_the_layout_length() {
        // A forward canonical list, the same edges shuffled, and a list
        // whose edges all point backward: the three paths through `build`.
        let mut shuffled = GraphBuilder::new(4);
        shuffled.edge(2, 3).edge(0, 2).edge(1, 3).edge(0, 1);
        let mut backward = GraphBuilder::new(4);
        backward.edge(3, 1).edge(3, 2).edge(1, 0).edge(2, 0);
        // A star's depth counts use 2 of the `n` words reserved for them.
        let graphs = [
            diamond(),
            shuffled.build().unwrap(),
            backward.build().unwrap(),
            crate::builder::star(63),
        ];
        for g in graphs {
            assert_eq!(g.data.len(), 2 * g.n() + 1 + g.num_edges() + g.span() as usize);
        }
    }

    #[test]
    fn clone_shares_the_buffer() {
        let g = diamond();
        let c = g.clone();
        assert!(Arc::ptr_eq(&g.data, &c.data));
        assert_eq!(c, g);
        // Two builds of one list are two buffers that compare equal.
        let h = diamond();
        assert!(!Arc::ptr_eq(&g.data, &h.data));
        assert_eq!(h, g);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn job_graph_is_three_words() {
        assert_eq!(std::mem::size_of::<JobGraph>(), 24);
    }

    #[test]
    fn topo_order_is_valid() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.n()];
            for (i, &v) in g.topo_order().iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u as usize] < pos[v as usize]);
        }
    }

    #[test]
    fn disconnected_components_allowed() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.sources(), vec![NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(g.span(), 2);
    }

    #[test]
    fn chain_depth_height_mirror() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.edge(i, i + 1);
        }
        let g = b.build().unwrap();
        assert_eq!(g.heights(), vec![5, 4, 3, 2, 1]);
        assert_eq!(g.depths(), vec![1, 2, 3, 4, 5]);
        assert_eq!(g.span(), 5);
    }

    #[test]
    fn depth_uses_longest_path_not_shortest() {
        // 0 -> 3 directly, and 0 -> 1 -> 2 -> 3: depth of 3 must be 4.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 3).edge(0, 1).edge(1, 2).edge(2, 3);
        let g = b.build().unwrap();
        assert_eq!(g.depths()[3], 4);
        assert_eq!(g.heights()[0], 4);
    }

    #[test]
    fn induced_subgraph_descendant_closed() {
        // chain(4) keep suffix {2, 3}.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        let g = b.build().unwrap();
        let (sub, old) = g.induced_subgraph(&[false, false, true, true]);
        assert_eq!(sub.n(), 2);
        assert_eq!(old, vec![2, 3]);
        assert_eq!(sub.edges(), vec![(0, 1)]);
        assert_eq!(sub.span(), 2);
    }

    #[test]
    fn induced_subgraph_drops_cross_edges() {
        let g = diamond();
        // Keep 1 and 3 only: the edge 1->3 survives, others vanish.
        let (sub, old) = g.induced_subgraph(&[false, true, false, true]);
        assert_eq!(old, vec![1, 3]);
        assert_eq!(sub.edges(), vec![(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn induced_subgraph_empty_panics() {
        diamond().induced_subgraph(&[false; 4]);
    }

    #[test]
    fn disjoint_union_relabels() {
        let g = diamond();
        let (u, offsets) = JobGraph::disjoint_union(&[&g, &g]);
        assert_eq!(u.n(), 8);
        assert_eq!(offsets, vec![0, 4]);
        assert_eq!(u.num_edges(), 8);
        assert_eq!(u.span(), 3);
        assert_eq!(u.sources().len(), 2);
    }

    #[test]
    fn edges_roundtrip_through_builder() {
        let g = diamond();
        let mut b = GraphBuilder::new(g.n());
        for (u, v) in g.edges() {
            b.edge(u, v);
        }
        assert_eq!(b.build().unwrap(), g);
    }

    #[test]
    fn serde_roundtrip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: JobGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn serde_rejects_cyclic_payload() {
        let json = r#"{"n":2,"edges":[[0,1],[1,0]]}"#;
        assert!(serde_json::from_str::<JobGraph>(json).is_err());
    }
}
