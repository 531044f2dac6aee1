//! Implementation of the augmented half-space quad-tree.

use mrq_geometry::{
    reduced_simplex_constraint, BoundingBox, BoxRelation, HalfSpace, PreparedHalfSpace,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Identifier of a half-space stored in the tree (insertion order).
pub type HalfSpaceId = u32;

/// Split/depth configuration.  Both fields apply when a [`Frontier`] reaches
/// a leaf: inserts never split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadTreeConfig {
    /// A leaf that a [`Frontier`] pops is split if its partial-overlap set
    /// holds more than this many half-spaces.
    pub split_threshold: usize,
    /// Maximum tree depth (the root has depth 0).  Bounds memory: a split
    /// creates `2^(d−1)` children, so high-dimensional trees stay shallow.
    pub max_depth: usize,
}

impl QuadTreeConfig {
    /// A reasonable default for the given reduced dimensionality `d − 1`:
    /// the split threshold keeps within-leaf bit-string enumeration cheap,
    /// while the depth cap keeps the number of nodes bounded as the fan-out
    /// (`2^(d−1)`) grows.
    pub fn for_reduced_dims(dr: usize) -> Self {
        let max_depth = match dr {
            0 | 1 => 16,
            2 => 9,
            3 => 6,
            4 => 5,
            5 => 4,
            _ => 3,
        };
        Self {
            split_threshold: 12,
            max_depth,
        }
    }
}

/// A borrowed view of one leaf, as yielded by [`HalfSpaceQuadTree::leaf_walk`]
/// and [`HalfSpaceQuadTree::leaf`].
///
/// Nothing is copied: the region is a slice of the tree's box arena, `F_l`
/// is carried only as its size, and the ids are rebuilt on demand by
/// [`HalfSpaceQuadTree::full_containment`].
#[derive(Debug, Clone, Copy)]
pub struct LeafRef<'a> {
    /// Index of the leaf node inside the tree (stable until the leaf is
    /// split).
    pub node: usize,
    /// The leaf's region: lower corner, then upper corner.  One slice
    /// rather than two keeps the ref small for the sort by `|F_l|`.
    corners: &'a [f64],
    /// `|F_l|`: how many half-spaces fully contain the leaf.
    pub full_len: usize,
    /// `P_l`: ids of half-spaces partially overlapping the leaf.
    pub partial: &'a [HalfSpaceId],
}

impl<'a> LeafRef<'a> {
    /// Lower corner of the leaf's region.
    pub fn lo(&self) -> &'a [f64] {
        &self.corners[..self.corners.len() / 2]
    }

    /// Upper corner of the leaf's region.
    pub fn hi(&self) -> &'a [f64] {
        &self.corners[self.corners.len() / 2..]
    }

    /// The leaf's region as an owned box.
    pub fn bounds(&self) -> BoundingBox {
        BoundingBox::new(self.lo().to_vec(), self.hi().to_vec())
    }
}

/// End of a containment chain, and the root's parent.
const NIL: u32 = u32::MAX;

/// One link of a containment chain in [`HalfSpaceQuadTree::links`].
#[derive(Debug, Clone, Copy)]
struct Link {
    id: HalfSpaceId,
    next: u32,
}

/// A node; its box is `boxes[i·2·dr .. (i+1)·2·dr]` (lower corner, then
/// upper corner) for node index `i`.
#[derive(Debug, Clone)]
struct QNode {
    depth: u32,
    /// Index of the parent node ([`NIL`] for the root); lets
    /// `full_containment` walk a leaf's path without a stored copy of `F_l`.
    parent: u32,
    /// `None` for a leaf.  A split creates all of a node's children in one
    /// go, so their indices are contiguous.
    children: Option<Range<u32>>,
    /// Half-spaces fully containing this node but not its parent: a chain
    /// through `links`, in insertion order, from `head` to `tail`.
    head: u32,
    tail: u32,
    containment_len: u32,
    /// `P_l` of a leaf (empty once the node has split).
    partial: Vec<HalfSpaceId>,
}

/// The augmented quad-tree over the reduced query space `[0,1]^(d−1)`.
///
/// Inserts never split a leaf: they append to the `P_l` of every leaf the
/// half-space's boundary crosses.  A leaf is split only when a [`Frontier`]
/// reaches it, so the tree is refined where a caller's bound on `|F_l|`
/// points and nowhere else.
///
/// Storage is flat: node boxes, half-space coefficients and containment ids
/// each live in one arena indexed by node or half-space id, so besides the
/// arenas' amortised growth an insert allocates nothing and a split only the
/// `P_l` buffers of the leaves it creates.
#[derive(Debug, Clone)]
pub struct HalfSpaceQuadTree {
    dr: usize,
    config: QuadTreeConfig,
    simplex: HalfSpace,
    simplex_test: PreparedHalfSpace,
    /// Coefficients of half-space `id` at `coeffs[id·dr .. (id+1)·dr]`.
    coeffs: Vec<f64>,
    rhs: Vec<f64>,
    tests: Vec<PreparedHalfSpace>,
    /// Node boxes, `2·dr` values per node.
    boxes: Vec<f64>,
    nodes: Vec<QNode>,
    links: Vec<Link>,
    scratch: SplitScratch,
}

/// Buffers a split reuses, so that splitting allocates only the `P_l` of
/// the children it creates.  Their contents never outlive one split, so a
/// clone of the tree starts with empty ones.
#[derive(Debug, Default)]
struct SplitScratch {
    /// The split grid: `[lo, mid, hi]` of the parent along each dimension.
    grid: Vec<[f64; 3]>,
    /// The child index bits of each child inside the permissible simplex.
    masks: Vec<u32>,
    /// Per dimension, one half-space's `[min, max]` terms over the lower
    /// half, then over the upper half.
    terms: Vec<[f64; 4]>,
    /// One row of `|P_l|` ids per child: containing ids from the front,
    /// overlapping ids from the back (in reverse).
    ids: Vec<HalfSpaceId>,
    /// Per child, how many ids its row holds at the front and at the back.
    counts: Vec<(usize, usize)>,
}

impl Clone for SplitScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl HalfSpaceQuadTree {
    /// Creates an empty tree over the `dr`-dimensional reduced query space
    /// (for data dimensionality `d`, `dr = d − 1`).
    pub fn new(dr: usize) -> Self {
        Self::with_config(dr, QuadTreeConfig::for_reduced_dims(dr))
    }

    /// Creates an empty tree with an explicit configuration.
    pub fn with_config(dr: usize, config: QuadTreeConfig) -> Self {
        assert!(
            dr >= 1,
            "the reduced query space has at least one dimension"
        );
        let simplex = reduced_simplex_constraint(dr + 1);
        let mut tree = Self {
            dr,
            config,
            simplex_test: PreparedHalfSpace::new(&simplex),
            simplex,
            coeffs: Vec::new(),
            rhs: Vec::new(),
            tests: Vec::new(),
            boxes: [vec![0.0; dr], vec![1.0; dr]].concat(),
            nodes: Vec::new(),
            links: Vec::new(),
            scratch: SplitScratch::default(),
        };
        let partial = Vec::with_capacity(config.split_threshold + 1);
        tree.push_leaf(0, NIL, partial);
        tree
    }

    /// Dimensionality of the reduced query space.
    pub fn reduced_dims(&self) -> usize {
        self.dr
    }

    /// Number of half-spaces inserted so far.
    pub fn halfspace_count(&self) -> usize {
        self.rhs.len()
    }

    /// A stored half-space by id.
    pub fn halfspace(&self, id: HalfSpaceId) -> HalfSpace {
        HalfSpace::new(self.coeffs_of(id).to_vec(), self.rhs[id as usize])
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (including leaves that are partially outside the
    /// permissible simplex; fully outside leaves are never created).  Counts
    /// the tree as refined so far.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_none()).count()
    }

    /// Inserts a half-space of the reduced query space, returning its id.
    /// The tree's shape does not change.
    ///
    /// # Panics
    /// Panics if the half-space dimensionality does not match the tree's.
    pub fn insert(&mut self, h: HalfSpace) -> HalfSpaceId {
        self.insert_row(&h.coeffs, h.rhs)
    }

    /// Inserts the half-space `coeffs · x > rhs` from a borrowed row, as
    /// [`insert`](Self::insert) inserts the equal [`HalfSpace`], without
    /// allocating one.
    ///
    /// # Panics
    /// Panics if `coeffs` does not have the tree's dimensionality.
    pub fn insert_row(&mut self, coeffs: &[f64], rhs: f64) -> HalfSpaceId {
        assert_eq!(coeffs.len(), self.dr, "half-space dimensionality mismatch");
        let id = self.rhs.len() as HalfSpaceId;
        self.tests.push(PreparedHalfSpace::for_row(coeffs, rhs));
        self.coeffs.extend_from_slice(coeffs);
        self.rhs.push(rhs);
        self.insert_into(0, id);
        id
    }

    fn coeffs_of(&self, id: HalfSpaceId) -> &[f64] {
        let at = id as usize * self.dr;
        &self.coeffs[at..at + self.dr]
    }

    /// Node `node`'s box: lower corner, then upper corner.
    fn corners(&self, node: u32) -> &[f64] {
        let at = node as usize * 2 * self.dr;
        &self.boxes[at..at + 2 * self.dr]
    }

    fn classify(&self, node: u32, id: HalfSpaceId) -> BoxRelation {
        let (lo, hi) = self.corners(node).split_at(self.dr);
        self.tests[id as usize].classify(self.coeffs_of(id), lo, hi)
    }

    /// Appends a leaf whose box has already been pushed onto `boxes`, with
    /// no containment chain yet and `partial` as its `P_l`.
    fn push_leaf(&mut self, depth: u32, parent: u32, partial: Vec<HalfSpaceId>) {
        self.nodes.push(QNode {
            depth,
            parent,
            children: None,
            head: NIL,
            tail: NIL,
            containment_len: 0,
            partial,
        });
    }

    fn push_containment(&mut self, node: u32, id: HalfSpaceId) {
        let link = u32::try_from(self.links.len()).expect("fewer than 2^32 containment links");
        self.links.push(Link { id, next: NIL });
        let node = &mut self.nodes[node as usize];
        match node.tail {
            NIL => node.head = link,
            tail => self.links[tail as usize].next = link,
        }
        node.tail = link;
        node.containment_len += 1;
    }

    fn needs_split(&self, node: u32) -> bool {
        let node = &self.nodes[node as usize];
        node.partial.len() > self.config.split_threshold
            && (node.depth as usize) < self.config.max_depth
    }

    fn insert_into(&mut self, node: u32, id: HalfSpaceId) {
        match self.classify(node, id) {
            BoxRelation::Disjoint => {}
            BoxRelation::Contained => self.push_containment(node, id),
            BoxRelation::Overlapping => match self.nodes[node as usize].children.clone() {
                Some(children) => children.for_each(|child| self.insert_into(child, id)),
                None => self.nodes[node as usize].partial.push(id),
            },
        }
    }

    /// Splits a leaf into its quadrants, in lexicographic order of the child
    /// index bits (bit `i` selects the upper half along dimension `i`),
    /// redistributing its partial-overlap set.  Children fully outside the
    /// permissible simplex are discarded.  The children stay unsplit.
    /// Returns the number of box tests made: `|P_l|` per surviving child.
    ///
    /// The kernel is compiled with a constant `dr` for `dr` = 2 and 3 (data
    /// of three and four dimensions), where the compiler unrolls its
    /// per-dimension loops and splits took about a quarter less time than in
    /// the run-time instance, and once with `dr` read at run time for every
    /// other `dr`.
    fn split_leaf(&mut self, node: u32) -> usize {
        match self.dr {
            2 => self.split_leaf_with::<2>(node),
            3 => self.split_leaf_with::<3>(node),
            _ => self.split_leaf_with::<0>(node),
        }
    }

    /// [`split_leaf`](Self::split_leaf) with `DR` the tree's `dr` as a
    /// constant, or 0 to read it at run time.
    ///
    /// Every child box is cut from the same grid of `3^dr` points (`lo`,
    /// `mid`, `hi` per dimension), so each half-space of the parent's `P_l`
    /// needs only the `3·dr` products `c_i · {lo_i, mid_i, hi_i}`.  A
    /// child's `min` and `max` of `c · x` are summed from them in coordinate
    /// order from `0.0`, exactly as [`PreparedHalfSpace::classify`] sums them
    /// over the child's box, so every relation is bit-identical to testing
    /// each child on its own.  The ids go into per-child rows without a
    /// branch; the children's containment chains and `P_l` are then appended
    /// child by child in id order, as a child-at-a-time split appends them.
    fn split_leaf_with<const DR: usize>(&mut self, node: u32) -> usize {
        let dr = if DR == 0 { self.dr } else { DR };
        debug_assert_eq!(dr, self.dr);
        let partial = std::mem::take(&mut self.nodes[node as usize].partial);
        let depth = self.nodes[node as usize].depth + 1;
        let first = u32::try_from(self.nodes.len()).expect("fewer than 2^32 nodes");
        let mut scratch = std::mem::take(&mut self.scratch);
        let at = node as usize * 2 * dr;
        scratch.grid.clear();
        scratch.grid.extend((0..dr).map(|i| {
            let (lo, hi) = (self.boxes[at + i], self.boxes[at + dr + i]);
            [lo, 0.5 * (lo + hi), hi]
        }));
        // The children's boxes, dropping quadrants completely outside
        // Σ q_i < 1.
        scratch.masks.clear();
        for mask in 0..1u32 << dr {
            let child = self.boxes.len();
            for upper in [0, 1] {
                let grid = scratch.grid.iter().enumerate();
                self.boxes
                    .extend(grid.map(|(i, g)| g[(mask >> i & 1) as usize + upper]));
            }
            let (lo, hi) = self.boxes[child..].split_at(dr);
            if self.simplex_test.classify(&self.simplex.coeffs, lo, hi) == BoxRelation::Disjoint {
                self.boxes.truncate(child);
            } else {
                scratch.masks.push(mask);
            }
        }
        let n = partial.len();
        let children = scratch.masks.len();
        scratch.ids.clear();
        scratch.ids.resize(children * n, 0);
        scratch.counts.clear();
        scratch.counts.resize(children, (0, 0));
        scratch.terms.clear();
        scratch.terms.resize(dr, [0.0; 4]);
        let (grid, terms) = (&scratch.grid[..dr], &mut scratch.terms[..dr]);
        for &id in &partial {
            let at = id as usize * dr;
            let coeffs = &self.coeffs[at..at + dr];
            let cut = self.tests[id as usize]
                .cut()
                .expect("a degenerate half-space never overlaps a box");
            for ((term, &c), g) in terms.iter_mut().zip(coeffs).zip(grid) {
                let (lo, mid, hi) = (c * g[0], c * g[1], c * g[2]);
                *term = if c >= 0.0 {
                    [lo, mid, mid, hi]
                } else {
                    [mid, lo, hi, mid]
                };
            }
            let rows = scratch.ids.chunks_exact_mut(n);
            for ((&mask, row), (front, back)) in
                scratch.masks.iter().zip(rows).zip(&mut scratch.counts)
            {
                let (mut min, mut max) = (0.0, 0.0);
                for (i, term) in terms.iter().enumerate() {
                    let half = 2 * (mask >> i & 1) as usize;
                    min += term[half];
                    max += term[half + 1];
                }
                let contained = min >= cut;
                let overlapping = !(contained | (max < cut));
                row[*front] = id;
                *front += usize::from(contained);
                row[n - 1 - *back] = id;
                *back += usize::from(overlapping);
            }
        }
        for (j, &(front, back)) in scratch.counts.iter().enumerate() {
            let row = &scratch.ids[j * n..(j + 1) * n];
            let mut child_partial = Vec::with_capacity(back.max(self.config.split_threshold + 1));
            child_partial.extend(row[n - back..].iter().rev());
            let child = first + j as u32;
            self.push_leaf(depth, node, child_partial);
            for &id in &row[..front] {
                self.push_containment(child, id);
            }
        }
        self.scratch = scratch;
        self.nodes[node as usize].children = Some(first..self.nodes.len() as u32);
        n * children
    }

    /// Walks the leaves of the tree as refined so far in depth-first order,
    /// children in split order, borrowing their bounds and `P_l` from the
    /// tree.
    ///
    /// With `cap = Some(c)` every subtree whose inherited containment count
    /// already exceeds `c` is skipped: `|F_l|` only grows from parent to
    /// child, so no leaf below it has `|F_l| ≤ c`.  The capped walk yields
    /// exactly the leaves of the uncapped walk with `|F_l| ≤ c`, in the same
    /// order.
    ///
    /// Leaves fully outside the permissible simplex never exist (discarded at
    /// split time); the root itself always straddles the simplex boundary and
    /// is therefore kept.
    pub fn leaf_walk(&self, cap: Option<usize>) -> LeafWalk<'_> {
        LeafWalk {
            tree: self,
            cap: cap.unwrap_or(usize::MAX),
            stack: vec![(0, 0)],
        }
    }

    /// Leaf `node` as a [`LeafRef`]; `|F_l|` is summed over the root path.
    ///
    /// # Panics
    /// Panics if `node` has been split.
    pub fn leaf(&self, node: usize) -> LeafRef<'_> {
        assert!(
            self.nodes[node].children.is_none(),
            "node {node} is not a leaf"
        );
        self.leaf_ref(node as u32, self.full_len(node as u32))
    }

    /// `node`, its parent, and so on up to the root.
    fn ancestors(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(node), |&at| {
            Some(self.nodes[at as usize].parent).filter(|&parent| parent != NIL)
        })
    }

    /// `|F|` of a node: the containment counts summed over its root path.
    fn full_len(&self, node: u32) -> usize {
        self.ancestors(node)
            .map(|at| self.nodes[at as usize].containment_len as usize)
            .sum()
    }

    /// Position of `node` among its siblings (`None` for the root).
    fn rank(&self, node: u32) -> Option<u32> {
        let parent = self.nodes[node as usize].parent;
        if parent == NIL {
            return None;
        }
        let siblings = self.nodes[parent as usize].children.as_ref();
        Some(node - siblings.expect("a parent has children").start)
    }

    fn leaf_ref(&self, node: u32, full_len: usize) -> LeafRef<'_> {
        LeafRef {
            node: node as usize,
            corners: self.corners(node),
            full_len,
            partial: &self.nodes[node as usize].partial,
        }
    }

    /// `F` of a node: the ids of the half-spaces fully containing it, as the
    /// union of the containment sets on the root-to-node path, root first.
    pub fn full_containment(&self, node: usize) -> Vec<HalfSpaceId> {
        let path: Vec<u32> = self.ancestors(node as u32).collect();
        let mut full = Vec::new();
        for &idx in path.iter().rev() {
            let mut link = self.nodes[idx as usize].head;
            while link != NIL {
                full.push(self.links[link as usize].id);
                link = self.links[link as usize].next;
            }
        }
        full
    }

    /// For a single point of the reduced query space, the ids of all inserted
    /// half-spaces containing it (reference implementation used by tests and
    /// oracles; linear in the number of half-spaces).
    pub fn containing_halfspaces(&self, q: &[f64]) -> Vec<HalfSpaceId> {
        (0..self.halfspace_count() as HalfSpaceId)
            .filter(|&id| self.halfspace(id).contains(q))
            .collect()
    }
}

/// Iterator over the leaves of a [`HalfSpaceQuadTree`]; see
/// [`HalfSpaceQuadTree::leaf_walk`].
#[derive(Debug)]
pub struct LeafWalk<'a> {
    tree: &'a HalfSpaceQuadTree,
    cap: usize,
    /// Nodes still to visit, each with the `|F|` of its parent.
    stack: Vec<(u32, usize)>,
}

impl<'a> Iterator for LeafWalk<'a> {
    type Item = LeafRef<'a>;

    fn next(&mut self) -> Option<LeafRef<'a>> {
        while let Some((idx, inherited)) = self.stack.pop() {
            let node = &self.tree.nodes[idx as usize];
            let full_len = inherited + node.containment_len as usize;
            if full_len > self.cap {
                continue;
            }
            match &node.children {
                None => return Some(self.tree.leaf_ref(idx, full_len)),
                Some(children) => self
                    .stack
                    .extend(children.clone().rev().map(|child| (child, full_len))),
            }
        }
        None
    }
}

/// A best-first walk that splits leaves on demand: nodes leave it in
/// increasing `(|F|, depth-first walk order)`, and a leaf whose `P_l` is over
/// the split threshold (and which is shallower than `max_depth`) is split
/// when it is popped, its children taking its place.
///
/// A node's `F` and `P` depend only on which half-spaces were inserted, not
/// on when the node was split, and `|F|` never shrinks from a node to its
/// children.  So popping every leaf up to a cap `c` yields exactly the
/// leaves with `|F_l| ≤ c` of the tree that splitting every over-threshold
/// leaf at insert time would build, with the same bounds, `F_l` and `P_l`,
/// in that tree's depth-first order stably sorted by `|F_l|`, and splits
/// nothing whose `|F|` exceeds `c`.
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    /// `(|F|, child ranks on the root path, node)`; the rank path orders
    /// nodes depth-first at any depth without an overflowing numeric key.
    heap: BinaryHeap<Reverse<(usize, Vec<u32>, u32)>>,
    nodes_split: usize,
    box_tests: usize,
}

impl Frontier {
    /// Number of leaves this frontier has split.
    pub fn nodes_split(&self) -> usize {
        self.nodes_split
    }

    /// Number of half-space/box tests its splits made: each split tests
    /// every id of the leaf's `P_l` against every child that survives the
    /// simplex test.
    pub fn box_tests(&self) -> usize {
        self.box_tests
    }

    /// Whether no node is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queues `node` at its place in the walk order.  Queue the root (node
    /// 0) to walk the whole tree.
    pub fn push(&mut self, tree: &HalfSpaceQuadTree, node: usize) {
        let node = node as u32;
        let mut path: Vec<u32> = tree
            .ancestors(node)
            .filter_map(|at| tree.rank(at))
            .collect();
        path.reverse();
        self.heap.push(Reverse((tree.full_len(node), path, node)));
    }

    /// Pops the next leaf with `|F_l| ≤ cap` and returns its index (see
    /// [`HalfSpaceQuadTree::leaf`]).  Every over-threshold leaf and every
    /// internal node met on the way is replaced by its children.  Returns
    /// `None`, leaving the queue as it is, once the smallest queued `|F|`
    /// exceeds `cap`.
    pub fn pop(&mut self, tree: &mut HalfSpaceQuadTree, cap: usize) -> Option<usize> {
        loop {
            if self.heap.peek()?.0 .0 > cap {
                return None;
            }
            let Reverse((full_len, path, node)) = self.heap.pop().expect("peeked");
            if tree.nodes[node as usize].children.is_none() {
                if !tree.needs_split(node) {
                    return Some(node as usize);
                }
                self.box_tests += tree.split_leaf(node);
                self.nodes_split += 1;
            }
            let children = tree.nodes[node as usize].children.clone().expect("split");
            for (rank, child) in children.enumerate() {
                let child_path = [&path[..], &[rank as u32]].concat();
                let child_full = full_len + tree.nodes[child as usize].containment_len as usize;
                self.heap.push(Reverse((child_full, child_path, child)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits every over-threshold leaf, as the enumerator would on reaching
    /// it.
    fn refine(t: &mut HalfSpaceQuadTree) {
        let mut frontier = Frontier::default();
        frontier.push(t, 0);
        while frontier.pop(t, usize::MAX).is_some() {}
    }

    fn hs(coeffs: &[f64], rhs: f64) -> HalfSpace {
        HalfSpace::new(coeffs.to_vec(), rhs)
    }

    #[test]
    fn empty_tree_single_leaf() {
        let t = HalfSpaceQuadTree::new(2);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf_count(), 1);
        let leaves: Vec<_> = t.leaf_walk(None).collect();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].full_len, 0);
        assert!(t.full_containment(leaves[0].node).is_empty());
        assert!(leaves[0].partial.is_empty());
        assert_eq!(t.reduced_dims(), 2);
    }

    #[test]
    fn containment_vs_partial_classification() {
        let mut t = HalfSpaceQuadTree::new(2);
        // Contains the whole unit box.
        let a = t.insert(hs(&[1.0, 1.0], -0.5));
        // Crosses the box.
        let b = t.insert(hs(&[1.0, 0.0], 0.5));
        // Disjoint from the box.
        let c = t.insert(hs(&[1.0, 1.0], 5.0));
        let leaves: Vec<_> = t.leaf_walk(None).collect();
        assert_eq!(leaves.len(), 1);
        let full = t.full_containment(leaves[0].node);
        assert_eq!(full, vec![a]);
        assert_eq!(leaves[0].full_len, 1);
        assert_eq!(leaves[0].partial, vec![b]);
        assert!(!full.contains(&c) && !leaves[0].partial.contains(&c));
        assert_eq!(t.halfspace_count(), 3);
    }

    #[test]
    fn split_redistributes_and_avoids_redundancy() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 2,
                max_depth: 4,
            },
        );
        // Three crossing half-spaces force a split.
        let ids: Vec<_> = [
            hs(&[1.0, 0.0], 0.3),
            hs(&[0.0, 1.0], 0.6),
            hs(&[1.0, 1.0], 0.9),
        ]
        .into_iter()
        .map(|h| t.insert(h))
        .collect();
        refine(&mut t);
        assert!(t.leaf_count() > 1, "leaf must have split");
        for leaf in t.leaf_walk(None) {
            let full = t.full_containment(leaf.node);
            // F_l and P_l are disjoint and never contain duplicates.
            let mut all: Vec<_> = full.iter().chain(leaf.partial).collect();
            let before = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), before, "duplicate id in leaf sets");
            // Every id must be one of the inserted ones.
            for id in all {
                assert!(ids.contains(id));
            }
            // Classification must be geometrically correct.
            for &id in &full {
                assert_eq!(
                    leaf.bounds().relation_to(&t.halfspace(id)),
                    BoxRelation::Contained
                );
            }
            for &id in leaf.partial {
                assert_eq!(
                    leaf.bounds().relation_to(&t.halfspace(id)),
                    BoxRelation::Overlapping
                );
            }
        }
    }

    #[test]
    fn leaf_sets_account_for_every_overlapping_halfspace() {
        // For any leaf and any inserted half-space: either the half-space is
        // in F_l, in P_l, disjoint from the leaf, or it contains the leaf via
        // an ancestor (and is then still reported in F_l by
        // `full_containment`).
        let mut t = HalfSpaceQuadTree::with_config(
            3,
            QuadTreeConfig {
                split_threshold: 3,
                max_depth: 3,
            },
        );
        let mut rng_state = 123456789u64;
        let mut next = || {
            // Simple xorshift for reproducibility without pulling rand here.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 1000) as f64 / 1000.0
        };
        for _ in 0..40 {
            let coeffs = vec![next() - 0.5, next() - 0.5, next() - 0.5];
            let rhs = next() - 0.5;
            t.insert(HalfSpace::new(coeffs, rhs));
        }
        refine(&mut t);
        for leaf in t.leaf_walk(None) {
            let full = t.full_containment(leaf.node);
            assert_eq!(full.len(), leaf.full_len);
            for id in 0..t.halfspace_count() as HalfSpaceId {
                let h = t.halfspace(id);
                let rel = leaf.bounds().relation_to(&h);
                let in_full = full.contains(&id);
                let in_partial = leaf.partial.contains(&id);
                match rel {
                    BoxRelation::Contained => assert!(in_full && !in_partial),
                    BoxRelation::Overlapping => assert!(in_partial && !in_full),
                    BoxRelation::Disjoint => assert!(!in_full && !in_partial),
                }
            }
        }
    }

    #[test]
    fn children_outside_simplex_are_discarded() {
        // In a 2-d reduced space the permissible region is the triangle below
        // q1 + q2 = 1; after one split the upper-right quadrant is entirely
        // outside and must be dropped.
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 2,
            },
        );
        t.insert(hs(&[1.0, -1.0], 0.0));
        t.insert(hs(&[-1.0, 1.0], 0.0));
        refine(&mut t);
        assert!(t.leaf_count() > 1);
        for leaf in t.leaf_walk(None) {
            let lo_sum: f64 = leaf.lo().iter().sum();
            assert!(
                lo_sum < 1.0 - 1e-9,
                "leaf entirely outside the simplex must not exist: {:?}",
                leaf.lo()
            );
        }
    }

    #[test]
    fn max_depth_caps_splitting() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 1,
            },
        );
        // Many half-spaces through the centre would split forever without the
        // depth cap.
        for i in 0..20 {
            let angle = i as f64 * 0.3;
            t.insert(hs(
                &[angle.cos(), angle.sin()],
                0.5 * (angle.cos() + angle.sin()),
            ));
        }
        refine(&mut t);
        let max_depth_seen = t
            .leaf_walk(None)
            .map(|l| {
                // Depth can be inferred from the side length (unit box halved
                // per level).
                let side = l.hi()[0] - l.lo()[0];
                (1.0 / side).log2().round() as usize
            })
            .max()
            .unwrap();
        assert!(max_depth_seen <= 1);
    }

    #[test]
    fn inserts_never_split() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 4,
            },
        );
        // Lines through the centre: every one crosses the root.
        for i in 0..100 {
            let angle = i as f64 * 0.03;
            t.insert(hs(
                &[angle.cos(), angle.sin()],
                0.5 * (angle.cos() + angle.sin()),
            ));
        }
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.leaf(0).partial.len(), t.halfspace_count());
        refine(&mut t);
        assert!(t.node_count() > 1);
    }

    #[test]
    fn frontier_stops_at_the_cap_and_splits_nothing_beyond_it() {
        let mut t = HalfSpaceQuadTree::with_config(
            2,
            QuadTreeConfig {
                split_threshold: 1,
                max_depth: 4,
            },
        );
        // Contains the whole space, so every node has |F| ≥ 1.
        t.insert(hs(&[1.0, 1.0], -0.5));
        for i in 0..10 {
            t.insert(hs(&[1.0, -1.0], 0.1 * i as f64 - 0.5));
        }
        let mut frontier = Frontier::default();
        frontier.push(&t, 0);
        assert_eq!(frontier.pop(&mut t, 0), None);
        assert_eq!(t.node_count(), 1, "a node over the cap is never split");
        let mut popped = Vec::new();
        while let Some(node) = frontier.pop(&mut t, 3) {
            popped.push(t.leaf(node).full_len);
        }
        assert!(t.node_count() > 1);
        assert!(!popped.is_empty());
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "{popped:?}");
        assert!(popped.iter().all(|&f| (1..=3).contains(&f)));
        let walked: Vec<usize> = t.leaf_walk(Some(3)).map(|l| l.full_len).collect();
        assert_eq!(walked.len(), popped.len());
    }

    #[test]
    fn containing_halfspaces_reference() {
        let mut t = HalfSpaceQuadTree::new(2);
        let a = t.insert(hs(&[1.0, 0.0], 0.2));
        let b = t.insert(hs(&[0.0, 1.0], 0.7));
        let got = t.containing_halfspaces(&[0.5, 0.5]);
        assert!(got.contains(&a) && !got.contains(&b));
    }

    #[test]
    fn default_config_scales_with_dimension() {
        assert!(
            QuadTreeConfig::for_reduced_dims(1).max_depth
                > QuadTreeConfig::for_reduced_dims(7).max_depth
        );
    }
}
