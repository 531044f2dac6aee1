//! An aggregate R\*-tree over point data.
//!
//! This is the disk-resident spatial index the paper assumes for the dataset
//! `D` (Beckmann et al.'s R\*-tree \[2\], augmented with per-entry record
//! counts as in the aggregate R-tree of \[16\]).  Features:
//!
//! * one-by-one insertion with the R\* heuristics (choose-subtree by minimum
//!   overlap enlargement at the leaf level, forced reinsertion, topological
//!   split),
//! * deletion with underfull-node condensing (an underfull node is dissolved
//!   and its entries reinserted at their level, the classic R-tree
//!   `CondenseTree`), root collapse, and node-slot reuse through a free
//!   list,
//! * STR (sort-tile-recursive) bulk loading,
//! * axis-parallel range reporting and *aggregate* range counting (counted
//!   sub-trees are not descended into, saving I/O exactly as the paper's
//!   dominator counting does),
//! * focal-record partitioning queries used by BA (retrieve incomparable
//!   records) and by both algorithms (count dominators),
//! * page-access accounting via [`crate::iostats`].
//!
//! Node fan-out defaults to what fits a 4 KB page for the given
//! dimensionality, mirroring the experimental setup of Section 8.

mod bulk;
mod delete;
mod insert;
mod node;
mod query;

pub(crate) use node::EntryRef;
pub use node::{Child, Entry, Node, RStarConfig};

use crate::iostats::PAGE_SIZE_BYTES;
use mrq_data::{Dataset, RecordId};
use mrq_geometry::BoundingBox;

/// The aggregate R\*-tree.
///
/// The tree stores point entries only (each record is a degenerate box); the
/// arena-based node storage keeps the implementation simple and cache
/// friendly while the [`crate::iostats`] counter simulates the paged cost
/// model.
#[derive(Debug, Clone)]
pub struct RStarTree {
    pub(crate) dims: usize,
    pub(crate) config: RStarConfig,
    pub(crate) nodes: Vec<Node>,
    /// Arena slots of dissolved nodes, reused by later allocations.
    pub(crate) free: Vec<usize>,
    pub(crate) root: usize,
    pub(crate) height: u32,
    pub(crate) len: usize,
}

impl RStarTree {
    /// Creates an empty tree for `dims`-dimensional points with a fan-out
    /// derived from the 4 KB page size (at least 4, at most 256 entries).
    pub fn new(dims: usize) -> Self {
        Self::with_config(dims, RStarConfig::for_page_size(dims, PAGE_SIZE_BYTES))
    }

    /// Creates an empty tree with an explicit configuration.
    pub fn with_config(dims: usize, config: RStarConfig) -> Self {
        assert!(dims >= 1, "dimensionality must be positive");
        config.validate();
        Self {
            dims,
            config,
            nodes: vec![Node::new(0, dims)],
            free: Vec::new(),
            root: 0,
            height: 0,
            len: 0,
        }
    }

    /// Allocates a node slot, reusing a freed one when available.
    pub(crate) fn alloc_node(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Builds a tree over an entire dataset using STR bulk loading.
    pub fn bulk_load(data: &Dataset) -> Self {
        Self::bulk_load_with_config(
            data,
            RStarConfig::for_page_size(data.dims(), PAGE_SIZE_BYTES),
        )
    }

    /// Bulk loads with an explicit configuration.
    pub fn bulk_load_with_config(data: &Dataset, config: RStarConfig) -> Self {
        let mut tree = Self::with_config(data.dims(), config);
        tree.str_bulk_load(data);
        tree
    }

    /// Inserts a single record (id + coordinates).  The root-to-leaf
    /// traversal is charged to [`crate::iostats`] (one read per node
    /// visited), as deletion and the queries are.
    pub fn insert(&mut self, id: RecordId, point: &[f64]) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        self.insert_record(id, point);
        self.len += 1;
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Height of the tree (0 for a single leaf node).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of live nodes (= simulated disk pages) in the tree.
    /// Arena slots freed by deletions are not counted (they are reused by
    /// later allocations).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Minimum bounding box of all indexed points (None when empty).
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        self.nodes[self.root].mbr()
    }

    /// Internal consistency check used by tests: every node entry's MBR and
    /// count must match its child subtree, node fan-outs must respect the
    /// configuration, all leaves must be at level 0, and every arena slot
    /// must be either reachable from the root or on the free list.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut visited = 0usize;
        let (count, _mbr) = self.check_node(self.root, self.height, &mut visited)?;
        if count != self.len {
            return Err(format!("root count {count} != len {}", self.len));
        }
        let distinct_free: std::collections::HashSet<usize> = self.free.iter().copied().collect();
        if distinct_free.len() != self.free.len() {
            return Err("free list holds a duplicate slot".into());
        }
        if visited + self.free.len() != self.nodes.len() {
            return Err(format!(
                "arena accounting broken: {visited} reachable + {} free != {} slots",
                self.free.len(),
                self.nodes.len()
            ));
        }
        Ok(())
    }

    fn check_node(
        &self,
        idx: usize,
        expected_level: u32,
        visited: &mut usize,
    ) -> Result<(usize, Option<BoundingBox>), String> {
        *visited += 1;
        let node = &self.nodes[idx];
        if node.level != expected_level {
            return Err(format!(
                "node {idx} level {} expected {expected_level}",
                node.level
            ));
        }
        if idx != self.root && node.len() < self.config.min_entries {
            return Err(format!(
                "node {idx} underfull: {} < {}",
                node.len(),
                self.config.min_entries
            ));
        }
        if node.len() > self.config.max_entries {
            return Err(format!(
                "node {idx} overfull: {} > {}",
                node.len(),
                self.config.max_entries
            ));
        }
        let mut total = 0usize;
        let mut mbr: Option<BoundingBox> = None;
        for e in node.entries() {
            match e.child {
                Child::Record(_) => {
                    if node.level != 0 {
                        return Err(format!("record entry in internal node {idx}"));
                    }
                    if e.count != 1 {
                        return Err(format!("record entry with count {}", e.count));
                    }
                    if e.lo() != e.hi() {
                        return Err(format!("record entry of node {idx} is not a point"));
                    }
                    total += 1;
                }
                Child::Node(c) => {
                    if node.level == 0 {
                        return Err(format!("child node entry in leaf {idx}"));
                    }
                    let (cnt, cmbr) = self.check_node(c as usize, node.level - 1, visited)?;
                    if cnt != e.count as usize {
                        return Err(format!("entry count {} != subtree count {cnt}", e.count));
                    }
                    if let Some(tight) = cmbr {
                        // The entry MBR must equal the child's tight MBR.
                        let tol = 1e-9;
                        let ok = tight
                            .lo
                            .iter()
                            .zip(e.lo())
                            .all(|(a, b)| (a - b).abs() < tol)
                            && tight
                                .hi
                                .iter()
                                .zip(e.hi())
                                .all(|(a, b)| (a - b).abs() < tol);
                        if !ok {
                            return Err(format!("entry MBR of node {idx} not tight"));
                        }
                    }
                    total += cnt;
                }
            }
            let own = e.to_entry().mbr;
            mbr = Some(match mbr {
                None => own,
                Some(m) => m.union(&own),
            });
        }
        Ok((total, mbr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::count_reads;
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    fn point_box(p: &[f64]) -> BoundingBox {
        BoundingBox::new(p.to_vec(), p.to_vec())
    }

    #[test]
    fn empty_tree() {
        let t = RStarTree::new(3);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.height(), 0);
        assert!(t.bounding_box().is_none());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_small_and_query() {
        let mut t = RStarTree::with_config(
            2,
            RStarConfig {
                max_entries: 4,
                min_entries: 2,
                reinsert_count: 1,
            },
        );
        let pts = [
            [0.1, 0.2],
            [0.5, 0.5],
            [0.9, 0.1],
            [0.3, 0.8],
            [0.7, 0.6],
            [0.2, 0.4],
            [0.8, 0.9],
            [0.4, 0.1],
        ];
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u32, p);
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 8);
        assert!(t.height() >= 1);
        let all = t.range_ids(&BoundingBox::unit(2));
        assert_eq!(all.len(), 8);
        let some = t.range_ids(&BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]));
        let mut some_sorted = some.clone();
        some_sorted.sort_unstable();
        // (0.1,0.2), (0.2,0.4), (0.4,0.1) plus (0.5,0.5), which lies on the
        // closed range boundary and must be included.
        assert_eq!(some_sorted, vec![0, 1, 5, 7]);
        assert!(t.range_count(&point_box(&[0.5, 0.5])) == 1);
    }

    #[test]
    fn insertion_matches_bulk_load_results() {
        let mut rng = StdRng::seed_from_u64(42);
        let data = synthetic::generate(Distribution::Independent, 600, 3, &mut rng);
        let bulk = RStarTree::bulk_load(&data);
        bulk.check_invariants().unwrap();
        let mut incr = RStarTree::new(3);
        for (id, r) in data.iter() {
            incr.insert(id, r);
        }
        incr.check_invariants().unwrap();
        let query = BoundingBox::new(vec![0.2, 0.1, 0.3], vec![0.7, 0.8, 0.9]);
        let mut a = bulk.range_ids(&query);
        let mut b = incr.range_ids(&query);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(bulk.range_count(&query) as usize, a.len());
        assert_eq!(incr.range_count(&query) as usize, a.len());
    }

    #[test]
    fn bulk_load_respects_fanout() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = synthetic::generate(Distribution::Correlated, 2000, 4, &mut rng);
        let t = RStarTree::bulk_load(&data);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 2000);
        assert!(t.height() >= 1);
    }

    #[test]
    fn aggregate_count_saves_io() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = synthetic::generate(Distribution::Independent, 3000, 2, &mut rng);
        let t = RStarTree::bulk_load(&data);
        // Count the whole space: the aggregate counts mean only the root needs
        // to be read.
        let (c, reads) = count_reads(|| t.range_count(&BoundingBox::unit(2)));
        assert_eq!(c as usize, 3000);
        assert_eq!(reads, 1, "whole-space count must touch only the root");
        // Reporting ids, in contrast, must touch every leaf.
        let (ids, reads) = count_reads(|| t.range_ids(&BoundingBox::unit(2)));
        assert_eq!(ids.len(), 3000);
        assert!(reads as usize >= t.node_count() / 2);
    }

    #[test]
    fn count_dominators_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(21);
        let data = synthetic::generate(Distribution::AntiCorrelated, 1000, 3, &mut rng);
        let t = RStarTree::bulk_load(&data);
        for focal in [5u32, 77, 400, 999] {
            let p = data.record(focal);
            let expected = data
                .iter()
                .filter(|(id, r)| *id != focal && mrq_data::dominates(r, p))
                .count();
            assert_eq!(t.count_dominators(p, Some(focal)) as usize, expected);
        }
    }

    #[test]
    fn incomparable_ids_match_partition() {
        let mut rng = StdRng::seed_from_u64(33);
        let data = synthetic::generate(Distribution::Independent, 800, 3, &mut rng);
        let t = RStarTree::bulk_load(&data);
        let focal = 123u32;
        let p = data.record(focal).to_vec();
        let part = mrq_data::partition_by_focal(&data, &p, Some(focal));
        let mut got = t.incomparable_ids(&p, Some(focal));
        got.sort_unstable();
        let mut expected = part.incomparable.clone();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn duplicate_points_supported() {
        let mut t = RStarTree::new(2);
        for i in 0..20u32 {
            t.insert(i, &[0.5, 0.5]);
        }
        t.check_invariants().unwrap();
        assert_eq!(
            t.range_count(&BoundingBox::new(vec![0.5, 0.5], vec![0.5, 0.5])),
            20
        );
        assert_eq!(t.count_dominators(&[0.5, 0.5], None), 0);
    }

    #[test]
    fn config_from_page_size_reasonable() {
        let c4 = RStarConfig::for_page_size(4, PAGE_SIZE_BYTES);
        assert!(c4.max_entries >= 16 && c4.max_entries <= 256);
        assert!(c4.min_entries >= 2);
        assert!(c4.min_entries <= c4.max_entries / 2);
        let c9 = RStarConfig::for_page_size(9, PAGE_SIZE_BYTES);
        assert!(c9.max_entries < c4.max_entries);
    }
}
