//! Node and entry types of the aggregate R\*-tree.

use mrq_data::RecordId;
use mrq_geometry::BoundingBox;

/// Fan-out and reinsertion configuration of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RStarConfig {
    /// Maximum number of entries per node (page capacity).
    pub max_entries: usize,
    /// Minimum number of entries per non-root node.
    pub min_entries: usize,
    /// Number of entries removed and reinserted on the first overflow of a
    /// level (the R\* "forced reinsertion", typically 30% of the capacity).
    pub reinsert_count: usize,
}

impl RStarConfig {
    /// Derives the fan-out from a simulated page size: each entry stores a
    /// `2·d`-coordinate MBR (8 bytes each), a 4-byte aggregate count and a
    /// 4-byte child pointer, mirroring the paper's 4 KB-page setup.
    pub fn for_page_size(dims: usize, page_size_bytes: usize) -> Self {
        let entry_bytes = 2 * dims * 8 + 8;
        let max_entries = (page_size_bytes / entry_bytes).clamp(4, 256);
        let min_entries = (max_entries * 2 / 5).max(2);
        let reinsert_count = (max_entries * 3 / 10).max(1);
        Self {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    /// Panics if the configuration is internally inconsistent.
    pub fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be at least 4");
        assert!(
            self.min_entries >= 2 && self.min_entries <= self.max_entries / 2,
            "min_entries must be in [2, max_entries/2]"
        );
        assert!(
            self.reinsert_count >= 1 && self.reinsert_count < self.max_entries - self.min_entries,
            "reinsert_count must leave a legal node behind"
        );
    }
}

/// What an entry points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// A data record (leaf level).
    Record(RecordId),
    /// A child node (internal levels), as an index into the node arena.
    Node(u32),
}

/// An entry on the move between nodes (insertion, forced reinsertion, the
/// orphans of a dissolved node): minimum bounding rectangle, aggregate
/// record count of the subtree, and the child reference.  Resident entries
/// live column-wise inside their [`Node`] and are read as borrowed
/// slices of it.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Minimum bounding rectangle of the subtree (the point itself for
    /// record entries).
    pub mbr: BoundingBox,
    /// Number of records in the subtree (1 for record entries) — the
    /// aggregate-R-tree augmentation of \[16\].
    pub count: u32,
    /// Child reference.
    pub child: Child,
}

impl Entry {
    /// Builds a record (leaf) entry.
    pub fn record(id: RecordId, point: &[f64]) -> Self {
        Entry {
            mbr: BoundingBox::new(point.to_vec(), point.to_vec()),
            count: 1,
            child: Child::Record(id),
        }
    }
}

/// A resident entry, borrowed from its node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EntryRef<'a> {
    /// Lower corner followed by upper corner, `d` values each.
    corners: &'a [f64],
    /// Number of records in the subtree (1 for record entries).
    pub(crate) count: u32,
    /// Child reference.
    pub(crate) child: Child,
}

impl<'a> EntryRef<'a> {
    /// Lower corner of the entry's MBR.
    pub(crate) fn lo(&self) -> &'a [f64] {
        &self.corners[..self.corners.len() / 2]
    }

    /// Upper corner of the entry's MBR (the point itself for a record).
    pub(crate) fn hi(&self) -> &'a [f64] {
        &self.corners[self.corners.len() / 2..]
    }

    /// An owned copy of the entry.
    pub(crate) fn to_entry(self) -> Entry {
        Entry {
            mbr: BoundingBox::new(self.lo().to_vec(), self.hi().to_vec()),
            count: self.count,
            child: self.child,
        }
    }
}

/// A tree node: its level (0 = leaf) and its entries, stored column-wise.
///
/// The entries' MBR corners sit in one flat array, `2·d` values per entry
/// (lower corner, then upper corner), beside their counts and children.  A
/// node therefore owns two heap blocks however many entries it holds, so
/// cloning a tree allocates per node rather than per record, and a scan of
/// a node's MBRs reads contiguous memory.
#[derive(Debug, Clone)]
pub struct Node {
    /// Level of the node; leaves are at level 0.
    pub level: u32,
    dims: usize,
    corners: Vec<f64>,
    /// Aggregate record count and child reference of each entry.
    links: Vec<(u32, Child)>,
}

impl Node {
    /// An empty node at `level` for `dims`-dimensional entries.
    pub(crate) fn new(level: u32, dims: usize) -> Self {
        Self::with_capacity(level, dims, 0)
    }

    /// An empty node with room for `capacity` entries.
    pub(crate) fn with_capacity(level: u32, dims: usize, capacity: usize) -> Self {
        assert!(dims >= 1, "dimensionality must be positive");
        Self {
            level,
            dims,
            corners: Vec::with_capacity(2 * dims * capacity),
            links: Vec::with_capacity(capacity),
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the node holds no entry.
    pub(crate) fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Entry `i`.
    pub(crate) fn entry(&self, i: usize) -> EntryRef<'_> {
        let w = 2 * self.dims;
        let (count, child) = self.links[i];
        EntryRef {
            corners: &self.corners[i * w..(i + 1) * w],
            count,
            child,
        }
    }

    /// The entries, in node order.
    pub(crate) fn entries(&self) -> impl ExactSizeIterator<Item = EntryRef<'_>> {
        self.corners
            .chunks_exact(2 * self.dims)
            .zip(&self.links)
            .map(|(corners, &(count, child))| EntryRef {
                corners,
                count,
                child,
            })
    }

    /// Position of the entry pointing to `child`.
    pub(crate) fn position_of(&self, child: Child) -> Option<usize> {
        self.links.iter().position(|&(_, c)| c == child)
    }

    /// Appends an entry given by its corners.
    pub(crate) fn push(&mut self, lo: &[f64], hi: &[f64], count: u32, child: Child) {
        assert!(
            lo.len() == self.dims && hi.len() == self.dims,
            "entry dimensionality mismatch"
        );
        self.corners.extend_from_slice(lo);
        self.corners.extend_from_slice(hi);
        self.links.push((count, child));
    }

    /// Appends an owned entry.
    pub(crate) fn push_entry(&mut self, e: &Entry) {
        self.push(&e.mbr.lo, &e.mbr.hi, e.count, e.child);
    }

    /// Removes entry `i` by moving the last entry into its place, and
    /// returns it.
    pub(crate) fn swap_remove(&mut self, i: usize) -> Entry {
        let removed = self.entry(i).to_entry();
        let w = 2 * self.dims;
        let last = self.len() - 1;
        self.corners.copy_within(last * w.., i * w);
        self.corners.truncate(last * w);
        self.links.swap_remove(i);
        removed
    }

    /// Overwrites the MBR and count of entry `i`, keeping its child.
    pub(crate) fn set_mbr_and_count(&mut self, i: usize, mbr: &BoundingBox, count: u32) {
        let d = self.dims;
        let corners = &mut self.corners[2 * d * i..2 * d * (i + 1)];
        corners[..d].copy_from_slice(&mbr.lo);
        corners[d..].copy_from_slice(&mbr.hi);
        self.links[i].0 = count;
    }

    /// Tight MBR over the node's entries (None if the node is empty).
    pub(crate) fn mbr(&self) -> Option<BoundingBox> {
        let mut entries = self.entries();
        let first = entries.next()?;
        let (mut lo, mut hi) = (first.lo().to_vec(), first.hi().to_vec());
        for e in entries {
            for (l, x) in lo.iter_mut().zip(e.lo()) {
                *l = l.min(*x);
            }
            for (h, x) in hi.iter_mut().zip(e.hi()) {
                *h = h.max(*x);
            }
        }
        Some(BoundingBox::new(lo, hi))
    }

    /// Total record count over the node's entries.
    pub(crate) fn total_count(&self) -> u32 {
        self.links.iter().map(|&(count, _)| count).sum()
    }
}

/// Volume of the box `[lo, hi]`, as [`BoundingBox::volume`] computes it.
pub(crate) fn volume(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter().zip(hi).map(|(l, h)| (h - l).max(0.0)).product()
}

/// Margin (perimeter generalisation) of the box `[lo, hi]`.
pub(crate) fn margin(lo: &[f64], hi: &[f64]) -> f64 {
    lo.iter().zip(hi).map(|(l, h)| h - l).sum()
}

/// Overlap (intersection volume) of two boxes.
pub(crate) fn overlap(a: &BoundingBox, b: &BoundingBox) -> f64 {
    overlap_corners(&a.lo, &a.hi, &b.lo, &b.hi)
}

/// Overlap of the boxes `[alo, ahi]` and `[blo, bhi]`.
pub(crate) fn overlap_corners(alo: &[f64], ahi: &[f64], blo: &[f64], bhi: &[f64]) -> f64 {
    alo.iter()
        .zip(ahi)
        .zip(blo.iter().zip(bhi))
        .map(|((al, ah), (bl, bh))| (ah.min(*bh) - al.max(*bl)).max(0.0))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_record_shape() {
        let e = Entry::record(7, &[0.25, 0.5]);
        assert_eq!(e.count, 1);
        assert_eq!(e.child, Child::Record(7));
        assert_eq!(volume(&e.mbr.lo, &e.mbr.hi), 0.0);
        assert_eq!(margin(&e.mbr.lo, &e.mbr.hi), 0.0);
    }

    #[test]
    fn node_mbr_and_count() {
        let mut n = Node::new(0, 2);
        assert!(n.mbr().is_none());
        n.push_entry(&Entry::record(0, &[0.1, 0.2]));
        n.push_entry(&Entry::record(1, &[0.6, 0.9]));
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo, vec![0.1, 0.2]);
        assert_eq!(mbr.hi, vec![0.6, 0.9]);
        assert_eq!(n.total_count(), 2);
    }

    #[test]
    fn columns_stay_in_step() {
        let mut n = Node::new(1, 2);
        for i in 0..4u32 {
            let x = f64::from(i) / 4.0;
            n.push(&[x, 0.0], &[x + 0.1, 0.5], i + 1, Child::Node(i));
        }
        let removed = n.swap_remove(1);
        assert_eq!(removed.child, Child::Node(1));
        assert_eq!(removed.count, 2);
        assert_eq!(removed.mbr.lo, vec![0.25, 0.0]);
        let children: Vec<Child> = n.entries().map(|e| e.child).collect();
        assert_eq!(children, [Child::Node(0), Child::Node(3), Child::Node(2)]);
        assert_eq!(n.position_of(Child::Node(2)), Some(2));
        assert_eq!(n.position_of(Child::Node(1)), None);
        let moved = n.entry(1);
        assert_eq!(
            (moved.lo(), moved.hi(), moved.count),
            (&[0.75, 0.0][..], &[0.85, 0.5][..], 4)
        );
        n.set_mbr_and_count(0, &BoundingBox::new(vec![0.0, 0.1], vec![0.2, 0.3]), 9);
        let first = n.entry(0);
        assert_eq!(
            (first.lo(), first.hi(), first.count),
            (&[0.0, 0.1][..], &[0.2, 0.3][..], 9)
        );
        assert_eq!(n.entries().len(), 3);
        assert_eq!(n.swap_remove(2).child, Child::Node(2));
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn overlap_volume() {
        let a = BoundingBox::new(vec![0.0, 0.0], vec![0.5, 0.5]);
        let b = BoundingBox::new(vec![0.25, 0.25], vec![1.0, 1.0]);
        assert!((overlap(&a, &b) - 0.0625).abs() < 1e-12);
        let c = BoundingBox::new(vec![0.6, 0.6], vec![1.0, 1.0]);
        assert_eq!(overlap(&a, &c), 0.0);
        assert!((a.union(&b).volume() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        RStarConfig {
            max_entries: 10,
            min_entries: 4,
            reinsert_count: 3,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn config_invalid_min() {
        RStarConfig {
            max_entries: 10,
            min_entries: 6,
            reinsert_count: 3,
        }
        .validate();
    }
}
