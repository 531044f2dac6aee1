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

/// A node entry: minimum bounding rectangle, aggregate record count of the
/// subtree, and the child reference.
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

    /// Area of the entry's MBR.
    pub fn area(&self) -> f64 {
        self.mbr.volume()
    }

    /// Margin (perimeter generalisation) of the entry's MBR.
    pub fn margin(&self) -> f64 {
        self.mbr
            .lo
            .iter()
            .zip(&self.mbr.hi)
            .map(|(l, h)| h - l)
            .sum()
    }
}

/// A tree node: its level (0 = leaf) and its entries.
#[derive(Debug, Clone)]
pub struct Node {
    /// Level of the node; leaves are at level 0.
    pub level: u32,
    /// The node's entries.
    pub entries: Vec<Entry>,
}

impl Node {
    /// Tight MBR over the node's entries (None if the node is empty).
    pub fn mbr(&self) -> Option<BoundingBox> {
        let (first, rest) = self.entries.split_first()?;
        let mut mbr = first.mbr.clone();
        for e in rest {
            for (lo, x) in mbr.lo.iter_mut().zip(&e.mbr.lo) {
                *lo = lo.min(*x);
            }
            for (hi, x) in mbr.hi.iter_mut().zip(&e.mbr.hi) {
                *hi = hi.max(*x);
            }
        }
        Some(mbr)
    }

    /// Total record count over the node's entries.
    pub fn total_count(&self) -> u32 {
        self.entries.iter().map(|e| e.count).sum()
    }
}

/// Overlap (intersection volume) of two boxes.
pub(crate) fn overlap(a: &BoundingBox, b: &BoundingBox) -> f64 {
    a.lo.iter()
        .zip(&a.hi)
        .zip(b.lo.iter().zip(&b.hi))
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
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.margin(), 0.0);
    }

    #[test]
    fn node_mbr_and_count() {
        let n = Node {
            level: 0,
            entries: vec![Entry::record(0, &[0.1, 0.2]), Entry::record(1, &[0.6, 0.9])],
        };
        let mbr = n.mbr().unwrap();
        assert_eq!(mbr.lo, vec![0.1, 0.2]);
        assert_eq!(mbr.hi, vec![0.6, 0.9]);
        assert_eq!(n.total_count(), 2);
        let empty = Node {
            level: 0,
            entries: vec![],
        };
        assert!(empty.mbr().is_none());
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
