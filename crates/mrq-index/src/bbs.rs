//! Branch-and-Bound Skyline (BBS) with incremental maintenance through
//! *deferral buckets*.
//!
//! The advanced approach (AA) of the paper maintains the skyline of the
//! incomparable records and *expands* skyline records on demand; when a
//! record is expanded it is removed from the skyline and the records it was
//! implicitly subsuming must surface (paper §6.2).  The paper implements this
//! by letting BBS "reuse its search heap ... without re-accessing the same
//! R\*-tree nodes".  [`IncrementalSkyline`] realises that idea explicitly:
//!
//! * entries popped from the best-first heap that are dominated by a *live*
//!   skyline record are parked in that record's deferral bucket instead of
//!   being discarded;
//! * expanding a skyline record flushes its bucket back into the heap, so the
//!   entries (and only those) are reconsidered;
//! * every R\*-tree node is read at most once over the whole lifetime of the
//!   structure, no matter how many expansions happen.
//!
//! Records that dominate or are dominated by the focal record are filtered
//! out: the structure maintains the skyline of the *incomparable* records
//! only, which is exactly what AA consumes.
//!
//! Nothing is allocated per entry.  A heap item is the entry's key and its
//! position in the tree the structure already borrows; the live skyline keeps its points as references into the
//! tree and, for the dominance scans, once more as one flat array.  The
//! deferral buckets sit in a vector in step with the live skyline (bucket
//! `i` belongs to skyline record `i`), so expanding a record `swap_remove`s
//! the same index from the skyline, the flat points and the buckets, and
//! keeps the flushed bucket for the next record to join.
//! [`crate::k_skyband`] walks the tree with the same heap items.

use crate::iostats::record_read;
use crate::rstar::{Child, EntryRef, RStarTree};
use mrq_data::RecordId;
use std::collections::BinaryHeap;

/// A heap item of a best-first traversal: an entry (sub-tree or record),
/// as its node and slot in the tree, keyed by the L1 norm of its upper
/// corner (best possible attribute sum), popped largest first.
#[derive(Clone, Copy)]
pub(crate) struct HeapItem {
    key: f64,
    node: u32,
    slot: u32,
}

impl HeapItem {
    /// The entry this item stands for.
    pub(crate) fn entry<'a>(&self, tree: &'a RStarTree) -> EntryRef<'a> {
        tree.nodes[self.node as usize].entry(self.slot as usize)
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Reads node `idx` (one page read) and pushes its entries, in node order.
pub(crate) fn read_node(tree: &RStarTree, idx: usize, heap: &mut BinaryHeap<HeapItem>) {
    record_read();
    for (slot, entry) in tree.nodes[idx].entries().enumerate() {
        heap.push(HeapItem {
            key: entry.hi().iter().sum(),
            node: idx as u32,
            slot: slot as u32,
        });
    }
}

/// Focal-record pruning: true when the box `[lo, hi]` holds only dominators
/// or duplicates of `focal` (`lo ≥ focal`), or only dominees or duplicates
/// (`hi ≤ focal`), so it contains no record incomparable to it.
pub(crate) fn only_comparable(lo: &[f64], hi: &[f64], focal: &[f64]) -> bool {
    lo.iter().zip(focal).all(|(l, p)| l >= p) || hi.iter().zip(focal).all(|(h, p)| h <= p)
}

/// Incrementally maintained skyline of the records incomparable to a focal
/// point, backed by BBS over the aggregate R\*-tree.
pub struct IncrementalSkyline<'a> {
    tree: &'a RStarTree,
    focal: Vec<f64>,
    focal_id: Option<RecordId>,
    heap: BinaryHeap<HeapItem>,
    /// Live skyline: record id and its point, borrowed from the tree.
    skyline: Vec<(RecordId, &'a [f64])>,
    /// The live skyline's points again, flat with stride `d`, in step with
    /// `skyline`.
    points: Vec<f64>,
    /// Deferral buckets, in step with `skyline`: `buckets[i]` holds the
    /// entries whose upper corner `skyline[i]` is the first to dominate.
    buckets: Vec<Vec<HeapItem>>,
    /// Flushed (empty) buckets, kept for the next records to join.
    spare: Vec<Vec<HeapItem>>,
    /// Records that have been expanded (removed from the skyline for good).
    expanded: Vec<RecordId>,
}

impl<'a> IncrementalSkyline<'a> {
    /// Builds the structure and computes the initial skyline of the records
    /// incomparable to `focal`.
    pub fn new(tree: &'a RStarTree, focal: &[f64], focal_id: Option<RecordId>) -> Self {
        assert_eq!(focal.len(), tree.dims());
        let mut this = Self {
            tree,
            focal: focal.to_vec(),
            focal_id,
            heap: BinaryHeap::new(),
            skyline: Vec::new(),
            points: Vec::new(),
            buckets: Vec::new(),
            spare: Vec::new(),
            expanded: Vec::new(),
        };
        if let Some(bounds) = tree.bounding_box() {
            // The root is the first and only entry of a fresh heap: nothing
            // can defer it, so only the focal test can skip reading it.
            if !only_comparable(&bounds.lo, &bounds.hi, focal) {
                read_node(tree, tree.root, &mut this.heap);
                this.drain();
            }
        }
        this
    }

    /// The current (live) skyline of non-expanded incomparable records.
    pub fn skyline(&self) -> &[(RecordId, &'a [f64])] {
        &self.skyline
    }

    /// Records expanded so far, in expansion order.
    pub fn expanded(&self) -> &[RecordId] {
        &self.expanded
    }

    /// Expands a live skyline record: removes it from the skyline, flushes its
    /// deferral bucket, and returns the records that newly joined the skyline
    /// as a consequence, in the order they joined.
    ///
    /// # Panics
    /// Panics if `id` is not currently on the live skyline.
    pub fn expand(&mut self, id: RecordId) -> &[(RecordId, &'a [f64])] {
        let pos = self
            .skyline
            .iter()
            .position(|(rid, _)| *rid == id)
            .expect("expanded record must be on the live skyline");
        self.skyline.swap_remove(pos);
        let d = self.focal.len();
        let last = self.skyline.len();
        self.points.copy_within(last * d.., pos * d);
        self.points.truncate(last * d);
        let mut bucket = self.buckets.swap_remove(pos);
        self.expanded.push(id);
        // One push at a time: `BinaryHeap::extend` may rebuild the heap,
        // which would change the pop order among equal keys.
        for item in bucket.drain(..) {
            self.heap.push(item);
        }
        self.spare.push(bucket);
        // `drain` only appends to the skyline, so the newcomers are its tail.
        let before = self.skyline.len();
        self.drain();
        &self.skyline[before..]
    }

    /// Pops heap entries until it is empty, maintaining the live skyline and
    /// the deferral buckets.
    fn drain(&mut self) {
        let d = self.focal.len();
        while let Some(item) = self.heap.pop() {
            let entry = item.entry(self.tree);
            let (lo, hi) = (entry.lo(), entry.hi());
            // Sub-trees (or records) with no incomparable record are
            // irrelevant to the incomparable skyline.
            if only_comparable(lo, hi, &self.focal) {
                continue;
            }
            // Dominance against the live skyline: defer rather than discard.
            if let Some(owner) = self
                .points
                .chunks_exact(d)
                .position(|s| dominates_weakly(s, hi))
            {
                self.buckets[owner].push(item);
                continue;
            }
            match entry.child {
                Child::Record(id) => {
                    if Some(id) == self.focal_id {
                        continue;
                    }
                    // The point is incomparable (checked above) and not
                    // dominated by any live skyline record: it joins the
                    // skyline.
                    self.skyline.push((id, hi));
                    self.points.extend_from_slice(hi);
                    self.buckets.push(self.spare.pop().unwrap_or_default());
                }
                Child::Node(idx) => read_node(self.tree, idx as usize, &mut self.heap),
            }
        }
    }
}

/// `a` weakly dominates `b`: every coordinate of `a` is ≥ the corresponding
/// coordinate of `b`.  Weak dominance is the right test for pruning sub-trees
/// by their upper corner (records equal to a skyline point are duplicates and
/// may be deferred safely).
fn dominates_weakly(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::count_reads;
    use mrq_data::{naive_skyline, partition_by_focal, synthetic, Dataset, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    fn check_matches_naive(data: &Dataset, focal_id: RecordId) {
        let tree = RStarTree::bulk_load(data);
        let p = data.record(focal_id).to_vec();
        let sky = IncrementalSkyline::new(&tree, &p, Some(focal_id));
        let part = partition_by_focal(data, &p, Some(focal_id));
        let mut expected = naive_skyline(data, &part.incomparable);
        expected.sort_unstable();
        let mut got: Vec<RecordId> = sky.skyline().iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    /// Expands `id` and checks the returned newcomers against the
    /// snapshot/filter definition: the records live after the expansion that
    /// were not live before it, in skyline order.
    fn expand_checked(sky: &mut IncrementalSkyline<'_>, id: RecordId) -> Vec<RecordId> {
        let before: Vec<RecordId> = sky.skyline().iter().map(|(rid, _)| *rid).collect();
        let got: Vec<RecordId> = sky.expand(id).iter().map(|(rid, _)| *rid).collect();
        let expected: Vec<RecordId> = sky
            .skyline()
            .iter()
            .map(|(rid, _)| *rid)
            .filter(|rid| !before.contains(rid))
            .collect();
        assert_eq!(got, expected, "newcomers of expanding {id}");
        got
    }

    #[test]
    fn initial_skyline_matches_naive() {
        let mut rng = StdRng::seed_from_u64(11);
        for d in 2..=4 {
            let data = synthetic::generate(Distribution::Independent, 500, d, &mut rng);
            check_matches_naive(&data, 17);
        }
    }

    #[test]
    fn initial_skyline_anticorrelated() {
        let mut rng = StdRng::seed_from_u64(12);
        let data = synthetic::generate(Distribution::AntiCorrelated, 800, 3, &mut rng);
        check_matches_naive(&data, 3);
    }

    #[test]
    fn expansion_reveals_next_layer() {
        // Figure 6 of the paper: expanding a skyline record surfaces exactly
        // the records it implicitly subsumed (its dominees not dominated by
        // any other live skyline record).
        let data = Dataset::from_rows(
            2,
            &[
                vec![0.5, 0.5],   // 0: focal
                vec![0.9, 0.45],  // 1: skyline (incomparable to the focal)
                vec![0.3, 0.95],  // 2: skyline
                vec![0.85, 0.45], // 3: subsumed under 1
                vec![0.75, 0.3],  // 4: subsumed under 3 (nested subsumption)
                vec![0.25, 0.9],  // 5: subsumed under 2
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        let p = data.record(0).to_vec();
        let mut sky = IncrementalSkyline::new(&tree, &p, Some(0));
        let mut initial: Vec<RecordId> = sky.skyline().iter().map(|(id, _)| *id).collect();
        initial.sort_unstable();
        assert_eq!(initial, vec![1, 2]);
        // Expanding record 1 surfaces 3 (dominated only by 1), but not 4
        // (dominated by 3, which is now live).
        assert_eq!(expand_checked(&mut sky, 1), vec![3]);
        // Expanding 3 surfaces 4.
        assert_eq!(expand_checked(&mut sky, 3), vec![4]);
        // Expanding 2 surfaces 5.
        assert_eq!(expand_checked(&mut sky, 2), vec![5]);
        assert_eq!(sky.expanded(), &[1, 3, 2]);
    }

    #[test]
    fn full_expansion_enumerates_all_incomparable_records() {
        // Repeatedly expanding every skyline record must eventually surface
        // every incomparable record exactly once.
        let mut rng = StdRng::seed_from_u64(13);
        let data = synthetic::generate(Distribution::Independent, 300, 3, &mut rng);
        let focal_id = 42u32;
        let p = data.record(focal_id).to_vec();
        let tree = RStarTree::bulk_load(&data);
        let mut sky = IncrementalSkyline::new(&tree, &p, Some(focal_id));
        let mut seen: Vec<RecordId> = Vec::new();
        loop {
            let live: Vec<RecordId> = sky.skyline().iter().map(|(id, _)| *id).collect();
            if live.is_empty() {
                break;
            }
            for id in live {
                // A record may have been surfaced and expanded within this
                // round; guard against double expansion.
                if sky.skyline().iter().any(|(rid, _)| *rid == id) {
                    seen.push(id);
                    expand_checked(&mut sky, id);
                }
            }
        }
        let part = partition_by_focal(&data, &p, Some(focal_id));
        let mut expected = part.incomparable.clone();
        expected.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn nodes_read_at_most_once() {
        let mut rng = StdRng::seed_from_u64(14);
        let data = synthetic::generate(Distribution::Independent, 2000, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let p = data.record(7).to_vec();
        let ((), reads) = count_reads(|| {
            let mut sky = IncrementalSkyline::new(&tree, &p, Some(7));
            // Expand everything.
            loop {
                let live: Vec<RecordId> = sky.skyline().iter().map(|(id, _)| *id).collect();
                if live.is_empty() {
                    break;
                }
                for id in live {
                    if sky.skyline().iter().any(|(rid, _)| *rid == id) {
                        expand_checked(&mut sky, id);
                    }
                }
            }
        });
        assert!(
            reads <= tree.node_count() as u64,
            "every node must be read at most once ({reads} reads, {} nodes)",
            tree.node_count()
        );
    }

    #[test]
    fn empty_tree_yields_empty_skyline() {
        let tree = RStarTree::new(2);
        let sky = IncrementalSkyline::new(&tree, &[0.5, 0.5], None);
        assert!(sky.skyline().is_empty());
    }

    #[test]
    fn skyline_cheaper_than_full_scan_io() {
        // AA's motivation: the skyline needs far fewer node reads than reading
        // all incomparable records (correlated data makes this stark).
        let mut rng = StdRng::seed_from_u64(15);
        let data = synthetic::generate(Distribution::Correlated, 5000, 4, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let p = data.record(11).to_vec();
        let (_, skyline_io) = count_reads(|| IncrementalSkyline::new(&tree, &p, Some(11)));
        let (_, scan_io) = count_reads(|| tree.incomparable_ids(&p, Some(11)));
        assert!(
            skyline_io < scan_io,
            "skyline I/O {skyline_io} should be below incomparable-scan I/O {scan_io}"
        );
    }
}
