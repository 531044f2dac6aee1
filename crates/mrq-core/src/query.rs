//! A convenient façade over the three MaxRank algorithms.

use crate::ba::AlgoConfig;
use crate::result::MaxRankResult;
use crate::{aa, aa2d, ba, fca};
use mrq_data::{Dataset, RecordId};
use mrq_index::{count_reads, RStarTree};
use mrq_quadtree::QuadTreeConfig;
use std::time::Instant;

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The specialised AA for `d = 2`, BA for `d = 3`, the general AA
    /// otherwise.  The paper prefers AA because it reads fewer pages of a
    /// disk-resident R\*-tree; with the index in memory, at `d = 3`, AA reads
    /// almost as many pages as BA and pays for its enumeration rounds and
    /// BBS expansions, so BA is faster there.  Higher `d` keeps AA until BA
    /// is measured at the sizes of the registered paper datasets (ROADMAP
    /// item 7).
    #[default]
    Auto,
    /// First-cut algorithm (Section 4), `d = 2` only.
    Fca,
    /// Basic approach (Section 5).
    BasicApproach,
    /// Advanced approach (Section 6).
    AdvancedApproach,
    /// Advanced approach specialised for `d = 2` (Section 6.3).
    AdvancedApproach2D,
}

impl Algorithm {
    /// The short name used by the CLI and the service protocol.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Fca => "fca",
            Algorithm::BasicApproach => "ba",
            Algorithm::AdvancedApproach => "aa",
            Algorithm::AdvancedApproach2D => "aa2d",
        }
    }

    /// Parses a short algorithm name (`auto`, `fca`, `ba`, `aa`, `aa2d`).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        match name {
            "auto" => Some(Algorithm::Auto),
            "fca" => Some(Algorithm::Fca),
            "ba" => Some(Algorithm::BasicApproach),
            "aa" => Some(Algorithm::AdvancedApproach),
            "aa2d" => Some(Algorithm::AdvancedApproach2D),
            _ => None,
        }
    }

    /// Resolves `Auto` to the concrete algorithm the engine would pick for
    /// dimensionality `d`: the specialised AA for `d = 2`, BA for `d = 3`,
    /// the general AA otherwise.
    pub fn resolve(&self, dims: usize) -> Algorithm {
        match (self, dims) {
            (Algorithm::Auto, 2) => Algorithm::AdvancedApproach2D,
            (Algorithm::Auto, 3) => Algorithm::BasicApproach,
            (Algorithm::Auto, _) => Algorithm::AdvancedApproach,
            (other, _) => *other,
        }
    }

    /// Whether the algorithm only supports two-dimensional data.
    pub fn requires_2d(&self) -> bool {
        matches!(self, Algorithm::Fca | Algorithm::AdvancedApproach2D)
    }
}

/// Configuration of one MaxRank evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxRankConfig {
    /// iMaxRank slack `τ` (0 = plain MaxRank).
    pub tau: usize,
    /// Algorithm selection.
    pub algorithm: Algorithm,
    /// Whether the within-leaf pairwise pruning conditions are used (BA / AA
    /// on the LP path, d ≥ 4, only; d = 3 takes the planar path).
    pub pair_pruning: bool,
    /// Whether the within-leaf witness cache is used (BA / AA on the LP
    /// path, d ≥ 4, only; the answer is identical either way).
    pub witness_cache: bool,
    /// Optional quad-tree tuning (BA / AA only).
    pub quadtree: Option<QuadTreeConfig>,
    /// Threads for the within-leaf cell enumeration (BA / AA only; 0 and 1
    /// both mean sequential).  The answer is identical for any value.
    pub threads: usize,
}

impl MaxRankConfig {
    /// Plain MaxRank with the default (Auto) algorithm.
    pub fn new() -> Self {
        Self {
            tau: 0,
            algorithm: Algorithm::Auto,
            pair_pruning: true,
            witness_cache: true,
            quadtree: None,
            threads: 1,
        }
    }

    /// iMaxRank with slack `tau`.
    pub fn with_tau(tau: usize) -> Self {
        Self { tau, ..Self::new() }
    }

    /// Selects an explicit algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Shards the cell enumeration over `threads` worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn algo_config(&self) -> AlgoConfig {
        AlgoConfig {
            quadtree: self.quadtree,
            pair_pruning: self.pair_pruning,
            witness_cache: self.witness_cache,
            threads: self.threads.max(1),
        }
    }
}

/// A MaxRank query engine bound to a dataset and its R\*-tree index.
pub struct MaxRankQuery<'a> {
    data: &'a Dataset,
    tree: &'a RStarTree,
}

impl<'a> MaxRankQuery<'a> {
    /// Binds the engine to a dataset and its index.
    ///
    /// # Panics
    /// Panics if the index dimensionality differs from the dataset's.
    pub fn new(data: &'a Dataset, tree: &'a RStarTree) -> Self {
        assert_eq!(
            data.dims(),
            tree.dims(),
            "index and dataset dimensionality differ"
        );
        Self { data, tree }
    }

    /// The underlying dataset.
    pub fn data(&self) -> &Dataset {
        self.data
    }

    /// The underlying index.
    pub fn tree(&self) -> &RStarTree {
        self.tree
    }

    /// Evaluates MaxRank / iMaxRank for a focal record of the dataset.
    pub fn evaluate(&self, focal_id: RecordId, config: &MaxRankConfig) -> MaxRankResult {
        let p = self.data.record(focal_id).to_vec();
        self.dispatch(&p, Some(focal_id), config)
    }

    /// Evaluates MaxRank / iMaxRank for an arbitrary focal point (a "what-if"
    /// record that does not belong to the dataset).
    pub fn evaluate_point(&self, p: &[f64], config: &MaxRankConfig) -> MaxRankResult {
        self.dispatch(p, None, config)
    }

    /// Runs the selected algorithm and charges it the wall-clock time and
    /// the page reads of the calling thread (every R\*-tree read of an
    /// evaluation happens on this thread).
    fn dispatch(
        &self,
        p: &[f64],
        focal_id: Option<RecordId>,
        config: &MaxRankConfig,
    ) -> MaxRankResult {
        let start = Instant::now();
        let (mut result, io_reads) = count_reads(|| self.run(p, focal_id, config));
        result.stats.io_reads = io_reads;
        result.stats.cpu_time = start.elapsed();
        result
    }

    fn run(&self, p: &[f64], focal_id: Option<RecordId>, config: &MaxRankConfig) -> MaxRankResult {
        let ac = config.algo_config();
        match config.algorithm.resolve(self.data.dims()) {
            Algorithm::Fca => fca::run_point(self.data, self.tree, p, focal_id, config.tau),
            Algorithm::BasicApproach => {
                ba::run_point(self.data, self.tree, p, focal_id, config.tau, &ac)
            }
            Algorithm::AdvancedApproach => {
                aa::run_point(self.data, self.tree, p, focal_id, config.tau, &ac)
            }
            Algorithm::AdvancedApproach2D => {
                aa2d::run_point(self.data, self.tree, p, focal_id, config.tau, &ac)
            }
            Algorithm::Auto => unreachable!("Auto resolved above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn auto_selects_specialised_2d() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = synthetic::generate(Distribution::Independent, 100, 2, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let auto = engine.evaluate(5, &MaxRankConfig::new());
        let explicit = engine.evaluate(
            5,
            &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach2D),
        );
        assert_eq!(auto.k_star, explicit.k_star);
        let fca = engine.evaluate(5, &MaxRankConfig::new().with_algorithm(Algorithm::Fca));
        assert_eq!(auto.k_star, fca.k_star);
    }

    #[test]
    fn auto_resolves_to_aa2d_in_2d_ba_in_3d_and_aa_above() {
        assert_eq!(Algorithm::Auto.resolve(2), Algorithm::AdvancedApproach2D);
        assert_eq!(Algorithm::Auto.resolve(3), Algorithm::BasicApproach);
        for d in 4..=9 {
            assert_eq!(
                Algorithm::Auto.resolve(d),
                Algorithm::AdvancedApproach,
                "d = {d}"
            );
        }
        assert_eq!(
            Algorithm::AdvancedApproach.resolve(3),
            Algorithm::AdvancedApproach
        );
    }

    #[test]
    fn all_algorithms_agree_in_3d() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = synthetic::generate(Distribution::Independent, 150, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let aa = engine.evaluate(
            9,
            &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach),
        );
        let ba = engine.evaluate(
            9,
            &MaxRankConfig::new().with_algorithm(Algorithm::BasicApproach),
        );
        assert_eq!(aa.k_star, ba.k_star);
    }

    #[test]
    fn what_if_point_evaluation() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic::generate(Distribution::Independent, 200, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        // A hypothetical product not yet in the catalogue.
        let res = engine.evaluate_point(&[0.7, 0.2, 0.6], &MaxRankConfig::with_tau(1));
        assert!(res.k_star >= 1);
        for region in &res.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(&[0.7, 0.2, 0.6], &q), region.order);
        }
    }

    #[test]
    fn concurrent_evaluations_are_charged_their_own_page_reads() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = synthetic::generate(Distribution::Independent, 400, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let config = MaxRankConfig::new();
        let focals: Vec<RecordId> = (0..40).map(|i| i * 7).collect();
        let sequential: Vec<u64> = focals
            .iter()
            .map(|&f| engine.evaluate(f, &config).stats.io_reads)
            .collect();
        assert!(sequential.iter().all(|&io| io > 0));
        // Four evaluating threads on one tree, each also sharding its cell
        // enumeration over two more.
        let sharded = config.with_threads(2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for (&f, &io) in focals.iter().zip(&sequential) {
                        assert_eq!(engine.evaluate(f, &sharded).stats.io_reads, io);
                    }
                });
            }
        });
    }

    #[test]
    fn config_builders() {
        let c = MaxRankConfig::with_tau(3).with_algorithm(Algorithm::BasicApproach);
        assert_eq!(c.tau, 3);
        assert_eq!(c.algorithm, Algorithm::BasicApproach);
        assert!(c.pair_pruning);
    }
}
