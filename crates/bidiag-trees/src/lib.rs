//! # bidiag-trees
//!
//! Reduction trees for tiled QR/LQ panel eliminations.
//!
//! A *panel schedule* describes how one QR step (or, symmetrically, one LQ
//! step) reduces a set of tile rows onto the topmost row:
//!
//! * which rows receive a `GEQRT` (i.e. are turned into triangles),
//! * an ordered list of eliminations `elim(row, piv)` with either TS
//!   (triangle-on-square) or TT (triangle-on-triangle) kernels.
//!
//! The trees studied in the paper are expressed as configurations of a
//! single generic construction ([`TreeConfig`]): rows are grouped into
//! consecutive *domains* reduced by a flat TS chain onto their head, and the
//! domain heads are then combined by a *top tree* of TT eliminations:
//!
//! | paper name | domains            | top tree  |
//! |------------|--------------------|-----------|
//! | `FLATTS`   | one domain (all)   | (none)    |
//! | `FLATTT`   | singleton domains  | flat      |
//! | `GREEDY`   | singleton domains  | binomial  |
//! | `AUTO`     | domains of size `a(step)` | binomial (greedy) |
//!
//! The distributed-memory trees of Section V are built by
//! [`hierarchical_schedule`]: rows are first grouped by the process row that
//! owns them (2D block-cyclic distribution), reduced locally with a
//! shared-memory configuration, and the per-process heads are combined by a
//! high-level tree (flat, greedy or Fibonacci).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auto;
pub mod hier;
pub mod pipelined;
pub mod schedule;
pub mod validate;

pub use auto::auto_domain_size;
pub use hier::{hierarchical_schedule, HierConfig, HighLevelTree};
pub use pipelined::greedy_qr_schedules;
pub use schedule::{
    panel_schedule, DomainSize, ElimKind, Elimination, PanelSchedule, TopTree, TreeConfig,
};
pub use validate::validate_schedule;

use serde::{Deserialize, Serialize};

/// The named tree variants evaluated in the paper's experiments.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum NamedTree {
    /// Flat tree with TS kernels (PLASMA's historical choice).
    FlatTs,
    /// Flat tree with TT kernels.
    FlatTt,
    /// Binomial (greedy) tree with TT kernels.
    Greedy,
    /// Auto-adaptive tree: FLATTS domains of adaptive size combined by a
    /// greedy tree, sized so that parallelism >= `gamma * ncores`.
    Auto {
        /// Parallelism over-provisioning factor (the paper uses `gamma = 2`).
        gamma: f64,
        /// Number of cores the tree adapts to.
        ncores: usize,
    },
}

impl NamedTree {
    /// Resolve the named tree into a concrete [`TreeConfig`] for a panel of
    /// `rows_in_panel` rows with `trailing` trailing tile columns.
    ///
    /// For the static trees the result does not depend on the panel geometry;
    /// for [`NamedTree::Auto`] the domain size follows the adaptive rule of
    /// Section V of the paper.
    pub fn config_for(&self, rows_in_panel: usize, trailing: usize) -> TreeConfig {
        match *self {
            NamedTree::FlatTs => TreeConfig {
                domain: DomainSize::Whole,
                top: TopTree::Flat,
            },
            NamedTree::FlatTt => TreeConfig {
                domain: DomainSize::One,
                top: TopTree::Flat,
            },
            NamedTree::Greedy => TreeConfig {
                domain: DomainSize::One,
                top: TopTree::Greedy,
            },
            NamedTree::Auto { gamma, ncores } => {
                let a = auto_domain_size(rows_in_panel, trailing, gamma, ncores);
                TreeConfig {
                    domain: DomainSize::Fixed(a),
                    top: TopTree::Greedy,
                }
            }
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            NamedTree::FlatTs => "FlatTS",
            NamedTree::FlatTt => "FlatTT",
            NamedTree::Greedy => "Greedy",
            NamedTree::Auto { .. } => "Auto",
        }
    }

    /// The four variants benchmarked in the shared-memory experiments of the
    /// paper, for a machine with `ncores` cores.
    pub fn paper_variants(ncores: usize) -> Vec<NamedTree> {
        vec![
            NamedTree::FlatTs,
            NamedTree::FlatTt,
            NamedTree::Greedy,
            NamedTree::Auto { gamma: 2.0, ncores },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_tree_resolution() {
        let rows = 16;
        let flat_ts = NamedTree::FlatTs.config_for(rows, 4);
        assert_eq!(flat_ts.domain, DomainSize::Whole);
        let greedy = NamedTree::Greedy.config_for(rows, 4);
        assert_eq!(greedy.domain, DomainSize::One);
        assert_eq!(greedy.top, TopTree::Greedy);
        let auto = NamedTree::Auto {
            gamma: 2.0,
            ncores: 4,
        }
        .config_for(rows, 4);
        match auto.domain {
            DomainSize::Fixed(a) => assert!(a >= 1 && a <= rows),
            _ => panic!("auto must resolve to a fixed domain size"),
        }
    }

    #[test]
    fn names_and_variants() {
        assert_eq!(NamedTree::FlatTs.name(), "FlatTS");
        assert_eq!(
            NamedTree::Auto {
                gamma: 2.0,
                ncores: 24
            }
            .name(),
            "Auto"
        );
        assert_eq!(NamedTree::paper_variants(24).len(), 4);
    }
}
