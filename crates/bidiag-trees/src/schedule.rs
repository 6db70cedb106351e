//! Panel elimination schedules for a single QR (or LQ) step.

use serde::{Deserialize, Serialize};

/// Which tile kernel family an elimination uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElimKind {
    /// Triangle-on-square elimination (`TSQRT` + `TSMQR` updates): more
    /// efficient kernels but serialises the eliminations sharing a pivot.
    Ts,
    /// Triangle-on-triangle elimination (`TTQRT` + `TTMQR` updates): cheaper
    /// panel kernel and more parallelism, at lower kernel efficiency.
    Tt,
}

/// One elimination `elim(row, piv)`: the tile in row `row` of the panel is
/// zeroed against the tile in row `piv` (both indices are *global* tile-row
/// indices; for LQ steps they are global tile-column indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Elimination {
    /// Pivot row (stays non-zero; accumulates the reduction).
    pub piv: usize,
    /// Eliminated row (zeroed; holds the Householder vectors afterwards).
    pub row: usize,
    /// Kernel family.
    pub kind: ElimKind,
}

/// Shape of the TT tree combining domain heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopTree {
    /// Sequential chain onto the first head (FLATTT-style).
    Flat,
    /// Binomial tree: reduces `d` heads in `ceil(log2 d)` rounds; this is the
    /// paper's `GREEDY` tree for the bidiagonalization panels.
    Greedy,
    /// Fibonacci-flavoured tree: a round-based scheme in which the number of
    /// eliminations per round grows like the Fibonacci sequence.  Used as the
    /// default high-level distributed tree for square matrices, following
    /// DPLASMA's HQR defaults.
    Fibonacci,
}

/// Domain size for the bottom-level FLATTS chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainSize {
    /// One single domain spanning the whole panel (pure FLATTS).
    Whole,
    /// Singleton domains: every row is its own triangle (pure TT trees).
    One,
    /// Fixed-size domains of `a` consecutive rows (AUTO / DPLASMA default).
    Fixed(usize),
}

/// Configuration of the generic two-level panel reduction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Bottom-level FLATTS domain size.
    pub domain: DomainSize,
    /// Top-level TT tree combining the domain heads.
    pub top: TopTree,
}

impl TreeConfig {
    /// FLATTS preset.
    pub fn flat_ts() -> Self {
        Self {
            domain: DomainSize::Whole,
            top: TopTree::Flat,
        }
    }
    /// FLATTT preset.
    pub fn flat_tt() -> Self {
        Self {
            domain: DomainSize::One,
            top: TopTree::Flat,
        }
    }
    /// GREEDY preset.
    pub fn greedy() -> Self {
        Self {
            domain: DomainSize::One,
            top: TopTree::Greedy,
        }
    }
}

/// The schedule of one panel reduction.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PanelSchedule {
    /// Rows that receive a `GEQRT` (are factored into triangles) at the
    /// beginning of the step, in emission order.
    pub geqrt_rows: Vec<usize>,
    /// Ordered eliminations.  The order is a valid sequential execution
    /// order; the true parallelism is recovered from data dependencies.
    pub elims: Vec<Elimination>,
}

impl PanelSchedule {
    /// Number of eliminations.
    pub fn num_elims(&self) -> usize {
        self.elims.len()
    }

    /// The depth of the elimination tree in *rounds*, where eliminations that
    /// touch disjoint rows may share a round.  This is the idealised number
    /// of parallel panel stages (it ignores update kernels).
    pub fn depth(&self) -> usize {
        use std::collections::HashMap;
        // earliest round each row is free again
        let mut avail: HashMap<usize, usize> = HashMap::new();
        let mut depth = 0;
        for e in &self.elims {
            let start = avail
                .get(&e.piv)
                .copied()
                .unwrap_or(0)
                .max(avail.get(&e.row).copied().unwrap_or(0));
            let end = start + 1;
            avail.insert(e.piv, end);
            avail.insert(e.row, end);
            depth = depth.max(end);
        }
        depth
    }
}

/// Build the panel schedule for the given global row indices (ascending) and
/// tree configuration.  The first row of `rows` is the pivot that survives
/// the reduction.
pub fn panel_schedule(rows: &[usize], cfg: &TreeConfig) -> PanelSchedule {
    assert!(!rows.is_empty(), "panel must contain at least one row");
    debug_assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "rows must be strictly increasing"
    );

    let mut sched = PanelSchedule::default();

    // 1. Split rows into consecutive domains.
    let domain_size = match cfg.domain {
        DomainSize::Whole => rows.len(),
        DomainSize::One => 1,
        DomainSize::Fixed(a) => a.max(1),
    };
    let domains: Vec<&[usize]> = rows.chunks(domain_size).collect();

    // 2. Every domain head is factored into a triangle; the other rows of the
    //    domain are TS-eliminated onto the head, sequentially (flat TS chain).
    let mut heads = Vec::with_capacity(domains.len());
    for d in &domains {
        let head = d[0];
        heads.push(head);
        sched.geqrt_rows.push(head);
        for &r in &d[1..] {
            sched.elims.push(Elimination {
                piv: head,
                row: r,
                kind: ElimKind::Ts,
            });
        }
    }

    // 3. Combine the domain heads with the TT top tree.
    emit_top_tree(&heads, cfg.top, &mut sched.elims);

    sched
}

/// Emit the TT eliminations combining `heads` (ascending) onto `heads[0]`.
pub(crate) fn emit_top_tree(heads: &[usize], top: TopTree, out: &mut Vec<Elimination>) {
    let d = heads.len();
    if d <= 1 {
        return;
    }
    match top {
        TopTree::Flat => {
            for &h in &heads[1..] {
                out.push(Elimination {
                    piv: heads[0],
                    row: h,
                    kind: ElimKind::Tt,
                });
            }
        }
        TopTree::Greedy => {
            // Binomial combining: in round r, heads at distance 2^r merge.
            let mut stride = 1usize;
            while stride < d {
                let mut i = 0;
                while i + stride < d {
                    out.push(Elimination {
                        piv: heads[i],
                        row: heads[i + stride],
                        kind: ElimKind::Tt,
                    });
                    i += 2 * stride;
                }
                stride *= 2;
            }
        }
        TopTree::Fibonacci => {
            // Round-based scheme: alive heads are reduced from the bottom,
            // the number of eliminations in round r follows the Fibonacci
            // sequence (1, 1, 2, 3, 5, ...), each eliminated head paired with
            // the nearest alive head above it.
            let mut alive: Vec<usize> = heads.to_vec();
            let (mut f1, mut f2) = (1usize, 1usize);
            while alive.len() > 1 {
                let kills = f1.min(alive.len() - 1);
                // Eliminate the last `kills` alive heads, pairing each with a
                // distinct pivot chosen just above the killed block.
                let n = alive.len();
                let first_killed = n - kills;
                for t in 0..kills {
                    let row = alive[first_killed + t];
                    // Pivot: distribute over the surviving heads to keep the
                    // pairs disjoint within the round.
                    let piv = alive[(first_killed + t) % first_killed.max(1)];
                    out.push(Elimination {
                        piv,
                        row,
                        kind: ElimKind::Tt,
                    });
                }
                alive.truncate(first_killed);
                let next = f1 + f2;
                f1 = f2;
                f2 = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn flat_ts_is_a_single_chain() {
        let s = panel_schedule(&rows(6), &TreeConfig::flat_ts());
        assert_eq!(s.geqrt_rows, vec![0]);
        assert_eq!(s.num_elims(), 5);
        assert!(s.elims.iter().all(|e| e.kind == ElimKind::Ts && e.piv == 0));
        assert_eq!(s.depth(), 5);
    }

    #[test]
    fn flat_tt_factors_every_row() {
        let s = panel_schedule(&rows(6), &TreeConfig::flat_tt());
        assert_eq!(s.geqrt_rows.len(), 6);
        assert_eq!(s.num_elims(), 5);
        assert!(s.elims.iter().all(|e| e.kind == ElimKind::Tt && e.piv == 0));
    }

    #[test]
    fn greedy_has_logarithmic_depth() {
        for n in [2usize, 3, 4, 7, 8, 16, 33] {
            let s = panel_schedule(&rows(n), &TreeConfig::greedy());
            assert_eq!(s.num_elims(), n - 1, "n = {n}");
            let depth = s.depth();
            let expected = (n as f64).log2().ceil() as usize;
            assert_eq!(depth, expected, "binomial depth mismatch for n = {n}");
        }
    }

    #[test]
    fn greedy_first_round_pairs_disjoint_rows() {
        let s = panel_schedule(&rows(8), &TreeConfig::greedy());
        // First 4 eliminations are the stride-1 round and must touch 8
        // distinct rows.
        let mut touched = std::collections::HashSet::new();
        for e in &s.elims[..4] {
            assert!(touched.insert(e.piv));
            assert!(touched.insert(e.row));
        }
    }

    #[test]
    fn bounded_domains_mix_ts_and_tt() {
        let cfg = TreeConfig {
            domain: DomainSize::Fixed(4),
            top: TopTree::Greedy,
        };
        let s = panel_schedule(&rows(16), &cfg);
        assert_eq!(s.geqrt_rows, vec![0, 4, 8, 12]);
        let ts = s.elims.iter().filter(|e| e.kind == ElimKind::Ts).count();
        let tt = s.elims.iter().filter(|e| e.kind == ElimKind::Tt).count();
        assert_eq!(ts, 12);
        assert_eq!(tt, 3);
        assert_eq!(s.num_elims(), 15);
    }

    #[test]
    fn fibonacci_reduces_everything() {
        for n in [2usize, 5, 9, 14] {
            let mut elims = Vec::new();
            let heads: Vec<usize> = (0..n).collect();
            emit_top_tree(&heads, TopTree::Fibonacci, &mut elims);
            assert_eq!(elims.len(), n - 1, "n = {n}");
            // every row except 0 eliminated exactly once
            let mut seen = std::collections::HashSet::new();
            for e in &elims {
                assert!(seen.insert(e.row), "row {} eliminated twice", e.row);
                assert!(!seen.contains(&e.piv), "pivot {} already eliminated", e.piv);
            }
            assert!(!seen.contains(&0));
        }
    }

    #[test]
    fn single_row_panel_is_trivial() {
        let s = panel_schedule(&[3], &TreeConfig::greedy());
        assert_eq!(s.geqrt_rows, vec![3]);
        assert!(s.elims.is_empty());
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn schedules_work_on_non_contiguous_rows() {
        // LQ steps and hierarchical trees pass arbitrary ascending row sets.
        let r = vec![2, 5, 7, 11, 12];
        let s = panel_schedule(&r, &TreeConfig::greedy());
        assert_eq!(s.num_elims(), 4);
        for e in &s.elims {
            assert!(r.contains(&e.piv) && r.contains(&e.row));
        }
    }
}
