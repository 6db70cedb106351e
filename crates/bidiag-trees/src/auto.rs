//! The auto-adaptive domain size rule of the AUTO tree (Section V).
//!
//! The AUTO tree combines FLATTS sub-trees of size `a` with a greedy TT tree
//! on top.  At each step of the factorization the domain size `a` is chosen
//! as large as possible (to benefit from the more efficient TS kernels)
//! while keeping enough ready tasks to feed the machine:
//!
//! ```text
//!   ceil(rows_in_panel / a) * trailing_cols  >=  gamma * ncores
//! ```
//!
//! The paper uses `gamma = 2`.

/// Compute the FLATTS domain size `a` for a panel with `rows_in_panel` tile
/// rows and `trailing_cols` trailing tile columns, on `ncores` cores with
/// over-provisioning factor `gamma`.
///
/// Returns a value in `1..=rows_in_panel` (at least 1 even for tiny panels).
pub fn auto_domain_size(
    rows_in_panel: usize,
    trailing_cols: usize,
    gamma: f64,
    ncores: usize,
) -> usize {
    if rows_in_panel <= 1 {
        return 1;
    }
    let target = (gamma * ncores as f64).max(1.0);
    let trailing = trailing_cols.max(1) as f64;
    // Largest a such that ceil(rows / a) * trailing >= target, i.e.
    // a <= rows / ceil(target / trailing)  (approximately).
    let needed_chunks = (target / trailing).ceil().max(1.0);
    let a = (rows_in_panel as f64 / needed_chunks).floor() as usize;
    a.clamp(1, rows_in_panel)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parallelism(rows: usize, trailing: usize, a: usize) -> f64 {
        (rows as f64 / a as f64).ceil() * trailing.max(1) as f64
    }

    #[test]
    fn small_panels_get_domain_one() {
        assert_eq!(auto_domain_size(1, 10, 2.0, 24), 1);
        assert_eq!(auto_domain_size(4, 1, 2.0, 24), 1);
    }

    #[test]
    fn large_panels_get_large_domains() {
        // Plenty of trailing columns: the panel alone does not need to supply
        // much parallelism, so domains can be big.
        let a = auto_domain_size(200, 100, 2.0, 24);
        assert!(a > 50, "expected large domains, got {a}");
        assert!(parallelism(200, 100, a) >= 48.0);
    }

    #[test]
    fn parallelism_constraint_is_respected_when_feasible() {
        for rows in [8usize, 32, 100, 500] {
            for trailing in [1usize, 4, 16, 64] {
                let ncores = 24;
                let gamma = 2.0;
                let a = auto_domain_size(rows, trailing, gamma, ncores);
                let par = parallelism(rows, trailing, a);
                let target = gamma * ncores as f64;
                // Either the constraint is met, or it is infeasible even with
                // a = 1 (not enough tasks at all), in which case a must be 1.
                if parallelism(rows, trailing, 1) >= target {
                    assert!(
                        par >= target,
                        "rows={rows} trailing={trailing} a={a} par={par}"
                    );
                } else {
                    assert_eq!(
                        a, 1,
                        "infeasible case must fall back to maximum parallelism"
                    );
                }
            }
        }
    }

    #[test]
    fn one_core_is_one_domain_until_the_last_two_panels() {
        // What `Ge2Options::new` relies on: at gamma * ncores = 2 the rule
        // gives one whole-panel FLATTS domain whenever two trailing columns
        // supply the parallelism, and halves the panel only when they don't.
        for rows in 2..=130usize {
            for trailing in 2..=12usize {
                assert_eq!(auto_domain_size(rows, trailing, 2.0, 1), rows);
            }
            for trailing in [0usize, 1] {
                assert_eq!(auto_domain_size(rows, trailing, 2.0, 1), rows / 2);
            }
        }
    }

    #[test]
    fn more_cores_means_smaller_domains() {
        let a_small = auto_domain_size(128, 8, 2.0, 4);
        let a_large = auto_domain_size(128, 8, 2.0, 64);
        assert!(a_large <= a_small);
    }
}
