//! `ft-apps` — the five SC14 application benchmarks as dynamic task graphs.
//!
//! Section VI evaluates the fault-tolerant scheduler on LCS,
//! Smith-Waterman, Floyd-Warshall, LU decomposition, and Cholesky
//! factorization, all blocked into tiles with the configurations of
//! Table I. Each module here implements one benchmark as a
//! [`nabbit_ft::graph::TaskGraph`] over a versioned
//! [`nabbit_ft::blocks::BlockStore`], plus an independent sequential
//! reference implementation used to verify results (Theorem 1: identical
//! results with and without faults). Each app states its predecessors
//! once; its successors and out-degree are derived from them at
//! construction.
//!
//! Memory-reuse strategies follow the paper:
//!
//! | app      | blocks              | versions          | retention |
//! |----------|---------------------|-------------------|-----------|
//! | LCS      | one per tile        | 1 (single-assign) | KeepAll   |
//! | SW       | one per tile column | one per tile row  | KeepLast(2) |
//! | FW       | one per tile        | one per round     | KeepLast(2) (paper) or KeepLast(1) (ablation) |
//! | LU       | one per tile        | one per update    | KeepLast(2) |
//! | Cholesky | one per tile        | one per update    | KeepLast(2) |
//!
//! Where eviction could outrun a reader (SW's diagonal read, FW's row/col
//! broadcasts), the task graphs carry explicit **anti-dependence edges** so
//! that "all uses of a data block causally precede a subsequent definition"
//! (Section II) — these extra edges are what reconciles our edge counts with
//! the paper's Table I (e.g. FW: ~187k data-flow edges + ~122k anti edges ≈
//! the paper's 308,880).

#![warn(missing_docs)]

pub mod cholesky;
pub mod common;
pub mod fw;
pub mod lcs;
pub mod lu;
pub mod sw;
mod tile;

pub use common::{AppConfig, BenchApp, VersionClass};

#[cfg(test)]
mod tests {
    use super::*;
    use nabbit_ft::analysis::graph_stats;
    use nabbit_ft::graph::TaskGraph;

    /// The scheduler fills its scratch buffer through `predecessors_into`
    /// and sizes a descriptor's notify cells by `out_degree`; both must
    /// agree with the list-returning callbacks — order included, because a
    /// predecessor's position in the list is its notification bit index.
    /// Recovery rebuilds a notify array from `successors`, so every edge
    /// must appear in both directions.
    fn assert_callbacks_agree(name: &str, g: &dyn TaskGraph) {
        let mut scratch = vec![-1; 3]; // stale content a callback must clear
        for k in nabbit_ft::seq::discover(g) {
            g.predecessors_into(k, &mut scratch);
            assert_eq!(scratch, g.predecessors(k), "{name}: predecessors of {k:#x}");
            let succ = g.successors(k);
            assert_eq!(g.out_degree(k), succ.len(), "{name}: out-degree of {k:#x}");
            for p in &scratch {
                assert!(g.successors(*p).contains(&k), "{name}: {p:#x} -> {k:#x}");
            }
            for s in succ {
                assert!(g.predecessors(s).contains(&k), "{name}: {k:#x} -> {s:#x}");
            }
        }
    }

    #[test]
    fn scratch_callbacks_match_list_callbacks() {
        // 4×4 and 5×5 tiles: a square and a non-square tile count. Each
        // graph's (tasks, edges, critical path, max in-degree, max
        // out-degree), as the hand-written successor functions gave them.
        type Stats = (usize, usize, usize, usize, usize);
        for (nb, stats) in [
            (
                4,
                [
                    (16, 33, 7, 3, 3),
                    (16, 30, 7, 3, 3),
                    (16, 24, 7, 2, 2),
                    (65, 222, 13, 16, 8),
                    (65, 232, 13, 16, 7),
                    (65, 160, 13, 16, 7),
                    (30, 54, 10, 3, 6),
                    (20, 30, 10, 3, 3),
                ],
            ),
            (
                5,
                [
                    (25, 56, 9, 3, 3),
                    (25, 52, 9, 3, 3),
                    (25, 40, 9, 2, 2),
                    (126, 472, 16, 25, 10),
                    (126, 485, 16, 25, 9),
                    (126, 325, 16, 25, 9),
                    (55, 110, 13, 3, 8),
                    (35, 60, 13, 3, 4),
                ],
            ),
        ] {
            let cfg = AppConfig::new(nb * 4, 4);
            let graphs: [(&str, Box<dyn TaskGraph>); 8] = [
                ("lcs", Box::new(lcs::Lcs::new(cfg))),
                ("sw", Box::new(sw::Sw::new(cfg))),
                ("sw-sa", Box::new(sw::Sw::single_assignment(cfg))),
                ("fw", Box::new(fw::Fw::new(cfg))),
                ("fw-1v", Box::new(fw::Fw::with_single_version(cfg))),
                ("fw-sa", Box::new(fw::Fw::single_assignment(cfg))),
                ("lu", Box::new(lu::Lu::new(cfg))),
                ("cholesky", Box::new(cholesky::Cholesky::new(cfg))),
            ];
            for ((name, g), want) in graphs.iter().zip(stats) {
                let name = format!("{name} nb={nb}");
                assert_callbacks_agree(&name, g.as_ref());
                let s = graph_stats(g.as_ref());
                let got: Stats = (
                    s.tasks,
                    s.edges,
                    s.critical_path,
                    s.max_in_degree,
                    s.max_out_degree,
                );
                assert_eq!(got, want, "{name}: (T, E, S, max in, max out)");
            }
        }
    }
}
