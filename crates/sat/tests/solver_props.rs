//! Property-based self-tests: the solver against brute force, and solver
//! models against the formulas that produced them.

use proptest::prelude::*;
use sat::{Lit, SolveResult, Solver, Var};

/// A random CNF as (variable count, clauses of signed 1-based literals).
fn cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (2usize..=max_vars).prop_perturb(move |n, mut rng| {
        let n_clauses = 1 + rng.next_u32() as usize % max_clauses;
        let clauses = (0..n_clauses)
            .map(|_| {
                let len = 1 + rng.next_u32() as usize % 4;
                (0..len)
                    .map(|_| {
                        let v = 1 + (rng.next_u32() as usize % n) as i32;
                        if rng.next_u32() & 1 == 1 {
                            -v
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        (n, clauses)
    })
}

fn build(n: usize, clauses: &[Vec<i32>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..n {
        s.new_var();
    }
    for c in clauses {
        let lits: Vec<Lit> = c
            .iter()
            .map(|&v| Lit::new((v.unsigned_abs() - 1) as Var, v < 0))
            .collect();
        s.add_clause(&lits);
    }
    s
}

fn clause_satisfied(clause: &[i32], model: impl Fn(usize) -> bool) -> bool {
    clause
        .iter()
        .any(|&v| model(v.unsigned_abs() as usize - 1) != (v < 0))
}

/// Exhaustive satisfiability for small variable counts.
fn brute_force_sat(n: usize, clauses: &[Vec<i32>]) -> bool {
    (0u64..1 << n).any(|bits| {
        clauses
            .iter()
            .all(|c| clause_satisfied(c, |v| (bits >> v) & 1 == 1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn models_satisfy_the_formula((n, clauses) in cnf(12, 40)) {
        let mut s = build(n, &clauses);
        if s.solve() == SolveResult::Sat {
            for c in &clauses {
                prop_assert!(
                    clause_satisfied(c, |v| s.model_value(v as Var) == Some(true)),
                    "model violates clause {c:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_brute_force((n, clauses) in cnf(10, 30)) {
        let mut s = build(n, &clauses);
        let expected = if brute_force_sat(n, &clauses) {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        prop_assert_eq!(s.solve(), expected);
    }

    #[test]
    fn incremental_assumptions_agree_with_rebuilt_solver((n, clauses) in cnf(8, 20)) {
        // Query the same formula under each single-literal assumption,
        // incrementally; every answer must match a from-scratch solve of
        // the formula plus that unit.
        let mut s = build(n, &clauses);
        for v in 0..n {
            for neg in [false, true] {
                let a = Lit::new(v as Var, neg);
                let incremental = s.solve_assuming(&[a]);
                let mut clauses_with_unit = clauses.clone();
                clauses_with_unit.push(vec![if neg { -(v as i32 + 1) } else { v as i32 + 1 }]);
                let expected = if brute_force_sat(n, &clauses_with_unit) {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                prop_assert_eq!(incremental, expected, "assumption {}", a);
            }
        }
    }
}

/// The clauses "no triangle of K`n` is monochromatic" over one variable
/// per edge (edge colour = variable value), and the edge-variable count.
fn triangle_free_two_coloring(n: u32) -> (usize, Vec<Vec<i32>>) {
    let mut edges = std::collections::HashMap::new();
    for i in 0..n {
        for j in i + 1..n {
            let next = edges.len() as i32 + 1;
            edges.insert((i, j), next);
        }
    }
    let mut clauses = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            for k in j + 1..n {
                let (a, b, c) = (edges[&(i, j)], edges[&(j, k)], edges[&(i, k)]);
                clauses.push(vec![a, b, c]);
                clauses.push(vec![-a, -b, -c]);
            }
        }
    }
    (edges.len(), clauses)
}

#[test]
fn known_unsat_fixture() {
    // R(3,3) = 6: the complete graph K6 cannot be two-colored without a
    // monochromatic triangle.
    let (n, clauses) = triangle_free_two_coloring(6);
    assert_eq!((n, clauses.len()), (15, 40));
    assert_eq!(build(n, &clauses).solve(), SolveResult::Unsat);
}

#[test]
fn known_sat_fixture() {
    // The same construction on K5 is satisfiable (C5 + its complement).
    let (n, clauses) = triangle_free_two_coloring(5);
    assert_eq!((n, clauses.len()), (10, 20));
    let mut s = build(n, &clauses);
    assert_eq!(s.solve(), SolveResult::Sat);
    for c in &clauses {
        assert!(
            c.iter()
                .any(|&v| s.model_value(v.unsigned_abs() - 1) == Some(v > 0)),
            "model violates {c:?}"
        );
    }
}
