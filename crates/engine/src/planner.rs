//! Join planning: choosing the order in which a query's atoms are
//! extended during assignment enumeration (Def 2.6).
//!
//! One planner, chosen by the engine (no option selects it):
//! [`cost_based_order`] greedily picks the atom with the smallest
//! estimated candidate count, from per-relation row counts and the
//! per-position distinct-value counts that the posting-list index
//! ([`DatabaseIndex`]) maintains as it is built and patched. Reading them
//! costs O(atoms), never a pass over the database, so the same planner
//! serves full evaluation and the restricted delta passes of incremental
//! maintenance, which pin the atom restricted to the inserted row first.
//!
//! Atom order never changes *what* is enumerated — every order yields
//! exactly the assignments of Def 2.6 and therefore identical provenance —
//! only how many partial assignments are touched along the way.

use std::collections::{BTreeSet, HashMap};

use prov_query::{ConjunctiveQuery, Term, Variable};
use prov_storage::{Database, RelName};

use crate::index::DatabaseIndex;

/// Per-relation statistics backing selectivity estimates.
#[derive(Debug, PartialEq)]
struct RelStats {
    rows: usize,
    /// Distinct values per column (0 for an empty relation).
    column_cardinality: Vec<usize>,
}

/// Statistics for every relation `q` names that `db` stores at the
/// atom's arity: the row count from the relation, the distinct counts
/// from its index.
fn stats_for(
    q: &ConjunctiveQuery,
    db: &Database,
    index: &DatabaseIndex,
) -> HashMap<RelName, RelStats> {
    let mut stats = HashMap::new();
    for atom in q.atoms() {
        if stats.contains_key(&atom.relation) {
            continue;
        }
        if let Some(rel) = db.relation(atom.relation) {
            if rel.arity() == atom.arity() {
                let rel_index = index.relation(atom.relation);
                stats.insert(
                    atom.relation,
                    RelStats {
                        rows: rel.len(),
                        column_cardinality: (0..rel.arity())
                            .map(|p| rel_index.map_or(0, |ix| ix.distinct(p)))
                            .collect(),
                    },
                );
            }
        }
    }
    stats
}

/// Estimated number of candidate rows for `atom` given the set of
/// already-bound variables: the relation cardinality scaled by the
/// selectivity `1/distinct(p)` of every bound position, assuming
/// independent columns (the classic System-R estimate). Missing relations
/// and arity mismatches estimate to 0 — they prune the whole enumeration,
/// so visiting them first is optimal.
fn estimate(atom: &prov_query::Atom, stats: Option<&RelStats>, bound: &BTreeSet<Variable>) -> f64 {
    let Some(stats) = stats else {
        return 0.0;
    };
    // Stats are keyed by relation name; an atom whose arity disagrees with
    // the stored relation matches no rows (same convention as evaluation).
    if atom.arity() != stats.column_cardinality.len() {
        return 0.0;
    }
    let mut est = stats.rows as f64;
    for (pos, term) in atom.args.iter().enumerate() {
        let is_bound = match term {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        };
        if is_bound {
            est /= stats.column_cardinality[pos].max(1) as f64;
        }
    }
    est.max(if stats.rows == 0 { 0.0 } else { 1.0 })
}

/// Greedy cost-based ordering: repeatedly pick the unvisited atom with
/// the smallest estimated candidate count under the current bound set,
/// breaking ties toward fewer newly-introduced variables, then written
/// order (for determinism). A `pinned` atom is placed first
/// unconditionally and its variables count as bound for the rest — the
/// delta passes pin the atom whose candidate set is the one inserted row.
/// `index` must be `db`'s index (same generation).
pub(crate) fn cost_based_order(
    q: &ConjunctiveQuery,
    db: &Database,
    index: &DatabaseIndex,
    pinned: Option<usize>,
) -> Vec<usize> {
    let n = q.atoms().len();
    if n <= 1 {
        // Nothing to order.
        return (0..n).collect();
    }
    greedy_order(q, &stats_for(q, db, index), pinned)
}

/// The greedy pass of [`cost_based_order`] over the given statistics.
fn greedy_order(
    q: &ConjunctiveQuery,
    stats: &HashMap<RelName, RelStats>,
    pinned: Option<usize>,
) -> Vec<usize> {
    let n = q.atoms().len();
    let mut bound: BTreeSet<Variable> = BTreeSet::new();
    let mut order = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();
    if let Some(first) = pinned {
        remaining.retain(|&i| i != first);
        order.push(first);
        bound.extend(q.atoms()[first].variables());
    }
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &i), (_, &j)| {
                let key = |idx: usize| {
                    let atom = &q.atoms()[idx];
                    let est = estimate(atom, stats.get(&atom.relation), &bound);
                    let new_vars = atom.variables().filter(|v| !bound.contains(v)).count();
                    (est, new_vars, idx)
                };
                let (ei, ni, ii) = key(i);
                let (ej, nj, jj) = key(j);
                ei.total_cmp(&ej).then(ni.cmp(&nj)).then(ii.cmp(&jj))
            })
            .expect("remaining non-empty");
        order.push(best);
        bound.extend(q.atoms()[best].variables());
        remaining.remove(pos);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvalViews;
    use prov_query::parse_cq;
    use prov_storage::Value;
    use prov_workload::{MutationStep, Sampler};

    fn skewed_db() -> Database {
        let mut db = Database::new();
        // S is tiny and selective; R is wide.
        for i in 0..50 {
            db.add(
                "R",
                &[&format!("r{}", i % 10), &format!("r{}", (i + 1) % 10)],
                &format!("pl_r{i}"),
            );
        }
        db.add("S", &["r1"], "pl_s0");
        db
    }

    fn table_2_database() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "a"], "pl_s1");
        db.add("R", &["a", "b"], "pl_s2");
        db.add("R", &["b", "a"], "pl_s3");
        db.add("R", &["b", "b"], "pl_s4");
        db
    }

    /// The unpinned plan over a freshly built index.
    fn order(q: &ConjunctiveQuery, db: &Database) -> Vec<usize> {
        cost_based_order(q, db, &DatabaseIndex::build(db), None)
    }

    /// The statistics by brute force: a fresh set of values per column
    /// over the relation's live rows.
    fn scanned_stats(q: &ConjunctiveQuery, db: &Database) -> HashMap<RelName, RelStats> {
        let mut stats = HashMap::new();
        for atom in q.atoms() {
            let Some(rel) = db.relation(atom.relation) else {
                continue;
            };
            if rel.arity() != atom.arity() {
                continue;
            }
            let column_cardinality = (0..rel.arity())
                .map(|p| {
                    rel.iter()
                        .map(|(t, _)| t.values()[p])
                        .collect::<std::collections::HashSet<Value>>()
                        .len()
                })
                .collect();
            stats.insert(
                atom.relation,
                RelStats {
                    rows: rel.len(),
                    column_cardinality,
                },
            );
        }
        stats
    }

    /// The index-backed statistics and every plan drawn from them
    /// (unpinned, and with each atom pinned) equal the brute-force scan's.
    fn assert_plans_match_scan(q: &ConjunctiveQuery, db: &Database, index: &DatabaseIndex) {
        let scanned = scanned_stats(q, db);
        assert_eq!(stats_for(q, db, index), scanned, "statistics of {q}");
        for pinned in std::iter::once(None).chain((0..q.atoms().len()).map(Some)) {
            assert_eq!(
                cost_based_order(q, db, index, pinned),
                greedy_order(q, &scanned, pinned),
                "plan of {q} pinned at {pinned:?}"
            );
        }
    }

    #[test]
    fn every_planner_returns_a_permutation() {
        let db = skewed_db();
        let index = DatabaseIndex::build(&db);
        let q = parse_cq("ans(x) :- R(x,y), S(x), R(y,z)").unwrap();
        for pinned in [None, Some(0), Some(1), Some(2)] {
            let mut order = cost_based_order(&q, &db, &index, pinned);
            if let Some(first) = pinned {
                assert_eq!(order[0], first, "pinned atom goes first");
            }
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2], "{pinned:?} is not a permutation");
        }
    }

    #[test]
    fn pinned_atom_binds_its_variables() {
        let db = skewed_db();
        let index = DatabaseIndex::build(&db);
        // R holds 10 distinct rows over 10 values per column, S one row.
        // Unpinned, S(x) leads. Pinning R(y,z) binds y: R(x,y) then
        // estimates to 10/10 = 1 row, tying S(x), and wins on written
        // order — unbound, y would leave it at 10 rows, behind S(x).
        let q = parse_cq("ans(x) :- R(y,z), R(x,y), S(x)").unwrap();
        assert_eq!(cost_based_order(&q, &db, &index, None)[0], 2);
        assert_eq!(cost_based_order(&q, &db, &index, Some(0)), vec![0, 1, 2]);
        // Pinning R(x,y) binds x and y: S(x) and R(y,z) both estimate to
        // one row, and S(x) introduces no new variable.
        assert_eq!(cost_based_order(&q, &db, &index, Some(1)), vec![1, 2, 0]);
    }

    #[test]
    fn cost_based_starts_from_smallest_relation() {
        let db = skewed_db();
        // S has 1 row vs R's 50: the cost-based planner leads with S even
        // though written order and arity give no syntactic reason to.
        let q = parse_cq("ans(x) :- R(x,y), S(x)").unwrap();
        assert_eq!(order(&q, &db)[0], 1);
    }

    #[test]
    fn mixed_arity_atoms_over_one_relation_name_do_not_panic() {
        // R is stored with arity 2; the second atom uses R with arity 3
        // and a bound constant beyond the stored arity. The planner must
        // estimate it as empty (like evaluation does), not index past the
        // per-column stats.
        let db = skewed_db();
        let q = parse_cq("ans() :- R(x,y), R(x,y,'c')").unwrap();
        assert_eq!(order(&q, &db).len(), 2);
        // And evaluation under the default (cost-based) options is empty,
        // matching the naive reference.
        use crate::eval::{eval_cq_with, EvalOptions};
        assert!(eval_cq_with(&q, &db, EvalOptions::default()).is_empty());
        assert!(eval_cq_with(&q, &db, EvalOptions::naive()).is_empty());
    }

    #[test]
    fn single_atom_queries_skip_stats() {
        let db = skewed_db();
        let q = parse_cq("ans(x) :- R(x,y)").unwrap();
        assert_eq!(order(&q, &db), vec![0]);
    }

    #[test]
    fn cost_based_visits_missing_relations_first() {
        let db = skewed_db();
        let q = parse_cq("ans(x) :- R(x,y), Missing(y)").unwrap();
        // A missing relation empties the result; probing it first is free.
        assert_eq!(order(&q, &db)[0], 1);
    }

    #[test]
    fn bound_positions_raise_selectivity() {
        let db = skewed_db();
        // After S(x) binds x, R(x,y) is cheaper than R(y,z) (no bound pos).
        let q = parse_cq("ans(x) :- R(y,z), R(x,y), S(x)").unwrap();
        let order = order(&q, &db);
        assert_eq!(order[0], 2);
        assert_eq!(order[1], 1);
    }

    #[test]
    fn index_statistics_plan_like_a_full_scan_on_paper_queries() {
        for db in [table_2_database(), skewed_db()] {
            let index = DatabaseIndex::build(&db);
            for text in [
                "ans(x) :- R(x,y), R(y,x)",
                "ans() :- R(x,y), R(y,z), R(z,x)",
                "ans(x) :- R(x,'b')",
                "ans(x) :- R(x,y), R(y,x), x != y",
                "ans() :- R(x,x), R(x,y), R(y,y)",
                "ans(x) :- R(x,y), S(x), R(y,z)",
                "ans() :- R(x,y), R(x,y,'c')",
                "ans(x) :- R(x,y), Missing(y)",
            ] {
                assert_plans_match_scan(&parse_cq(text).unwrap(), &db, &index);
            }
        }
    }

    #[test]
    fn index_statistics_plan_like_a_full_scan_on_dsl_scenarios() {
        for spec in ["mixed", "ucq-overlap", "diseq"] {
            let sampler = Sampler::named(spec).expect(spec);
            for case in 0..48 {
                let scenario = sampler.scenario(0x91a7, case);
                let index = DatabaseIndex::build(&scenario.database);
                for q in scenario.query.adjuncts() {
                    assert_plans_match_scan(q, &scenario.database, &index);
                }
            }
        }
    }

    #[test]
    fn patched_index_statistics_plan_like_a_full_scan() {
        // The counts the planner reads after a mutation come from the
        // index `EvalViews::patched` maintains, not from a rebuild.
        let sampler = Sampler::named("mutate").expect("built-in mutate spec");
        let rel = RelName::new("R");
        for case in 0..24 {
            let scenario = sampler.scenario(0x5eed, case);
            let mut db = scenario.database.clone();
            let mut views = EvalViews::new(&db);
            views.columnar(&db);
            views.database_index(&db);
            for step in &scenario.mutations {
                match step {
                    MutationStep::Insert(tuple, a) => db.insert(rel, tuple.clone(), *a),
                    MutationStep::Remove(tuple) => {
                        db.remove(rel, tuple);
                    }
                }
                let events = db
                    .deltas_since(views.generation())
                    .expect("one step stays within the delta log")
                    .to_vec();
                views = views.patched(&db, &events).expect("columnar view is built");
                let index = views.database_index(&db);
                for q in scenario.query.adjuncts() {
                    assert_plans_match_scan(q, &db, index);
                }
            }
        }
        // A relation first created by a patch plans from its patched counts.
        let mut db = skewed_db();
        let views = EvalViews::new(&db);
        views.columnar(&db);
        views.database_index(&db);
        db.add("T", &["r1", "t0"], "pl_t0");
        db.add("T", &["r1", "t1"], "pl_t1");
        let views = views
            .patched(&db, db.deltas_since(views.generation()).unwrap())
            .unwrap();
        let index = views.database_index(&db);
        assert_eq!(index.relation(RelName::new("T")).unwrap().distinct(0), 1);
        let q = parse_cq("ans(x,z) :- R(x,y), T(y,z), S(x)").unwrap();
        assert_plans_match_scan(&q, &db, index);
    }
}
