//! Per-relation position indexes for assignment enumeration.
//!
//! For every relation and argument position, a hash index from value to
//! the rows carrying it. Extending a partial assignment through an atom
//! with at least one bound argument then scans only the shortest matching
//! posting list instead of the whole relation.
//!
//! Indexes are plain owned data (row ids, no borrows into the database),
//! so one build can outlive a single evaluation: [`crate::IndexCache`]
//! keeps them keyed by the database's generation stamp and shares them
//! across evaluations, UCQ disjuncts, and worker threads. Row ids match
//! [`prov_storage::Relation::row`] / [`prov_storage::ColumnarRelation`]
//! insertion order.

use std::collections::HashMap;

use prov_storage::{Database, RelName, Relation, Value};

/// An index over one relation: `posting[(position, value)]` lists the row
/// indices whose tuple has `value` at `position`, and `distinct[position]`
/// counts the posting lists at `position` — the relation's distinct values
/// there, the per-column statistic the join planner reads.
#[derive(Clone, Debug, Default)]
pub struct RelationIndex {
    len: usize,
    posting: HashMap<(usize, Value), Vec<u32>>,
    distinct: Vec<usize>,
}

impl RelationIndex {
    /// Builds the index for `relation`.
    pub fn build(relation: &Relation) -> Self {
        let mut index = RelationIndex::default();
        for (tuple, _) in relation.iter() {
            index.push_row(tuple.values());
        }
        index
    }

    /// Number of rows in the indexed relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the indexed relation was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct values at `position` among the indexed rows: 0
    /// for an empty relation or a position beyond the stored arity. O(1).
    pub fn distinct(&self, position: usize) -> usize {
        self.distinct.get(position).copied().unwrap_or(0)
    }

    /// Rows whose tuple has `value` at `position` (empty slice if none).
    pub fn matching(&self, position: usize, value: Value) -> &[u32] {
        self.posting
            .get(&(position, value))
            .map_or(&[], Vec::as_slice)
    }

    /// Of the given `(position, value)` constraints, returns the posting
    /// list of the most selective one, or `None` when unconstrained.
    pub fn most_selective(&self, constraints: &[(usize, Value)]) -> Option<&[u32]> {
        constraints
            .iter()
            .map(|&(pos, v)| self.matching(pos, v))
            .min_by_key(|rows| rows.len())
    }

    /// Appends one row (id = current length), mirroring a
    /// [`Relation::insert`] — inserts append in row order.
    pub fn push_row(&mut self, values: &[Value]) {
        let row = self.len as u32;
        if self.distinct.len() < values.len() {
            self.distinct.resize(values.len(), 0);
        }
        for (pos, &value) in values.iter().enumerate() {
            let posting = self.posting.entry((pos, value)).or_default();
            if posting.is_empty() {
                self.distinct[pos] += 1;
            }
            posting.push(row);
        }
        self.len += 1;
    }

    /// Removes row `row`, shifting every later row id down by one — the
    /// same reindexing [`Relation::remove`] performs. Posting lists stay
    /// sorted because they were sorted by construction.
    pub fn remove_row(&mut self, row: usize) {
        let row = row as u32;
        for posting in self.posting.values_mut() {
            posting.retain(|&r| r != row);
            for r in posting.iter_mut() {
                if *r > row {
                    *r -= 1;
                }
            }
        }
        let distinct = &mut self.distinct;
        self.posting.retain(|&(pos, _), posting| {
            if posting.is_empty() {
                distinct[pos] -= 1;
            }
            !posting.is_empty()
        });
        self.len -= 1;
    }
}

/// Indexes for every relation of a database. Owned and borrow-free —
/// cacheable across evaluations and shareable across threads.
#[derive(Clone, Debug, Default)]
pub struct DatabaseIndex {
    by_relation: HashMap<RelName, RelationIndex>,
}

impl DatabaseIndex {
    /// Builds indexes for all relations of `db`.
    pub fn build(db: &Database) -> Self {
        DatabaseIndex {
            by_relation: db
                .relations()
                .map(|r| (r.name(), RelationIndex::build(r)))
                .collect(),
        }
    }

    /// The index for `rel`, if the relation exists.
    pub fn relation(&self, rel: RelName) -> Option<&RelationIndex> {
        self.by_relation.get(&rel)
    }

    /// Appends one row to `rel`'s index, creating an empty index when the
    /// relation is new (mirrors [`prov_storage::Database::insert`]).
    pub fn push_row(&mut self, rel: RelName, values: &[Value]) {
        self.by_relation.entry(rel).or_default().push_row(values);
    }

    /// Removes row `row` from `rel`'s index (no-op if the relation has no
    /// index). See [`RelationIndex::remove_row`].
    pub fn remove_row(&mut self, rel: RelName, row: usize) {
        if let Some(index) = self.by_relation.get_mut(&rel) {
            index.remove_row(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_storage::Tuple;

    fn sample() -> Database {
        let mut db = Database::new();
        db.add("R", &["a", "b"], "ix1");
        db.add("R", &["a", "c"], "ix2");
        db.add("R", &["b", "c"], "ix3");
        db
    }

    #[test]
    fn posting_lists_are_correct() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        let r = idx.relation(RelName::new("R")).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.matching(0, Value::new("a")).len(), 2);
        assert_eq!(r.matching(1, Value::new("c")).len(), 2);
        assert_eq!(r.matching(0, Value::new("zz")).len(), 0);
    }

    #[test]
    fn most_selective_picks_shortest() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        let r = idx.relation(RelName::new("R")).unwrap();
        let rows = r
            .most_selective(&[(0, Value::new("a")), (1, Value::new("b"))])
            .unwrap();
        assert_eq!(rows.len(), 1);
        let relation = db.relation(RelName::new("R")).unwrap();
        let (tuple, _) = relation.row(rows[0] as usize);
        assert_eq!(*tuple, Tuple::of(&["a", "b"]));
    }

    #[test]
    fn unconstrained_returns_none() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        let r = idx.relation(RelName::new("R")).unwrap();
        assert!(r.most_selective(&[]).is_none());
    }

    #[test]
    fn patched_index_matches_rebuilt_index() {
        let mut db = sample();
        let mut idx = DatabaseIndex::build(&db);
        db.add("R", &["c", "d"], "ix4");
        idx.push_row(
            RelName::new("R"),
            db.relation(RelName::new("R")).unwrap().row(3).0.values(),
        );
        // Remove the middle row (row id 1 = ("a","c")): later ids shift.
        db.remove(RelName::new("R"), &Tuple::of(&["a", "c"]));
        idx.remove_row(RelName::new("R"), 1);
        // Remove row 0 = ("a","b"), the last row carrying "a" at 0 and
        // "b" at 1: both posting lists empty out.
        db.remove(RelName::new("R"), &Tuple::of(&["a", "b"]));
        idx.remove_row(RelName::new("R"), 0);
        db.add("S", &["q"], "ix5");
        idx.push_row(RelName::new("S"), &[Value::new("q")]);

        let rebuilt = DatabaseIndex::build(&db);
        for relation in db.relations() {
            let patched = idx.relation(relation.name()).unwrap();
            let fresh = rebuilt.relation(relation.name()).unwrap();
            assert_eq!(patched.len(), fresh.len());
            for (row, (tuple, _)) in relation.iter().enumerate() {
                for (pos, &value) in tuple.values().iter().enumerate() {
                    assert_eq!(
                        patched.matching(pos, value),
                        fresh.matching(pos, value),
                        "posting ({pos}, {value}) diverges at row {row} of {}",
                        relation.name()
                    );
                }
            }
            for pos in 0..=relation.arity() {
                assert_eq!(
                    patched.distinct(pos),
                    fresh.distinct(pos),
                    "distinct({pos}) diverges for {}",
                    relation.name()
                );
            }
        }
        // R keeps ("b","c") and ("c","d"): column 0 holds {b, c}, column 1
        // {c, d}, and there is no column 2.
        let r = idx.relation(RelName::new("R")).unwrap();
        assert_eq!((r.distinct(0), r.distinct(1), r.distinct(2)), (2, 2, 0));
    }

    /// Distinct values at `position` over `rows`, by brute force.
    fn scanned_distinct(rows: &[Vec<Value>], position: usize) -> usize {
        rows.iter()
            .filter_map(|row| row.get(position))
            .collect::<std::collections::HashSet<_>>()
            .len()
    }

    #[test]
    fn distinct_counts_track_random_pushes_and_removes() {
        // A seeded xorshift drives an even mix of pushes and removes over a
        // small value domain, so values often lose their last carrying row
        // (emptying a posting list), relations empty out, and both come
        // back. Relation "D" exists only through
        // patches; "R" starts from a build.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let db = sample();
        let mut idx = DatabaseIndex::build(&db);
        let mut live: HashMap<RelName, Vec<Vec<Value>>> = HashMap::new();
        live.insert(
            RelName::new("R"),
            db.relation(RelName::new("R"))
                .unwrap()
                .iter()
                .map(|(t, _)| t.values().to_vec())
                .collect(),
        );
        let (mut emptied, mut removed_last_carrier) = (0, 0);
        for step in 0..2_000 {
            let rel = RelName::new(["R", "D"][next(2)]);
            let rows = live.entry(rel).or_default();
            if rows.is_empty() || next(2) == 0 {
                let row: Vec<Value> = (0..2)
                    .map(|_| Value::new(&format!("v{}", next(4))))
                    .collect();
                idx.push_row(rel, &row);
                rows.push(row);
            } else {
                let at = next(rows.len());
                let gone = rows.remove(at);
                if (0..2).any(|p| !rows.iter().any(|r| r[p] == gone[p])) {
                    removed_last_carrier += 1;
                }
                idx.remove_row(rel, at);
                if rows.is_empty() {
                    emptied += 1;
                }
            }
            let index = idx.relation(rel).unwrap();
            assert_eq!(index.len(), rows.len(), "step {step}");
            for pos in 0..3 {
                assert_eq!(
                    index.distinct(pos),
                    scanned_distinct(rows, pos),
                    "distinct({pos}) of {rel} after step {step}"
                );
            }
        }
        assert!(removed_last_carrier > 0 && emptied > 0);
    }

    #[test]
    fn missing_relation() {
        let db = sample();
        let idx = DatabaseIndex::build(&db);
        assert!(idx.relation(RelName::new("Nope")).is_none());
    }
}
