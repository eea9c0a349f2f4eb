//! Output checks: references rendered in-process exactly as the router
//! renders them, and an order-independent form for results computed in
//! a process whose intern order differs from the server's.

use prov_core::minimize::{minimize_with, Budget, MinimizeOptions, MinimizeOutcome};
use prov_engine::{AnnotatedResult, EvalOptions, EvalSession};
use prov_query::canonical::{canonical_key, CanonicalKey};
use prov_query::containment::equivalent;
use prov_query::{parse_ucq, UnionQuery};
use prov_server::Json;
use prov_storage::Database;

use crate::workload::{Plan, Rng, Workload};

/// Parses the CLI query syntax the router accepts (`;` joins rules).
pub fn parse_query(text: &str) -> Result<UnionQuery, String> {
    parse_ucq(&text.replace(';', "\n")).map_err(|e| format!("query {text:?}: {e}"))
}

/// Result rows exactly as `provmin eval` prints them.
pub fn result_lines(result: &AnnotatedResult) -> Vec<String> {
    if result.is_empty() {
        return vec!["(empty result)".to_owned()];
    }
    result
        .iter()
        .map(|(tuple, p)| format!("{tuple}  [{p}]"))
        .collect()
}

/// The tail of a JSON `/eval` body from the `results` field on
/// (`,"results":[...]}`), which does not depend on cache counters.
pub fn json_results_suffix(lines: &[String]) -> Vec<u8> {
    let arr = Json::Arr(lines.iter().cloned().map(Json::Str).collect());
    format!(",\"results\":{arr}}}").into_bytes()
}

/// A text-mode `/eval` body.
pub fn text_body(lines: &[String]) -> Vec<u8> {
    let mut body = lines.join("\n");
    body.push('\n');
    body.into_bytes()
}

/// The `/minimize` options the benchmark sends: defaults plus a step
/// budget.
pub fn minimize_options(budget_steps: u64) -> MinimizeOptions {
    MinimizeOptions {
        budget: Budget::steps(budget_steps),
        ..MinimizeOptions::default()
    }
}

/// The `/minimize` 200 body for an outcome, as the router renders it.
pub fn minimize_body(outcome: &MinimizeOutcome) -> Json {
    match outcome {
        MinimizeOutcome::Complete(minimal) => Json::Obj(vec![
            ("status".into(), Json::str("complete")),
            ("query".into(), Json::Str(minimal.to_string())),
        ]),
        MinimizeOutcome::Partial(partial) => Json::Obj(vec![
            ("status".into(), Json::str("partial")),
            ("query".into(), Json::Str(partial.best.to_string())),
            (
                "cursor".into(),
                Json::Obj(vec![
                    (
                        "adjunct".into(),
                        Json::from_u64(partial.cursor.adjunct as u64),
                    ),
                    (
                        "completion".into(),
                        Json::from_u64(partial.cursor.completion as u64),
                    ),
                ]),
            ),
            ("steps_used".into(), Json::from_u64(partial.steps_used)),
        ]),
    }
}

/// What a `/minimize` reply must agree on with its reference: the
/// status, the partial budget bookkeeping, and the result's adjuncts up
/// to variable renaming (canonical keys, sorted). The rendered variable
/// names follow process-local intern order, so two processes can print
/// one minimal query under different names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinimizeSignature {
    status: String,
    budget: Option<(u64, u64, u64)>,
    adjuncts: Vec<CanonicalKey>,
}

/// The signature of a `/minimize` 200 body.
pub fn minimize_signature(body: &[u8]) -> Result<MinimizeSignature, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-utf8 /minimize body")?;
    let json = Json::parse(text).map_err(|e| format!("/minimize body: {e}"))?;
    let status = json
        .get("status")
        .and_then(Json::as_str)
        .ok_or("no status")?;
    let query = json.get("query").and_then(Json::as_str).ok_or("no query")?;
    let q = parse_ucq(&query.replace("\n  ∪ ", "\n")).map_err(|e| format!("result query: {e}"))?;
    let mut adjuncts: Vec<CanonicalKey> = q.adjuncts().iter().map(canonical_key).collect();
    adjuncts.sort_unstable();
    let budget = match json.get("cursor") {
        Some(cursor) => {
            let n = |v: Option<&Json>| v.and_then(Json::as_u64).ok_or("bad partial fields");
            Some((
                n(json.get("steps_used"))?,
                n(cursor.get("adjunct"))?,
                n(cursor.get("completion"))?,
            ))
        }
        None => None,
    };
    Ok(MinimizeSignature {
        status: status.to_owned(),
        budget,
        adjuncts,
    })
}

/// Checks a `/minimize` reply for `input` against its reference body and
/// signature. A complete result must match up to variable renaming. A
/// partial result's accepted adjuncts depend on candidate order, which
/// follows intern order, so it must carry the same budget bookkeeping and
/// stay equivalent to the input (the sound-partial contract).
pub fn minimize_matches(
    input: &str,
    reply: &[u8],
    expected_body: &[u8],
    expected: &MinimizeSignature,
) -> Result<(), String> {
    if reply == expected_body {
        return Ok(());
    }
    let got = minimize_signature(reply)?;
    if got == *expected {
        return Ok(());
    }
    if got.status == "partial" && got.status == expected.status && got.budget == expected.budget {
        let text = std::str::from_utf8(reply).map_err(|_| "non-utf8 /minimize body")?;
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let result = json.get("query").and_then(Json::as_str).ok_or("no query")?;
        let result = parse_ucq(&result.replace("\n  ∪ ", "\n")).map_err(|e| e.to_string())?;
        if equivalent(&parse_query(input)?, &result) {
            return Ok(());
        }
        return Err("partial result is not equivalent to its input".into());
    }
    Err(format!(
        "expected {}",
        String::from_utf8_lossy(expected_body)
    ))
}

/// Result rows in an order-independent form: monomial factors sorted,
/// monomials sorted, rows sorted. Rendered order follows process-local
/// intern ids, so two processes can print one result differently.
pub fn canonical_lines(lines: &[String]) -> Vec<String> {
    let mut rows: Vec<String> = lines
        .iter()
        .map(|line| match line.split_once("  [") {
            Some((tuple, poly)) => {
                let poly = poly.strip_suffix(']').unwrap_or(poly);
                let mut terms: Vec<String> = poly
                    .split(" + ")
                    .map(|term| {
                        let mut factors: Vec<&str> = term.split('·').collect();
                        factors.sort_unstable();
                        factors.join("·")
                    })
                    .collect();
                terms.sort_unstable();
                format!("{tuple}  [{}]", terms.join(" + "))
            }
            None => line.clone(),
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// The rows of an `/eval` reply body, JSON or text.
pub fn reply_lines(body: &[u8], text: bool) -> Result<Vec<String>, String> {
    let body = std::str::from_utf8(body).map_err(|_| "non-utf8 /eval body")?;
    if text {
        return Ok(body.lines().map(str::to_owned).collect());
    }
    let json = Json::parse(body).map_err(|e| format!("/eval body: {e}"))?;
    json.get("results")
        .and_then(Json::as_array)
        .ok_or("/eval body without results")?
        .iter()
        .map(|r| {
            r.as_str()
                .map(str::to_owned)
                .ok_or_else(|| "non-string row".to_owned())
        })
        .collect()
}

/// The expected reply of one `/eval` query.
#[derive(Clone, Debug)]
pub struct EvalRef {
    /// Result rows.
    pub rows: usize,
    /// `,"results":[...]}` — the JSON body's suffix.
    pub json_suffix: Vec<u8>,
    /// The text-mode body.
    pub text: Vec<u8>,
}

/// All references of a plan.
#[derive(Clone, Debug, Default)]
pub struct References {
    /// Per `/eval` query (hot_read, cold_analytics).
    pub evals: Vec<EvalRef>,
    /// Per `/minimize` pool entry: the in-process 200 body.
    pub minimize: Vec<Vec<u8>>,
    /// Per `/minimize` pool entry: its signature.
    pub minimize_signature: Vec<MinimizeSignature>,
    /// References cross-checked against `EvalOptions::naive()`.
    pub naive_checked: usize,
}

/// Queries cross-checked against naive evaluation per cold_analytics run.
pub const NAIVE_SAMPLE: usize = 6;

/// Builds the references of `plan` over `db` (which must have been
/// parsed from `plan.db_text` before anything else was interned, so row
/// and monomial order match the server's).
pub fn build(plan: &Plan, db: &Database) -> Result<References, String> {
    let mut refs = References::default();
    if plan.workload != Workload::DurableWrites {
        let session = EvalSession::new();
        for text in &plan.eval_queries {
            let q = parse_query(text)?;
            let result = session.eval_ucq_with(&q, db, EvalOptions::default());
            let lines = result_lines(&result);
            refs.evals.push(EvalRef {
                rows: result.len(),
                json_suffix: json_results_suffix(&lines),
                text: text_body(&lines),
            });
        }
    }
    if plan.workload == Workload::ColdAnalytics {
        let mut rng = Rng::new(plan.seed, 300);
        for _ in 0..NAIVE_SAMPLE {
            let i = naive_candidate(plan, &mut rng);
            let q = parse_query(&plan.eval_queries[i])?;
            let naive = prov_engine::eval_ucq_with(&q, db, EvalOptions::naive());
            if text_body(&result_lines(&naive)) != refs.evals[i].text {
                return Err(format!(
                    "reference for {:?} disagrees with naive evaluation",
                    plan.eval_queries[i]
                ));
            }
            refs.naive_checked += 1;
        }
    }
    let options = minimize_options(plan.budget_steps);
    for item in &plan.minimize {
        let q = parse_query(&item.text)?;
        let outcome = minimize_with(&q, options).map_err(|e| format!("minimize: {e}"))?;
        let body = minimize_body(&outcome).to_string().into_bytes();
        refs.minimize_signature.push(minimize_signature(&body)?);
        refs.minimize.push(body);
    }
    Ok(refs)
}

/// A seeded query whose naive evaluation is affordable: naive evaluation
/// enumerates atoms in written order, so only shapes that open on a
/// constant atom are sampled.
fn naive_candidate(plan: &Plan, rng: &mut Rng) -> usize {
    loop {
        let i = rng.below(plan.eval_queries.len());
        if matches!(i % 8, 0 | 1 | 5) {
            return i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_ignores_order() {
        let a = vec!["(a)  [s1·s2 + 2·s3]".to_owned(), "(b)  [s4]".to_owned()];
        let b = vec!["(b)  [s4]".to_owned(), "(a)  [2·s3 + s2·s1]".to_owned()];
        assert_eq!(canonical_lines(&a), canonical_lines(&b));
        let c = vec!["(a)  [s1·s2 + s3]".to_owned(), "(b)  [s4]".to_owned()];
        assert_ne!(canonical_lines(&a), canonical_lines(&c));
    }

    #[test]
    fn json_suffix_and_text_parse_back() {
        let lines = vec!["(a)  [s1]".to_owned(), "(b)  [s\"2]".to_owned()];
        let body = [
            b"{\"generation\":1,\"rows\":2".as_slice(),
            &json_results_suffix(&lines),
        ]
        .concat();
        assert_eq!(reply_lines(&body, false).unwrap(), lines);
        assert_eq!(reply_lines(&text_body(&lines), true).unwrap(), lines);
    }
}
