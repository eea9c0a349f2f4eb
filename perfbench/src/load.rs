//! The closed-loop load generator: two keep-alive connections, one thread
//! each, every request sent only after the previous reply arrived. Each
//! reply is checked; a failed check, a non-200 or a connection error
//! counts as a failure.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use prov_server::Json;
use prov_storage::textio::parse_tuple_line;
use prov_storage::Database;

use crate::check::References;
use crate::wire::Conn;
use crate::workload::{
    Fact, Mutation, Op, Plan, Workload, RESULT_STORE_CAPACITY, STREAM_ROWS_THRESHOLD,
};

/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

/// A client-side model of the session's result store: an LRU of
/// [`RESULT_STORE_CAPACITY`] query keys, looked up when a request is sent
/// and filled when a miss's reply arrives (the server inserts after the
/// evaluation). A miss on a key the other connection is still missing is
/// an in-flight miss: a server that shared in-flight evaluations would
/// not rebuild it again.
#[derive(Debug, Default)]
pub struct StoreModel {
    tick: u64,
    entries: HashMap<usize, u64>,
    inflight: [Option<(usize, bool)>; 2],
    /// Counts within the measured window.
    pub counts: ModelCounts,
}

/// What the store model saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModelCounts {
    /// Lookups that missed.
    pub misses: u64,
    /// Misses on a key no other request was already missing.
    pub distinct_misses: u64,
    /// Misses on a key in flight, as a miss, on the other connection.
    pub inflight_misses: u64,
}

impl StoreModel {
    /// A lookup of `query` by connection `conn`; `counted` inside the
    /// measured window. Returns whether it missed.
    pub fn begin(&mut self, conn: usize, query: usize, counted: bool) -> bool {
        self.tick += 1;
        let hit = match self.entries.get_mut(&query) {
            Some(used) => {
                *used = self.tick;
                true
            }
            None => false,
        };
        let shared = self.inflight[1 - conn] == Some((query, true));
        if counted && !hit {
            self.counts.misses += 1;
            if shared {
                self.counts.inflight_misses += 1;
            } else {
                self.counts.distinct_misses += 1;
            }
        }
        self.inflight[conn] = Some((query, !hit));
        !hit
    }

    /// The reply to connection `conn`'s lookup arrived.
    pub fn end(&mut self, conn: usize) {
        if let Some((query, true)) = self.inflight[conn].take() {
            self.tick += 1;
            if self.entries.len() >= RESULT_STORE_CAPACITY && !self.entries.contains_key(&query) {
                if let Some(evict) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, used)| **used)
                    .map(|(k, _)| *k)
                {
                    self.entries.remove(&evict);
                }
            }
            self.entries.insert(query, self.tick);
        }
    }

    /// Every entry went stale (a mutation outran the delta-log window).
    pub fn invalidate(&mut self) {
        self.entries.clear();
    }
}

/// Per-connection results of a load run.
#[derive(Debug, Default)]
pub struct ConnOutcome {
    /// `/eval` latencies (ns) inside the window.
    pub eval_ns: Vec<u64>,
    /// When each of `eval_ns` completed (ns after the window opened).
    pub eval_end_ns: Vec<u64>,
    /// When each windowed request completed (ns after the window opened).
    pub end_ns: Vec<u64>,
    /// `/mutate` latencies (ns).
    pub mutate_ns: Vec<u64>,
    /// `/minimize` latencies (ns).
    pub minimize_ns: Vec<u64>,
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Requests completed inside the window.
    pub completed: u64,
    /// End of the last windowed request, from the window's start.
    pub last_end: Duration,
    /// Windowed `/eval` replies over the streaming threshold.
    pub large_responses: u64,
    /// Windowed `/mutate` replies reporting `"cache":"delta"`.
    pub mutate_delta: u64,
    /// Windowed `/mutate` replies reporting `"cache":"rebuild"`.
    pub mutate_rebuild: u64,
    /// Windowed `/minimize` requests that were renamed repeats.
    pub renamed_repeats: u64,
}

impl ConnOutcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: ConnOutcome) {
        self.eval_ns.extend(other.eval_ns);
        self.eval_end_ns.extend(other.eval_end_ns);
        self.end_ns.extend(other.end_ns);
        self.mutate_ns.extend(other.mutate_ns);
        self.minimize_ns.extend(other.minimize_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.completed += other.completed;
        self.last_end = self.last_end.max(other.last_end);
        self.large_responses += other.large_responses;
        self.mutate_delta += other.mutate_delta;
        self.mutate_rebuild += other.mutate_rebuild;
        self.renamed_repeats += other.renamed_repeats;
    }
}

/// The whole load run.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Both connections merged.
    pub total: ConnOutcome,
    /// The store model's counts.
    pub model: ModelCounts,
    /// `/stats` at the window's start.
    pub stats_before: Json,
    /// `/stats` after the window closed.
    pub stats_after: Json,
    /// Seconds from the window's start to its last completion.
    pub window_s: f64,
}

/// Runs both connections against `addr`: `warmup` of unmeasured traffic,
/// then a `window` whose requests are measured. `mirror` (durable) is
/// updated with every acknowledged mutation.
pub fn run(
    plan: &Plan,
    refs: &References,
    addr: &str,
    warmup: Duration,
    window: Duration,
    mirror: Option<&mut Database>,
) -> Result<LoadOutcome, String> {
    let model = Mutex::new(StoreModel::default());
    let start = Instant::now();
    let open = start + warmup;
    let close = open + window;
    let mut mirror = mirror;
    let (outcomes, stats_before) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn in 0..2 {
            let mirror = if conn == 0 { mirror.take() } else { None };
            let model = &model;
            handles.push(
                scope.spawn(move || drive(plan, refs, addr, conn, open, close, model, mirror)),
            );
        }
        std::thread::sleep(open.saturating_duration_since(Instant::now()));
        let before = stats_of(addr);
        let outcomes: Vec<Result<ConnOutcome, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect();
        (outcomes, before)
    });
    let stats_before = stats_before?;
    let stats_after = stats_of(addr)?;
    let mut total = ConnOutcome::default();
    for outcome in outcomes {
        total.merge(outcome?);
    }
    let window_s = total.last_end.as_secs_f64().max(1e-9);
    let model = model.into_inner().expect("model lock poisoned").counts;
    Ok(LoadOutcome {
        total,
        model,
        stats_before,
        stats_after,
        window_s,
    })
}

fn stats_of(addr: &str) -> Result<Json, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("/stats: {e}"))?;
    let reply = conn.get("/stats").map_err(|e| format!("/stats: {e}"))?;
    let text = std::str::from_utf8(&reply.body).map_err(|_| "/stats: non-utf8 body")?;
    Json::parse(text).map_err(|e| format!("/stats: {e}"))
}

/// Applies an acknowledged mutation to the mirror (removals first, as
/// the server does).
pub fn apply_to_mirror(mirror: &mut Database, m: &Mutation) {
    let parse = |f: &Fact| {
        parse_tuple_line(&f.line())
            .expect("generated facts parse")
            .expect("generated facts are not comments")
    };
    for f in &m.remove {
        let (rel, tuple, _) = parse(f);
        mirror.remove(rel, &tuple);
    }
    for f in &m.insert {
        let (rel, tuple, ann) = parse(f);
        mirror.insert(rel, tuple, ann.expect("generated facts are annotated"));
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    plan: &Plan,
    refs: &References,
    addr: &str,
    conn_id: usize,
    open: Instant,
    close: Instant,
    model: &Mutex<StoreModel>,
    mut mirror: Option<&mut Database>,
) -> Result<ConnOutcome, String> {
    let mut out = ConnOutcome::default();
    let mut stream = plan.stream(conn_id);
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut verified = HashSet::new();
    loop {
        let req = stream.next_req();
        let t0 = Instant::now();
        if t0 >= close {
            break;
        }
        let counted = t0 >= open;
        let eval_query = match req.op {
            Op::Eval { query, .. } => Some(query),
            _ => None,
        };
        if let Some(q) = eval_query {
            model
                .lock()
                .expect("model lock poisoned")
                .begin(conn_id, q, counted);
        }
        out.attempted += 1;
        let reply = conn.roundtrip(&req.bytes);
        let t1 = Instant::now();
        if eval_query.is_some() {
            model.lock().expect("model lock poisoned").end(conn_id);
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.fail(format!("{:?}: {e}", req.op));
                conn = Conn::connect(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
                continue;
            }
        };
        let close_after = reply.close;
        match check(plan, refs, &req.op, reply, &mut verified) {
            Ok(seen) => {
                if let (Op::Mutate(m), Some(mirror)) = (&req.op, mirror.as_deref_mut()) {
                    apply_to_mirror(mirror, m);
                    if m.is_bulk() {
                        model.lock().expect("model lock poisoned").invalidate();
                    }
                }
                if counted {
                    let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
                    let end = u64::try_from((t1 - open).as_nanos()).unwrap_or(u64::MAX);
                    out.end_ns.push(end);
                    match &req.op {
                        Op::Eval { .. } => {
                            out.eval_ns.push(ns);
                            out.eval_end_ns.push(end);
                        }
                        Op::Mutate(_) => out.mutate_ns.push(ns),
                        Op::Minimize { item } => {
                            out.minimize_ns.push(ns);
                            if plan.minimize[*item].renamed_from.is_some() {
                                out.renamed_repeats += 1;
                            }
                        }
                    }
                    out.completed += 1;
                    out.last_end = out.last_end.max(t1 - open);
                    out.large_responses += u64::from(seen.large);
                    out.mutate_delta += u64::from(seen.delta);
                    out.mutate_rebuild += u64::from(seen.rebuild);
                }
            }
            Err(why) => out.fail(why),
        }
        if close_after {
            conn = Conn::connect(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
        }
    }
    Ok(out)
}

/// Workload properties one checked reply showed.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    large: bool,
    delta: bool,
    rebuild: bool,
}

fn check(
    plan: &Plan,
    refs: &References,
    op: &Op,
    reply: crate::wire::Reply,
    verified: &mut HashSet<(usize, Vec<u8>)>,
) -> Result<Seen, String> {
    if reply.status != 200 {
        return Err(format!(
            "{op:?}: status {} ({})",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    let mut seen = Seen::default();
    match op {
        Op::Eval { query, text } if plan.workload != Workload::DurableWrites => {
            let expected = &refs.evals[*query];
            let ok = if *text {
                reply.body == expected.text
            } else {
                reply.body.ends_with(&expected.json_suffix)
                    && reply.body.starts_with(b"{\"generation\":")
            };
            if !ok {
                return Err(format!(
                    "/eval {:?} ({}) differs from its reference",
                    plan.eval_queries[*query],
                    if *text { "text" } else { "json" }
                ));
            }
            seen.large = expected.rows > STREAM_ROWS_THRESHOLD;
        }
        Op::Eval { query, .. } => {
            // Durable reads race the writer, so their rows are checked
            // against the mirror after the run; here the reply must be a
            // well-formed result object.
            if !reply.body.starts_with(b"{\"generation\":") || !reply.body.ends_with(b"]}") {
                return Err(format!(
                    "/eval {:?}: malformed reply",
                    plan.eval_queries[*query]
                ));
            }
        }
        Op::Minimize { item } => {
            // Each distinct reply is checked once per connection.
            let key = (*item, reply.body);
            if !verified.contains(&key) {
                let (input, body) = (&plan.minimize[*item].text, &key.1);
                crate::check::minimize_matches(
                    input,
                    body,
                    &refs.minimize[*item],
                    &refs.minimize_signature[*item],
                )
                .map_err(|e| {
                    format!(
                        "/minimize {input:?}: {e}; got {}",
                        String::from_utf8_lossy(body)
                    )
                })?;
                verified.insert(key);
            }
        }
        Op::Mutate(m) => {
            let body = std::str::from_utf8(&reply.body).map_err(|_| "/mutate: non-utf8 reply")?;
            let json = Json::parse(body).map_err(|e| format!("/mutate reply: {e}"))?;
            let count = |k: &str| json.get(k).and_then(Json::as_u64);
            if count("inserted") != Some(m.insert.len() as u64)
                || count("removed") != Some(m.remove.len() as u64)
            {
                return Err(format!("/mutate: unexpected counts in {body}"));
            }
            match json.get("cache").and_then(Json::as_str) {
                Some("delta") => seen.delta = true,
                Some("rebuild") => seen.rebuild = true,
                other => return Err(format!("/mutate: cache path {other:?}")),
            }
        }
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_model_lru_and_inflight_misses() {
        let mut m = StoreModel::default();
        assert!(m.begin(0, 1, true));
        // The other connection misses the same key while it is in flight.
        assert!(m.begin(1, 1, true));
        m.end(0);
        m.end(1);
        assert!(!m.begin(0, 1, true));
        m.end(0);
        assert_eq!(m.counts.misses, 2);
        assert_eq!(m.counts.distinct_misses, 1);
        assert_eq!(m.counts.inflight_misses, 1);
        // Capacity: filling 32 more keys evicts key 1 (least recent).
        for q in 100..100 + RESULT_STORE_CAPACITY {
            m.begin(0, q, false);
            m.end(0);
        }
        assert!(m.begin(0, 1, false));
        m.end(0);
        m.invalidate();
        assert!(m.begin(1, 100 + RESULT_STORE_CAPACITY - 1, false));
    }
}
