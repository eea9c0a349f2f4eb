//! The traced run: each workload's seeded request stream replayed in
//! process through the same public functions the router calls, in the
//! router's order, with a span around every call into a layer. Spans
//! live in memory and are written out when the run ends; a second replay
//! with spans off gives the tracing overhead.
//!
//! A span's self time is its duration minus the durations of its
//! children; children run sequentially inside their parent on one
//! thread, so a request's self times sum exactly to its root span.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use prov_core::minimize::{MinimizeOutcome, Minimizer};
use prov_engine::{AnnotatedResult, EvalOptions, IndexCache, SessionStats};
use prov_semiring::Annotation;
use prov_server::{Json, Response, ServerState};
use prov_storage::textio::{parse_database_into, parse_tuple_line};
use prov_storage::wal::encode_payload;
use prov_storage::{recover_readonly, Database, DurabilityOptions, DurableStore, RelName, Tuple};

use crate::check::{minimize_body, minimize_options, parse_query, result_lines};
use crate::workload::{Op, Plan, Req, Workload, STREAM_ROWS_THRESHOLD};

/// No parent.
const ROOT: u32 = u32::MAX;
/// Bytes of WAL framing per event (`len: u32`, `crc: u32`).
const WAL_FRAME_HEADER: u64 = 8;
/// Bytes per streamed segment, as the server's `STREAM_SEGMENT_BYTES`.
const STREAM_SEGMENT_BYTES: usize = 64 * 1024;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name (`module.operation`).
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start: u64,
    /// End, ns since the replay began.
    pub end: u64,
    /// Index of the parent span in the same thread's buffer, or none.
    pub parent: u32,
    /// Request id shared by all spans of one request.
    pub req: u64,
}

/// An in-memory span recorder for one thread. With spans off every
/// call is a no-op, so the same replay code runs both ways.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    /// A recorder timing against `base`.
    pub fn new(on: bool, base: Instant) -> Tracer {
        Tracer {
            on,
            base,
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the request id of the spans that follow.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(self.spans.len() as u32);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req: self.req,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.stack.pop().expect("end without begin") as usize;
        self.spans[i].end = end;
    }

    /// Closes the innermost open span under a name chosen at its end
    /// (when the callee's counters tell which path it took).
    pub fn end_as(&mut self, name: &'static str) {
        if let Some(&i) = self.stack.last() {
            self.spans[i as usize].name = name;
        }
        self.end();
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "unclosed spans");
        self.spans
    }
}

/// Per-span-name totals of self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call in µs (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1000.0
        }
    }
}

/// Self times of one thread's spans, aggregated by name, after checking
/// that children nest inside their parents without overlapping and that
/// every request's self times sum to its root span. Returns the
/// aggregate and the number of request trees checked.
pub fn self_times(spans: &[Span]) -> Result<(BTreeMap<&'static str, LayerTime>, u64), String> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_child_end: Vec<Option<u64>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ends before it starts"));
        }
        if s.parent != ROOT {
            let p = s.parent as usize;
            let parent = spans.get(p).ok_or("dangling parent")?;
            if p >= i || s.start < parent.start || s.end > parent.end || s.req != parent.req {
                return Err(format!("span {i} ({}) escapes its parent {p}", s.name));
            }
            if last_child_end[p].is_some_and(|e| s.start < e) {
                return Err(format!("span {i} ({}) overlaps a sibling", s.name));
            }
            last_child_end[p] = Some(s.end);
            child_ns[p] += s.end - s.start;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    let mut tree_self: Vec<u64> = vec![0; spans.len()];
    let mut roots = 0;
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end - s.start) - child_ns[i];
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += own;
        // Accumulate each span's self time into its root.
        let mut root = i;
        while spans[root].parent != ROOT {
            root = spans[root].parent as usize;
        }
        tree_self[root] += own;
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            roots += 1;
            if tree_self[i] != s.end - s.start {
                return Err(format!(
                    "request {}: self times sum to {} ns, root span is {} ns",
                    s.req,
                    tree_self[i],
                    s.end - s.start
                ));
            }
        }
    }
    Ok((layers, roots))
}

/// Deterministic counts recorded at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// `/eval` responses rendered.
    pub eval_responses: u64,
    /// Their body bytes.
    pub response_bytes: u64,
    /// Rows produced by full rebuilds and delta applies.
    pub rows_out: u64,
    /// `/minimize` requests.
    pub minimize_requests: u64,
    /// Of which partial.
    pub minimize_partial: u64,
    /// Summed `Minimizer::stats` over the requests.
    pub minimize_steps: u64,
    /// Summed containment checks.
    pub minimize_hom_checks: u64,
    /// Summed canonical-key dedup skips.
    pub minimize_memo_dedup_skips: u64,
    /// Summed dominance skips.
    pub minimize_dominance_skips: u64,
    /// User bytes mutated (textio lines).
    pub user_bytes: u64,
    /// Bytes written to the WAL.
    pub wal_bytes: u64,
    /// Bytes written as snapshots.
    pub snapshot_bytes: u64,
    /// Traced renders that differed from the reference bytes.
    pub render_mismatches: u64,
}

impl Counts {
    /// Whether two replays of one stream did the same work. Response
    /// bytes are left out: `/eval` bodies carry the database generation,
    /// a process-wide counter, so a later replay in the same process can
    /// print it with more digits.
    pub fn same_work(&self, other: &Counts) -> bool {
        Counts {
            response_bytes: 0,
            ..*self
        } == Counts {
            response_bytes: 0,
            ..*other
        }
    }

    fn add(&mut self, o: &Counts) {
        self.eval_responses += o.eval_responses;
        self.response_bytes += o.response_bytes;
        self.rows_out += o.rows_out;
        self.minimize_requests += o.minimize_requests;
        self.minimize_partial += o.minimize_partial;
        self.minimize_steps += o.minimize_steps;
        self.minimize_hom_checks += o.minimize_hom_checks;
        self.minimize_memo_dedup_skips += o.minimize_memo_dedup_skips;
        self.minimize_dominance_skips += o.minimize_dominance_skips;
        self.user_bytes += o.user_bytes;
        self.wal_bytes += o.wal_bytes;
        self.snapshot_bytes += o.snapshot_bytes;
        self.render_mismatches += o.render_mismatches;
    }
}

/// Requests replayed per connection (and, durable, per role).
#[derive(Clone, Copy, Debug)]
pub struct ReplaySize {
    /// Requests per connection (hot_read, cold_analytics) or reader
    /// requests (durable_writes).
    pub per_conn: usize,
    /// Durable writer requests.
    pub writes: usize,
}

impl ReplaySize {
    /// The fixed replay length of each workload.
    pub fn of(workload: Workload) -> ReplaySize {
        match workload {
            Workload::HotRead => ReplaySize {
                per_conn: 2000,
                writes: 0,
            },
            Workload::ColdAnalytics => ReplaySize {
                per_conn: 300,
                writes: 0,
            },
            Workload::DurableWrites => ReplaySize {
                per_conn: 1500,
                writes: 300,
            },
        }
    }
}

/// One replay's output.
#[derive(Debug)]
pub struct Replay {
    /// Spans of every thread, in thread order.
    pub spans: Vec<Vec<Span>>,
    /// Deterministic counts.
    pub counts: Counts,
    /// Wall time of the request replay (set-up excluded), ns.
    pub wall_ns: u64,
    /// The session's counters after the replay.
    pub session: SessionStats,
}

/// Where a replay gets its state: the database text (memory-only
/// workloads) or a prepared data dir copied for each replay.
#[derive(Debug)]
pub struct ReplayInput<'a> {
    /// The plan.
    pub plan: &'a Plan,
    /// Durable: the prepared data dir (copied, never modified).
    pub data_dir: Option<&'a Path>,
    /// Scratch directory for the replay's own data dir copy.
    pub scratch: &'a Path,
    /// Expected render bytes per `/eval` query (memory-only workloads).
    pub refs: &'a crate::check::References,
}

/// Replays the plan's request stream with spans on or off.
pub fn replay(input: &ReplayInput<'_>, on: bool, size: ReplaySize) -> Result<Replay, String> {
    let plan = input.plan;
    let base = Instant::now();
    let mut setup = Tracer::new(on, base);
    let shadow = IndexCache::new();
    let (state, store_db_dir) = match input.data_dir {
        None => {
            setup.begin("textio.load");
            let mut db = Database::new();
            parse_database_into(&mut db, &plan.db_text).map_err(|e| e.to_string())?;
            setup.end();
            (ServerState::new(db), None)
        }
        Some(prepared) => {
            let dir = input
                .scratch
                .join(if on { "replay-traced" } else { "replay-plain" });
            crate::copy_dir(prepared, &dir)?;
            setup.begin("durability.recover");
            let (recovered, _) = recover_readonly(&dir, prov_storage::DELTA_LOG_CAPACITY)?;
            setup.end();
            drop(recovered);
            let snapshot = std::fs::read_to_string(dir.join(prov_storage::snapshot::SNAPSHOT_FILE))
                .map_err(|e| format!("reading snapshot: {e}"))?;
            setup.begin("textio.load");
            let mut parsed = Database::new();
            parse_database_into(&mut parsed, &snapshot).map_err(|e| e.to_string())?;
            setup.end();
            drop(parsed);
            let (store, db) = DurableStore::open(&dir, DurabilityOptions::default())?;
            let capacity = db.delta_capacity();
            (
                ServerState::with_durability(db, Some(store), capacity),
                Some(dir),
            )
        }
    };
    {
        let db = state.read_db();
        setup.begin("cache.view_build");
        shadow.views(&db).columnar(&db);
        setup.end();
    }
    let started = Instant::now();
    let mut thread_spans = vec![setup.into_spans()];
    let mut counts = Counts::default();
    if plan.workload == Workload::DurableWrites {
        let barrier = Arc::new(Barrier::new(2));
        let (state, shadow) = (&state, &shadow);
        let results: Vec<Result<(Vec<Span>, Counts), String>> = std::thread::scope(|scope| {
            let roles = [(0usize, size.writes), (1usize, size.per_conn)];
            let handles: Vec<_> = roles
                .into_iter()
                .map(|(conn, n)| {
                    let barrier = Arc::clone(&barrier);
                    scope.spawn(move || {
                        let mut tr = Tracer::new(on, base);
                        let mut c = Counts::default();
                        let mut stream = plan.stream(conn);
                        barrier.wait();
                        for i in 0..n {
                            tr.request((2 * i + conn) as u64);
                            let req = stream.next_req();
                            handle(plan, input.refs, state, shadow, &mut tr, &req, &mut c)?;
                        }
                        Ok((tr.into_spans(), c))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("replay thread panicked".into()))
                })
                .collect()
        });
        for r in results {
            let (spans, c) = r?;
            thread_spans.push(spans);
            counts.add(&c);
        }
    } else {
        let mut tr = Tracer::new(on, base);
        let mut streams = [plan.stream(0), plan.stream(1)];
        for i in 0..size.per_conn {
            for (conn, stream) in streams.iter_mut().enumerate() {
                tr.request((2 * i + conn) as u64);
                let req = stream.next_req();
                handle(
                    plan,
                    input.refs,
                    &state,
                    &shadow,
                    &mut tr,
                    &req,
                    &mut counts,
                )?;
            }
        }
        thread_spans.push(tr.into_spans());
    }
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let session = state.session().stats();
    drop(state);
    if let Some(dir) = store_db_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Replay {
        spans: thread_spans,
        counts,
        wall_ns,
        session,
    })
}

fn body_of(req: &Req) -> &str {
    let split = req
        .bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("generated requests have a head");
    std::str::from_utf8(&req.bytes[split + 4..]).expect("generated bodies are utf-8")
}

fn handle(
    plan: &Plan,
    refs: &crate::check::References,
    state: &ServerState,
    shadow: &IndexCache,
    tr: &mut Tracer,
    req: &Req,
    counts: &mut Counts,
) -> Result<(), String> {
    let body = body_of(req);
    match &req.op {
        Op::Eval { query, text } => {
            tr.begin("router.eval");
            let bytes = eval(state, tr, body, *text, counts)?;
            tr.end();
            counts.eval_responses += 1;
            counts.response_bytes += bytes.len() as u64;
            if plan.workload != Workload::DurableWrites {
                let expected = &refs.evals[*query];
                let same = if *text {
                    bytes == expected.text
                } else {
                    bytes.ends_with(&expected.json_suffix)
                };
                counts.render_mismatches += u64::from(!same);
            }
        }
        Op::Minimize { .. } => {
            tr.begin("router.minimize");
            minimize(plan, tr, body, counts)?;
            tr.end();
        }
        Op::Mutate(m) => {
            tr.begin("router.mutate");
            let (from, rotated) = mutate(state, tr, body)?;
            tr.end();
            counts.user_bytes += m
                .insert
                .iter()
                .chain(&m.remove)
                .map(|f| f.line().len() as u64 + 1)
                .sum::<u64>();
            // Probes outside the request tree: bytes persisted, and the
            // view cache's patch/build on the same database and events.
            let db = state.read_db();
            match db.deltas_since(from) {
                Some(events) => {
                    counts.wal_bytes += events
                        .iter()
                        .map(|e| encode_payload(e).len() as u64 + WAL_FRAME_HEADER)
                        .sum::<u64>();
                    tr.begin("cache.view_patch");
                    shadow.patch(&db, from, events);
                    tr.end();
                }
                None => {
                    tr.begin("cache.view_build");
                    shadow.views(&db).columnar(&db);
                    tr.end();
                }
            }
            if rotated {
                if let Some(store) = state.durability() {
                    let path = prov_storage::snapshot::snapshot_path(store.dir());
                    counts.snapshot_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                }
            }
        }
    }
    Ok(())
}

fn parse_body(tr: &mut Tracer, body: &str) -> Result<Json, String> {
    tr.begin("json.parse");
    let json = Json::parse(body).map_err(|e| e.to_string());
    tr.end();
    json
}

fn parse_query_field(tr: &mut Tracer, json: &Json) -> Result<prov_query::UnionQuery, String> {
    tr.begin("parser.query");
    let q = json
        .get("query")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing query".to_owned())
        .and_then(parse_query);
    tr.end();
    q
}

fn eval(
    state: &ServerState,
    tr: &mut Tracer,
    body: &str,
    text: bool,
    counts: &mut Counts,
) -> Result<Vec<u8>, String> {
    let json = parse_body(tr, body)?;
    let query = parse_query_field(tr, &json)?;
    tr.begin("state.read_wait");
    let db = state.read_db();
    tr.end();
    let before = state.session().stats();
    tr.begin("session.eval");
    let result = state
        .session()
        .eval_ucq_with(&query, &db, EvalOptions::default());
    let after = state.session().stats();
    let path = if after.full_rebuilds > before.full_rebuilds {
        "session.rebuild"
    } else if after.delta_applies > before.delta_applies {
        "session.delta"
    } else {
        "session.hit"
    };
    tr.end_as(path);
    if path != "session.hit" {
        counts.rows_out += result.len() as u64;
    }
    let generation = db.generation();
    drop(db);
    tr.begin("router.render");
    let bytes = render(state, result, generation, text).into_body_bytes();
    tr.end();
    Ok(bytes)
}

/// The router's `/eval` rendering: buffered below the streaming
/// threshold, chunk-streamed above it, JSON or text.
fn render(
    state: &ServerState,
    result: Arc<AnnotatedResult>,
    generation: u64,
    text: bool,
) -> Response {
    if text {
        if result.len() > STREAM_ROWS_THRESHOLD {
            return streamed(result, None);
        }
        return Response::text(200, result_lines(&result).join("\n") + "\n");
    }
    let stats = state.session().stats();
    let head = vec![
        ("generation".to_owned(), Json::from_u64(generation)),
        ("rows".to_owned(), Json::from_u64(result.len() as u64)),
        ("cache".to_owned(), cache_json(&stats)),
    ];
    if result.len() > STREAM_ROWS_THRESHOLD {
        return streamed(result, Some(head));
    }
    let lines = result_lines(&result);
    let mut fields = head;
    fields.push((
        "results".to_owned(),
        Json::Arr(lines.into_iter().map(Json::Str).collect()),
    ));
    Response::json(200, &Json::Obj(fields))
}

/// A streamed `/eval` body: segments of about [`STREAM_SEGMENT_BYTES`]
/// re-seeking the shared result by the last tuple written; JSON mode
/// (`head` given) wraps the rows in the result object.
fn streamed(result: Arc<AnnotatedResult>, head: Option<Vec<(String, Json)>>) -> Response {
    let json = head.is_some();
    let mut prefix = head.map(|fields| {
        let mut text = Json::Obj(fields).to_string();
        text.pop();
        text.push_str(",\"results\":[");
        text.into_bytes()
    });
    let mut cursor: Option<Tuple> = None;
    let mut emitted_any = false;
    let mut done = false;
    let content_type = if json {
        "application/json"
    } else {
        "text/plain; charset=utf-8"
    };
    Response::streamed(
        200,
        content_type,
        Box::new(move || {
            if done {
                return None;
            }
            let mut seg = prefix.take().unwrap_or_default();
            let mut last: Option<Tuple> = None;
            for (tuple, p) in result.iter_from(cursor.as_ref()) {
                if json {
                    if emitted_any || last.is_some() {
                        seg.push(b',');
                    }
                    seg.extend_from_slice(
                        Json::Str(format!("{tuple}  [{p}]")).to_string().as_bytes(),
                    );
                } else {
                    seg.extend_from_slice(format!("{tuple}  [{p}]\n").as_bytes());
                }
                last = Some(tuple.clone());
                if seg.len() >= STREAM_SEGMENT_BYTES {
                    break;
                }
            }
            match last {
                Some(advanced) => {
                    cursor = Some(advanced);
                    emitted_any = true;
                    Some(seg)
                }
                None if json => {
                    done = true;
                    seg.extend_from_slice(b"]}");
                    Some(seg)
                }
                None => None,
            }
        }),
    )
}

fn cache_json(stats: &SessionStats) -> Json {
    let field = |k: &str, v: u64| (k.to_owned(), Json::from_u64(v));
    Json::Obj(vec![
        field("hits", stats.views.hits),
        field("misses", stats.views.misses),
        field("delta_applies", stats.delta_applies),
        field("full_rebuilds", stats.full_rebuilds),
        field("monomials_dropped", stats.monomials_dropped),
        field("invalidations", stats.invalidations),
        field("peak_frontier_rows", stats.peak_frontier_rows),
    ])
}

fn minimize(plan: &Plan, tr: &mut Tracer, body: &str, counts: &mut Counts) -> Result<(), String> {
    let json = parse_body(tr, body)?;
    let query = parse_query_field(tr, &json)?;
    tr.begin("minimize.request");
    let mut minimizer = Minimizer::new(minimize_options(plan.budget_steps));
    let outcome = minimizer.minimize(&query).map_err(|e| e.to_string())?;
    let stats = minimizer.stats();
    tr.end();
    counts.minimize_requests += 1;
    counts.minimize_partial += u64::from(matches!(outcome, MinimizeOutcome::Partial(_)));
    counts.minimize_steps += stats.steps;
    counts.minimize_hom_checks += stats.hom_checks;
    counts.minimize_memo_dedup_skips += stats.memo_dedup_skips;
    counts.minimize_dominance_skips += stats.dominance_skips;
    tr.begin("router.render");
    let _ = Response::json(200, &minimize_body(&outcome)).into_body_bytes();
    tr.end();
    Ok(())
}

/// The router's `/mutate`: parse, validate and apply under the write
/// lock, persist before acknowledging. Returns the generation the
/// mutation started from and whether a snapshot was rotated.
fn mutate(state: &ServerState, tr: &mut Tracer, body: &str) -> Result<(u64, bool), String> {
    let json = parse_body(tr, body)?;
    tr.begin("textio.parse_lines");
    let mut removes: Vec<(RelName, Tuple)> = Vec::new();
    let mut inserts: Vec<(RelName, Tuple, Annotation)> = Vec::new();
    for field in ["remove", "insert"] {
        for line in json.get(field).and_then(Json::as_array).unwrap_or_default() {
            let text = line.as_str().ok_or("non-string fact")?;
            let (rel, tuple, ann) = parse_tuple_line(text)?.ok_or("blank fact")?;
            if field == "remove" {
                removes.push((rel, tuple));
            } else {
                inserts.push((rel, tuple, ann.ok_or("unannotated fact")?));
            }
        }
    }
    tr.end();
    tr.begin("state.write_wait");
    let mut db = state.write_db();
    tr.end();
    tr.begin("router.validate");
    for (rel, tuple, a) in &inserts {
        if db
            .relation(*rel)
            .is_some_and(|r| r.arity() != tuple.arity())
        {
            return Err(format!("arity mismatch inserting {rel}{tuple}"));
        }
        if let Some((r0, t0)) = db.tuple_of(*a) {
            if r0 != rel || t0 != tuple {
                return Err(format!("annotation {a} already tags {r0}{t0}"));
            }
        }
    }
    tr.end();
    let from = db.generation();
    tr.begin("session.apply_mutation");
    let outcome = state.session().apply_mutation(&mut db, &removes, &inserts);
    tr.end();
    let mut rotated = false;
    if let Some(mut store) = state.durability() {
        match db.deltas_since(from) {
            Some(events) if !events.is_empty() => {
                tr.begin("wal.append");
                rotated = store.append(events, &db).map_err(|e| e.to_string())?;
                tr.end_as(if rotated {
                    "snapshot.rotate"
                } else {
                    "wal.append"
                });
            }
            Some(_) => {}
            None => {
                tr.begin("snapshot.rotate");
                store.snapshot(&db).map_err(|e| e.to_string())?;
                tr.end();
                rotated = true;
            }
        }
    }
    tr.begin("router.render");
    let reply = Json::Obj(vec![
        ("removed".to_owned(), Json::from_u64(outcome.removed as u64)),
        (
            "inserted".to_owned(),
            Json::from_u64(outcome.inserted as u64),
        ),
        ("tuples".to_owned(), Json::from_u64(db.num_tuples() as u64)),
        ("generation".to_owned(), Json::from_u64(outcome.generation)),
        ("cache".to_owned(), Json::str(outcome.cache.as_str())),
    ]);
    let _ = Response::json(200, &reply).into_body_bytes();
    tr.end();
    drop(db);
    Ok((from, rotated))
}

/// Writes every span as one JSON line.
pub fn write_spans(path: &Path, threads: &[Vec<Span>]) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (thread, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start, s.end
            )
            .map_err(|e| e.to_string())?;
        }
    }
    out.flush().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_root() {
        let spans = vec![
            span("router.eval", 0, 100, ROOT),
            span("json.parse", 10, 20, 0),
            span("session.hit", 30, 70, 0),
            span("router.render", 70, 95, 0),
        ];
        let (layers, roots) = self_times(&spans).unwrap();
        assert_eq!(roots, 1);
        assert_eq!(layers["router.eval"].self_ns, 100 - 10 - 40 - 25);
        assert_eq!(layers["session.hit"].self_ns, 40);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let escaping = vec![span("a", 0, 10, ROOT), span("b", 5, 11, 0)];
        assert!(self_times(&escaping).is_err());
        let overlapping = vec![
            span("a", 0, 10, ROOT),
            span("b", 1, 5, 0),
            span("c", 4, 6, 0),
        ];
        assert!(self_times(&overlapping).is_err());
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        tr.begin("x");
        tr.end_as("y");
        assert!(tr.into_spans().is_empty());
        let mut tr = Tracer::new(true, Instant::now());
        tr.begin("x");
        tr.begin("y");
        tr.end();
        tr.end_as("z");
        let spans = tr.into_spans();
        assert_eq!(spans[0].name, "z");
        assert_eq!(spans[1].parent, 0);
    }
}
