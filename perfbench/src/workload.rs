//! Seeded workload generation: the served database, the query sets, and
//! each connection's request stream. Everything here is a pure function
//! of `(workload, seed)` and produces text only — nothing is interned or
//! evaluated — so the server receives exactly the generated inputs.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;

use prov_query::generate::{chain, qn_family, random_cq, star, QuerySpec};
use prov_query::{parse_cq, Term, Variable};
use prov_server::Json;

/// The three serving workloads (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Memory-only, `/eval` over 12 fixed queries: every request is a
    /// session hit after warm-up, so wire, JSON, parse and render dominate.
    HotRead,
    /// Memory-only, 512 distinct queries (16x the result store) plus 20%
    /// `/minimize`: the planner, batched pipeline and minimizer block.
    ColdAnalytics,
    /// Recovered from a data dir; one writer connection (`/mutate`) beside
    /// one reader connection (`/eval`) on one session.
    DurableWrites,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::HotRead,
        Workload::ColdAnalytics,
        Workload::DurableWrites,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ColdAnalytics => "cold_analytics",
            Workload::DurableWrites => "durable_writes",
        }
    }
}

/// The session's materialized-result capacity (`RESULT_CACHE_CAPACITY`
/// in `prov-engine`); the client-side store model mirrors it.
pub const RESULT_STORE_CAPACITY: usize = 32;
/// Rows above which the server streams an `/eval` response.
pub const STREAM_ROWS_THRESHOLD: usize = 512;
/// The default `--delta-capacity` window; bulk batches exceed it.
pub const DELTA_WINDOW: usize = 64;

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same stream on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipf(`s`) distribution over ranks `0..n` (rank 0 most popular).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One fact of a binary relation, with its explicit annotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fact {
    /// Relation name (`R` or `S`).
    pub rel: &'static str,
    /// First value index (`v<a>`).
    pub a: u32,
    /// Second value index (`v<b>`).
    pub b: u32,
    /// Annotation name.
    pub ann: String,
}

impl Fact {
    /// The fact as a textio line, `R(v1,v2) : ann`.
    pub fn line(&self) -> String {
        format!("{}(v{},v{}) : {}", self.rel, self.a, self.b, self.ann)
    }
}

/// One `/mutate` request's payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutation {
    /// Facts inserted.
    pub insert: Vec<Fact>,
    /// Facts removed.
    pub remove: Vec<Fact>,
}

impl Mutation {
    /// Whether the batch outruns the delta-log window.
    pub fn is_bulk(&self) -> bool {
        self.insert.len() + self.remove.len() > DELTA_WINDOW
    }
}

/// What a request asks for; the load generator checks replies against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /eval` of `plan.eval_queries[query]`, text or JSON.
    Eval {
        /// Index into [`Plan::eval_queries`].
        query: usize,
        /// `Accept: text/plain`.
        text: bool,
    },
    /// `POST /minimize` of `plan.minimize[item]`.
    Minimize {
        /// Index into [`Plan::minimize`].
        item: usize,
    },
    /// `POST /mutate`.
    Mutate(Mutation),
}

/// One generated request: the operation plus its exact wire bytes.
#[derive(Clone, Debug)]
pub struct Req {
    /// The operation.
    pub op: Op,
    /// The HTTP/1.1 request, byte for byte.
    pub bytes: Vec<u8>,
}

/// A `/minimize` input: the query text and, for a renamed repeat, the
/// earlier pool entry it renames.
#[derive(Clone, Debug)]
pub struct MinimizeItem {
    /// Query text.
    pub text: String,
    /// `Some(i)` when this entry is pool entry `i` with variables renamed.
    pub renamed_from: Option<usize>,
}

/// Everything generated for one `(workload, seed)`.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// The served database as textio text (`--db` file, or the initial
    /// snapshot of the durable data dir).
    pub db_text: String,
    /// Durable only: mutations appended to the WAL after the snapshot,
    /// so boot recovery replays a tail.
    pub wal_tail: Vec<Mutation>,
    /// Every `/eval` query text (CLI syntax; `;` joins union rules).
    pub eval_queries: Vec<String>,
    /// Popularity over `eval_queries`.
    pub eval_popularity: Zipf,
    /// Share of `/eval` requests sent with `Accept: text/plain`.
    pub text_share: f64,
    /// Share of requests that are `/minimize` (cold_analytics).
    pub minimize_share: f64,
    /// The `/minimize` pool, walked in order by each connection.
    pub minimize: Vec<MinimizeItem>,
    /// `budget_steps` sent with every `/minimize`.
    pub budget_steps: u64,
    /// Durable: the reader-joined constant each writer favours.
    pub hot_value: u32,
    /// Durable: value domain size of the writer's facts.
    pub domain: u32,
    /// Durable: every `n`-th mutation is a bulk batch.
    pub bulk_every: u64,
    /// Durable: facts per bulk batch (> the 64-event delta window).
    pub bulk_size: usize,
}

impl Plan {
    /// Generates the plan for `workload` under `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::HotRead => hot_read(seed),
            Workload::ColdAnalytics => cold_analytics(seed),
            Workload::DurableWrites => durable_writes(seed),
        }
    }

    /// The parameters recorded with every result.
    pub fn parameters(&self) -> Json {
        let num = |n: f64| Json::Num(n);
        Json::Obj(vec![
            ("workload".into(), Json::str(self.workload.name())),
            ("seed".into(), Json::from_u64(self.seed)),
            (
                "db_tuples".into(),
                Json::from_u64(self.db_text.lines().count() as u64),
            ),
            (
                "wal_tail_events".into(),
                Json::from_u64(
                    self.wal_tail
                        .iter()
                        .map(|m| (m.insert.len() + m.remove.len()) as u64)
                        .sum(),
                ),
            ),
            (
                "eval_queries".into(),
                Json::from_u64(self.eval_queries.len() as u64),
            ),
            ("text_share".into(), num(self.text_share)),
            ("minimize_share".into(), num(self.minimize_share)),
            (
                "minimize_pool".into(),
                Json::from_u64(self.minimize.len() as u64),
            ),
            (
                "renamed_repeats_in_pool".into(),
                Json::from_u64(
                    self.minimize
                        .iter()
                        .filter(|m| m.renamed_from.is_some())
                        .count() as u64,
                ),
            ),
            ("budget_steps".into(), Json::from_u64(self.budget_steps)),
            ("bulk_every".into(), Json::from_u64(self.bulk_every)),
            ("bulk_size".into(), Json::from_u64(self.bulk_size as u64)),
            (
                "result_store_capacity".into(),
                Json::from_u64(RESULT_STORE_CAPACITY as u64),
            ),
            ("connections".into(), Json::from_u64(2)),
        ])
    }

    /// Connection `conn`'s request stream (0 or 1).
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream::new(self, conn)
    }
}

/// A random binary relation of `n` distinct facts over `domain` values,
/// annotated `<prefix><i>`, as facts.
fn random_relation(
    rng: &mut Rng,
    rel: &'static str,
    prefix: &str,
    n: usize,
    domain: u32,
) -> Vec<Fact> {
    let mut seen = HashSet::new();
    let mut facts = Vec::with_capacity(n);
    while facts.len() < n {
        let (a, b) = (
            rng.below(domain as usize) as u32,
            rng.below(domain as usize) as u32,
        );
        if seen.insert((a, b)) {
            facts.push(Fact {
                rel,
                a,
                b,
                ann: format!("{prefix}{}", facts.len()),
            });
        }
    }
    facts
}

fn db_text(relations: &[&[Fact]]) -> String {
    let mut text = String::new();
    for facts in relations {
        for f in *facts {
            text.push_str(&f.line());
            text.push('\n');
        }
    }
    text
}

/// A value whose out-degree in `facts` is the median one, drawn from the
/// middle of the degree order: seeds then differ in *which* constant a
/// query names, not in how much work it selects.
fn median_degree_value(rng: &mut Rng, facts: &[Fact], domain: u32, by_first: bool) -> u32 {
    let mut degree = vec![0u32; domain as usize];
    for f in facts {
        degree[(if by_first { f.a } else { f.b }) as usize] += 1;
    }
    let mut order: Vec<u32> = (0..domain).collect();
    order.sort_by_key(|&v| (degree[v as usize], v));
    let mid = order.len() / 2;
    let window = (order.len() / 10).max(1);
    order[mid - window / 2 + rng.below(window)]
}

fn hot_read(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let domain = 300;
    let r = random_relation(&mut rng, "R", "r", 3000, domain);
    let s = random_relation(&mut rng, "S", "s", 2000, domain);
    let a = median_degree_value(&mut rng, &r, domain, true);
    let b = median_degree_value(&mut rng, &r, domain, false);
    let c = median_degree_value(&mut rng, &s, domain, false);
    let d = median_degree_value(&mut rng, &s, domain, true);
    // Fixed popularity order: rank i is always the same query shape, so
    // seeds change constants and data but not the cost profile.
    let eval_queries = vec![
        format!("ans(y) :- R('v{a}',y)"),
        format!("ans(x) :- R(x,'v{b}')"),
        format!("ans(y,z) :- R('v{a}',y), S(y,z)"),
        format!("ans(x) :- R(x,y), S(y,'v{c}')"),
        format!("ans(x) :- R('v{a}',x); ans(x) :- S('v{d}',x)"),
        "ans(x,y) :- R(x,y), S(x,y)".to_owned(),
        "ans(x) :- R(x,y), R(y,x), x != y".to_owned(),
        format!("ans(x,z) :- R(x,'v{b}'), S('v{d}',z)"),
        "ans(x,y) :- S(x,y)".to_owned(),
        "ans(x) :- R(x,y)".to_owned(),
        "ans(x,y) :- R(x,y), x != y".to_owned(),
        format!("ans(x,w) :- R(x,'v{b}'), R('v{a}',w)"),
    ];
    Plan {
        workload: Workload::HotRead,
        seed,
        db_text: db_text(&[&r, &s]),
        wal_tail: Vec::new(),
        eval_popularity: Zipf::new(eval_queries.len(), 1.0),
        eval_queries,
        text_share: 0.25,
        minimize_share: 0.0,
        minimize: Vec::new(),
        budget_steps: 0,
        hot_value: 0,
        domain,
        bulk_every: 0,
        bulk_size: 0,
    }
}

/// Number of distinct `/eval` queries in cold_analytics (16x the store).
pub const COLD_QUERIES: usize = 512;
/// `/minimize` pool size in cold_analytics.
pub const MINIMIZE_POOL: usize = 240;
/// Every `n`-th pool entry is a renamed repeat of an earlier entry.
pub const RENAMED_REPEAT_EVERY: usize = 4;

fn cold_analytics(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 2);
    let domain = 2000;
    let r = random_relation(&mut rng, "R", "r", 10_000, domain);
    let s = random_relation(&mut rng, "S", "s", 10_000, domain);
    let mut seen = HashSet::new();
    let mut eval_queries = Vec::with_capacity(COLD_QUERIES);
    while eval_queries.len() < COLD_QUERIES {
        // Shape by rank, constants by seed: the cost profile along the
        // popularity order is the same for every seed.
        let k = rng.below(domain as usize);
        let k2 = rng.below(domain as usize);
        let q = match eval_queries.len() % 8 {
            0 => format!("ans(y,z) :- R('v{k}',y), S(y,z)"),
            1 => format!("ans(x,w) :- R('v{k}',x), S(x,y), R(y,w)"),
            2 => format!("ans(x) :- R(x,y), S(y,'v{k}')"),
            3 => format!("ans(x,y) :- R(x,y), R(y,z), S(z,'v{k}'), x != z"),
            4 => format!("ans(x,y) :- R(x,y), S(y,x), x != 'v{k}'"),
            5 => format!("ans(y) :- R('v{k}',y), S(y,z); ans(y) :- S('v{k2}',y), R(y,z)"),
            6 => format!("ans(x,z) :- R(x,y), R(y,z), R(z,'v{k}'), S(x,w)"),
            _ => format!("ans(x) :- S(x,y), S(y,z), R(z,'v{k}'), x != y"),
        };
        if seen.insert(q.clone()) {
            eval_queries.push(q);
        }
    }
    Plan {
        workload: Workload::ColdAnalytics,
        seed,
        db_text: db_text(&[&r, &s]),
        wal_tail: Vec::new(),
        eval_popularity: Zipf::new(COLD_QUERIES, 0.5),
        eval_queries,
        text_share: 0.0,
        minimize_share: 0.2,
        minimize: minimize_pool(&mut rng),
        budget_steps: 64,
        hot_value: 0,
        domain,
        bulk_every: 0,
        bulk_size: 0,
    }
}

/// Seeded self-join CQs for `/minimize`: `random_cq` over one binary
/// relation, `qn_family(2..=3)`, and star/chain shapes, with every
/// [`RENAMED_REPEAT_EVERY`]-th entry an earlier entry with its variables
/// renamed.
fn minimize_pool(rng: &mut Rng) -> Vec<MinimizeItem> {
    let mut pool: Vec<MinimizeItem> = Vec::with_capacity(MINIMIZE_POOL);
    while pool.len() < MINIMIZE_POOL {
        let i = pool.len();
        if i % RENAMED_REPEAT_EVERY == RENAMED_REPEAT_EVERY - 1 {
            let from = rng.below(i);
            pool.push(MinimizeItem {
                text: rename_variables(&pool[from].text, i),
                renamed_from: Some(from),
            });
            continue;
        }
        let q = match rng.below(8) {
            0..=3 => {
                let atoms = 3 + rng.below(2);
                let mut spec = QuerySpec::binary(atoms, 3);
                spec.diseq_percent = 10;
                random_cq(&spec, rng.next_u64())
            }
            4 => qn_family(2 + rng.below(2)),
            5 | 6 => star(3 + rng.below(2)),
            _ => chain(2 + rng.below(2)),
        };
        pool.push(MinimizeItem {
            text: q.to_string(),
            renamed_from: None,
        });
    }
    pool
}

/// `text` (one CQ) with every variable `v` renamed to `v_r<tag>`.
pub fn rename_variables(text: &str, tag: usize) -> String {
    let q = parse_cq(text).expect("pool queries are generated well-formed");
    q.substitute(&mut |v: Variable| Term::Var(Variable::new(&format!("{v}_r{tag}"))))
        .to_string()
}

fn durable_writes(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 3);
    let domain = 300;
    let r = random_relation(&mut rng, "R", "r", 1500, domain);
    let s = random_relation(&mut rng, "S", "s", 1500, domain);
    let k = median_degree_value(&mut rng, &r, domain, true);
    let c = median_degree_value(&mut rng, &s, domain, false);
    let eval_queries = vec![
        format!("ans(y,z) :- R('v{k}',y), S(y,z)"),
        format!("ans(x) :- R(x,y), S(y,'v{c}')"),
        format!("ans(y) :- S('v{k}',y)"),
        format!("ans(x,z) :- R('v{k}',x), R(x,z)"),
    ];
    let mut plan = Plan {
        workload: Workload::DurableWrites,
        seed,
        db_text: db_text(&[&r, &s]),
        wal_tail: Vec::new(),
        eval_popularity: Zipf::new(eval_queries.len(), 0.0),
        eval_queries,
        text_share: 0.0,
        minimize_share: 0.0,
        minimize: Vec::new(),
        budget_steps: 0,
        hot_value: k,
        domain,
        bulk_every: 50,
        bulk_size: 80,
    };
    // The WAL tail is the first mutations of a writer stream under a
    // different label, so the recovered state is itself seeded.
    let mut tail = Writer::new(&plan, Rng::new(seed, 4), "t");
    plan.wal_tail = (0..100).map(|_| tail.next_mutation(false)).collect();
    plan
}

/// The durable writer: single-fact insert/remove pairs over a small FIFO
/// window of live facts, and every `bulk_every`-th request a bulk batch
/// (alternately inserting and removing `bulk_size` facts). Annotations of
/// removed facts are reused by later inserts, so the set of annotation
/// names (which the server interns for good) stays bounded however long
/// a run lasts.
#[derive(Clone, Debug)]
struct Writer {
    rng: Rng,
    present: HashSet<(&'static str, u32, u32)>,
    live: VecDeque<Fact>,
    bulk: Option<Vec<Fact>>,
    count: u64,
    free: Vec<String>,
    remove_next: bool,
    minted: u64,
    prefix: &'static str,
    hot_value: u32,
    domain: u32,
    bulk_every: u64,
    bulk_size: usize,
}

/// Facts the writer keeps live before it starts removing.
const LIVE_WINDOW: usize = 4;

impl Writer {
    fn new(plan: &Plan, rng: Rng, prefix: &'static str) -> Writer {
        let mut present = HashSet::new();
        for line in plan.db_text.lines() {
            present.insert(parse_fact_key(line));
        }
        for m in &plan.wal_tail {
            for f in &m.remove {
                present.remove(&(f.rel, f.a, f.b));
            }
            for f in &m.insert {
                present.insert((f.rel, f.a, f.b));
            }
        }
        Writer {
            rng,
            present,
            live: VecDeque::new(),
            bulk: None,
            count: 0,
            free: Vec::new(),
            minted: 0,
            remove_next: false,
            prefix,
            hot_value: plan.hot_value,
            domain: plan.domain,
            bulk_every: plan.bulk_every,
            bulk_size: plan.bulk_size,
        }
    }

    /// A fact not currently in the database, favouring the reader's
    /// constant so deltas reach the reader's results.
    fn fresh_fact(&mut self) -> Fact {
        loop {
            let rel = if self.rng.below(2) == 0 { "R" } else { "S" };
            let a = if self.rng.below(4) == 0 {
                self.hot_value
            } else {
                self.rng.below(self.domain as usize) as u32
            };
            let b = self.rng.below(self.domain as usize) as u32;
            if self.present.insert((rel, a, b)) {
                let ann = self.free.pop().unwrap_or_else(|| {
                    self.minted += 1;
                    format!("{}{}", self.prefix, self.minted)
                });
                return Fact { rel, a, b, ann };
            }
        }
    }

    /// A fact is being removed: its tuple and annotation become free.
    fn release(&mut self, f: &Fact) {
        self.present.remove(&(f.rel, f.a, f.b));
        self.free.push(f.ann.clone());
    }

    fn next_mutation(&mut self, allow_bulk: bool) -> Mutation {
        self.count += 1;
        if allow_bulk && self.bulk_every > 0 && self.count.is_multiple_of(self.bulk_every) {
            return match self.bulk.take() {
                Some(facts) => {
                    for f in &facts {
                        self.release(f);
                    }
                    Mutation {
                        insert: Vec::new(),
                        remove: facts,
                    }
                }
                None => {
                    let facts: Vec<Fact> = (0..self.bulk_size).map(|_| self.fresh_fact()).collect();
                    self.bulk = Some(facts.clone());
                    Mutation {
                        insert: facts,
                        remove: Vec::new(),
                    }
                }
            };
        }
        // Singles alternate insert and remove once the window is full, so
        // the database size stays flat however many requests a run sends.
        self.remove_next = !self.remove_next;
        if self.live.len() >= LIVE_WINDOW && self.remove_next {
            let f = self.live.pop_front().expect("window is non-empty");
            self.release(&f);
            return Mutation {
                insert: Vec::new(),
                remove: vec![f],
            };
        }
        let f = self.fresh_fact();
        self.live.push_back(f.clone());
        Mutation {
            insert: vec![f],
            remove: Vec::new(),
        }
    }
}

fn parse_fact_key(line: &str) -> (&'static str, u32, u32) {
    let rel = if line.starts_with('R') { "R" } else { "S" };
    let inner = &line[line.find('(').expect("fact line") + 1..line.find(')').expect("fact line")];
    let (a, b) = inner.split_once(',').expect("binary fact");
    let value = |t: &str| t.trim().trim_start_matches('v').parse().expect("v<index>");
    (rel, value(a), value(b))
}

/// One connection's seeded, deterministic request stream.
#[derive(Clone, Debug)]
pub struct Stream<'a> {
    plan: &'a Plan,
    rng: Rng,
    minimize_cursor: usize,
    writer: Option<Writer>,
}

impl<'a> Stream<'a> {
    fn new(plan: &'a Plan, conn: usize) -> Stream<'a> {
        let rng = Rng::new(plan.seed, 100 + conn as u64);
        let writer = (plan.workload == Workload::DurableWrites && conn == 0)
            .then(|| Writer::new(plan, Rng::new(plan.seed, 200), "w"));
        Stream {
            plan,
            rng,
            minimize_cursor: conn * plan.minimize.len() / 2,
            writer,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let op = self.next_op();
        let bytes = request_bytes(self.plan, &op);
        Req { op, bytes }
    }

    fn next_op(&mut self) -> Op {
        if let Some(writer) = self.writer.as_mut() {
            return Op::Mutate(writer.next_mutation(true));
        }
        if !self.plan.minimize.is_empty() && self.rng.unit() < self.plan.minimize_share {
            let item = self.minimize_cursor % self.plan.minimize.len();
            self.minimize_cursor += 1;
            return Op::Minimize { item };
        }
        let query = self.plan.eval_popularity.sample(&mut self.rng);
        let text = self.rng.unit() < self.plan.text_share;
        Op::Eval { query, text }
    }
}

/// The JSON body a request carries.
pub fn request_body(plan: &Plan, op: &Op) -> String {
    let lines = |facts: &[Fact]| Json::Arr(facts.iter().map(|f| Json::Str(f.line())).collect());
    match op {
        Op::Eval { query, .. } => Json::Obj(vec![(
            "query".into(),
            Json::Str(plan.eval_queries[*query].clone()),
        )]),
        Op::Minimize { item } => Json::Obj(vec![
            ("query".into(), Json::Str(plan.minimize[*item].text.clone())),
            ("budget_steps".into(), Json::from_u64(plan.budget_steps)),
        ]),
        Op::Mutate(m) => {
            let mut fields = Vec::new();
            if !m.remove.is_empty() {
                fields.push(("remove".into(), lines(&m.remove)));
            }
            if !m.insert.is_empty() {
                fields.push(("insert".into(), lines(&m.insert)));
            }
            Json::Obj(fields)
        }
    }
    .to_string()
}

/// The full HTTP/1.1 request for `op`.
pub fn request_bytes(plan: &Plan, op: &Op) -> Vec<u8> {
    let body = request_body(plan, op);
    let path = match op {
        Op::Eval { .. } => "/eval",
        Op::Minimize { .. } => "/minimize",
        Op::Mutate(_) => "/mutate",
    };
    let mut head =
        format!("POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n");
    if matches!(op, Op::Eval { text: true, .. }) {
        head.push_str("Accept: text/plain\r\n");
    }
    let _ = write!(head, "Content-Length: {}\r\n\r\n", body.len());
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(workload: Workload, seed: u64, n: usize) -> Vec<Vec<u8>> {
        let plan = Plan::generate(workload, seed);
        let mut out = Vec::new();
        for conn in 0..2 {
            let mut s = plan.stream(conn);
            out.extend((0..n).map(|_| s.next_req().bytes));
        }
        out.push(plan.db_text.into_bytes());
        out
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            let a = stream_bytes(w, 7, 300);
            assert_eq!(a, stream_bytes(w, 7, 300), "{w:?} not reproducible");
            assert_ne!(a, stream_bytes(w, 8, 300), "{w:?} ignores the seed");
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_all() {
        let z = Zipf::new(12, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut counts = [0usize; 12];
        for _ in 0..60_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[11] * 8);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn plans_have_the_stated_shape() {
        let hot = Plan::generate(Workload::HotRead, 3);
        assert_eq!(hot.eval_queries.len(), 12);
        assert!(hot.eval_queries.len() < RESULT_STORE_CAPACITY);
        assert_eq!(hot.db_text.lines().count(), 5000);
        let cold = Plan::generate(Workload::ColdAnalytics, 3);
        assert_eq!(cold.eval_queries.len(), 16 * RESULT_STORE_CAPACITY);
        assert_eq!(cold.db_text.lines().count(), 20_000);
        let rels: std::collections::BTreeSet<char> = cold
            .db_text
            .lines()
            .filter_map(|l| l.chars().next())
            .collect();
        assert_eq!(rels.len(), 2);
        let renamed = cold
            .minimize
            .iter()
            .filter(|m| m.renamed_from.is_some())
            .count();
        assert_eq!(renamed, MINIMIZE_POOL / RENAMED_REPEAT_EVERY);
        for item in &cold.minimize {
            prov_query::parse_ucq(&item.text).expect("minimize pool parses");
        }
    }

    #[test]
    fn durable_writer_pairs_and_bulk_batches() {
        let plan = Plan::generate(Workload::DurableWrites, 5);
        assert_eq!(plan.wal_tail.len(), 100);
        let mut s = plan.stream(0);
        let muts: Vec<Mutation> = (0..200)
            .map(|_| match s.next_req().op {
                Op::Mutate(m) => m,
                other => panic!("writer sent {other:?}"),
            })
            .collect();
        let bulk: Vec<&Mutation> = muts.iter().filter(|m| m.is_bulk()).collect();
        assert_eq!(bulk.len(), 4);
        assert!(!bulk[0].insert.is_empty() && !bulk[1].remove.is_empty());
        assert_eq!(bulk[0].insert, bulk[1].remove);
        let singles = muts.iter().filter(|m| !m.is_bulk());
        assert!(singles
            .clone()
            .all(|m| m.insert.len() + m.remove.len() == 1));
        assert!(singles.filter(|m| !m.remove.is_empty()).count() > 80);
        let mut names = HashSet::new();
        for m in &muts {
            names.extend(m.insert.iter().map(|f| f.ann.clone()));
        }
        assert!(
            names.len() <= plan.bulk_size + 2 * LIVE_WINDOW,
            "annotations are reused"
        );
        let mut reader = plan.stream(1);
        assert!(matches!(reader.next_req().op, Op::Eval { text: false, .. }));
    }
}
