//! The serving benchmark of `provmin serve`.
//!
//! One run: generate the workload from its seed, build references
//! in-process, boot a release `provmin serve` several times for the
//! set-up time, drive it with a closed loop of two keep-alive
//! connections, check every reply, and report the end-to-end metrics.
//! With tracing on, the same seeded stream is also replayed in process
//! through each layer's public functions for the per-layer metrics.
//! See `README.md` for the workloads and the metric table.

#![warn(missing_docs)]

pub mod check;
pub mod load;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

use prov_engine::{EvalOptions, EvalSession};
use prov_server::Json;
use prov_storage::textio::parse_database_into;
use prov_storage::{Database, DurabilityOptions, DurableStore};

use crate::check::{canonical_lines, parse_query, reply_lines, result_lines, References};
use crate::load::{apply_to_mirror, LoadOutcome};
use crate::stats::{
    delta, handler_mean_us, median, per_second, rate_per_second, summarize, summarize_blocks,
    Summary,
};
use crate::trace::{replay, self_times, LayerTime, ReplayInput, ReplaySize};
use crate::wire::{Conn, Server};
use crate::workload::{request_bytes, Op, Plan, Workload};

/// Server boots per run; `setup_s` is their median.
pub const SETUP_BOOTS: usize = 21;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics (adds the traced replay).
    pub trace: bool,
    /// The `provmin` binary to serve with.
    pub provmin: PathBuf,
    /// Directory for this run's inputs, logs and results.
    pub out: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Requests attempted (load, warm-up and end-of-run checks).
    pub attempted: u64,
    /// Of which failed.
    pub failed: u64,
    /// The metrics of the final JSON line: end-to-end, or per-layer when
    /// tracing.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (every metric with its sample count).
    pub report: Vec<String>,
    /// The full result record (`result.json`).
    pub record: Json,
}

/// Warm-up before the measured window opens.
fn warmup(workload: Workload) -> Duration {
    match workload {
        Workload::HotRead => Duration::from_millis(500),
        Workload::ColdAnalytics => Duration::from_millis(1000),
        Workload::DurableWrites => Duration::from_millis(500),
    }
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// The served database, parsed. Call before anything else interns
/// values or annotations, so this process's intern order (and with it
/// the row and monomial order of rendered results) matches the server's.
pub fn load_database(plan: &Plan) -> Result<Database, String> {
    let mut db = Database::new();
    parse_database_into(&mut db, &plan.db_text).map_err(|e| e.to_string())?;
    Ok(db)
}

/// Writes the durable workload's data dir: a snapshot of the database
/// followed by the plan's WAL tail. Returns the recovered state (the
/// mirror's starting point).
pub fn prepare_data_dir(plan: &Plan, mut db: Database, dir: &Path) -> Result<Database, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _) = DurableStore::open(dir, DurabilityOptions::default())?;
    store.snapshot(&db).map_err(|e| format!("snapshot: {e}"))?;
    for m in &plan.wal_tail {
        let from = db.generation();
        apply_to_mirror(&mut db, m);
        let events = db
            .deltas_since(from)
            .ok_or("tail mutation outran the delta log")?;
        if store.append(events, &db).map_err(|e| format!("wal: {e}"))? {
            return Err("the wal tail must not rotate a snapshot".into());
        }
    }
    Ok(db)
}

/// Compares each reader query over the server against the mirror.
/// Returns the number of queries checked and the failures.
pub fn check_against_mirror(plan: &Plan, addr: &str, mirror: &Database) -> (u64, Vec<String>) {
    let session = EvalSession::new();
    let mut failures = Vec::new();
    for (i, text) in plan.eval_queries.iter().enumerate() {
        let expected = match parse_query(text) {
            Ok(q) => canonical_lines(&result_lines(&session.eval_ucq_with(
                &q,
                mirror,
                EvalOptions::default(),
            ))),
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let op = Op::Eval {
            query: i,
            text: false,
        };
        let got = Conn::connect(addr)
            .and_then(|mut c| c.roundtrip(&request_bytes(plan, &op)))
            .map_err(|e| e.to_string())
            .and_then(|r| {
                if r.status == 200 {
                    reply_lines(&r.body, false)
                } else {
                    Err(format!("status {}", r.status))
                }
            });
        match got {
            Ok(lines) if canonical_lines(&lines) == expected => {}
            Ok(_) => failures.push(format!("{text:?}: server result differs from the mirror")),
            Err(e) => failures.push(format!("{text:?}: {e}")),
        }
    }
    (plan.eval_queries.len() as u64, failures)
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let plan = Plan::generate(opts.workload, opts.seed);
    let db = load_database(&plan)?;
    let refs = check::build(&plan, &db)?;
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let log = opts.out.join("server.log");
    let _ = std::fs::remove_file(&log);
    let durable = opts.workload == Workload::DurableWrites;
    let prepared = opts.out.join("prepared");
    let db_file = opts.out.join("db.txt");
    let mut mirror = if durable {
        Some(prepare_data_dir(&plan, db, &prepared)?)
    } else {
        std::fs::write(&db_file, &plan.db_text).map_err(|e| e.to_string())?;
        None
    };

    // Set-up time: spawn to first 200 on /stats, over several boots; the
    // last boot serves the measured window.
    let boot_args = |k: usize| -> Result<Vec<String>, String> {
        if durable {
            let dir = opts.out.join(format!("data-{k}"));
            copy_dir(&prepared, &dir)?;
            Ok(vec!["--data-dir".into(), dir.display().to_string()])
        } else {
            Ok(vec!["--db".into(), db_file.display().to_string()])
        }
    };
    let mut setup = Vec::with_capacity(SETUP_BOOTS);
    let mut serving = None;
    for k in 0..SETUP_BOOTS {
        let args = boot_args(k)?;
        let (server, secs) = Server::start(&opts.provmin, &args, &log)?;
        setup.push(secs);
        if k + 1 < SETUP_BOOTS {
            server.shutdown()?;
            if durable {
                let _ = std::fs::remove_dir_all(opts.out.join(format!("data-{k}")));
            }
        } else {
            serving = Some((server, args));
        }
    }
    let (server, serving_args) = serving.expect("at least one boot");

    let load = load::run(
        &plan,
        &refs,
        &server.addr,
        warmup(opts.workload),
        Duration::from_secs_f64(opts.seconds),
        mirror.as_mut(),
    )?;
    let peak_rss_mb = server.peak_rss_mib()?;
    let mut attempted = load.total.attempted;
    let mut failures = load.total.failures.clone();
    let mut failed = load.total.failed;

    // End of run: durable state must match the mirror before and after a
    // SIGTERM + reboot from the data dir (acknowledged ⇒ recovered).
    if let Some(mirror) = &mirror {
        let (checked, fails) = check_against_mirror(&plan, &server.addr, mirror);
        attempted += checked;
        failed += fails.len() as u64;
        failures.extend(fails.into_iter().map(|f| format!("live: {f}")));
    }
    if durable {
        server.terminate()?;
    } else {
        server.shutdown()?;
    }
    if let Some(mirror) = &mirror {
        let (rebooted, _) = Server::start(&opts.provmin, &serving_args, &log)?;
        let (checked, fails) = check_against_mirror(&plan, &rebooted.addr, mirror);
        rebooted.shutdown()?;
        attempted += checked;
        failed += fails.len() as u64;
        failures.extend(fails.into_iter().map(|f| format!("recovered: {f}")));
    }

    let mut report = Vec::new();
    let (e2e, wire) = end_to_end(&load, &setup, peak_rss_mb, attempted, failed, &mut report);
    let mut correct = failed == 0;
    let mut record_fields = vec![
        ("parameters".to_owned(), plan.parameters()),
        (
            "setup_boots_s".to_owned(),
            Json::Arr(setup.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "failures".to_owned(),
            Json::Arr(failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "naive_cross_checked".to_owned(),
            Json::from_u64(refs.naive_checked as u64),
        ),
        (
            "completions_per_second".to_owned(),
            Json::Arr(
                per_second(&load.total.end_ns, load.window_s)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
    ];
    let metrics = if opts.trace {
        let (layers, ok, extra) =
            per_layer(opts, &plan, &refs, &load, &prepared, wire, &mut report)?;
        correct &= ok;
        record_fields.extend(extra);
        layers
    } else {
        e2e
    };
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    record_fields.push((
        "metrics".to_owned(),
        Json::Obj(
            metrics
                .iter()
                .map(|m| (m.name.to_owned(), Json::Num(m.value)))
                .collect(),
        ),
    ));
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        report,
        record: Json::Obj(record_fields),
    })
}

fn line(report: &mut Vec<String>, name: &str, value: f64, unit: &str, samples: Option<usize>) {
    match samples {
        Some(n) => report.push(format!("{name:<40} {value:>14.3} {unit:<8} (n={n})")),
        None => report.push(format!("{name:<40} {value:>14.3} {unit}")),
    }
}

fn latency_lines(report: &mut Vec<String>, op: &str, s: Option<Summary>) {
    match s {
        Some(s) => {
            line(report, &format!("{op}_p50_us"), s.p50, "us", Some(s.count));
            line(report, &format!("{op}_p99_us"), s.p99, "us", Some(s.count));
        }
        None => report.push(format!(
            "{op}_p50_us / {op}_p99_us: not issued by this workload"
        )),
    }
}

/// The wire run's metrics: the end-to-end ones `BENCHMARK.json` bounds
/// (`setup_s`, `eval_p50_us`, `peak_rss_mb`), and the rest of the
/// end-to-end table, which the traced run reports unbounded because they
/// spread beyond any allowed bound on a shared host (throughput, tails)
/// or exist on one workload only (0 elsewhere).
fn end_to_end(
    load: &LoadOutcome,
    setup: &[f64],
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    report: &mut Vec<String>,
) -> (Vec<Metric>, Vec<Metric>) {
    let t = &load.total;
    let eval = summarize_blocks(&t.eval_end_ns, &t.eval_ns);
    let mutate = summarize(&t.mutate_ns);
    let minimize = summarize(&t.minimize_ns);
    let setup_s = median(setup);
    let throughput = rate_per_second(&t.end_ns, load.window_s);
    let error_share = failed as f64 / attempted.max(1) as f64;
    line(report, "setup_s", setup_s, "s", Some(setup.len()));
    let completed = Some(t.completed as usize);
    line(report, "throughput_rps", throughput, "req/s", completed);
    latency_lines(report, "eval", eval);
    latency_lines(report, "mutate", mutate);
    latency_lines(report, "minimize", minimize);
    let attempts = Some(attempted as usize);
    line(report, "error_share", error_share, "ratio", attempts);
    line(report, "peak_rss_mb", peak_rss_mb, "MiB", None);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let p50 = |s: Option<Summary>| s.map_or(0.0, |s| s.p50);
    let p99 = |s: Option<Summary>| s.map_or(0.0, |s| s.p99);
    let bounded = vec![
        m("setup_s", setup_s, "s"),
        m("eval_p50_us", p50(eval), "us"),
        m("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let unbounded = vec![
        m("throughput_rps", throughput, "req/s"),
        m("eval_p99_us", p99(eval), "us"),
        m("mutate_p50_us", p50(mutate), "us"),
        m("mutate_p99_us", p99(mutate), "us"),
        m("minimize_p50_us", p50(minimize), "us"),
        m("minimize_p99_us", p99(minimize), "us"),
        m("error_share", error_share, "ratio"),
    ];
    (bounded, unbounded)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

type Extra = Vec<(String, Json)>;

/// The traced run: replays with spans off and on, checks the span trees,
/// and derives every per-layer metric (plus the untraced wire run's
/// `/stats` deltas and workload-property shares).
fn per_layer(
    opts: &Options,
    plan: &Plan,
    refs: &References,
    load: &LoadOutcome,
    prepared: &Path,
    wire: Vec<Metric>,
    report: &mut Vec<String>,
) -> Result<(Vec<Metric>, bool, Extra), String> {
    let input = ReplayInput {
        plan,
        data_dir: (plan.workload == Workload::DurableWrites).then_some(prepared),
        scratch: &opts.out,
        refs,
    };
    let size = ReplaySize::of(plan.workload);
    let plain = replay(&input, false, size)?;
    let traced = replay(&input, true, size)?;
    let mut layers: std::collections::BTreeMap<&'static str, LayerTime> = Default::default();
    let mut requests = 0;
    for spans in &traced.spans {
        let (by_name, roots) = self_times(spans)?;
        requests += roots;
        for (name, t) in by_name {
            let e = layers.entry(name).or_default();
            e.calls += t.calls;
            e.self_ns += t.self_ns;
        }
    }
    trace::write_spans(&opts.out.join("spans.jsonl"), &traced.spans)?;
    // Single-threaded replays are deterministic: both replays must count
    // the same work. Durable replays interleave two threads freely.
    let repeatable =
        plan.workload == Workload::DurableWrites || traced.counts.same_work(&plain.counts);
    let ok = traced.counts.render_mismatches == 0 && repeatable;
    let us = |name: &str| layers.get(name).map_or(0.0, LayerTime::mean_us);
    let (b, a) = (&load.stats_before, &load.stats_after);
    let d = |path: &[&str]| delta(b, a, path);
    let t = &load.total;
    let c = &traced.counts;
    let evals = d(&["endpoints", "eval", "requests"]);
    let rebuilds = d(&["cache", "full_rebuilds"]);
    let deltas = d(&["cache", "delta_applies"]);
    let mutates = d(&["endpoints", "mutate", "requests"]);
    let eval_mean_client = summarize(&t.eval_ns).map_or(0.0, |s| s.mean);
    let eval_handler = handler_mean_us(b, a, "eval");
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let overhead = (traced.wall_ns as f64 - plain.wall_ns as f64) / plain.wall_ns.max(1) as f64;
    // The wire metrics are already in the report.
    let reported = wire.len();
    let mut metrics = wire;
    metrics.extend([
        m("listener.wire_us", eval_mean_client - eval_handler, "us"),
        m(
            "listener.keepalive_reuses",
            d(&["connections", "keepalive_reuses"]),
            "count",
        ),
        m("json.parse_us", us("json.parse"), "us"),
        m("parser.query_us", us("parser.query"), "us"),
        m("router.render_us", us("router.render"), "us"),
        m(
            "router.response_bytes",
            share(c.response_bytes, c.eval_responses),
            "bytes",
        ),
        m("router.eval_handler_us", eval_handler, "us"),
        m(
            "router.mutate_handler_us",
            handler_mean_us(b, a, "mutate"),
            "us",
        ),
        m(
            "router.minimize_handler_us",
            handler_mean_us(b, a, "minimize"),
            "us",
        ),
        m(
            "router.large_response_share",
            share(t.large_responses, t.eval_ns.len() as u64),
            "ratio",
        ),
        m("session.hit_us", us("session.hit"), "us"),
        m(
            "session.hit_share",
            if evals > 0.0 {
                (evals - rebuilds - deltas) / evals
            } else {
                0.0
            },
            "ratio",
        ),
        m("session.rebuild_us", us("session.rebuild"), "us"),
        m("session.full_rebuilds", rebuilds, "count"),
        m(
            "session.rebuilds_per_distinct_miss",
            if load.model.distinct_misses > 0 {
                rebuilds / load.model.distinct_misses as f64
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "session.inflight_miss_share",
            share(load.model.inflight_misses, load.model.misses),
            "ratio",
        ),
        m("session.delta_us", us("session.delta"), "us"),
        m("session.delta_applies", deltas, "count"),
        m(
            "session.apply_mutation_us",
            us("session.apply_mutation"),
            "us",
        ),
        m(
            "session.invalidations",
            d(&["cache", "invalidations"]),
            "count",
        ),
        m(
            "session.mutate_delta_share",
            share(t.mutate_delta, t.mutate_ns.len() as u64),
            "ratio",
        ),
        m(
            "session.mutate_rebuild_share",
            share(t.mutate_rebuild, t.mutate_ns.len() as u64),
            "ratio",
        ),
        m(
            "batch.peak_frontier_rows",
            traced.session.peak_frontier_rows as f64,
            "rows",
        ),
        m("batch.rows_out", c.rows_out as f64, "rows"),
        m("minimize.request_us", us("minimize.request"), "us"),
        m("minimize.steps", c.minimize_steps as f64, "count"),
        m("minimize.hom_checks", c.minimize_hom_checks as f64, "count"),
        m(
            "minimize.memo_dedup_skips",
            c.minimize_memo_dedup_skips as f64,
            "count",
        ),
        m(
            "minimize.dominance_skips",
            c.minimize_dominance_skips as f64,
            "count",
        ),
        m(
            "minimize.partial_share",
            share(c.minimize_partial, c.minimize_requests),
            "ratio",
        ),
        m(
            "minimize.renamed_repeat_share",
            share(t.renamed_repeats, t.minimize_ns.len() as u64),
            "ratio",
        ),
        m("cache.view_patch_us", us("cache.view_patch"), "us"),
        m("cache.view_build_us", us("cache.view_build"), "us"),
        m("cache.hits", d(&["cache", "hits"]), "count"),
        m("cache.misses", d(&["cache", "misses"]), "count"),
        m("state.read_wait_us", us("state.read_wait"), "us"),
        m("state.write_wait_us", us("state.write_wait"), "us"),
        m("wal.append_us", us("wal.append"), "us"),
        m("wal.appends", d(&["durability", "wal_appends"]), "count"),
        m("wal.fsyncs", d(&["durability", "fsyncs"]), "count"),
        m(
            "wal.fsyncs_per_mutate",
            if mutates > 0.0 {
                d(&["durability", "fsyncs"]) / mutates
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "storage.write_amp",
            share(c.wal_bytes + c.snapshot_bytes, c.user_bytes),
            "ratio",
        ),
        m("snapshot.rotate_us", us("snapshot.rotate"), "us"),
        m(
            "snapshot.rotations",
            d(&["durability", "snapshots_written"]),
            "count",
        ),
        m("durability.recover_us", us("durability.recover"), "us"),
        m("textio.load_us", us("textio.load"), "us"),
        m("trace.overhead_share", overhead, "ratio"),
    ]);
    for metric in &metrics[reported..] {
        let calls = layers
            .get(metric.name.trim_end_matches("_us"))
            .map(|l| l.calls as usize);
        line(
            report,
            metric.name,
            metric.value,
            metric.unit,
            calls.filter(|_| metric.unit == "us"),
        );
    }
    report.push(format!(
        "trace: {requests} request trees checked (self times sum to each root), \
         replay {:.1} ms traced vs {:.1} ms untraced",
        traced.wall_ns as f64 / 1e6,
        plain.wall_ns as f64 / 1e6
    ));
    let layer_json = Json::Obj(
        layers
            .iter()
            .map(|(name, t)| {
                (
                    (*name).to_owned(),
                    Json::Obj(vec![
                        ("calls".to_owned(), Json::from_u64(t.calls)),
                        ("self_ns".to_owned(), Json::from_u64(t.self_ns)),
                    ]),
                )
            })
            .collect(),
    );
    let extra = vec![
        ("trace_layers".to_owned(), layer_json),
        ("trace_request_trees".to_owned(), Json::from_u64(requests)),
        ("stats_before".to_owned(), load.stats_before.clone()),
        ("stats_after".to_owned(), load.stats_after.clone()),
    ];
    Ok((metrics, ok, extra))
}
