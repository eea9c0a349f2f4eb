//! A short smoke run of each workload against an in-process server: the
//! seeded stream, the closed loop, every output check, and the traced
//! replay with its span-tree invariants.

use std::path::PathBuf;
use std::time::Duration;

use perfbench::trace::{replay, self_times, ReplayInput, ReplaySize};
use perfbench::workload::{Plan, Workload};
use perfbench::{check, check_against_mirror, load, load_database, prepare_data_dir};
use prov_server::{serve_durable, ServeConfig};
use prov_storage::{DurabilityOptions, DurableStore};

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn smoke(workload: Workload) {
    let plan = Plan::generate(workload, 42);
    let db = load_database(&plan).expect("database parses");
    let refs = check::build(&plan, &db).expect("references build");
    let dir = scratch(workload.name());
    let prepared = dir.join("prepared");
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let (mut mirror, handle) = if workload == Workload::DurableWrites {
        let mirror = prepare_data_dir(&plan, db, &prepared).expect("data dir");
        let serving = dir.join("serving");
        perfbench::copy_dir(&prepared, &serving).expect("copy");
        let (store, recovered) =
            DurableStore::open(&serving, DurabilityOptions::default()).expect("recovers");
        let handle = serve_durable(config, recovered, Some(store)).expect("serves");
        (Some(mirror), handle)
    } else {
        (None, serve_durable(config, db, None).expect("serves"))
    };
    let addr = handle.addr().to_string();
    let outcome = load::run(
        &plan,
        &refs,
        &addr,
        Duration::from_millis(100),
        Duration::from_millis(500),
        mirror.as_mut(),
    )
    .expect("load runs");
    assert_eq!(outcome.total.failed, 0, "{:?}", outcome.total.failures);
    assert!(outcome.total.completed > 0);
    assert!(!outcome.total.eval_ns.is_empty());
    if let Some(mirror) = &mirror {
        assert!(!outcome.total.mutate_ns.is_empty());
        let (checked, failures) = check_against_mirror(&plan, &addr, mirror);
        assert_eq!(checked, plan.eval_queries.len() as u64);
        assert!(failures.is_empty(), "{failures:?}");
    }
    handle.shutdown();

    let input = ReplayInput {
        plan: &plan,
        data_dir: mirror.is_some().then_some(prepared.as_path()),
        scratch: &dir,
        refs: &refs,
    };
    let size = ReplaySize {
        per_conn: 40,
        writes: 60,
    };
    let traced = replay(&input, true, size).expect("traced replay");
    let plain = replay(&input, false, size).expect("plain replay");
    assert_eq!(traced.counts.render_mismatches, 0);
    assert!(plain.spans.iter().all(Vec::is_empty));
    let mut trees = 0;
    for spans in &traced.spans {
        trees += self_times(spans).expect("well-formed span trees").1;
    }
    let requests = match workload {
        Workload::DurableWrites => size.per_conn + size.writes,
        _ => 2 * size.per_conn,
    };
    assert!(
        trees as usize > requests,
        "one tree per request plus set-up spans"
    );
    if workload != Workload::DurableWrites {
        assert!(
            traced.counts.same_work(&plain.counts),
            "single-threaded replays repeat: {:?} vs {:?}",
            traced.counts,
            plain.counts
        );
    }
}

#[test]
fn hot_read_smoke() {
    smoke(Workload::HotRead);
}

#[test]
fn cold_analytics_smoke() {
    smoke(Workload::ColdAnalytics);
}

#[test]
fn durable_writes_smoke() {
    smoke(Workload::DurableWrites);
}
