//! Shared server state: one loaded [`Database`] behind a readers/writer
//! lock, the process-wide [`EvalSession`] owning the warm caches, the
//! per-endpoint counters, and the shutdown flag.
//!
//! Concurrency discipline: `/eval` holds the read lock for the duration
//! of evaluation, so any number of evals run at once and all share the
//! session's one `EvalViews` build for the current generation (the cache
//! entry's `OnceLock`s make the build itself happen exactly once even
//! when several readers race to it). `/minimize` is pure query rewriting
//! and takes no lock at all. `/load` and `/mutate` take the write lock;
//! `/mutate` applies through [`EvalSession::apply_mutation`], so the warm
//! index/columnar views are patched in place under that same write lock
//! (readers are excluded while the views change hands) and the next
//! `/eval` reconciles its cached result from the delta log instead of
//! rebuilding. `/load` replaces the database wholesale; its fresh
//! generation is unreachable from any cached stamp, so every warm entry
//! falls back to a full rebuild — stale reads are impossible by
//! construction because cache keys *are* generation stamps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use prov_engine::EvalSession;
use prov_storage::{Database, DurableStore, DELTA_LOG_CAPACITY};

use crate::stats::{ConnStats, EndpointStats, RenderStats};

/// Everything the worker threads share.
#[derive(Debug)]
pub struct ServerState {
    db: RwLock<Database>,
    session: EvalSession,
    stats: EndpointStats,
    conns: ConnStats,
    render: RenderStats,
    shutdown: AtomicBool,
    started: Instant,
    /// The durability coordinator, when the server runs with
    /// `--data-dir`. Mutation handlers touch it only while holding the
    /// database *write* lock, so the mutex never contends — it exists to
    /// make `&self` appends possible.
    durability: Option<Mutex<DurableStore>>,
    /// Delta-log window for databases created by `/load`
    /// (`--delta-capacity`).
    delta_capacity: usize,
}

impl ServerState {
    /// State serving `db` (possibly empty until a `/load`), no
    /// persistence.
    pub fn new(db: Database) -> Self {
        ServerState::with_durability(db, None, DELTA_LOG_CAPACITY)
    }

    /// State with an optional durability coordinator (already recovered;
    /// `db` is its recovered database) and a delta-log window for
    /// `/load`-created databases.
    pub fn with_durability(
        db: Database,
        durability: Option<DurableStore>,
        delta_capacity: usize,
    ) -> Self {
        ServerState {
            db: RwLock::new(db),
            session: EvalSession::new(),
            stats: EndpointStats::default(),
            conns: ConnStats::default(),
            render: RenderStats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            durability: durability.map(Mutex::new),
            delta_capacity,
        }
    }

    /// The durability coordinator, when persistence is on. Lock order:
    /// always acquire the database write lock first (see the field docs).
    pub fn durability(&self) -> Option<MutexGuard<'_, DurableStore>> {
        self.durability
            .as_ref()
            .map(|d| d.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Whether the server persists to a data directory.
    pub fn durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The delta-log window `/load`-created databases get.
    pub fn delta_capacity(&self) -> usize {
        self.delta_capacity
    }

    /// Rotates a final compacted snapshot on graceful drain (SIGINT,
    /// SIGTERM, `/shutdown`), so a clean stop never leans on the WAL.
    /// Best-effort: a failure is logged, not fatal — the WAL still holds
    /// everything acknowledged.
    pub fn final_snapshot(&self) {
        let db = self.read_db();
        if let Some(mut store) = self.durability() {
            if let Err(e) = store.snapshot(&db) {
                eprintln!("provmin serve: final snapshot failed: {e}");
                let _ = store.sync();
            }
        }
    }

    /// Read access to the database. Poisoning is deliberately ignored: a
    /// panicking *reader* cannot have torn the data, and the mutation
    /// handlers pre-validate every input that could reach a storage-layer
    /// assert (annotation conflicts, arity mismatches) so writer panics
    /// are reserved for genuine bugs; serving must outlive any one bad
    /// request either way.
    pub fn read_db(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write access to the database (see [`ServerState::read_db`] on
    /// poisoning).
    pub fn write_db(&self) -> RwLockWriteGuard<'_, Database> {
        self.db.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The shared evaluation session (result + view caches).
    pub fn session(&self) -> &EvalSession {
        &self.session
    }

    /// The per-endpoint counters.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// The connection-level counters (keep-alive transport telemetry).
    pub fn conn_stats(&self) -> &ConnStats {
        &self.conns
    }

    /// The `/eval` render-cache counters.
    pub fn render_stats(&self) -> &RenderStats {
        &self.render
    }

    /// Asks the accept loop (and the CLI wait loop) to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Microseconds since the state was created.
    pub fn uptime_micros(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

// Worker threads share the state by `Arc`; keep that a compile-time
// guarantee (it holds because `EvalSession` and the counters are `Sync`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerState>();
};
