//! Per-endpoint request/latency/error counters surfaced by `GET /stats`.
//!
//! Counters are plain relaxed atomics: they are monotone telemetry, not
//! synchronization — readers may observe a request's `requests` increment
//! before its `total_micros` one, which is fine for a stats endpoint and
//! keeps the hot path to a handful of uncontended atomic adds.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointCounter {
    requests: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl EndpointCounter {
    /// Records one served request.
    pub fn observe(&self, micros: u64, ok: bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Requests observed so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The counters as a JSON object.
    pub fn snapshot(&self) -> Json {
        let requests = self.requests.load(Ordering::Relaxed);
        let total = self.total_micros.load(Ordering::Relaxed);
        Json::Obj(vec![
            ("requests".to_owned(), Json::from_u64(requests)),
            (
                "errors".to_owned(),
                Json::from_u64(self.errors.load(Ordering::Relaxed)),
            ),
            ("total_micros".to_owned(), Json::from_u64(total)),
            (
                "mean_micros".to_owned(),
                Json::from_u64(total.checked_div(requests).unwrap_or(0)),
            ),
            (
                "max_micros".to_owned(),
                Json::from_u64(self.max_micros.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Counters of the `/eval` render cache, surfaced as the `render`
/// object of `GET /stats`: bodies served from bytes already rendered for
/// the result's generation (`hits`) and bodies rendered into the cache
/// (`misses`). Streamed results bypass the cache and count as neither.
#[derive(Debug, Default)]
pub struct RenderStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RenderStats {
    /// Records one cached body: `rendered` if this request rendered it.
    pub fn observe(&self, rendered: bool) {
        let counter = if rendered { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters as the `/stats` `render` JSON object.
    pub fn snapshot(&self) -> Json {
        Json::Obj(vec![
            (
                "hits".to_owned(),
                Json::from_u64(self.hits.load(Ordering::Relaxed)),
            ),
            (
                "misses".to_owned(),
                Json::from_u64(self.misses.load(Ordering::Relaxed)),
            ),
        ])
    }
}

/// Connection-level counters for the keep-alive transport, surfaced as
/// the `connections` object of `GET /stats`.
#[derive(Debug, Default)]
pub struct ConnStats {
    accepted: AtomicU64,
    refused: AtomicU64,
    active: AtomicU64,
    keepalive_reuses: AtomicU64,
    idle_timeouts: AtomicU64,
    bytes_streamed: AtomicU64,
    // Requests-served-per-connection histogram, bucketed 1 / 2–9 /
    // 10–99 / ≥100; recorded once when a connection closes.
    served_hist: [AtomicU64; 4],
}

impl ConnStats {
    /// A connection was accepted onto the event loop.
    pub fn on_accept(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was turned away at the `--max-conns` cap.
    pub fn on_refuse(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
    }

    /// A request beyond the first was served on one connection.
    pub fn on_keepalive_reuse(&self) {
        self.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Response body bytes written (buffered and chunk-streamed alike).
    pub fn on_body_bytes(&self, n: u64) {
        self.bytes_streamed.fetch_add(n, Ordering::Relaxed);
    }

    /// A previously-accepted connection closed after serving `served`
    /// requests; `idle_timeout` marks an idle-sweep close.
    pub fn on_close(&self, served: u64, idle_timeout: bool) {
        // Saturating: a close racing a late accept must not underflow.
        let _ = self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        if idle_timeout {
            self.idle_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = match served {
            0..=1 => 0,
            2..=9 => 1,
            10..=99 => 2,
            _ => 3,
        };
        self.served_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently accepted and not yet closed.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Total connections accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// The counters as the `/stats` `connections` JSON object.
    pub fn snapshot(&self) -> Json {
        Json::Obj(vec![
            (
                "accepted".to_owned(),
                Json::from_u64(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "refused".to_owned(),
                Json::from_u64(self.refused.load(Ordering::Relaxed)),
            ),
            (
                "active".to_owned(),
                Json::from_u64(self.active.load(Ordering::Relaxed)),
            ),
            (
                "keepalive_reuses".to_owned(),
                Json::from_u64(self.keepalive_reuses.load(Ordering::Relaxed)),
            ),
            (
                "idle_timeouts".to_owned(),
                Json::from_u64(self.idle_timeouts.load(Ordering::Relaxed)),
            ),
            (
                "bytes_streamed".to_owned(),
                Json::from_u64(self.bytes_streamed.load(Ordering::Relaxed)),
            ),
            (
                "requests_per_conn".to_owned(),
                Json::Obj(
                    ["1", "2_9", "10_99", "100_plus"]
                        .iter()
                        .zip(&self.served_hist)
                        .map(|(k, v)| ((*k).to_owned(), Json::from_u64(v.load(Ordering::Relaxed))))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The routes the server exposes (plus a bucket for everything else).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /eval`.
    Eval,
    /// `POST /minimize`.
    Minimize,
    /// `POST /load`.
    Load,
    /// `POST /mutate`.
    Mutate,
    /// `GET /stats`.
    Stats,
    /// `POST /shutdown`.
    Shutdown,
    /// Unroutable requests (404/405/400 at the framing layer).
    Other,
}

/// One [`EndpointCounter`] per route.
#[derive(Debug, Default)]
pub struct EndpointStats {
    eval: EndpointCounter,
    minimize: EndpointCounter,
    load: EndpointCounter,
    mutate: EndpointCounter,
    stats: EndpointCounter,
    shutdown: EndpointCounter,
    other: EndpointCounter,
}

impl EndpointStats {
    /// The counter for `endpoint`.
    pub fn counter(&self, endpoint: Endpoint) -> &EndpointCounter {
        match endpoint {
            Endpoint::Eval => &self.eval,
            Endpoint::Minimize => &self.minimize,
            Endpoint::Load => &self.load,
            Endpoint::Mutate => &self.mutate,
            Endpoint::Stats => &self.stats,
            Endpoint::Shutdown => &self.shutdown,
            Endpoint::Other => &self.other,
        }
    }

    /// All counters as one JSON object keyed by endpoint name.
    pub fn snapshot(&self) -> Json {
        Json::Obj(vec![
            ("eval".to_owned(), self.eval.snapshot()),
            ("minimize".to_owned(), self.minimize.snapshot()),
            ("load".to_owned(), self.load.snapshot()),
            ("mutate".to_owned(), self.mutate.snapshot()),
            ("stats".to_owned(), self.stats.snapshot()),
            ("shutdown".to_owned(), self.shutdown.snapshot()),
            ("other".to_owned(), self.other.snapshot()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_accumulates() {
        let c = EndpointCounter::default();
        c.observe(10, true);
        c.observe(30, false);
        assert_eq!(c.requests(), 2);
        let snap = c.snapshot();
        assert_eq!(snap.get("errors").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("total_micros").and_then(Json::as_u64), Some(40));
        assert_eq!(snap.get("mean_micros").and_then(Json::as_u64), Some(20));
        assert_eq!(snap.get("max_micros").and_then(Json::as_u64), Some(30));
    }

    #[test]
    fn conn_stats_counts_and_buckets() {
        let c = ConnStats::default();
        c.on_accept();
        c.on_accept();
        c.on_refuse();
        c.on_keepalive_reuse();
        c.on_body_bytes(100);
        c.on_body_bytes(28);
        c.on_close(1, false);
        c.on_close(12, true);
        assert_eq!(c.accepted(), 2);
        assert_eq!(c.active(), 0);
        let snap = c.snapshot();
        assert_eq!(snap.get("refused").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("keepalive_reuses").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("idle_timeouts").and_then(Json::as_u64), Some(1));
        assert_eq!(snap.get("bytes_streamed").and_then(Json::as_u64), Some(128));
        let hist = snap.get("requests_per_conn").expect("histogram");
        assert_eq!(hist.get("1").and_then(Json::as_u64), Some(1));
        assert_eq!(hist.get("10_99").and_then(Json::as_u64), Some(1));
        assert_eq!(hist.get("2_9").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn snapshot_covers_every_endpoint() {
        let stats = EndpointStats::default();
        stats.counter(Endpoint::Eval).observe(5, true);
        let snap = stats.snapshot();
        for key in [
            "eval", "minimize", "load", "mutate", "stats", "shutdown", "other",
        ] {
            assert!(snap.get(key).is_some(), "{key} missing from snapshot");
        }
        assert_eq!(
            snap.get("eval")
                .and_then(|e| e.get("requests"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
