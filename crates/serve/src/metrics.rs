//! Server-side metric instruments: one [`ServeMetrics`] bundle per
//! [`Server`](crate::Server), registered on its own shard of the
//! configured [`MetricsRegistry`] (index = the runtime's worker count, so
//! the server thread never contends with the workers' shards).
//!
//! Everything here is a held `Arc` to a lock-free instrument — recording
//! on the hot paths (read/flush passes, frame dispatch) is a relaxed
//! atomic op, never a registry lookup. The only lookup that happens after
//! startup is the per-query run-latency histogram, interned on first
//! completion of each query id (run completion is not a hot path).

use std::sync::Arc;

use flux_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsShard};

use crate::protocol::FrameKind;

/// Wire direction of a counted frame.
#[derive(Clone, Copy)]
pub(crate) enum Dir {
    In,
    Out,
}

/// The server's instrument bundle — see the [module docs](self).
pub(crate) struct ServeMetrics {
    /// The registry shard owned by the server thread, kept for the
    /// dynamically-named per-query histograms.
    shard: Arc<MetricsShard>,
    /// `flux_serve_connections_total` — data-plane connections accepted.
    pub(crate) accepted: Arc<Counter>,
    /// `flux_serve_active_connections` — accepted minus reaped.
    pub(crate) active: Arc<Gauge>,
    /// `flux_serve_bytes_total{dir=..}` — payload + framing bytes moved.
    pub(crate) bytes_in: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
    /// `flux_serve_decode_errors_total` — malformed inbound streams.
    pub(crate) decode_errors: Arc<Counter>,
    /// `flux_serve_write_parks_total` — read interest parked because the
    /// outbound buffer crossed the high-water mark.
    pub(crate) write_parks: Arc<Counter>,
    /// `flux_serve_scrapes_total{via=..}` — STATS frames and admin HTTP
    /// scrapes answered.
    pub(crate) scrapes_wire: Arc<Counter>,
    pub(crate) scrapes_http: Arc<Counter>,
    /// `flux_serve_loop_wakeups_total{cause=..}` — who ended the loop's
    /// wait: `socket` counts poll returns that reported a listener or
    /// connection ready, `runtime` those that reported the waker (one
    /// return can count under both).
    pub(crate) wakeups_socket: Arc<Counter>,
    pub(crate) wakeups_runtime: Arc<Counter>,
    /// `flux_runtime_notifies_total{result=..}` — the output buffers' share
    /// of the runtime notifier's traffic (a full `RESULT` frame pending);
    /// the workers count theirs under the same name on their own shards.
    notifies_fired: Arc<Counter>,
    notifies_coalesced: Arc<Counter>,
    /// `flux_serve_frames_total{dir="in",kind=..}` in wire-tag order of
    /// the client→server kinds.
    frames_in: [Arc<Counter>; 7],
    /// `flux_serve_frames_total{dir="out",kind=..}` in wire-tag order of
    /// the server→client kinds.
    frames_out: [Arc<Counter>; 7],
}

/// Lowercase label value for a frame kind.
fn kind_label(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Open => "open",
        FrameKind::Chunk => "chunk",
        FrameKind::Finish => "finish",
        FrameKind::Abort => "abort",
        FrameKind::Snapshot => "snapshot",
        FrameKind::Resume => "resume",
        FrameKind::Stats => "stats",
        FrameKind::Result => "result",
        FrameKind::Done => "done",
        FrameKind::Stalled => "stalled",
        FrameKind::Resumed => "resumed",
        FrameKind::Error => "error",
        FrameKind::Snapshotted => "snapshotted",
        FrameKind::StatsReply => "stats_reply",
    }
}

const IN_KINDS: [FrameKind; 7] = [
    FrameKind::Open,
    FrameKind::Chunk,
    FrameKind::Finish,
    FrameKind::Abort,
    FrameKind::Snapshot,
    FrameKind::Resume,
    FrameKind::Stats,
];

const OUT_KINDS: [FrameKind; 7] = [
    FrameKind::Result,
    FrameKind::Done,
    FrameKind::Stalled,
    FrameKind::Resumed,
    FrameKind::Error,
    FrameKind::Snapshotted,
    FrameKind::StatsReply,
];

impl ServeMetrics {
    /// Register every instrument on `registry` shard `shard_idx`.
    pub(crate) fn register(registry: &MetricsRegistry, shard_idx: usize) -> Arc<ServeMetrics> {
        let shard = registry.shard(shard_idx);
        let frame = |dir: &str, kind: FrameKind| {
            shard.counter(&format!(
                "flux_serve_frames_total{{dir=\"{dir}\",kind=\"{}\"}}",
                kind_label(kind)
            ))
        };
        Arc::new(ServeMetrics {
            accepted: shard.counter("flux_serve_connections_total"),
            active: shard.gauge("flux_serve_active_connections"),
            bytes_in: shard.counter("flux_serve_bytes_total{dir=\"in\"}"),
            bytes_out: shard.counter("flux_serve_bytes_total{dir=\"out\"}"),
            decode_errors: shard.counter("flux_serve_decode_errors_total"),
            write_parks: shard.counter("flux_serve_write_parks_total"),
            scrapes_wire: shard.counter("flux_serve_scrapes_total{via=\"wire\"}"),
            scrapes_http: shard.counter("flux_serve_scrapes_total{via=\"http\"}"),
            wakeups_socket: shard.counter("flux_serve_loop_wakeups_total{cause=\"socket\"}"),
            wakeups_runtime: shard.counter("flux_serve_loop_wakeups_total{cause=\"runtime\"}"),
            notifies_fired: shard.counter("flux_runtime_notifies_total{result=\"fired\"}"),
            notifies_coalesced: shard.counter("flux_runtime_notifies_total{result=\"coalesced\"}"),
            frames_in: IN_KINDS.map(|k| frame("in", k)),
            frames_out: OUT_KINDS.map(|k| frame("out", k)),
            shard,
        })
    }

    /// Count one frame moved across the wire.
    pub(crate) fn note_frame(&self, dir: Dir, kind: FrameKind) {
        let (kinds, counters): (&[FrameKind], &[Arc<Counter>]) = match dir {
            Dir::In => (&IN_KINDS, &self.frames_in),
            Dir::Out => (&OUT_KINDS, &self.frames_out),
        };
        if let Some(i) = kinds.iter().position(|&k| k == kind) {
            counters[i].inc();
        }
    }

    /// Count one firing of the runtime notifier by an output buffer.
    pub(crate) fn note_notify(&self, fired: bool) {
        if fired {
            self.notifies_fired.inc();
        } else {
            self.notifies_coalesced.inc();
        }
    }

    /// The end-to-end run-latency histogram for one query id (interned on
    /// first use): `flux_serve_run_duration_us{query=..}`. Shared fan-out
    /// runs record once per run under the joined id list.
    pub(crate) fn run_histogram(&self, query: &str) -> Arc<Histogram> {
        self.shard.histogram(&format!("flux_serve_run_duration_us{{query=\"{query}\"}}"))
    }
}
