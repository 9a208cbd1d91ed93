//! Structured telemetry for heterogeneous-memory placement decisions.
//!
//! The paper's whole point is that placement should be *explainable*
//! by performance attributes; this crate is the layer that makes every
//! decision observable. The allocator, memory manager and access
//! engine emit [`Event`]s into a shared [`TelemetrySink`]:
//!
//! * [`AllocDecision`] — why a buffer landed where it did: the
//!   requested criterion, the attribute actually used after fallback,
//!   the ranked candidates with their attribute values, every fallback
//!   hop (target tried and rejected, with the reason), and the final
//!   placement split when a `PartialSpill` divides the buffer.
//! * [`AttrFallback`] — an attribute substitution, e.g.
//!   ReadBandwidth → Bandwidth when firmware carries no read-specific
//!   values (§IV-B of the paper).
//! * [`Migration`] / [`FreeEvent`] — region lifecycle after placement,
//!   so a trace alone reconstructs the live placement map.
//! * [`PhaseSpan`] — per-node bytes and achieved bandwidth of one
//!   simulated kernel phase.
//! * [`OccupancyGauge`] — per-node used bytes and high-water marks,
//!   sampled at every capacity change.
//!
//! The emission fast path is wait-free: a cloneable [`TelemetrySink`]
//! hands each producing thread a [`ThreadWriter`] owning a per-thread
//! SPSC race buffer (after ekotrace's verified protocol), a
//! [`Collector`] drains every ring tolerating overwrite races with
//! exact per-thread loss counts, and [`compact`] provides the varint
//! on-disk encoding. A [`TelemetrySink::disabled`] sink reports
//! `enabled() == false` so instrumented hot paths skip building events
//! entirely. [`JsonlWriter`] streams one JSON object per line, the
//! format the `--trace` flag of the repro binaries produces.
//! [`Summary`] folds a stream of events into a per-run placement
//! report.

#![warn(missing_docs)]

pub mod compact;
pub mod json;
mod ring;
#[macro_use]
pub mod schema;
mod sink;
mod summary;

pub use json::ParseError;
pub use sink::{
    BackgroundCollector, CollectedEvent, Collector, TelemetrySink, ThreadLoss, ThreadWriter,
    DEFAULT_RING_WORDS,
};
pub use summary::{OccupancyStats, PhaseSample, Summary};

use hetmem_topology::NodeId;
use schema::{action, attr, omit_none};
use std::io::Write;
use std::sync::Mutex;

/// Whether a ranking considered only the initiator's local targets or
/// every target on the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Targets local to the initiator (the paper's default).
    Local,
    /// All targets, local or remote (the §VIII escape hatch).
    Any,
}

/// The fallback mode an allocation ran under (mirrors
/// `hetmem_alloc::Fallback` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackMode {
    /// Fail if the best target cannot hold the buffer.
    Strict,
    /// Retry whole buffers down the ranking.
    NextTarget,
    /// Split across the ranking at page granularity.
    PartialSpill,
}

record! {
    /// One ranked candidate target and its attribute value.
    #[derive(Copy, Eq)]
    pub struct Candidate {
        /// The target node.
        node: NodeId,
        /// The attribute value the ranking used (MiB/s, ns or bytes,
        /// depending on the attribute).
        value: u64,
    }

    /// One fallback hop: a target that was tried and could not take the
    /// allocation.
    #[derive(Eq)]
    pub struct Hop {
        /// The rejected target.
        node: NodeId,
        /// Why it was rejected (stringified allocation error).
        reason: String,
    }

    /// Per-node traffic of one simulated phase.
    pub struct NodeTrafficSample {
        /// The node.
        node: NodeId,
        /// Bytes read from the node.
        bytes_read: u64,
        /// Bytes written to the node.
        bytes_written: u64,
        /// Achieved bandwidth, MiB/s.
        achieved_bw_mbps: f64,
    }
}

// The event table. Each entry is one `Event` variant and its `event`
// kind string, then the struct it carries; field order is the JSON key
// order and the compact byte order, and an entry's position is its
// compact kind byte, so new kinds go at the end. Each field is written
// by its type's codec; `as` names a module that overrides its JSON
// spelling, `= value` is what an absent key reads as, and
// `field("key")` renames its JSON key (`schema.rs`).
events! {
    /// An allocation decision (success or failure).
    AllocDecision("alloc_decision")
    /// A fully explained allocation decision.
    pub struct AllocDecision {
        /// The region created, `None` when the allocation failed.
        region: Option<u64>,
        /// Requested bytes.
        size: u64,
        /// The attribute the caller asked for.
        requested: u32 as attr,
        /// The attribute actually used after attribute fallback.
        used: u32 as attr,
        /// Locality scope of the ranking.
        scope: Scope,
        /// Capacity-fallback mode.
        fallback: FallbackMode,
        /// The ranked candidates, best first, with attribute values.
        candidates: Vec<Candidate>,
        /// Targets tried and rejected before the decision resolved.
        hops: Vec<Hop>,
        /// Final placement split `(node, bytes)`; more than one entry
        /// means a spill. Empty when the allocation failed.
        placement: Vec<(NodeId, u64)>,
        /// The failure, if the allocation failed.
        error: Option<String> as omit_none,
    }

    /// An attribute substitution.
    AttrFallback("attr_fallback")
    /// An attribute substitution (e.g. ReadBandwidth → Bandwidth).
    #[derive(Copy, Eq)]
    pub struct AttrFallback {
        /// The attribute the caller asked for.
        requested: u32 as attr,
        /// The similar attribute used instead.
        used: u32 as attr,
    }

    /// A region migration.
    Migration("migration")
    /// A region moved between nodes.
    pub struct Migration {
        /// The migrated region.
        region: u64,
        /// Placement before the move.
        from: Vec<(NodeId, u64)>,
        /// Destination node.
        to: NodeId,
        /// Bytes actually moved.
        bytes_moved: u64,
        /// Modelled migration cost in nanoseconds.
        cost_ns: f64,
    }

    /// A region free.
    Free("free")
    /// A region freed.
    pub struct FreeEvent {
        /// The freed region.
        region: u64,
        /// Placement the region held when freed.
        placement: Vec<(NodeId, u64)>,
    }

    /// A simulated phase.
    PhaseSpan("phase_span")
    /// One simulated kernel phase.
    pub struct PhaseSpan {
        /// Phase name.
        name: String,
        /// Modelled wall time, ns.
        time_ns: f64,
        /// Thread count.
        threads: u64,
        /// Per-node traffic.
        per_node: Vec<NodeTrafficSample>,
    }

    /// A node occupancy sample.
    OccupancyGauge("occupancy")
    /// A capacity sample for one node, emitted at every change.
    #[derive(Copy, Eq)]
    pub struct OccupancyGauge {
        /// The node.
        node: NodeId,
        /// Bytes currently allocated.
        used: u64,
        /// Highest `used` observed so far.
        high_water: u64,
        /// Usable capacity of the node.
        total: u64,
    }

    /// A tiering-daemon promotion or demotion.
    TieringAction("tiering_action")
    /// A promotion or demotion decided by the phase-boundary tiering
    /// daemon (the underlying copy also emits a [`Migration`]; this event
    /// records *why* it happened).
    #[derive(Copy)]
    pub struct TieringEvent {
        /// The moved region.
        region: u64,
        /// `true` for a promotion to the hot tier, `false` for a demotion.
        promoted("action"): bool as action,
        /// Destination node.
        to: NodeId,
        /// Migration cost, ns.
        cost_ns: f64,
    }

    /// An online-guidance promotion or demotion.
    GuidanceDecision("guidance_decision")
    /// One action of the online guidance engine, recording the imperfect
    /// sampled hotness estimate that drove it next to the ground truth it
    /// could not see.
    #[derive(Copy)]
    pub struct GuidanceDecision {
        /// Global guidance-interval counter when the action was taken.
        interval: u64,
        /// The moved region.
        region: u64,
        /// `true` for a promotion to the hot tier, `false` for a demotion.
        promoted("action"): bool as action,
        /// Destination node.
        to: NodeId,
        /// Estimated hotness — the region's EWMA share of sampled traffic
        /// (0..=1) when the decision fired.
        estimated_hotness: f64,
        /// Ground-truth hotness — the region's share of the triggering
        /// interval's actual traffic (0..=1).
        actual_hotness: f64,
        /// Migration cost, ns.
        cost_ns: f64,
        /// Sampling period (accesses per sample) in effect.
        period: u64,
    }

    /// A broker admission (multi-tenant service).
    TenantAdmit("tenant_admit")
    /// A broker admission: a tenant's allocation request was granted a
    /// lease after fair-share arbitration (`hetmem-service`).
    pub struct TenantAdmit {
        /// Id of the broker instance that granted the lease (0 for a
        /// standalone broker).
        broker: u32 = 0,
        /// Tenant name.
        tenant: String,
        /// The lease id granted.
        lease: u64,
        /// Requested bytes.
        size: u64,
        /// Final placement split `(node, bytes)`.
        placement: Vec<(NodeId, u64)>,
        /// Whether any candidate was refused by quota/share enforcement
        /// on the way to this placement.
        clamped: bool,
        /// Bytes that landed on the machine's fast tier.
        fast_bytes: u64,
    }

    /// A fair-share denial on one node (multi-tenant service).
    QuotaClamp("quota_clamp")
    /// A fair-share denial on one node: the arbiter refused to place
    /// bytes for a tenant there because the tenant's quota or the
    /// guaranteed shares of other tenants left no room.
    pub struct QuotaClamp {
        /// Id of the broker instance that refused the bytes.
        broker: u32 = 0,
        /// Tenant name.
        tenant: String,
        /// The node the bytes were refused on.
        node: NodeId,
        /// Bytes the tenant wanted on the node.
        requested: u64,
        /// Bytes the arbiter was willing to grant there.
        allowed: u64,
    }

    /// Contention-induced slowdown charged to a tenant.
    ContentionStall("contention_stall")
    /// Bandwidth degradation charged to a tenant because co-located
    /// tenants saturated a node in the same service epoch.
    pub struct ContentionStall {
        /// Id of the broker instance charging the stall.
        broker: u32 = 0,
        /// The tenant being slowed down.
        tenant: String,
        /// The saturated node.
        node: NodeId,
        /// Extra time charged, ns.
        stall_ns: f64,
        /// Tenants driving traffic at the node this epoch (including the
        /// stalled one).
        sharers: u64,
    }

    /// A lease aged out without renewal (multi-tenant service).
    LeaseExpired("lease_expired")
    /// A lease aged out: the owning tenant stopped renewing it for a full
    /// TTL, so the broker reclaimed the capacity (paired with a
    /// [`Reclaim`] event carrying the returned bytes).
    pub struct LeaseExpired {
        /// Id of the broker instance that owned the lease.
        broker: u32 = 0,
        /// Tenant name.
        tenant: String,
        /// The expired lease id.
        lease: u64,
        /// The TTL the lease ran under, in service epochs.
        ttl_epochs: u64,
    }

    /// A lease was revoked (disconnect, operator, fault).
    LeaseRevoked("lease_revoked")
    /// A lease was revoked before its natural release — the connection
    /// that created it dropped, or an operator/fault path pulled it.
    pub struct LeaseRevoked {
        /// Id of the broker instance that owned the lease.
        broker: u32 = 0,
        /// Tenant name.
        tenant: String,
        /// The revoked lease id.
        lease: u64,
        /// Why it was revoked (`"disconnect"`, `"operator"`, ...).
        reason: String,
    }

    /// A tier entered or left the degraded state.
    TierDegraded("tier_degraded")
    /// A memory tier changed health. Degraded tiers are demoted to
    /// last-resort rank so new placements fall back to healthy tiers
    /// instead of hard-failing.
    pub struct TierDegraded {
        /// Id of the broker instance whose shard is affected.
        broker: u32 = 0,
        /// The tier, by wire name (`"hbm"`, `"dram"`, `"nvdimm"`, ...).
        kind: String,
        /// `true` when entering the degraded state, `false` on recovery.
        degraded: bool,
    }

    /// A client gave up after its retry budget.
    RetryExhausted("retry_exhausted")
    /// A client exhausted its retry budget against a stalled or failing
    /// broker and surfaced the error to the application.
    pub struct RetryExhausted {
        /// Tenant name (empty when the failure happened before
        /// registration).
        tenant: String,
        /// The wire op that was retried (`"alloc"`, `"renew"`, ...).
        op: String,
        /// Attempts made, including the first.
        attempts: u64,
        /// The error that ended the last attempt.
        last_error: String,
    }

    /// Capacity reclaimed from an expired or revoked lease.
    Reclaim("reclaim")
    /// Capacity returned to the shared pool outside the normal release
    /// path — the accounting side of an expiry or revocation.
    pub struct Reclaim {
        /// Id of the broker instance that reclaimed the capacity.
        broker: u32 = 0,
        /// Tenant whose quota the bytes were charged against.
        tenant: String,
        /// The reclaimed lease id.
        lease: u64,
        /// Total bytes returned.
        bytes: u64,
        /// Placement split `(node, bytes)` that was freed.
        placement: Vec<(NodeId, u64)>,
        /// What triggered the reclaim (`"expired"`, `"revoked"`).
        reason: String,
    }

    /// A forwarded residual allocation served for a peer broker.
    SpillForwarded("spill_forwarded")
    /// A residual allocation served on behalf of a peer broker: the
    /// tenant's home broker ran out of shard capacity and forwarded the
    /// remainder here (federation cross-broker spill). Emitted by the
    /// *serving* peer, so per-broker traces attribute the bytes to the
    /// shard that actually holds them.
    pub struct SpillForwarded {
        /// Id of the peer broker that served the forwarded bytes (the
        /// emitter).
        broker: u32 = 0,
        /// Id of the tenant's home broker that forwarded the request.
        origin: u32,
        /// Tenant name.
        tenant: String,
        /// Forwarded bytes granted here.
        size: u64,
        /// Of those, bytes that landed on the machine's fast tier.
        fast_bytes: u64,
        /// Modelled forwarding cost (round trip plus transfer), ns.
        cost_ns: f64,
    }

    /// A peer capacity digest merged into a federation board.
    DigestMerged("digest_merged")
    /// A peer's capacity digest was merged into a broker's federation
    /// board. `applied == false` means the held entry was already newer
    /// under the last-writer-wins order, so the merge was a no-op.
    pub struct DigestMerged {
        /// Id of the broker doing the merging.
        broker: u32 = 0,
        /// Id of the peer the digest describes.
        peer: u32,
        /// Epoch stamp of the incoming digest.
        epoch: u64,
        /// Whether the incoming digest replaced the held entry.
        applied: bool,
    }

    /// Same-tenant admissions merged into one planning walk (shard
    /// dispatch plane).
    BatchCoalesced("batch_coalesced")
    /// Several same-tenant, same-attribute admissions were merged into a
    /// single placement planning walk while serving one shard. The grants
    /// fan back out to the individual requests; this event records only
    /// the merge itself (one per coalesced batch).
    pub struct BatchCoalesced {
        /// Id of the emitting broker (0 standalone).
        broker: u32 = 0,
        /// Index of the shard whose queue was coalesced.
        shard: u32,
        /// Tenant whose requests were merged.
        tenant: String,
        /// Number of requests merged into the single planning walk (≥ 2).
        merged: u64,
        /// Total bytes requested across the merged batch.
        bytes: u64,
    }

    /// An idle shard stole queued admissions from a loaded sibling.
    ShardSteal("shard_steal")
    /// An idle shard stole pending work from the most-loaded sibling
    /// shard.
    pub struct ShardSteal {
        /// Id of the emitting broker (0 standalone).
        broker: u32 = 0,
        /// Index of the idle shard that stole the work.
        thief: u32,
        /// Index of the loaded shard the work was taken from.
        victim: u32,
        /// Number of queued requests moved.
        stolen: u64,
    }

    /// A tenant's adaptive sampler backed off or burst its period.
    SampleRateChanged("sample_rate_changed")
    /// A tenant's adaptive guidance sampler retuned its period: backed
    /// off while the hot-set estimate was stable, or burst to the minimum
    /// period on a detected phase change.
    pub struct SampleRateChanged {
        /// Id of the emitting broker (0 standalone).
        broker: u32 = 0,
        /// The tenant whose sampler retuned.
        tenant: String,
        /// Period before the change (accesses per sample).
        old_period: u64,
        /// Period after the change.
        new_period: u64,
    }

    /// The epoch fold promoted a tenant's hot region to the fast tier.
    HotPromoted("hot_promoted")
    /// The broker's epoch fold promoted a tenant's hot region onto the
    /// fast tier at arbitration time.
    pub struct HotPromoted {
        /// Id of the emitting broker (0 standalone).
        broker: u32 = 0,
        /// The tenant owning the promoted region.
        tenant: String,
        /// The promoted region's id.
        region: u64,
        /// Destination node (the fast-tier target).
        to: NodeId,
        /// Region size, bytes.
        bytes: u64,
        /// Modelled migration cost charged to the epoch budget, ns.
        cost_ns: f64,
    }

    /// An epoch's migration budget ran out; moves were deferred.
    BudgetExhausted("budget_exhausted")
    /// An epoch's migration budget ran out before every planned move was
    /// executed; the remainder is deferred to a later epoch.
    pub struct BudgetExhausted {
        /// Id of the emitting broker (0 standalone).
        broker: u32 = 0,
        /// The epoch whose fold hit the cap.
        epoch: u64,
        /// Migration cost charged before the cap was hit, ns.
        spent_ns: f64,
        /// The per-epoch cap, ns.
        budget_ns: f64,
        /// Planned moves deferred past the cap.
        deferred: u64,
    }
}

/// Names of the well-known attribute ids of `hetmem-core`, by id.
const ATTR_NAMES: [&str; 8] = [
    "Capacity",
    "Locality",
    "Bandwidth",
    "Latency",
    "ReadBandwidth",
    "WriteBandwidth",
    "ReadLatency",
    "WriteLatency",
];

/// Human-readable name for the well-known attribute ids of
/// `hetmem-core` (custom attributes render as `attr#N`).
pub fn attr_name(id: u32) -> String {
    match ATTR_NAMES.get(id as usize) {
        Some(name) => (*name).into(),
        None => format!("attr#{id}"),
    }
}

/// The inverse of [`attr_name`].
fn attr_id(name: &str) -> Result<u32, ParseError> {
    match ATTR_NAMES.iter().position(|n| *n == name) {
        Some(id) => Ok(id as u32),
        None => name
            .strip_prefix("attr#")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ParseError::new(format!("unknown attribute {name:?}"))),
    }
}

/// Streams events as JSON lines (the `--trace` file format).
pub struct JsonlWriter {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlWriter {
    /// Wraps any writer.
    pub fn new(out: impl Write + Send + 'static) -> JsonlWriter {
        JsonlWriter { out: Mutex::new(Box::new(out)) }
    }

    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlWriter> {
        Ok(JsonlWriter::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }

    /// Flushes buffered output.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("writer poisoned").flush()
    }
}

impl Drop for JsonlWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl JsonlWriter {
    /// Writes one event as a JSON line. Write errors are swallowed —
    /// a full disk mid-trace must not take the experiment down.
    pub fn write_event(&self, event: &Event) {
        let line = event.to_json();
        let mut out = self.out.lock().expect("writer poisoned");
        let _ = writeln!(out, "{line}");
    }
}

/// Parses a JSONL trace back into events.
pub fn read_jsonl(text: &str) -> Result<Vec<Event>, ParseError> {
    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(Event::from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_decision() -> Event {
        Event::AllocDecision(AllocDecision {
            region: Some(7),
            size: 3 << 30,
            requested: 4,
            used: 2,
            scope: Scope::Local,
            fallback: FallbackMode::PartialSpill,
            candidates: vec![
                Candidate { node: NodeId(4), value: 380_000 },
                Candidate { node: NodeId(0), value: 90_000 },
            ],
            hops: vec![Hop { node: NodeId(4), reason: "insufficient capacity".into() }],
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            error: None,
        })
    }

    #[test]
    fn event_kinds_list_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in EVENT_KINDS {
            assert!(seen.insert(*kind), "duplicate event kind {kind:?}");
        }
        assert_eq!(EVENT_KINDS.len(), 23);
    }

    #[test]
    fn json_lines_are_single_lines() {
        let line = sample_decision().to_json();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn jsonl_writer_streams_lines() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let w = JsonlWriter::new(Shared(buf.clone()));
        w.write_event(&sample_decision());
        w.write_event(&Event::AttrFallback(AttrFallback { requested: 6, used: 3 }));
        w.flush().expect("flush");
        let text = String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8");
        let back = read_jsonl(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], sample_decision());
    }

    #[test]
    fn jsonl_writer_flushes_tail_on_drop() {
        // Regression: a function that returns early (or unwinds)
        // without calling flush() must not lose the buffered tail —
        // JsonlWriter's Drop does a best-effort flush.
        let path =
            std::env::temp_dir().join(format!("hetmem_jsonl_drop_{}.jsonl", std::process::id()));
        fn write_and_return_early(path: &std::path::Path) {
            let w = JsonlWriter::new(std::io::BufWriter::with_capacity(
                1 << 20, // large enough that nothing auto-flushes
                std::fs::File::create(path).expect("create"),
            ));
            w.write_event(&Event::AttrFallback(AttrFallback { requested: 4, used: 2 }));
            w.write_event(&Event::AttrFallback(AttrFallback { requested: 6, used: 3 }));
            // No flush: the drop glue owns the tail.
        }
        write_and_return_early(&path);
        let text = std::fs::read_to_string(&path).expect("trace file");
        let events = read_jsonl(&text).expect("parses");
        assert_eq!(events.len(), 2, "tail lost on early return");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attr_names_roundtrip() {
        for id in 0..12u32 {
            assert_eq!(attr_id(&attr_name(id)).expect("roundtrip"), id);
        }
    }
}
