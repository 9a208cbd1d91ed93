//! Layer probes for the traced run: calls into one layer's public API
//! from the benchmark's own code, each under a span, so a layer's cost
//! is measured without instrumenting the program.

use crate::ops::MIB;
use crate::spans::{Span, SpanLog};
use crate::stats::Histogram;
use hetmem_alloc::AllocRequest;
use hetmem_core::MemAttrs;
use hetmem_memsim::{AllocPolicy, Machine, MemoryManager};
use hetmem_placement::{
    normalize_initiator, PlacementEngine, PlanRequest, ShareMode, TierPolicy, TierSnapshot,
};
use hetmem_service::server::serve;
use hetmem_service::wire::{Request, Response};
use hetmem_service::{Broker, TenantId};
use hetmem_telemetry::{Event, TelemetrySink, TenantAdmit};
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Rank, plan and commit outside the broker: the same placement engine
/// over the same attributes, a tier policy built from the broker's
/// public state, and a side memory manager for the commit.
pub struct Side {
    machine: Arc<Machine>,
    engine: PlacementEngine,
    mm: MemoryManager,
    node_kind: BTreeMap<NodeId, MemoryKind>,
}

impl Side {
    pub fn new(machine: Arc<Machine>, attrs: Arc<MemAttrs>) -> Side {
        let topo = machine.topology();
        let node_kind = topo
            .node_ids()
            .into_iter()
            .map(|n| (n, topo.node_kind(n).unwrap_or(MemoryKind::Dram)))
            .collect();
        Side {
            mm: MemoryManager::new(machine.clone()),
            engine: PlacementEngine::new(attrs),
            machine,
            node_kind,
        }
    }

    /// The fair-share tier snapshots `tenant` would plan against now,
    /// derived from `tenants()` and `node_usage()` with the broker's
    /// guarantee rule (weight share of the tier, no reservations).
    fn snapshots(&self, broker: &Broker, tenant: TenantId) -> BTreeMap<MemoryKind, TierSnapshot> {
        let tenants = broker.tenants();
        let usage = broker.node_usage();
        let weights: u64 = tenants.iter().map(|t| t.priority.weight()).sum();
        let mut out = BTreeMap::new();
        for kind in self.node_kind.values().copied() {
            let nodes = usage.iter().filter(|(n, _, _)| self.node_kind.get(n) == Some(&kind));
            let capacity: u64 = nodes.clone().map(|&(_, _, total)| total).sum();
            let free: u64 = nodes.map(|&(_, used, total)| total - used).sum();
            let guarantee = |w: u64| (capacity as u128 * w as u128 / weights.max(1) as u128) as u64;
            let held = |t: &hetmem_service::TenantStats| t.held.get(&kind).copied().unwrap_or(0);
            let mut snap = TierSnapshot { free, ..TierSnapshot::default() };
            for t in &tenants {
                if t.id == tenant {
                    snap.used_by_requester = held(t);
                    snap.guarantee = guarantee(t.priority.weight());
                } else {
                    snap.others_shortfall += guarantee(t.priority.weight()).saturating_sub(held(t));
                }
            }
            out.insert(kind, snap);
        }
        out
    }

    /// Times `placement.rank`, `placement.plan` and `memsim.commit`
    /// (Exact alloc + free of the plan's chunks) for one request.
    pub fn alloc(
        &mut self,
        broker: &Broker,
        tenant: TenantId,
        req: &AllocRequest,
        log: &mut SpanLog,
        id: u64,
        parent: Option<u32>,
    ) {
        let snapshots = self.snapshots(broker, tenant);
        let free: BTreeMap<NodeId, u64> =
            broker.node_usage().into_iter().map(|(n, used, total)| (n, total - used)).collect();
        let mut policy = TierPolicy::new(ShareMode::FairShare, self.node_kind.clone(), snapshots);
        let cpus = self.machine.topology().machine_cpuset();
        let initiator = normalize_initiator(req.get_initiator(), cpus).expect("machine cpuset");
        let plan_req = PlanRequest {
            size: req.size(),
            mode: req.get_fallback().as_telemetry(),
            page_quantize: false,
        };

        let t0 = log.now();
        let ranking = self.engine.rank(req.get_criterion(), &initiator, req.scope());
        let t1 = log.now();
        log.push(Span { name: "placement.rank", start: t0, end: t1, parent, req: id });
        let Ok(ranking) = ranking else { return };
        let ranked = ranking.nodes();

        let t0 = log.now();
        let plan = self.engine.plan(&plan_req, &ranked, |n| free[&n], &mut policy);
        let t1 = log.now();
        log.push(Span { name: "placement.plan", start: t0, end: t1, parent, req: id });
        if !plan.is_complete() {
            return;
        }

        let chunks = AllocPolicy::Exact(plan.chunks.clone());
        let t0 = log.now();
        if let Ok(region) = self.mm.alloc(req.size(), chunks) {
            self.mm.free(region);
        }
        let t1 = log.now();
        log.push(Span { name: "memsim.commit", start: t0, end: t1, parent, req: id });
    }
}

/// One request frame through the codec and `server::serve` against
/// `broker`, under the spans `wire.req_encode`, `wire.req_decode`,
/// `server.serve_<op>`, `wire.resp_encode` and `wire.resp_decode`.
/// Returns the response and the frame bytes both ways (newlines
/// included), or `None` if a frame did not survive its round trip.
pub fn frame(
    broker: &Broker,
    request: &Request,
    log: &mut SpanLog,
    id: u64,
    parent: Option<u32>,
) -> Option<(Response, usize)> {
    let span = |log: &mut SpanLog, name, start| {
        let end = log.now();
        log.push(Span { name, start, end, parent, req: id });
    };
    let t = log.now();
    let line = request.to_json();
    span(log, "wire.req_encode", t);
    let t = log.now();
    let decoded = Request::from_json(&line);
    span(log, "wire.req_decode", t);
    let decoded = decoded.ok().filter(|d| d == request)?;
    let name = match decoded {
        Request::Alloc { .. } => "server.serve_alloc",
        Request::Free { .. } => "server.serve_free",
        Request::Renew { .. } => "server.serve_renew",
        Request::Stats => "server.serve_stats",
        _ => "server.serve_other",
    };
    let t = log.now();
    let response = serve(broker, decoded);
    span(log, name, t);
    let t = log.now();
    let out = response.to_json();
    span(log, "wire.resp_encode", t);
    let t = log.now();
    let back = Response::from_json(&out);
    span(log, "wire.resp_decode", t);
    let back = back.ok().filter(|b| *b == response)?;
    Some((back, line.len() + out.len() + 2))
}

/// `TelemetrySink::emit` of an admit-sized event (p50 ns over `n`
/// emits) and `Collector::drain_sorted` cost per drained event (median
/// over rounds), on a side sink with a ring large enough to lose
/// nothing.
pub fn telemetry(rounds: usize, per_round: usize) -> (f64, f64) {
    let sink = TelemetrySink::with_ring_words(1 << 16);
    let mut collector = sink.collector();
    let event = Event::TenantAdmit(TenantAdmit {
        broker: 0,
        tenant: "c0".into(),
        lease: 12_345,
        size: 32 * MIB,
        placement: vec![(NodeId(4), 32 * MIB)],
        clamped: false,
        fast_bytes: 32 * MIB,
    });
    let mut emit = Histogram::default();
    let mut drain = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        for _ in 0..per_round {
            let e = event.clone();
            let t = std::time::Instant::now();
            sink.emit(e);
            emit.record(t.elapsed().as_nanos() as u64);
        }
        let t = std::time::Instant::now();
        let got = black_box(collector.drain_sorted()).len();
        drain.push(t.elapsed().as_nanos() as f64 / got.max(1) as f64);
    }
    (emit.quantile(0.5).unwrap_or(0) as f64, crate::stats::median(&drain))
}
