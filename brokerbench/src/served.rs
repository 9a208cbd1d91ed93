//! `served_churn`: two closed-loop clients over a Unix socket to
//! `Server::bind_sharded` with the default single-dispatcher plane,
//! broker telemetry on and drained by a `BackgroundCollector`.

use crate::harness::{
    drive, pin_to_cpu, ratio, summarize, timed, Args, Counts, Plan, Report, SetupTimes, Worker,
    SETUP_REPS,
};
use crate::ops::{admission_ratios, churn_program, exec, Op, Slot, TTL};
use crate::probe::{self, Side};
use crate::spans::{by_name, p50, Span, SpanLog};
use hetmem_core::discovery;
use hetmem_memsim::Machine;
use hetmem_service::server::{Client, Server};
use hetmem_service::wire::{Request, Response};
use hetmem_service::{ArbitrationPolicy, Broker, Priority, ShardConfig, TenantSpec};
use hetmem_telemetry::{BackgroundCollector, TelemetrySink};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Cycles in each client's program; the loop wraps around it.
const CYCLES: usize = 1 << 14;
/// Per-thread telemetry ring (8-byte words) and drain interval: about
/// a hundred milliseconds of headroom at 80k ops/s before a stalled
/// collector could lose an event.
const RING_WORDS: usize = 1 << 16;
const DRAIN_EVERY: Duration = Duration::from_millis(10);
/// Operations replayed through the layer probes in the traced run.
const PROBE_OPS: usize = 20_000;

/// One built serving stack.
struct Stack {
    server: Server,
    clients: Vec<Client>,
    collector: BackgroundCollector,
    events: Arc<AtomicU64>,
}

fn tenant(i: usize) -> String {
    format!("c{i}")
}

fn build(addr: &str, t: &mut SetupTimes) -> Result<Stack, String> {
    let machine = timed(&mut t.machine, || Arc::new(Machine::knl_snc4_flat()));
    let attrs = timed(&mut t.discovery, || discovery::from_firmware(&machine, true))
        .map_err(|e| format!("discovery: {e}"))?;
    let sink = TelemetrySink::with_ring_words(RING_WORDS);
    let broker = timed(&mut t.broker_new, || {
        let mut b = Broker::new(machine, Arc::new(attrs), ArbitrationPolicy::FairShare);
        b.set_sink(sink.clone());
        Arc::new(b)
    });
    let events = Arc::new(AtomicU64::new(0));
    let (server, clients, collector) = timed(&mut t.bind, || {
        let seen = events.clone();
        let collector = BackgroundCollector::spawn(&sink, DRAIN_EVERY, move |batch| {
            seen.fetch_add(batch.len() as u64, Ordering::Relaxed);
        });
        let server = Server::bind_sharded(broker, addr, None, ShardConfig::default())
            .map_err(|e| format!("bind {addr}: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok::<_, String>((server, clients, collector))
    })?;
    let mut clients = clients;
    timed(&mut t.prefill, || {
        for (i, c) in clients.iter_mut().enumerate() {
            let register = Request::Register {
                tenant: tenant(i),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            };
            match c.call(&register) {
                Ok(Response::Registered { .. }) => {}
                other => return Err(format!("register: {other:?}")),
            }
        }
        Ok(())
    })?;
    Ok(Stack { server, clients, collector, events })
}

/// The wire frame for one program step; `None` when the step needs a
/// lease and the client holds none.
fn frame_for(op: &Op, tenant: &str, lease: Option<u64>) -> Option<Request> {
    let tenant = tenant.to_string();
    Some(match op {
        Op::Alloc(r) => Request::Alloc {
            tenant,
            size: r.size(),
            criterion: r.get_criterion(),
            fallback: r.get_fallback(),
            label: None,
            ttl: Some(TTL),
        },
        Op::Renew => Request::Renew { tenant, lease: lease? },
        Op::Release => Request::Free { tenant, lease: lease? },
        Op::Heartbeat => Request::Heartbeat { tenant },
        Op::Stats => Request::Stats,
    })
}

struct ChurnClient {
    client: Client,
    tenant: String,
    program: Vec<Op>,
    pos: usize,
    lease: Option<u64>,
    req: u64,
}

impl ChurnClient {
    /// Books one response; false when it is not the expected variant.
    fn check(&mut self, request: &Request, resp: &Response, counts: &mut Counts) -> bool {
        match (request, resp) {
            (
                Request::Alloc { size, .. },
                Response::Granted { lease, size: got, placement, fast_bytes },
            ) => {
                counts.allocs += 1;
                counts.grant(*got, *fast_bytes, placement.len());
                self.lease = Some(*lease);
                got >= size && placement.iter().map(|&(_, b)| b).sum::<u64>() == *got
            }
            (Request::Alloc { .. }, Response::Error { code, .. }) if code == "admission" => {
                counts.allocs += 1;
                counts.denied += 1;
                true
            }
            (Request::Renew { lease, .. }, Response::Renewed { lease: got, expires_at }) => {
                got == lease && expires_at.is_some()
            }
            (Request::Free { .. }, Response::Freed) => {
                self.lease = None;
                true
            }
            (Request::Heartbeat { .. }, Response::HeartbeatAck { renewed }) => {
                *renewed == u64::from(self.lease.is_some())
            }
            (Request::Stats, Response::Stats { shards, nodes, .. }) => {
                *shards == 1 && !nodes.is_empty()
            }
            _ => false,
        }
    }

    /// Frees a lease left over when the run ended mid-cycle.
    fn finish(&mut self, counts: &mut Counts) {
        if let Some(lease) = self.lease {
            let free = Request::Free { tenant: self.tenant.clone(), lease };
            let resp = self.client.call(&free);
            counts.attempted += 1;
            let ok = resp.is_ok_and(|r| self.check(&free, &r, counts));
            counts.failed += u64::from(!ok);
        }
    }
}

impl Worker for ChurnClient {
    fn step(&mut self, log: Option<&mut SpanLog>, counts: &mut Counts) -> Option<u64> {
        loop {
            let open = log.is_some().then(Instant::now);
            let op = &self.program[self.pos % self.program.len()];
            self.pos += 1;
            let Some(request) = frame_for(op, &self.tenant, self.lease) else { continue };
            let start = Instant::now();
            let resp = self.client.call(&request);
            let end = Instant::now();
            counts.attempted += 1;
            let ok = match &resp {
                Ok(r) => self.check(&request, r, counts),
                Err(_) => false,
            };
            counts.failed += u64::from(!ok);
            if let (Some(log), Some(open)) = (log, open) {
                self.req += 1;
                let root = log.open("op", self.req, None, log.at(open));
                let (start, end) = (log.at(start), log.at(end));
                log.push(Span {
                    name: "client.call",
                    start,
                    end,
                    parent: Some(root),
                    req: self.req,
                });
                log.close(root, log.now());
            }
            return Some(end.duration_since(start).as_nanos() as u64);
        }
    }
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut stack = None;
    // Every thread of the stack (accept, readers, dispatcher,
    // collector, clients) inherits CPU 0 from this thread.
    pin_to_cpu(0);
    for rep in 0..SETUP_REPS {
        let sock: PathBuf = out_dir.join(format!("s{}-{rep}.sock", std::process::id()));
        let addr = format!("unix:{}", sock.display());
        let mut t = SetupTimes::default();
        let built = build(&addr, &mut t)?;
        setups.push(t);
        if let Some(old) = stack.replace(built) {
            teardown(old);
        }
    }
    let Stack { mut server, clients, collector, events } = stack.expect("at least one set-up");
    let broker = server.broker().clone();
    let baseline = broker.node_usage();

    let base = Instant::now();
    let plan = Plan::new(args);
    let mut workers: Vec<ChurnClient> = clients
        .into_iter()
        .enumerate()
        .map(|(i, client)| ChurnClient {
            client,
            tenant: tenant(i),
            program: churn_program(args.seed, i as u64, CYCLES),
            pos: 0,
            lease: None,
            req: (i as u64) << 40,
        })
        .collect();
    let driven: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> =
            workers.iter_mut().map(|w| s.spawn(move || drive(w, plan, base))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut counts = Counts::default();
    for (w, d) in workers.iter_mut().zip(&driven) {
        counts.add(&d.counts);
        w.finish(&mut counts);
    }
    let ops_sent = counts.attempted;
    drop(workers);
    server.shutdown();
    let lost: u64 = collector.finish().iter().map(|l| l.lost).sum();
    let events = events.load(Ordering::Relaxed);

    let untraced: Vec<_> = driven.iter().map(|d| &d.untraced).collect();
    let timing = summarize(&untraced);
    report.timing(&timing, &setups, "op = one request; latency = its Client::call round trip");
    report.e2e.insert("fast_hit", ratio(counts.fast_bytes as f64, counts.granted_bytes as f64));
    report.notes.push("fast_hit: wall-clock run, share of granted bytes on MCDRAM".into());

    report.check("broker invariants hold", broker.check_invariants().is_ok());
    report.check("every lease freed", broker.live_leases() == 0);
    report.check("node usage back at baseline", broker.node_usage() == baseline);
    report.check("no telemetry event lost", lost == 0);
    report.layer.insert("telemetry.events_lost", lost as f64);
    report.layer.insert("telemetry.events_per_op", ratio(events as f64, ops_sent as f64));

    if args.trace {
        let traced: Vec<_> = driven.iter().filter_map(|d| d.traced.as_ref()).collect();
        report.overhead(&summarize(&untraced), &summarize(&traced));
        let mut log = SpanLog::new(base, 0);
        for d in driven {
            if let Some(l) = d.log {
                log.absorb(l);
            }
        }
        layers(args, &mut report, &mut log, &counts, &broker)?;
        crate::write_spans(out_dir, &args.workload, &log, &mut report);
    }
    report.counts = counts;
    Ok(report)
}

fn teardown(stack: Stack) {
    let Stack { mut server, clients, collector, .. } = stack;
    drop(clients);
    server.shutdown();
    collector.finish();
}

/// Per-layer probes: the clients' frames replayed through the codec
/// and `server::serve` against a mirror broker, the same operations
/// replayed on a second mirror through direct broker calls with rank,
/// plan and commit timed beside them, and the telemetry sink probes.
fn layers(
    args: &Args,
    report: &mut Report,
    log: &mut SpanLog,
    counts: &Counts,
    broker: &Broker,
) -> Result<(), String> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).map_err(|e| e.to_string())?);
    let mirror = |sink: bool| {
        let mut b = Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::FairShare);
        if sink {
            b.set_sink(TelemetrySink::with_ring_words(RING_WORDS));
        }
        let ids: Vec<_> = (0..CLIENTS)
            .map(|i| b.register(TenantSpec::new(tenant(i))).expect("mirror registers"))
            .collect();
        (b, ids)
    };
    let (wire_broker, _) = mirror(true);
    let (direct, ids) = mirror(false);
    let mut side = Side::new(machine.clone(), attrs.clone());
    let programs: Vec<Vec<Op>> =
        (0..CLIENTS).map(|i| churn_program(args.seed, i as u64, CYCLES)).collect();
    let mut leases: Vec<Option<u64>> = vec![None; CLIENTS];
    let mut slots: Vec<Slot> = ids.iter().map(|&id| Slot::new(id, 1)).collect();
    let mut probe_counts = Counts::default();
    let (mut bytes, mut frames, mut bad) = (0usize, 0usize, 0u64);
    let mut probe = SpanLog::new(log.base(), PROBE_OPS * 12);
    for k in 0..PROBE_OPS {
        let c = k % CLIENTS;
        let op = &programs[c][(k / CLIENTS) % programs[c].len()];
        let id = (1 << 50) + k as u64;
        let t = probe.now();
        let root = probe.open("probe.op", id, None, t);
        if let Some(request) = frame_for(op, &tenant(c), leases[c]) {
            let t = probe.now();
            wire_broker.advance_epoch();
            let end = probe.now();
            probe.push(Span {
                name: "broker.advance_epoch",
                start: t,
                end,
                parent: Some(root),
                req: id,
            });
            match probe::frame(&wire_broker, &request, &mut probe, id, Some(root)) {
                Some((resp, n)) => {
                    bytes += n;
                    frames += 1;
                    match resp {
                        Response::Granted { lease, .. } => leases[c] = Some(lease),
                        Response::Freed => leases[c] = None,
                        Response::Error { .. } => bad += 1,
                        _ => {}
                    }
                }
                None => bad += 1,
            }
        }
        if let Op::Alloc(req) = op {
            if slots[c].held.is_empty() {
                side.alloc(&direct, slots[c].id, req, &mut probe, id, Some(root));
            }
        }
        if let Some(call) = exec(&direct, &mut slots[c], op, &mut probe_counts) {
            probe.push(Span {
                name: call.name,
                start: probe.at(call.start),
                end: probe.at(call.end),
                parent: Some(root),
                req: id,
            });
        }
        probe.close(root, probe.now());
    }
    for slot in &mut slots {
        crate::ops::drain(&direct, slot, &mut probe_counts);
    }
    report.check("probe frames round-trip and are served", bad == 0);
    report.check("probe broker calls succeed", probe_counts.failed == 0);

    let names = by_name(probe.spans());
    let calls = by_name(log.spans());
    for (metric, span) in [
        ("wire.req_encode_ns", "wire.req_encode"),
        ("wire.req_decode_ns", "wire.req_decode"),
        ("wire.resp_encode_ns", "wire.resp_encode"),
        ("wire.resp_decode_ns", "wire.resp_decode"),
        ("server.serve_alloc_ns", "server.serve_alloc"),
        ("server.serve_free_ns", "server.serve_free"),
        ("server.serve_renew_ns", "server.serve_renew"),
        ("server.serve_stats_ns", "server.serve_stats"),
        ("broker.acquire_ns", "broker.acquire"),
        ("broker.release_ns", "broker.release"),
        ("broker.renew_ns", "broker.renew"),
        ("broker.heartbeat_ns", "broker.heartbeat"),
        ("broker.stats_ns", "broker.stats"),
        ("broker.advance_epoch_ns", "broker.advance_epoch"),
        ("placement.rank_ns", "placement.rank"),
        ("placement.plan_ns", "placement.plan"),
        ("memsim.commit_ns", "memsim.commit"),
    ] {
        report.layer.insert(metric, p50(&names, span));
    }
    let acquire_p99 = names.get("broker.acquire").and_then(|h| h.tail(0.99)).unwrap_or(0);
    report.layer.insert("broker.acquire_p99_ns", acquire_p99 as f64);
    admission_ratios(report, counts, broker);
    let self_ns = p50(&names, "broker.acquire")
        - p50(&names, "placement.rank")
        - p50(&names, "placement.plan")
        - p50(&names, "memsim.commit");
    report.layer.insert("broker.self_ns", self_ns);

    // Per frame: codec and serve time of the frames the clients sent,
    // against the clients' measured round trip.
    let codec: u64 =
        probe.spans().iter().filter(|s| s.name.starts_with("wire.")).map(Span::dur).sum();
    let serve: u64 =
        probe.spans().iter().filter(|s| s.name.starts_with("server.serve_")).map(Span::dur).sum();
    let call = p50(&calls, "client.call");
    let codec_per = ratio(codec as f64, frames as f64);
    let serve_per = ratio(serve as f64, frames as f64);
    let transport = call - codec_per - serve_per;
    report.layer.insert("wire.bytes_per_op", ratio(bytes as f64, frames as f64));
    report.layer.insert("wire.share", ratio(codec_per, call));
    report.layer.insert("server.transport_us", transport / 1e3);
    report.layer.insert("server.transport_share", ratio(transport, call));
    report.notes.push(format!(
        "per call: client round trip p50 {call:.0} ns = codec {codec_per:.0} ns (mean) + serve \
         {serve_per:.0} ns (mean) + transport {transport:.0} ns (remainder)"
    ));

    let (emit, drain) = probe::telemetry(20, 2_000);
    report.layer.insert("telemetry.emit_ns", emit);
    report.layer.insert("telemetry.drain_ns_per_event", drain);
    log.absorb(probe);
    Ok(())
}
