//! `inproc_contended`: two threads call the broker directly (no wire,
//! telemetry off) while a batch-class hog holds most of the fast tier,
//! so arbitration, the broker's locks, planning and the memsim commit
//! carry the cost.

use crate::harness::{
    drive, ratio, summarize, timed, Args, Counts, Plan, Report, SetupTimes, Worker, SETUP_REPS,
};
use crate::ops::{admission_ratios, contended_program, exec, Op, Slot, Step, MIB};
use crate::probe::Side;
use crate::spans::{by_name, p50, Span, SpanLog};
use crate::stats::Histogram;
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, discovery, MemAttrs};
use hetmem_memsim::Machine;
use hetmem_service::{ArbitrationPolicy, Broker, Lease, Priority, TenantId, TenantSpec};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const THREADS: usize = 2;
const TENANTS_PER_THREAD: usize = 2;
/// Leases one tenant may hold before its next alloc releases the oldest.
const HOLD: usize = 8;
/// The hog's prefill: most of the 15.2 GiB usable MCDRAM tier, leaving
/// room for the Normal tenants to outgrow their fair share (clamps).
const HOG_BYTES: u64 = 9 << 30;
const PROGRAM_LEN: usize = 1 << 16;
/// Allocs replayed through the rank/plan/commit probes.
const PROBE_ALLOCS: usize = 5_000;
/// Length of each 1-thread and 2-thread stretch of the contention
/// probe, and how many of each alternate.
const PAIR_STRETCH: Duration = Duration::from_millis(150);
const PAIR_ROUNDS: usize = 3;

struct Stack {
    machine: Arc<Machine>,
    attrs: Arc<MemAttrs>,
    broker: Broker,
    hog: Lease,
    tenants: Vec<TenantId>,
}

fn build(t: &mut SetupTimes) -> Result<Stack, String> {
    let machine = timed(&mut t.machine, || Arc::new(Machine::knl_snc4_flat()));
    let attrs = timed(&mut t.discovery, || discovery::from_firmware(&machine, true))
        .map_err(|e| format!("discovery: {e}"))?;
    let attrs = Arc::new(attrs);
    let broker = timed(&mut t.broker_new, || {
        Broker::new(machine.clone(), attrs.clone(), ArbitrationPolicy::FairShare)
    });
    let (hog, tenants) = timed(&mut t.prefill, || {
        let hog = broker.register(TenantSpec::new("hog").priority(Priority::Batch))?;
        let fill = AllocRequest::new(HOG_BYTES)
            .criterion(attr::BANDWIDTH)
            .fallback(Fallback::PartialSpill);
        let hog = broker.acquire(hog, &fill)?;
        let mut tenants = Vec::new();
        for i in 0..THREADS * TENANTS_PER_THREAD {
            let priority = if i % 2 == 0 { Priority::Latency } else { Priority::Normal };
            tenants.push(broker.register(TenantSpec::new(format!("t{i}")).priority(priority))?);
        }
        Ok::<_, hetmem_service::ServiceError>((hog, tenants))
    })
    .map_err(|e| format!("prefill: {e}"))?;
    Ok(Stack { machine, attrs, broker, hog, tenants })
}

struct Contender<'a> {
    broker: &'a Broker,
    slots: Vec<Slot>,
    program: Vec<Step>,
    pos: usize,
    req: u64,
}

impl Worker for Contender<'_> {
    fn step(&mut self, log: Option<&mut SpanLog>, counts: &mut Counts) -> Option<u64> {
        loop {
            let open = log.is_some().then(Instant::now);
            let step = &self.program[self.pos % self.program.len()];
            self.pos += 1;
            let Some(call) = exec(self.broker, &mut self.slots[step.tenant], &step.op, counts)
            else {
                continue;
            };
            if let (Some(log), Some(open)) = (log, open) {
                self.req += 1;
                let root = log.open("op", self.req, None, log.at(open));
                let (start, end) = (log.at(call.start), log.at(call.end));
                log.push(Span { name: call.name, start, end, parent: Some(root), req: self.req });
                log.close(root, log.now());
            }
            // Latency is the acquire's: the placement callers wait for.
            // Renews and heartbeats cost a tenth of it, so a median
            // over the call mix would jump between the modes.
            return (call.name == "broker.acquire").then(|| call.ns());
        }
    }
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        let mut t = SetupTimes::default();
        let built = build(&mut t)?;
        setups.push(t);
        if let Some(old) = stack.replace(built) {
            old.broker.release(old.hog).map_err(|e| e.to_string())?;
        }
    }
    let stack = stack.expect("at least one set-up");
    let broker = &stack.broker;
    let baseline = broker.node_usage();

    let base = Instant::now();
    let plan = Plan::new(args);
    let mut workers: Vec<Contender> = (0..THREADS)
        .map(|t| Contender {
            broker,
            slots: stack.tenants[t * TENANTS_PER_THREAD..(t + 1) * TENANTS_PER_THREAD]
                .iter()
                .map(|&id| Slot::new(id, HOLD))
                .collect(),
            program: contended_program(args.seed, t as u64, TENANTS_PER_THREAD, PROGRAM_LEN),
            pos: 0,
            req: (t as u64) << 40,
        })
        .collect();
    let driven: Vec<_> = std::thread::scope(|s| {
        // Not pinned: pinning the two workers to separate CPUs made
        // the contended acquire's p50 and p99 vary more between runs.
        let handles: Vec<_> =
            workers.iter_mut().map(|w| s.spawn(move || drive(w, plan, base))).collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).collect()
    });
    let mut counts = Counts::default();
    for (w, d) in workers.iter_mut().zip(&driven) {
        counts.add(&d.counts);
        for slot in &mut w.slots {
            crate::ops::drain(broker, slot, &mut counts);
        }
    }
    drop(workers);

    let untraced: Vec<_> = driven.iter().map(|d| &d.untraced).collect();
    let timing = summarize(&untraced);
    report.timing(
        &timing,
        &setups,
        "op = one acquire, release, renew or heartbeat call; latency = acquire_with_ttl duration",
    );
    report.e2e.insert("fast_hit", ratio(counts.fast_bytes as f64, counts.granted_bytes as f64));
    report.notes.push(format!(
        "fast_hit: wall-clock run, share of granted bytes on MCDRAM; {} allocs, {} denied, {} \
         granted",
        counts.allocs, counts.denied, counts.grants
    ));
    report.check("broker invariants hold", broker.check_invariants().is_ok());
    report.check("node usage back at baseline", broker.node_usage() == baseline);

    if args.trace {
        let traced: Vec<_> = driven.iter().filter_map(|d| d.traced.as_ref()).collect();
        report.overhead(&summarize(&untraced), &summarize(&traced));
        let mut log = SpanLog::new(base, 0);
        for d in driven {
            if let Some(l) = d.log {
                log.absorb(l);
            }
        }
        let probe = layers(args, &mut report, &log, &stack, &mut counts);
        log.absorb(probe);
        admission_ratios(&mut report, &counts, broker);
        crate::write_spans(out_dir, &args.workload, &log, &mut report);
    }

    report.check("hog lease releases", stack.broker.release(stack.hog).is_ok());
    report.check("every lease freed", broker.live_leases() == 0);
    report.check(
        "node usage back at zero",
        broker.node_usage().iter().all(|&(_, used, _)| used == 0),
    );
    report.counts = counts;
    Ok(report)
}

/// Per-layer numbers: broker calls from the traced stretch, rank, plan
/// and commit replayed beside the broker for the programs' allocs,
/// `stats` reads, and the contention ratio.
fn layers(
    args: &Args,
    report: &mut Report,
    log: &SpanLog,
    stack: &Stack,
    counts: &mut Counts,
) -> SpanLog {
    let (broker, tenants) = (&stack.broker, &stack.tenants);
    let calls = by_name(log.spans());
    let mut probe = SpanLog::new(log.base(), PROBE_ALLOCS * 4 + 2_000);
    let mut side = Side::new(stack.machine.clone(), stack.attrs.clone());
    let allocs = (0..THREADS as u64)
        .flat_map(|t| contended_program(args.seed, t, TENANTS_PER_THREAD, PROGRAM_LEN))
        .filter_map(|s| match s.op {
            Op::Alloc(req) => Some((tenants[s.tenant], req)),
            _ => None,
        })
        .take(PROBE_ALLOCS);
    for (k, (tenant, req)) in allocs.enumerate() {
        side.alloc(broker, tenant, &req, &mut probe, (1 << 50) + k as u64, None);
    }
    for k in 0..1_000u64 {
        let mut slot = Slot::new(tenants[0], HOLD);
        if let Some(call) = exec(broker, &mut slot, &Op::Stats, counts) {
            let (start, end) = (probe.at(call.start), probe.at(call.end));
            probe.push(Span { name: call.name, start, end, parent: None, req: (1 << 51) + k });
        }
    }
    let names = by_name(probe.spans());
    for (metric, span) in [
        ("broker.acquire_ns", "broker.acquire"),
        ("broker.release_ns", "broker.release"),
        ("broker.renew_ns", "broker.renew"),
        ("broker.heartbeat_ns", "broker.heartbeat"),
    ] {
        report.layer.insert(metric, p50(&calls, span));
    }
    let acquire_p99 = calls.get("broker.acquire").and_then(|h| h.tail(0.99)).unwrap_or(0);
    report.layer.insert("broker.acquire_p99_ns", acquire_p99 as f64);
    for (metric, span) in [
        ("broker.stats_ns", "broker.stats"),
        ("placement.rank_ns", "placement.rank"),
        ("placement.plan_ns", "placement.plan"),
        ("memsim.commit_ns", "memsim.commit"),
    ] {
        report.layer.insert(metric, p50(&names, span));
    }
    let self_ns = p50(&calls, "broker.acquire")
        - p50(&names, "placement.rank")
        - p50(&names, "placement.plan")
        - p50(&names, "memsim.commit");
    report.layer.insert("broker.self_ns", self_ns);

    let (one, two) = contention(broker, tenants, counts);
    let x = ratio(two.quantile(0.5).unwrap_or(0) as f64, one.quantile(0.5).unwrap_or(0) as f64);
    report.layer.insert("broker.contention_x", x);
    report.notes.push(format!(
        "contention: acquire+release pair p50 {} ns at 1 thread ({} pairs), {} ns at 2 threads \
         ({} pairs)",
        one.quantile(0.5).unwrap_or(0),
        one.count(),
        two.quantile(0.5).unwrap_or(0),
        two.count()
    ));
    probe
}

/// Acquire+release pair latencies at one thread and at two, in
/// alternating stretches on the same broker.
fn contention(
    broker: &Broker,
    tenants: &[TenantId],
    counts: &mut Counts,
) -> (Histogram, Histogram) {
    let req =
        AllocRequest::new(64 * MIB).criterion(attr::BANDWIDTH).fallback(Fallback::PartialSpill);
    let pairs = |tenant: TenantId, until: Instant| {
        let mut h = Histogram::default();
        let mut failed = 0;
        while Instant::now() < until {
            let t = Instant::now();
            let ok = broker.acquire(tenant, &req).map(|lease| broker.release(lease));
            h.record(t.elapsed().as_nanos() as u64);
            failed += u64::from(!matches!(ok, Ok(Ok(()))));
        }
        (h, failed)
    };
    let (mut one, mut two) = (Histogram::default(), Histogram::default());
    for _ in 0..PAIR_ROUNDS {
        let (h, f) = pairs(tenants[0], Instant::now() + PAIR_STRETCH);
        one.merge(&h);
        counts.attempted += h.count();
        counts.failed += f;
        let until = Instant::now() + PAIR_STRETCH;
        std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..2).map(|t| s.spawn(move || pairs(tenants[t * 2], until))).collect();
            for handle in handles {
                let (h, f) = handle.join().expect("pair thread");
                two.merge(&h);
                counts.attempted += h.count();
                counts.failed += f;
            }
        });
    }
    (one, two)
}
