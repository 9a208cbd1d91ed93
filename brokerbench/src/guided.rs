//! `guided_epochs`: one thread drives a guided broker through a long
//! epoch schedule. A batch hog captures the fast tier with two leases
//! and moves its working set between them every era, so the guided
//! fold keeps demoting and promoting for the whole run while four
//! latency tenants compete for what it frees.

use crate::harness::{
    drive, ratio, summarize, timed, Args, Counts, Plan, Report, Rng, SetupTimes, Worker, SETUP_REPS,
};
use crate::spans::{by_name, p50, Span, SpanLog};
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, discovery};
use hetmem_memsim::{AccessPattern, BufferAccess, Machine, Phase};
use hetmem_service::{ArbitrationPolicy, Broker, GuidedConfig, Lease, Priority, TenantSpec};
use hetmem_topology::MemoryKind;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const GIB: u64 = 1 << 30;
const HOT: usize = 4;
/// The hog arrives first and puts its two leases on two of the four
/// MCDRAM nodes (3.8 GiB usable each); the latency tenants take the
/// other two and spill the rest. Once the folds settle, the latency
/// tenants fill three nodes and the fourth holds one hog lease, never
/// both, so every era shift demotes one hog lease and promotes the
/// other.
const HOT_BYTES: [u64; HOT] = [7 * GIB / 2, 7 * GIB / 2, 7 * GIB / 4, 7 * GIB / 4];
const HOG_BYTES: u64 = 3 * GIB;
/// Epochs per era: the hog's working set moves every `ERA` epochs.
const ERA: u64 = 8;
/// The schedule's phase table repeats every `PERIOD` epochs; the
/// guidance state it drives does not.
const PERIOD: u64 = 256;
/// `fast_hit` is the traffic share over the first `PREFIX` epochs,
/// recomputed on a fresh broker after the run to check it.
const PREFIX: u64 = 256;
/// Epochs the unguided mirror runs in the traced run.
const PROBE_EPOCHS: u64 = 2_000;

/// Tenant 0 is the hog; its leases are `leases[0]` and `leases[1]`.
/// Tenant `k >= 1` streams over `leases[k + 1]`.
struct Stack {
    broker: Broker,
    ids: Vec<hetmem_service::TenantId>,
    leases: Vec<Lease>,
}

fn build(guided: bool, t: &mut SetupTimes) -> Result<Stack, String> {
    let machine = timed(&mut t.machine, || Arc::new(Machine::knl_snc4_flat()));
    let attrs = timed(&mut t.discovery, || discovery::from_firmware(&machine, true))
        .map_err(|e| format!("discovery: {e}"))?;
    let broker = timed(&mut t.broker_new, || {
        let mut b = Broker::new(machine, Arc::new(attrs), ArbitrationPolicy::FairShare);
        if guided {
            // A hotness window sized to one epoch's traffic, so an era
            // shift is trusted within a few folds.
            let mut cfg = GuidedConfig::default();
            cfg.policy.window_bytes = GIB;
            b.enable_guidance(cfg);
        }
        b
    });
    let (ids, leases) = timed(&mut t.prefill, || {
        let bw = |bytes| {
            AllocRequest::new(bytes).criterion(attr::BANDWIDTH).fallback(Fallback::NextTarget)
        };
        let hog = broker.register(TenantSpec::new("hog").priority(Priority::Batch))?;
        let mut ids = vec![hog];
        let mut leases =
            vec![broker.acquire(hog, &bw(HOG_BYTES))?, broker.acquire(hog, &bw(HOG_BYTES))?];
        for (i, bytes) in HOT_BYTES.into_iter().enumerate() {
            let t =
                broker.register(TenantSpec::new(format!("hot{i}")).priority(Priority::Latency))?;
            ids.push(t);
            leases.push(broker.acquire(t, &bw(bytes))?);
        }
        Ok::<_, hetmem_service::ServiceError>((ids, leases))
    })
    .map_err(|e| format!("prefill: {e}"))?;
    Ok(Stack { broker, ids, leases })
}

/// The seeded phase table: `phases[e % PERIOD][tenant]`.
struct Schedule {
    phases: Vec<Vec<Phase>>,
}

impl Schedule {
    fn new(seed: u64, stack: &Stack) -> Schedule {
        let mut rng = Rng::new(seed, 0x9d1d);
        let cpus: hetmem_bitmap::Bitmap = "0-15".parse().expect("cpuset");
        let phases = (0..PERIOD)
            .map(|e| {
                (0..=HOT)
                    .map(|k| {
                        let lease = match k {
                            0 => &stack.leases[((e / ERA) % 2) as usize],
                            k => &stack.leases[k + 1],
                        };
                        let bytes = rng.range(3 * GIB / 2, 5 * GIB / 2);
                        Phase {
                            name: "p".into(),
                            accesses: vec![BufferAccess::new(
                                lease.region(),
                                bytes,
                                0,
                                AccessPattern::Sequential,
                            )],
                            threads: 16,
                            initiator: cpus.clone(),
                            compute_ns: 0.0,
                        }
                    })
                    .collect()
            })
            .collect();
        Schedule { phases }
    }
}

/// Walks the schedule one broker call per step: a `run_phase` per
/// tenant, then `advance_epoch`.
struct Epochs<'a> {
    broker: &'a Broker,
    ids: &'a [hetmem_service::TenantId],
    schedule: &'a Schedule,
    fast_kind: MemoryKind,
    kinds: BTreeMap<hetmem_topology::NodeId, MemoryKind>,
    epoch: u64,
    k: usize,
    /// Fast-tier and total traffic over the first `PREFIX` epochs.
    prefix: (u64, u64),
    /// Modelled phase time over the whole run, ns.
    phase_ns: f64,
    req: u64,
}

impl<'a> Epochs<'a> {
    fn new(
        broker: &'a Broker,
        ids: &'a [hetmem_service::TenantId],
        schedule: &'a Schedule,
    ) -> Self {
        let topo = broker.machine().topology();
        let kinds =
            topo.node_ids().into_iter().filter_map(|n| Some((n, topo.node_kind(n)?))).collect();
        Epochs {
            broker,
            ids,
            schedule,
            fast_kind: broker.fast_kind(),
            kinds,
            epoch: 0,
            k: 0,
            prefix: (0, 0),
            phase_ns: 0.0,
            req: 0,
        }
    }

    /// Traffic-weighted fast-tier share of the prefix (modelled).
    fn fast_hit(&self) -> f64 {
        ratio(self.prefix.0 as f64, self.prefix.1 as f64)
    }
}

impl Worker for Epochs<'_> {
    fn step(&mut self, log: Option<&mut SpanLog>, counts: &mut Counts) -> Option<u64> {
        let open = log.is_some().then(Instant::now);
        let (name, start, end, ok);
        if self.k <= HOT {
            let phase = &self.schedule.phases[(self.epoch % PERIOD) as usize][self.k];
            name = "broker.run_phase";
            start = Instant::now();
            let served = self.broker.run_phase(self.ids[self.k], phase);
            end = Instant::now();
            ok = served.is_ok();
            if let Ok(served) = served {
                self.phase_ns += served.time_ns();
                if self.epoch < PREFIX {
                    for (node, t) in &served.report.per_node {
                        let bytes = t.bytes_read + t.bytes_written;
                        self.prefix.1 += bytes;
                        if self.kinds.get(node) == Some(&self.fast_kind) {
                            self.prefix.0 += bytes;
                        }
                    }
                }
            }
            self.k += 1;
        } else {
            name = "broker.advance_epoch";
            start = Instant::now();
            self.broker.advance_epoch();
            end = Instant::now();
            ok = true;
            self.k = 0;
            self.epoch += 1;
        }
        counts.attempted += 1;
        counts.failed += u64::from(!ok);
        if let (Some(log), Some(open)) = (log, open) {
            self.req += 1;
            let root = log.open("op", self.req, None, log.at(open));
            log.push(Span {
                name,
                start: log.at(start),
                end: log.at(end),
                parent: Some(root),
                req: self.req,
            });
            log.close(root, log.now());
        }
        Some(end.duration_since(start).as_nanos() as u64)
    }
}

/// Runs `epochs` whole epochs of the schedule on a fresh broker and
/// returns the walker's prefix share, or a description of a failure.
fn replay(seed: u64, guided: bool, epochs: u64, log: Option<&mut SpanLog>) -> Result<f64, String> {
    let stack = build(guided, &mut SetupTimes::default())?;
    let schedule = Schedule::new(seed, &stack);
    let mut walker = Epochs::new(&stack.broker, &stack.ids, &schedule);
    let mut counts = Counts::default();
    let mut log = log;
    while walker.epoch < epochs {
        walker.step(log.as_deref_mut(), &mut counts);
    }
    let share = walker.fast_hit();
    finish(stack, &mut counts)?;
    if counts.failed > 0 {
        return Err(format!("{} replayed calls failed", counts.failed));
    }
    Ok(share)
}

/// Releases every lease and checks the broker ends empty and consistent.
fn finish(stack: Stack, counts: &mut Counts) -> Result<(), String> {
    stack.broker.check_invariants()?;
    for lease in stack.leases {
        counts.attempted += 1;
        if stack.broker.release(lease).is_err() {
            counts.failed += 1;
        }
    }
    if stack.broker.live_leases() != 0 {
        return Err("leases left after release".into());
    }
    if stack.broker.node_usage().iter().any(|&(_, used, _)| used != 0) {
        return Err("node usage not back at zero".into());
    }
    Ok(())
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        let mut t = SetupTimes::default();
        let built = build(true, &mut t)?;
        setups.push(t);
        if let Some(old) = stack.replace(built) {
            finish(old, &mut Counts::default())?;
        }
    }
    let stack = stack.expect("at least one set-up");
    let schedule = Schedule::new(args.seed, &stack);

    let base = Instant::now();
    let mut walker = Epochs::new(&stack.broker, &stack.ids, &schedule);
    let driven = drive(&mut walker, Plan::new(args), base);
    let mut counts = driven.counts;
    let (epochs, fast_hit, phase_ns) = (walker.epoch, walker.fast_hit(), walker.phase_ns);
    drop(walker);

    let timing = summarize(&[&driven.untraced]);
    report.timing(
        &timing,
        &setups,
        "op = one run_phase or advance_epoch call; latency = its duration",
    );
    report.e2e.insert("fast_hit", fast_hit);
    report.notes.push(format!(
        "fast_hit: MODELLED traffic-weighted MCDRAM byte share over the first {PREFIX} of {epochs} \
         epochs"
    ));
    report.check(format!("run covers the {PREFIX}-epoch fast_hit prefix"), epochs >= PREFIX);
    let expected = replay(args.seed, true, PREFIX, None);
    report.check(
        "modelled fast_hit equals a fresh replay of the seed",
        expected.as_ref().is_ok_and(|e| e.to_bits() == fast_hit.to_bits()),
    );

    if args.trace {
        report.overhead(&timing, &summarize(&[driven.traced.as_ref().expect("traced stretch")]));
        let stats = stack.broker.guided_stats().unwrap_or_default();
        let sum = |f: fn(&hetmem_guidance::GuidanceStats) -> f64| {
            stats.iter().map(|(_, s)| f(s)).sum::<f64>()
        };
        let e = epochs.max(1) as f64;
        report.layer.insert("guidance.promotions_per_epoch", sum(|s| s.promotions as f64) / e);
        report.layer.insert("guidance.demotions_per_epoch", sum(|s| s.demotions as f64) / e);
        report.layer.insert(
            "guidance.mean_accuracy",
            ratio(sum(|s| s.accuracy_sum), sum(|s| s.intervals as f64)),
        );
        report
            .layer
            .insert("guidance.modelled_overhead_frac", ratio(sum(|s| s.overhead_ns), phase_ns));

        let mut log = driven.log.expect("traced stretch");
        let mut probe = SpanLog::new(base, (PROBE_EPOCHS as usize) * (HOT + 2) * 2 + 16);
        if let Err(e) = replay(args.seed, false, PROBE_EPOCHS, Some(&mut probe)) {
            report.check(format!("unguided replay: {e}"), false);
        }
        let guided = by_name(log.spans());
        let unguided = by_name(probe.spans());
        let phase = p50(&unguided, "broker.run_phase");
        report.layer.insert("memsim.phase_ns", phase);
        report.layer.insert("guidance.feed_ns", p50(&guided, "broker.run_phase") - phase);
        let fold = p50(&guided, "broker.advance_epoch");
        report.layer.insert("broker.advance_epoch_ns", fold);
        report.layer.insert("guidance.fold_ns", fold - p50(&unguided, "broker.advance_epoch"));
        log.absorb(probe);
        crate::write_spans(out_dir, &args.workload, &log, &mut report);
    }

    if let Err(e) = finish(stack, &mut counts) {
        report.check(e, false);
    } else {
        report.check("broker invariants hold, every lease freed, usage back at zero", true);
    }
    report.counts = counts;
    Ok(report)
}
