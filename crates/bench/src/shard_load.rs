//! Deterministic scaling sweep for the sharded dispatch plane.
//!
//! [`run_shard_load`] drives a population of simulated clients through
//! a [`ShardCore`] — the thread-free form of the server's sharded
//! dispatcher — and reports modelled throughput and latency alongside
//! *measured* arbitration outcomes (admits, fast-tier hit rate,
//! clamps, coalesced batches, steals). Admission itself is real: every
//! request goes through the broker's ranking, fair-share arbitration
//! and commit path, so the fairness numbers are facts, not model
//! outputs.
//!
//! The model maps a physical request stream onto the simulated
//! population: each of the `arrivals_per_tick × ticks` physical
//! requests stands for `weight = clients / physical` simulated
//! clients issuing one request each. Per-request cost reuses the load
//! harness's synthetic constants (arbitration base cost, spill-hop
//! walks, queueing steps); a tick's virtual duration is the *critical
//! path* — the most loaded shard's service time — so doubling the
//! shard count under a balanced tenant mix roughly halves the tick
//! and raises modelled throughput. Coalescing credits are taken only
//! for merges the broker actually performed (each `batch_coalesced`
//! event replaces `merged − 1` full planning walks with commit
//! fan-outs on its shard). Queue wait scales with the simulated — not
//! physical — queue depth, which is what makes p99 collapse as shards
//! absorb the population.
//!
//! Everything is seeded and wall-clock-free, so the same config
//! produces the same report on any machine; `repro_tables --shard`
//! persists the sweep into `BENCH_shard.json` and `--compare` treats
//! it as exactly reproducible.

use crate::load::{BASE_ALLOC_NS, QUEUE_STEP_NS, SPILL_HOP_NS};
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, MemAttrs};
use hetmem_memsim::Machine;
use hetmem_service::shard::shard_of;
use hetmem_service::{
    ArbitrationPolicy, Broker, Lease, Priority, ServiceError, ShardConfig, ShardCore, TenantSpec,
};
use hetmem_telemetry::{Event, TelemetrySink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Cost of fanning one already-planned request out of a coalesced
/// batch (lease bookkeeping and ledger settling, no ranking and no
/// planning walk). The coalescing win per merged request is
/// `BASE_ALLOC_NS − COMMIT_STEP_NS`.
pub const COMMIT_STEP_NS: f64 = 150.0;

/// One sharded-dispatch sweep point.
#[derive(Debug, Clone)]
pub struct ShardLoadConfig {
    /// Simulated client population (each client issues one request
    /// over the run); the physical stream is weighted up to it.
    pub clients: u64,
    /// Dispatch shards.
    pub shards: u32,
    /// Coalesce mergeable same-tenant batches.
    pub coalesce: bool,
    /// Arbitration policy under test.
    pub policy: ArbitrationPolicy,
    /// Service ticks simulated.
    pub ticks: u32,
    /// Physical requests submitted per tick.
    pub arrivals_per_tick: u32,
    /// Ticks a granted lease is held before release.
    pub hold_ticks: u32,
    /// Inclusive request-size range in MiB.
    pub size_mib: (u64, u64),
    /// RNG seed; same seed, same config, same report.
    pub seed: u64,
}

/// Result of one sweep point. `PartialEq` so determinism tests can
/// compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLoadReport {
    /// Simulated clients this run modelled.
    pub clients: u64,
    /// Shard count.
    pub shards: u32,
    /// Physical requests admitted.
    pub admitted: u64,
    /// Physical requests denied.
    pub denied: u64,
    /// Modelled admitted requests per virtual second (simulated
    /// population over summed critical-path tick time).
    pub allocs_per_sec: f64,
    /// Modelled median request latency, queue wait included.
    pub p50_ns: f64,
    /// Modelled 99th-percentile request latency.
    pub p99_ns: f64,
    /// Aggregate fast-tier hit rate (measured, physical bytes).
    pub fast_hit: f64,
    /// Fair-share / quota clamps across all tenants (measured).
    pub clamps: u64,
    /// `batch_coalesced` events the broker emitted.
    pub merged_batches: u64,
    /// Requests covered by those merges.
    pub merged_requests: u64,
    /// `shard_steal` events emitted.
    pub steals: u64,
}

/// The canonical KNL sweep point: eight even fair-share tenants (four
/// latency-class, four batch-class) whose steady-state footprint
/// oversubscribes the ~16 GiB MCDRAM tier about 2×, so placement
/// spills and the fast tier is genuinely contended. Tenant count is a
/// multiple of every swept shard count, so assigning by tenant
/// balances the shards and the measured speedup is the plane's, not a
/// skew artifact. `shards == 1` runs without coalescing — that is the
/// single-dispatcher baseline the fairness tolerance is anchored to.
pub fn knl_shard_load(clients: u64, shards: u32) -> ShardLoadConfig {
    ShardLoadConfig {
        clients,
        shards,
        coalesce: shards > 1,
        policy: ArbitrationPolicy::FairShare,
        ticks: 16,
        arrivals_per_tick: 1024,
        hold_ticks: 2,
        size_mib: (8, 24),
        seed: 0x5aa2_d10a,
    }
}

/// Runs one sweep point. See the module docs for the model; the
/// broker work (registration, ranking, arbitration, commit, release)
/// is real and single-threaded-deterministic.
pub fn run_shard_load(
    machine: Arc<Machine>,
    attrs: Arc<MemAttrs>,
    cfg: &ShardLoadConfig,
) -> ShardLoadReport {
    const TENANTS: u32 = 8;
    let sink = TelemetrySink::with_ring_words(1 << 16);
    let mut collector = sink.collector();
    let mut broker = Broker::new(machine, attrs, cfg.policy);
    broker.set_sink(sink);
    let mut tenants = Vec::new();
    for i in 0..TENANTS {
        let priority = if i % 2 == 0 { Priority::Latency } else { Priority::Batch };
        let id = broker
            .register(TenantSpec::new(format!("shard-t{i}")).priority(priority))
            .expect("sweep tenants register");
        tenants.push(id);
    }
    let broker = Arc::new(broker);
    let mut core =
        ShardCore::new(broker.clone(), ShardConfig { shards: cfg.shards, coalesce: cfg.coalesce });
    let shards = core.config().effective_shards() as usize;
    let physical = cfg.ticks as u64 * cfg.arrivals_per_tick as u64;
    let weight = cfg.clients as f64 / physical as f64;

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut ledger: Vec<(u32, Lease)> = Vec::new();
    // Submit-order metadata per token: (shard, position in that
    // shard's queue this tick).
    let mut meta: Vec<(usize, u64)> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut elapsed_ns = 0.0;
    let (mut admitted, mut denied) = (0u64, 0u64);
    let (mut fast_bytes, mut total_bytes) = (0u64, 0u64);
    let (mut merged_batches, mut merged_requests, mut steals) = (0u64, 0u64, 0u64);

    for tick in 0..cfg.ticks {
        broker.advance_epoch();
        let mut keep = Vec::new();
        for (due, lease) in ledger.drain(..) {
            if due <= tick {
                broker.release(lease).expect("sweep leases release");
            } else {
                keep.push((due, lease));
            }
        }
        ledger = keep;

        let mut positions = vec![0u64; shards];
        for k in 0..cfg.arrivals_per_tick {
            let tenant = tenants[(k % TENANTS) as usize];
            let size = draw(&mut rng, cfg.size_mib.0, cfg.size_mib.1) << 20;
            let req = AllocRequest::new(size)
                .criterion(attr::BANDWIDTH)
                .fallback(Fallback::PartialSpill)
                .any_locality();
            let shard = shard_of(tenant.0.into(), shards);
            meta.push((shard, positions[shard]));
            positions[shard] += 1;
            core.submit(tenant, req, None);
        }

        let mut shard_ns = vec![0.0f64; shards];
        for (token, outcome) in core.drain() {
            let (shard, pos) = meta[token as usize];
            match outcome {
                Ok(lease) => {
                    let hops = lease.placement().len().saturating_sub(1) as f64;
                    let service = BASE_ALLOC_NS + SPILL_HOP_NS * hops;
                    shard_ns[shard] += weight * service;
                    latencies.push(service + QUEUE_STEP_NS * weight * pos as f64);
                    admitted += 1;
                    fast_bytes += lease.fast_bytes();
                    total_bytes += lease.size();
                    ledger.push((tick + cfg.hold_ticks, lease));
                }
                Err(ServiceError::Admission { .. }) => {
                    shard_ns[shard] += weight * BASE_ALLOC_NS;
                    denied += 1;
                }
                Err(e) => panic!("shard sweep misconfigured: {e}"),
            }
        }
        for record in collector.drain_sorted() {
            match &record.event {
                Event::BatchCoalesced(bc) => {
                    // The merge replaced merged−1 full planning walks
                    // with commit fan-outs on its shard.
                    shard_ns[bc.shard as usize] -= weight
                        * (bc.merged.saturating_sub(1)) as f64
                        * (BASE_ALLOC_NS - COMMIT_STEP_NS);
                    merged_batches += 1;
                    merged_requests += bc.merged;
                }
                Event::ShardSteal(_) => steals += 1,
                _ => {}
            }
        }
        elapsed_ns += shard_ns.iter().cloned().fold(0.0, f64::max);
    }

    for (_, lease) in ledger {
        broker.release(lease).expect("sweep leases release");
    }
    broker.check_invariants().expect("broker consistent after shard sweep");
    let clamps = broker.tenants().iter().map(|t| t.clamps).sum();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ShardLoadReport {
        clients: cfg.clients,
        shards: cfg.shards,
        admitted,
        denied,
        allocs_per_sec: admitted as f64 * weight / (elapsed_ns / 1e9),
        p50_ns: percentile(&latencies, 50.0),
        p99_ns: percentile(&latencies, 99.0),
        fast_hit: if total_bytes == 0 { 0.0 } else { fast_bytes as f64 / total_bytes as f64 },
        clamps,
        merged_batches,
        merged_requests,
        steals,
    }
}

/// Inclusive uniform draw (the offline `rand` stub only has `gen`).
fn draw(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        return lo;
    }
    let span = hi - lo + 1;
    lo + ((rng.gen::<f64>() * span as f64) as u64).min(span - 1)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    #[test]
    fn same_seed_same_report() {
        let ctx = Ctx::knl();
        let cfg = knl_shard_load(100_000, 4);
        let a = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        let b = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &cfg);
        assert_eq!(a, b, "shard sweep points are bit-identical across reruns");
    }

    #[test]
    fn sharding_scales_throughput_and_keeps_fairness() {
        let ctx = Ctx::knl();
        let baseline =
            run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &knl_shard_load(100_000, 1));
        let mut last = baseline.allocs_per_sec;
        for shards in [2, 4] {
            let r = run_shard_load(
                ctx.machine.clone(),
                ctx.attrs.clone(),
                &knl_shard_load(100_000, shards),
            );
            assert!(
                r.allocs_per_sec > last,
                "{shards} shards should beat the previous point: {} <= {last}",
                r.allocs_per_sec
            );
            assert!(
                (r.fast_hit - baseline.fast_hit).abs() <= 0.01,
                "{shards}-shard fast hit {:.4} drifted over 1pp from baseline {:.4}",
                r.fast_hit,
                baseline.fast_hit
            );
            last = r.allocs_per_sec;
        }
        // Tenants arrive round-robin, so only consecutive same-tenant
        // runs merge: they exist once each shard serves one tenant.
        let r = run_shard_load(ctx.machine.clone(), ctx.attrs.clone(), &knl_shard_load(100_000, 8));
        assert!(r.merged_batches > 0, "coalescing fired at 8 shards");
    }
}
