//! Broker operations as the workloads generate them, and their
//! execution against a [`Broker`] through its public API.

use crate::harness::{ratio, Counts, Report, Rng};
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::attr;
use hetmem_service::{Broker, Lease, ServiceError, TenantId};
use std::collections::VecDeque;
use std::time::Instant;

/// Lease TTL in service epochs. Long enough that no lease of a run
/// ever expires: every release in the benchmark is an explicit one.
pub const TTL: u64 = 1 << 20;
pub const MIB: u64 = 1 << 20;

#[derive(Clone, Debug)]
pub enum Op {
    Alloc(AllocRequest),
    /// Renews the tenant's newest lease.
    Renew,
    /// Releases the tenant's oldest lease.
    Release,
    Heartbeat,
    /// `tenants()` plus `node_usage()`: what a `stats` frame reads.
    Stats,
}

#[derive(Clone, Debug)]
pub struct Step {
    /// Index into the executing thread's tenant slots.
    pub tenant: usize,
    pub op: Op,
}

/// One tenant's leases, oldest first, and how many it may hold.
pub struct Slot {
    pub id: TenantId,
    pub held: VecDeque<Lease>,
    pub hold: usize,
}

impl Slot {
    pub fn new(id: TenantId, hold: usize) -> Slot {
        Slot { id, held: VecDeque::new(), hold }
    }
}

/// The library call one executed step made.
pub struct Call {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Call {
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// The `served_churn` program of one client: `alloc` (1-64 MiB,
/// bandwidth-ranked, everything fits MCDRAM) → `renew` → `free`
/// cycles, with a `heartbeat` and a `stats` every 3-5 cycles.
pub fn churn_program(seed: u64, client: u64, cycles: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x5e12_0000 + client);
    let mut ops = Vec::with_capacity(cycles * 4);
    let mut until_beat = rng.range(3, 5);
    for _ in 0..cycles {
        let size = rng.range(MIB, 64 * MIB);
        let fallback = if rng.pct(50) { Fallback::NextTarget } else { Fallback::PartialSpill };
        ops.push(Op::Alloc(AllocRequest::new(size).criterion(attr::BANDWIDTH).fallback(fallback)));
        ops.push(Op::Renew);
        ops.push(Op::Release);
        until_beat -= 1;
        if until_beat == 0 {
            ops.push(Op::Heartbeat);
            ops.push(Op::Stats);
            until_beat = rng.range(3, 5);
        }
    }
    ops
}

/// The `inproc_contended` program of one thread over its `tenants`
/// slots: 64-512 MiB leases, mostly bandwidth-ranked, under a mix of
/// NextTarget, PartialSpill and Strict fallbacks, so clamps, spill
/// hops and refusals all occur against the hog-filled fast tier.
pub fn contended_program(seed: u64, thread: u64, tenants: usize, len: usize) -> Vec<Step> {
    let mut rng = Rng::new(seed, 0xc0de_0000 + thread);
    (0..len)
        .map(|_| {
            let tenant = rng.range(0, tenants as u64 - 1) as usize;
            let roll = rng.range(0, 99);
            let op = if roll < 45 {
                let size = rng.range(64 * MIB, 512 * MIB);
                let criterion = if rng.pct(75) { attr::BANDWIDTH } else { attr::LATENCY };
                let fallback = match rng.range(0, 9) {
                    0..=3 => Fallback::NextTarget,
                    4..=7 => Fallback::PartialSpill,
                    _ => Fallback::Strict,
                };
                Op::Alloc(AllocRequest::new(size).criterion(criterion).fallback(fallback))
            } else if roll < 80 {
                Op::Release
            } else if roll < 93 {
                Op::Renew
            } else {
                Op::Heartbeat
            };
            Step { tenant, op }
        })
        .collect()
}

/// Executes one step against `broker` and books its outcome. An
/// `Alloc` on a full slot releases the oldest lease instead; a renew
/// or release on an empty slot is skipped (`None`). Admission
/// refusals are a policy outcome (`denied`); every other error, and a
/// grant smaller than asked, is a failure.
pub fn exec(broker: &Broker, slot: &mut Slot, op: &Op, counts: &mut Counts) -> Option<Call> {
    let op = match op {
        Op::Alloc(_) if slot.held.len() >= slot.hold => &Op::Release,
        Op::Release | Op::Renew if slot.held.is_empty() => return None,
        op => op,
    };
    let start = Instant::now();
    let (name, ok) = match op {
        Op::Alloc(req) => {
            let outcome = broker.acquire_with_ttl(slot.id, req, Some(TTL));
            let end = Instant::now();
            counts.allocs += 1;
            let ok = match outcome {
                Ok(lease) => {
                    let placed: u64 = lease.placement().iter().map(|&(_, b)| b).sum();
                    counts.grant(lease.size(), lease.fast_bytes(), lease.placement().len());
                    let ok = lease.size() >= req.size() && placed == lease.size();
                    slot.held.push_back(lease);
                    ok
                }
                Err(ServiceError::Admission { .. }) => {
                    counts.denied += 1;
                    true
                }
                Err(_) => false,
            };
            counts.attempted += 1;
            counts.failed += u64::from(!ok);
            return Some(Call { name: "broker.acquire", start, end });
        }
        Op::Release => {
            let lease = slot.held.pop_front().expect("slot is non-empty");
            ("broker.release", broker.release(lease).is_ok())
        }
        Op::Renew => {
            let id = slot.held.back().expect("slot is non-empty").id();
            ("broker.renew", matches!(broker.renew(slot.id, id), Ok(Some(_))))
        }
        Op::Heartbeat => {
            let renewed = broker.heartbeat(slot.id);
            ("broker.heartbeat", renewed.is_ok_and(|n| n == slot.held.len() as u64))
        }
        Op::Stats => {
            let tenants = broker.tenants();
            let nodes = broker.node_usage();
            ("broker.stats", !tenants.is_empty() && !nodes.is_empty())
        }
    };
    let end = Instant::now();
    counts.attempted += 1;
    counts.failed += u64::from(!ok);
    Some(Call { name, start, end })
}

/// Releases every lease a slot still holds, booking each release.
pub fn drain(broker: &Broker, slot: &mut Slot, counts: &mut Counts) {
    while !slot.held.is_empty() {
        exec(broker, slot, &Op::Release, counts);
    }
}

/// Admission outcomes of the run `counts` booked on `broker`.
pub fn admission_ratios(report: &mut Report, counts: &Counts, broker: &Broker) {
    let clamps: u64 = broker.tenants().iter().map(|t| t.clamps).sum();
    let allocs = counts.allocs as f64;
    report.layer.insert("broker.admit_ratio", ratio(counts.grants as f64, allocs));
    report.layer.insert("broker.clamps_per_alloc", ratio(clamps as f64, allocs));
    let hops = ratio(counts.spill_hops as f64, counts.grants as f64);
    report.layer.insert("broker.spill_hops_per_grant", hops);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_are_seeded() {
        let a = format!("{:?}", contended_program(3, 0, 2, 64));
        assert_eq!(a, format!("{:?}", contended_program(3, 0, 2, 64)));
        assert_ne!(a, format!("{:?}", contended_program(4, 0, 2, 64)));
        let churn = churn_program(3, 1, 10);
        assert!(churn.len() >= 30 + 2 * 2, "at least two heartbeat/stats pairs in 10 cycles");
        assert!(matches!(churn[0], Op::Alloc(_)));
        assert!(matches!(churn[1], Op::Renew));
        assert!(matches!(churn[2], Op::Release));
    }
}
