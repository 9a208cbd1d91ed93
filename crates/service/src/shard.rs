//! Sharded, batched admission dispatch — the plane between request
//! producers (wire connections, the scenario runner, the load harness)
//! and the [`Broker`].
//!
//! The single-dispatcher service funnels every admission through one
//! queue; past a few hundred thousand clients that queue *is* the
//! latency. This module partitions admissions into `S` shards, each
//! with its own queue, and owns the three rules every driver of the
//! plane runs:
//!
//! * **Assignment** — [`shard_of`]: work with ordering key `k` lands
//!   on shard `k mod S`, so one key's work stays ordered on one queue.
//!   The server keys by connection, because a JSONL connection's
//!   replies must follow its frame order; [`ShardCore`] keys by tenant.
//! * **Work stealing** — a thief takes the back half of the longest
//!   sibling queue holding at least two entries (ties go to the lowest
//!   index) and emits one `ShardSteal` event. Victims keep their queue
//!   *head*, so stolen work never overtakes the victim's older
//!   requests. When to steal is the driver's choice: every idle shard
//!   before a [`ShardCore`] round, or a server poster whose home shard
//!   is busy.
//! * **Coalescing** — within one drained batch, a consecutive run of
//!   requests that agree on tenant, TTL and planning walk (criterion,
//!   fallback, scope, initiator) goes through one
//!   [`Broker::acquire_batch`]: one ranking, one stripe-lock round, one
//!   plan, with grants fanned back out per request. A run of one is
//!   plain serial admission. Only consecutive runs merge: a merge that
//!   jumped over another request could move a grant past a `free`, or
//!   reorder one connection's replies. One `BatchCoalesced` event
//!   records each merge.
//!
//! The batch step that coalesces is also where every drained batch,
//! served or stolen, feeds the broker's steal-rate meter
//! ([`Broker::note_shard_dispatch`]).
//!
//! [`ShardCore`] is the deterministic, thread-free driver: callers
//! `submit` then `drain` on one thread, and the same request stream
//! produces the same grants, steals and telemetry every run. The load
//! harness drives it, so its numbers are reproducible on any machine.
//! The live server (`Server::bind_sharded`) drives the same queues and
//! batch step from its connection threads, one per-shard dispatch
//! token at a time.
//!
//! With `shards == 1` and coalescing off, the plane degenerates to
//! exactly the single-dispatcher admission order — the regression
//! anchor `tests/shard_dispatch.rs` pins byte for byte.

use crate::broker::{same_walk, Broker, Lease};
use crate::tenant::TenantId;
use crate::ServiceError;
use hetmem_alloc::AllocRequest;
use hetmem_telemetry::{Event, ShardSteal};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

/// Dispatch-plane shape: how many shards, and whether to coalesce. The
/// default (`1` shard, no coalescing) is the single-dispatcher plane
/// unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of dispatch shards (≥ 1; `0` is treated as `1`).
    pub shards: u32,
    /// Merge consecutive mergeable same-tenant requests into one
    /// planning walk.
    pub coalesce: bool,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1, coalesce: false }
    }
}

impl ShardConfig {
    /// A config with `shards` shards, coalescing on for `shards > 1`
    /// (the recommended operating point: sharding without batching
    /// leaves the planning-walk savings on the table).
    pub fn with_shards(shards: u32) -> ShardConfig {
        ShardConfig { shards: shards.max(1), coalesce: shards > 1 }
    }

    /// The effective shard count (`0` clamps to `1`).
    pub fn effective_shards(&self) -> u32 {
        self.shards.max(1)
    }
}

/// The assignment rule: the shard that work with ordering key `key`
/// lands on among `shards`, `key mod shards`.
pub fn shard_of(key: u64, shards: usize) -> usize {
    (key % shards as u64) as usize
}

/// The per-shard FIFO queues the steal rule runs over. The server
/// shares them between connection threads; [`ShardCore`] owns its own.
pub(crate) struct Queues<T>(Vec<Mutex<VecDeque<T>>>);

impl<T> Queues<T> {
    pub(crate) fn new(shards: usize) -> Queues<T> {
        Queues((0..shards).map(|_| Mutex::default()).collect())
    }

    pub(crate) fn shards(&self) -> usize {
        self.0.len()
    }

    /// Shard `shard`'s queue, locked.
    pub(crate) fn lock(&self, shard: usize) -> MutexGuard<'_, VecDeque<T>> {
        self.0[shard].lock().expect("queue poisoned")
    }

    /// The steal rule: `thief` takes the back half of the longest other
    /// queue holding at least two entries (ties go to the lowest index),
    /// and one `shard_steal` event is emitted. The victim keeps its
    /// head. Returns nothing when no sibling qualifies.
    pub(crate) fn steal(&self, broker: &Broker, thief: usize) -> VecDeque<T> {
        let mut victim = None;
        let mut longest = 1;
        for shard in (0..self.shards()).filter(|&s| s != thief) {
            let len = self.lock(shard).len();
            if len > longest {
                (victim, longest) = (Some(shard), len);
            }
        }
        let Some(victim) = victim else {
            return VecDeque::new();
        };
        let stolen = {
            let mut queue = self.lock(victim);
            let len = queue.len();
            if len < 2 {
                // The victim drained between the scan and the lock.
                return VecDeque::new();
            }
            queue.split_off(len - len / 2)
        };
        let sink = broker.sink_handle();
        if sink.enabled() {
            sink.emit(Event::ShardSteal(ShardSteal {
                broker: broker.id(),
                thief: thief as u32,
                victim: victim as u32,
                stolen: stolen.len() as u64,
            }));
        }
        stolen
    }
}

/// One admission as the grouping rule sees it.
#[derive(Clone)]
pub(crate) struct Admission {
    pub(crate) tenant: TenantId,
    pub(crate) ttl: Option<u64>,
    pub(crate) req: AllocRequest,
}

/// The per-batch step every driver runs on each drained batch, served
/// or stolen. It feeds the steal-rate meter (all of `batch` counts as
/// stolen when `stolen`), then serves `batch` in order. Without
/// `coalesce`, every item goes to `serve(item, None)`, which serves it
/// serially. With it, items `admission` maps to an [`Admission`] are
/// grouped into consecutive runs that agree on tenant, TTL and
/// planning walk; each run goes through one [`Broker::acquire_batch`]
/// (for a run of one, that is serial admission) and each item gets
/// `serve(item, Some(outcome))`. Returns the merged runs (two or more
/// requests) and the requests they cover.
pub(crate) fn serve_batch<T>(
    broker: &Broker,
    shard: usize,
    batch: VecDeque<T>,
    stolen: bool,
    coalesce: bool,
    admission: impl Fn(&T) -> Option<Admission>,
    mut serve: impl FnMut(T, Option<Result<Lease, ServiceError>>),
) -> (u64, u64) {
    let dispatched = batch.len() as u64;
    broker.note_shard_dispatch(dispatched, if stolen { dispatched } else { 0 });
    let mut merges = (0, 0);
    let mut batch = batch
        .into_iter()
        .map(|item| {
            let admission = if coalesce { admission(&item) } else { None };
            (item, admission)
        })
        .peekable();
    while let Some((item, admission)) = batch.next() {
        let Some(Admission { tenant, ttl, req }) = admission else {
            serve(item, None);
            continue;
        };
        let mut items = vec![item];
        let mut reqs = vec![req];
        while let Some((item, Some(next))) = batch.next_if(|(_, next)| {
            next.as_ref().is_some_and(|next| {
                next.tenant == tenant && next.ttl == ttl && same_walk(&next.req, &reqs[0])
            })
        }) {
            items.push(item);
            reqs.push(next.req);
        }
        if items.len() > 1 {
            merges.0 += 1;
            merges.1 += items.len() as u64;
        }
        let outcomes = broker.acquire_batch(tenant, &reqs, ttl, shard as u32);
        for (item, outcome) in items.into_iter().zip(outcomes) {
            serve(item, Some(outcome));
        }
    }
    merges
}

/// The deterministic sharded dispatch core: per-shard FIFO queues,
/// consecutive-run coalescing, and drain-time work stealing, all on
/// the caller's thread. See the module docs for the semantics.
pub struct ShardCore {
    broker: Arc<Broker>,
    config: ShardConfig,
    queues: Queues<(u64, Admission)>,
    next_token: u64,
    steals: u64,
    stolen_requests: u64,
    coalesced_batches: u64,
    coalesced_requests: u64,
}

impl ShardCore {
    /// A core over `broker` shaped by `config`.
    pub fn new(broker: Arc<Broker>, config: ShardConfig) -> ShardCore {
        ShardCore {
            broker,
            config,
            queues: Queues::new(config.effective_shards() as usize),
            next_token: 0,
            steals: 0,
            stolen_requests: 0,
            coalesced_batches: 0,
            coalesced_requests: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The broker behind the plane.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.broker
    }

    /// Enqueues one admission on its tenant's shard ([`shard_of`] the
    /// tenant id) and returns its correlation token; the matching
    /// result comes out of a later [`ShardCore::drain`].
    pub fn submit(&mut self, tenant: TenantId, req: AllocRequest, ttl: Option<u64>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let shard = shard_of(tenant.0.into(), self.queues.shards());
        self.queues.lock(shard).push_back((token, Admission { tenant, ttl, req }));
        token
    }

    /// Current queue depth per shard.
    pub fn queue_depths(&self) -> Vec<usize> {
        (0..self.queues.shards()).map(|shard| self.queues.lock(shard).len()).collect()
    }

    /// Steals and coalesced-batch counters since construction:
    /// `(steals, stolen_requests, coalesced_batches,
    /// coalesced_requests)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.steals, self.stolen_requests, self.coalesced_batches, self.coalesced_requests)
    }

    /// One dispatch round: every empty shard steals, in shard order,
    /// then every shard serves its whole queue through the batch step.
    /// Returns `(token, result)` pairs in service order.
    pub fn drain(&mut self) -> Vec<(u64, Result<Lease, ServiceError>)> {
        let mut thieves = vec![false; self.queues.shards()];
        for (thief, stole) in thieves.iter_mut().enumerate() {
            if !self.queues.lock(thief).is_empty() {
                continue;
            }
            let stolen = self.queues.steal(&self.broker, thief);
            if !stolen.is_empty() {
                self.steals += 1;
                self.stolen_requests += stolen.len() as u64;
                *stole = true;
                self.queues.lock(thief).extend(stolen);
            }
        }
        let broker = &self.broker;
        let mut results = Vec::new();
        for (shard, stolen) in thieves.into_iter().enumerate() {
            let batch = std::mem::take(&mut *self.queues.lock(shard));
            if batch.is_empty() {
                continue;
            }
            let (runs, merged) = serve_batch(
                broker,
                shard,
                batch,
                stolen,
                self.config.coalesce,
                |(_, admission)| Some(admission.clone()),
                |(token, a), outcome| {
                    let outcome =
                        outcome.unwrap_or_else(|| broker.acquire_with_ttl(a.tenant, &a.req, a.ttl));
                    results.push((token, outcome));
                },
            );
            self.coalesced_batches += runs;
            self.coalesced_requests += merged;
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArbitrationPolicy;
    use hetmem_core::discovery;
    use hetmem_memsim::Machine;
    use hetmem_telemetry::TelemetrySink;

    #[test]
    fn the_steal_rule_takes_the_back_half_of_the_longest_queue() {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let mut broker = Broker::new(machine, attrs, ArbitrationPolicy::FairShare);
        let sink = TelemetrySink::with_ring_words(1 << 10);
        let mut collector = sink.collector();
        broker.set_sink(sink);
        let queues = |lens: &[u32]| {
            Queues(lens.iter().map(|&n| Mutex::new((0..n).collect::<VecDeque<u32>>())).collect())
        };
        let contents = |q: &Queues<u32>| {
            (0..q.shards()).map(|s| q.lock(s).iter().copied().collect()).collect::<Vec<Vec<u32>>>()
        };

        // A queue with fewer than two entries is never a victim.
        let q = queues(&[0, 1, 1]);
        assert!(q.steal(&broker, 0).is_empty());
        assert_eq!(contents(&q), [vec![], vec![0], vec![0]]);

        // Ties go to the lowest index; the victim keeps its head; the
        // thief's own queue is never the victim.
        let q = queues(&[9, 4, 0, 4]);
        assert_eq!(q.steal(&broker, 0), [2, 3]);
        assert_eq!(contents(&q), [(0..9).collect(), vec![0, 1], vec![], vec![0, 1, 2, 3]]);

        // Exactly len/2 entries move, from the back.
        let q = queues(&[0, 5, 2]);
        assert_eq!(q.steal(&broker, 0), [3, 4]);
        assert_eq!(contents(&q), [vec![], vec![0, 1, 2], vec![0, 1]]);

        // One event per steal that moved work.
        let steals: Vec<_> = collector
            .drain_sorted()
            .into_iter()
            .filter_map(|c| match c.event {
                Event::ShardSteal(s) => Some((s.thief, s.victim, s.stolen)),
                _ => None,
            })
            .collect();
        assert_eq!(steals, [(0, 1, 2), (0, 1, 2)]);
    }
}
