//! Concurrency smoke tests: many client threads hammering one broker
//! (directly and over the socket), then ledger invariants are
//! cross-checked and no lease may be leaked.

use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::{attr, discovery};
use hetmem_memsim::Machine;
use hetmem_service::{
    server::{Client, Server},
    wire::{Request, Response},
    ArbitrationPolicy, Broker, Priority, ServiceError, ShardConfig, TenantSpec,
};
use hetmem_topology::MemoryKind;
use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn knl_broker(policy: ArbitrationPolicy) -> Arc<Broker> {
    let machine = Arc::new(Machine::knl_snc4_flat());
    let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
    Arc::new(Broker::new(machine, attrs, policy))
}

#[test]
fn threads_hammering_the_broker_leave_consistent_ledgers() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let tenants: Vec<_> = (0..THREADS)
        .map(|i| {
            let priority = match i % 3 {
                0 => Priority::Latency,
                1 => Priority::Normal,
                _ => Priority::Batch,
            };
            broker
                .register(TenantSpec::new(format!("worker-{i}")).priority(priority))
                .expect("register")
        })
        .collect();

    let handles: Vec<_> = tenants
        .into_iter()
        .enumerate()
        .map(|(i, tenant)| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                let mut admitted = 0u64;
                for round in 0..ROUNDS {
                    // Vary size and criterion per thread and round so
                    // the interleavings cover spill paths and both
                    // tiers; sizes stay small enough that fair share
                    // never denies anyone outright.
                    let size = (1 + (i + round) % 7) as u64 * (1 << 20);
                    let criterion =
                        if (i + round) % 2 == 0 { attr::BANDWIDTH } else { attr::CAPACITY };
                    let req = AllocRequest::new(size)
                        .criterion(criterion)
                        .fallback(Fallback::PartialSpill);
                    let lease = broker.acquire(tenant, &req).expect("admitted");
                    assert_eq!(lease.size(), size, "MiB sizes are page-multiples");
                    admitted += 1;
                    held.push(lease);
                    // Free roughly half as we go to churn the ledgers.
                    if round % 2 == 1 {
                        let lease = held.swap_remove(round % held.len());
                        broker.release(lease).expect("release");
                    }
                }
                for lease in held {
                    broker.release(lease).expect("release");
                }
                admitted
            })
        })
        .collect();

    let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
    assert_eq!(total, (THREADS * ROUNDS) as u64, "every request was admitted");
    assert_eq!(broker.live_leases(), 0, "no leaked leases");
    broker.check_invariants().expect("ledgers, manager and lease table agree");
    // Everything freed: every node is fully available again.
    for (node, used, _) in broker.node_usage() {
        assert_eq!(used, 0, "{node:?} still has bytes charged");
    }
}

#[test]
fn quota_clamps_hold_under_concurrency() {
    let broker = knl_broker(ArbitrationPolicy::FairShare);
    // Each tenant is capped at 64 MiB of HBM; with 6 threads racing,
    // no interleaving may ever let one exceed its cap.
    const CAP: u64 = 64 << 20;
    let tenants: Vec<_> = (0..6)
        .map(|i| {
            broker
                .register(TenantSpec::new(format!("capped-{i}")).quota(MemoryKind::Hbm, CAP))
                .expect("register")
        })
        .collect();
    let handles: Vec<_> = tenants
        .into_iter()
        .map(|tenant| {
            let broker = broker.clone();
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for _ in 0..30 {
                    let req = AllocRequest::new(8 << 20)
                        .criterion(attr::BANDWIDTH)
                        .fallback(Fallback::PartialSpill);
                    held.push(broker.acquire(tenant, &req).expect("spills past the cap"));
                }
                let fast: u64 = held.iter().map(|l| l.fast_bytes()).sum();
                assert!(fast <= CAP, "tenant exceeded its HBM quota: {fast} > {CAP}");
                for lease in held {
                    broker.release(lease).expect("release");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread");
    }
    assert_eq!(broker.live_leases(), 0);
    broker.check_invariants().expect("clean");
}

/// Wire clients per server, and allocs each one makes.
const CLIENTS: usize = 8;
const ROUNDS: u64 = 200;

#[test]
fn concurrent_wire_clients_round_trip_cleanly() {
    // Every shard count and coalescing mode serves rounds in which all
    // clients post at once, under a deadline: a frame left in a queue
    // with no token holder to serve it shows up as `DeadlineExceeded`.
    for shards in [1, 2, 4] {
        for coalesce in [false, true] {
            let config = ShardConfig { shards, coalesce };
            let broker = knl_broker(ArbitrationPolicy::FairShare);
            let mut server =
                Server::bind_sharded(broker, "tcp:127.0.0.1:0", None, config).expect("bind");
            let start = Arc::new(Barrier::new(CLIENTS));
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    let name = format!("client-{i}");
                    let client = registered_client(server.local_addr(), &name);
                    let start = start.clone();
                    std::thread::spawn(move || wire_client_churn(client, &name, &start))
                })
                .collect();
            for h in handles {
                h.join().expect("client thread").unwrap_or_else(|e| panic!("{config:?}: {e}"));
            }
            let broker = server.broker();
            assert_eq!(broker.live_leases(), 0, "{config:?}: no leaked leases");
            broker.check_invariants().expect("clean");
            let stats = broker.tenants();
            assert_eq!(stats.len(), CLIENTS);
            assert!(stats.iter().all(|t| t.admits == ROUNDS), "{config:?}: {stats:?}");
            server.shutdown();
        }
    }
}

/// A connected, registered wire client whose calls have a 5 s
/// deadline.
fn registered_client(addr: &str, name: &str) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client.set_deadline(Some(Duration::from_secs(5))).expect("deadline");
    let register = Request::Register {
        tenant: name.into(),
        priority: Priority::Normal,
        quota: vec![],
        reserve: vec![],
    };
    let resp = call(&mut client, &register).expect("register");
    assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    client
}

/// Runs `ROUNDS` allocs, holding at most four leases and freeing the
/// oldest as it goes, then frees the rest. Each round starts when
/// every client reaches `start`, so frames land while another thread
/// holds the shard's token; a stranded frame then waits out its
/// deadline, since no other client posts until this one is answered.
/// After a failure the client keeps meeting `start` so the others can
/// finish.
fn wire_client_churn(mut client: Client, name: &str, start: &Barrier) -> Result<(), String> {
    let mut leases = VecDeque::new();
    let mut outcome = Ok(());
    for round in 0..ROUNDS {
        start.wait();
        outcome = outcome.and_then(|()| {
            let alloc = Request::Alloc {
                tenant: name.into(),
                size: (1 + round % 5) << 20,
                criterion: attr::BANDWIDTH,
                fallback: Fallback::PartialSpill,
                label: None,
                ttl: None,
            };
            match call(&mut client, &alloc)? {
                Response::Granted { lease, .. } => leases.push_back(lease),
                other => return Err(format!("{name}: expected grant, got {other:?}")),
            }
            if leases.len() > 4 {
                free(&mut client, name, leases.pop_front().expect("held"))
            } else {
                Ok(())
            }
        });
    }
    outcome?;
    leases.into_iter().try_for_each(|lease| free(&mut client, name, lease))
}

fn free(client: &mut Client, name: &str, lease: u64) -> Result<(), String> {
    match call(client, &Request::Free { tenant: name.into(), lease })? {
        Response::Freed => Ok(()),
        other => Err(format!("{name}: expected freed, got {other:?}")),
    }
}

fn call(client: &mut Client, request: &Request) -> Result<Response, String> {
    client.call(request).map_err(|e| match e {
        ServiceError::DeadlineExceeded(op) => format!("{op} stranded: no token holder served it"),
        e => e.to_string(),
    })
}
