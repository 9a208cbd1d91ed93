//! Golden trace formats: the exact JSON line and compact record bytes
//! of at least one event of every kind. The round-trip tests cannot see
//! a format change that the encoder and decoder make together; these
//! pins can.

use hetmem_telemetry::{
    compact, read_jsonl, AllocDecision, AttrFallback, BatchCoalesced, BudgetExhausted, Candidate,
    ContentionStall, DigestMerged, Event, FallbackMode, FreeEvent, GuidanceDecision, Hop,
    HotPromoted, LeaseExpired, LeaseRevoked, Migration, NodeTrafficSample, OccupancyGauge,
    PhaseSpan, QuotaClamp, Reclaim, RetryExhausted, SampleRateChanged, Scope, ShardSteal,
    SpillForwarded, TenantAdmit, TierDegraded, TieringEvent, EVENT_KINDS,
};
use hetmem_topology::NodeId;

/// One or more events of every kind, with the awkward values each
/// codec must survive: escaped strings, `None`/`Some` options, empty
/// and multi-entry lists, fractional floats.
fn corpus() -> Vec<Event> {
    vec![
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
        }),
        Event::AllocDecision(AllocDecision {
            region: None,
            size: 1 << 40,
            requested: 3,
            used: 3,
            scope: Scope::Any,
            fallback: FallbackMode::Strict,
            candidates: vec![Candidate { node: NodeId(0), value: 81 }],
            hops: vec![],
            placement: vec![],
            error: Some("insufficient capacity on node 0".into()),
        }),
        Event::AttrFallback(AttrFallback { requested: 4, used: 2 }),
        Event::Migration(Migration {
            region: 7,
            from: vec![(NodeId(0), 2 << 30)],
            to: NodeId(4),
            bytes_moved: 2 << 30,
            cost_ns: 643_000_000.25,
        }),
        Event::Free(FreeEvent { region: 7, placement: vec![(NodeId(4), 3 << 30)] }),
        Event::PhaseSpan(PhaseSpan {
            name: "bfs \"root0\"\\n".into(),
            time_ns: 1.25e9,
            threads: 16,
            per_node: vec![NodeTrafficSample {
                node: NodeId(0),
                bytes_read: 123,
                bytes_written: 456,
                achieved_bw_mbps: 8123.5,
            }],
        }),
        Event::OccupancyGauge(OccupancyGauge {
            node: NodeId(2),
            used: 5 << 30,
            high_water: 9 << 30,
            total: 768 << 30,
        }),
        Event::TieringAction(TieringEvent {
            region: 3,
            promoted: false,
            to: NodeId(0),
            cost_ns: 12_500.75,
        }),
        Event::GuidanceDecision(GuidanceDecision {
            interval: 42,
            region: 9,
            promoted: true,
            to: NodeId(4),
            estimated_hotness: 0.8125,
            actual_hotness: 0.96875,
            cost_ns: 7_000.5,
            period: 16384,
        }),
        Event::TenantAdmit(TenantAdmit {
            broker: 1,
            tenant: "graph \"500\"".into(),
            lease: 11,
            size: 3 << 30,
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            clamped: true,
            fast_bytes: 1 << 30,
        }),
        Event::TenantAdmit(TenantAdmit {
            broker: 0,
            tenant: "stream".into(),
            lease: 12,
            size: 1 << 20,
            placement: vec![(NodeId(2), 1 << 20)],
            clamped: false,
            fast_bytes: 0,
        }),
        Event::QuotaClamp(QuotaClamp {
            broker: 0,
            tenant: "stream".into(),
            node: NodeId(4),
            requested: 2 << 30,
            allowed: 512 << 20,
        }),
        Event::ContentionStall(ContentionStall {
            broker: 2,
            tenant: "graph500".into(),
            node: NodeId(4),
            stall_ns: 125_000.5,
            sharers: 3,
        }),
        Event::LeaseExpired(LeaseExpired {
            broker: 0,
            tenant: "stream".into(),
            lease: 12,
            ttl_epochs: 5,
        }),
        Event::LeaseRevoked(LeaseRevoked {
            broker: 1,
            tenant: "graph500".into(),
            lease: 11,
            reason: "disconnect".into(),
        }),
        Event::TierDegraded(TierDegraded { broker: 0, kind: "hbm".into(), degraded: true }),
        Event::TierDegraded(TierDegraded { broker: 3, kind: "hbm".into(), degraded: false }),
        Event::RetryExhausted(RetryExhausted {
            tenant: "stream".into(),
            op: "alloc".into(),
            attempts: 4,
            last_error: "allocation stalled; retry".into(),
        }),
        Event::Reclaim(Reclaim {
            broker: 1,
            tenant: "graph500".into(),
            lease: 11,
            bytes: 3 << 30,
            placement: vec![(NodeId(4), 1 << 30), (NodeId(0), 2 << 30)],
            reason: "revoked".into(),
        }),
        Event::SpillForwarded(SpillForwarded {
            broker: 1,
            origin: 0,
            tenant: "graph500".into(),
            size: 2 << 30,
            fast_bytes: 2 << 30,
            cost_ns: 84_000.5,
        }),
        Event::DigestMerged(DigestMerged { broker: 0, peer: 1, epoch: 17, applied: true }),
        Event::DigestMerged(DigestMerged { broker: 1, peer: 0, epoch: 16, applied: false }),
        Event::BatchCoalesced(BatchCoalesced {
            broker: 0,
            shard: 2,
            tenant: "stream".into(),
            merged: 4,
            bytes: 2 << 30,
        }),
        Event::ShardSteal(ShardSteal { broker: 1, thief: 0, victim: 3, stolen: 7 }),
        Event::SampleRateChanged(SampleRateChanged {
            broker: 0,
            tenant: "interactive".into(),
            old_period: 65536,
            new_period: 4096,
        }),
        Event::HotPromoted(HotPromoted {
            broker: 2,
            tenant: "interactive".into(),
            region: 9,
            to: NodeId(4),
            bytes: 1 << 30,
            cost_ns: 42_000.25,
        }),
        Event::BudgetExhausted(BudgetExhausted {
            broker: 0,
            epoch: 12,
            spent_ns: 95_000.0,
            budget_ns: 100_000.0,
            deferred: 3,
        }),
    ]
}

/// `(JSON line, compact record hex)` of each [`corpus`] event, in order;
/// record `i` is encoded at epoch `i * 1000`, so the epoch varint takes
/// one, two and three bytes across the table.
const GOLDEN: &[(&str, &str)] = &[
    (
        r#"{"event":"alloc_decision","region":7,"size":3221225472,"requested":"ReadBandwidth","used":"Bandwidth","scope":"local","fallback":"partial_spill","candidates":[{"node":4,"value":380000},{"node":0,"value":90000}],"hops":[{"node":4,"reason":"insufficient capacity"}],"placement":[[4,1073741824],[0,2147483648]]}"#,
        "00000107808080800c040200020204e098170090bf05010415696e73756666696369656e742063617061636974790204808080800400808080800800",
    ),
    (
        r#"{"event":"alloc_decision","region":null,"size":1099511627776,"requested":"Latency","used":"Latency","scope":"any","fallback":"strict","candidates":[{"node":0,"value":81}],"hops":[],"placement":[],"error":"insufficient capacity on node 0"}"#,
        "00e80700808080808020030301000100510000011f696e73756666696369656e74206361706163697479206f6e206e6f64652030",
    ),
    (
        r#"{"event":"attr_fallback","requested":"ReadBandwidth","used":"Bandwidth"}"#,
        "01d00f0402",
    ),
    (
        r#"{"event":"migration","region":7,"from":[[0,2147483648]],"to":4,"bytes_moved":2147483648,"cost_ns":643000000.25}"#,
        "02b817070100808080800804808080800800002060b329c341",
    ),
    (
        r#"{"event":"free","region":7,"placement":[[4,3221225472]]}"#,
        "03a01f070104808080800c",
    ),
    (
        r#"{"event":"phase_span","name":"bfs \"root0\"\\n","time_ns":1250000000,"threads":16,"per_node":[{"node":0,"bytes_read":123,"bytes_written":456,"achieved_bw_mbps":8123.5}]}"#,
        "0488270d6266732022726f6f7430225c6e000000205fa0d2411001007bc8030000000080bbbf40",
    ),
    (
        r#"{"event":"occupancy","node":2,"used":5368709120,"high_water":9663676416,"total":824633720832}"#,
        "05f02e0280808080148080808024808080808018",
    ),
    (
        r#"{"event":"tiering_action","region":3,"action":"demote","to":0,"cost_ns":12500.75}"#,
        "06d83603000000000000606ac840",
    ),
    (
        r#"{"event":"guidance_decision","interval":42,"region":9,"action":"promote","to":4,"estimated_hotness":0.8125,"actual_hotness":0.96875,"cost_ns":7000.5,"period":16384}"#,
        "07c03e2a090104000000000000ea3f000000000000ef3f000000008058bb40808001",
    ),
    (
        r#"{"event":"tenant_admit","broker":1,"tenant":"graph \"500\"","lease":11,"size":3221225472,"placement":[[4,1073741824],[0,2147483648]],"clamped":"yes","fast_bytes":1073741824}"#,
        "08a846010b67726170682022353030220b808080800c02048080808004008080808008018080808004",
    ),
    (
        r#"{"event":"tenant_admit","broker":0,"tenant":"stream","lease":12,"size":1048576,"placement":[[2,1048576]],"clamped":"no","fast_bytes":0}"#,
        "08904e000673747265616d0c80804001028080400000",
    ),
    (
        r#"{"event":"quota_clamp","broker":0,"tenant":"stream","node":4,"requested":2147483648,"allowed":536870912}"#,
        "09f855000673747265616d0480808080088080808002",
    ),
    (
        r#"{"event":"contention_stall","broker":2,"tenant":"graph500","node":4,"stall_ns":125000.5,"sharers":3}"#,
        "0ae05d0208677261706835303004000000008884fe4003",
    ),
    (
        r#"{"event":"lease_expired","broker":0,"tenant":"stream","lease":12,"ttl_epochs":5}"#,
        "0bc865000673747265616d0c05",
    ),
    (
        r#"{"event":"lease_revoked","broker":1,"tenant":"graph500","lease":11,"reason":"disconnect"}"#,
        "0cb06d010867726170683530300b0a646973636f6e6e656374",
    ),
    (
        r#"{"event":"tier_degraded","broker":0,"kind":"hbm","degraded":"yes"}"#,
        "0d9875000368626d01",
    ),
    (
        r#"{"event":"tier_degraded","broker":3,"kind":"hbm","degraded":"no"}"#,
        "0d807d030368626d00",
    ),
    (
        r#"{"event":"retry_exhausted","tenant":"stream","op":"alloc","attempts":4,"last_error":"allocation stalled; retry"}"#,
        "0ee884010673747265616d05616c6c6f630419616c6c6f636174696f6e207374616c6c65643b207265747279",
    ),
    (
        r#"{"event":"reclaim","broker":1,"tenant":"graph500","lease":11,"bytes":3221225472,"placement":[[4,1073741824],[0,2147483648]],"reason":"revoked"}"#,
        "0fd08c01010867726170683530300b808080800c02048080808004008080808008077265766f6b6564",
    ),
    (
        r#"{"event":"spill_forwarded","broker":1,"origin":0,"tenant":"graph500","size":2147483648,"fast_bytes":2147483648,"cost_ns":84000.5}"#,
        "10b89401010008677261706835303080808080088080808008000000000882f440",
    ),
    (
        r#"{"event":"digest_merged","broker":0,"peer":1,"epoch":17,"applied":"yes"}"#,
        "11a09c0100011101",
    ),
    (
        r#"{"event":"digest_merged","broker":1,"peer":0,"epoch":16,"applied":"no"}"#,
        "1188a40101001000",
    ),
    (
        r#"{"event":"batch_coalesced","broker":0,"shard":2,"tenant":"stream","merged":4,"bytes":2147483648}"#,
        "12f0ab0100020673747265616d048080808008",
    ),
    (
        r#"{"event":"shard_steal","broker":1,"thief":0,"victim":3,"stolen":7}"#,
        "13d8b30101000307",
    ),
    (
        r#"{"event":"sample_rate_changed","broker":0,"tenant":"interactive","old_period":65536,"new_period":4096}"#,
        "14c0bb01000b696e7465726163746976658080048020",
    ),
    (
        r#"{"event":"hot_promoted","broker":2,"tenant":"interactive","region":9,"to":4,"bytes":1073741824,"cost_ns":42000.25}"#,
        "15a8c301020b696e74657261637469766509048080808004000000000882e440",
    ),
    (
        r#"{"event":"budget_exhausted","broker":0,"epoch":12,"spent_ns":95000,"budget_ns":100000,"deferred":3}"#,
        "1690cb01000c000000008031f74000000000006af84003",
    ),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn jsonl_roundtrip_every_variant() {
    let events = corpus();
    let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let back = read_jsonl(&text).expect("roundtrip");
    assert_eq!(back, events);
    // Every variant exercised above must carry a kind from the
    // published list, and the encoded line must agree with kind().
    for e in &events {
        assert!(EVENT_KINDS.contains(&e.kind()), "{} missing from EVENT_KINDS", e.kind());
        assert!(
            e.to_json().contains(&format!("\"event\":\"{}\"", e.kind())),
            "kind() disagrees with to_json() for {e:?}"
        );
    }
}

#[test]
fn every_kind_has_a_pinned_json_line_and_compact_record() {
    let events = corpus();
    assert_eq!(events.len(), GOLDEN.len());
    for (i, (event, &(line, record))) in events.iter().zip(GOLDEN).enumerate() {
        let epoch = i as u64 * 1000;
        assert_eq!(event.to_json(), line, "JSON line of {}", event.kind());
        assert_eq!(Event::from_json(line).expect(line), *event);
        let mut buf = Vec::new();
        compact::encode_record(epoch, event, &mut buf);
        assert_eq!(hex(&buf), record, "compact record of {}", event.kind());
        assert_eq!(compact::decode_record(&buf).expect(record), (epoch, event.clone()));
    }
    for kind in EVENT_KINDS {
        assert!(events.iter().any(|e| e.kind() == *kind), "{kind} has no golden record");
    }
}

#[test]
fn legacy_lines_parse() {
    // Pre-federation traces carry no `broker` field: broker 0.
    let admit = r#"{"event":"tenant_admit","tenant":"stream","lease":12,"size":1048576,"placement":[[2,1048576]],"clamped":"no","fast_bytes":0}"#;
    match Event::from_json(admit).expect("legacy tenant_admit") {
        Event::TenantAdmit(t) => assert_eq!((t.broker, t.lease), (0, 12)),
        other => panic!("parsed as {other:?}"),
    }
    // A successful decision omits `error`.
    let decision = r#"{"event":"alloc_decision","region":3,"size":4096,"requested":"Bandwidth","used":"Bandwidth","scope":"local","fallback":"strict","candidates":[],"hops":[],"placement":[[4,4096]]}"#;
    match Event::from_json(decision).expect("alloc_decision without error") {
        Event::AllocDecision(d) => assert_eq!((d.region, d.error), (Some(3), None)),
        other => panic!("parsed as {other:?}"),
    }
}

#[test]
fn out_of_range_u32_fields_are_rejected() {
    // 2^32 used to wrap silently to 0.
    for line in [
        r#"{"event":"spill_forwarded","broker":1,"origin":4294967296,"tenant":"t","size":1,"fast_bytes":0,"cost_ns":1}"#,
        r#"{"event":"shard_steal","broker":4294967296,"thief":0,"victim":1,"stolen":1}"#,
        r#"{"event":"free","region":7,"placement":[[4294967296,4096]]}"#,
    ] {
        assert!(Event::from_json(line).is_err(), "{line}");
    }
}
