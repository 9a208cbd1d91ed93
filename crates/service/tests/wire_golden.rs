//! Golden wire frames: the exact JSON line of every request op and
//! every response kind (the `docs/PROTOCOL.md` examples), the
//! optional-field forms, the decoded value of legacy and defaulted
//! inputs, and the edges of the shared vocabulary. The round-trip
//! tests cannot see a format change that the encoder and decoder make
//! together; these pins can.

use hetmem_alloc::Fallback;
use hetmem_core::{attr, AttrId};
use hetmem_service::wire::{Request, Response, REQUEST_OPS, RESPONSE_KINDS};
use hetmem_service::{Priority, ServiceError, TenantId, TenantStats};
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::BTreeMap;

fn alloc(label: Option<&str>, ttl: Option<u64>) -> Request {
    Request::Alloc {
        tenant: "stream".into(),
        size: 4096,
        criterion: attr::BANDWIDTH,
        fallback: Fallback::PartialSpill,
        label: label.map(Into::into),
        ttl,
    }
}

fn forward(label: Option<&str>, ttl: Option<u64>) -> Request {
    Request::Forward {
        origin: 0,
        tenant: "stream".into(),
        size: 4096,
        criterion: attr::LATENCY,
        fallback: Fallback::NextTarget,
        label: label.map(Into::into),
        ttl,
    }
}

/// Every request op, then the optional-field forms of `alloc` and
/// `forward`, each with its exact line.
fn request_corpus() -> Vec<(Request, &'static str)> {
    vec![
        (
            Request::Register {
                tenant: "stream".into(),
                priority: Priority::Batch,
                quota: vec![(MemoryKind::Hbm, 1 << 30)],
                reserve: vec![(MemoryKind::Dram, 256 << 20)],
            },
            r#"{"op":"register","tenant":"stream","priority":"batch","quota":[["hbm",1073741824]],"reserve":[["dram",268435456]]}"#,
        ),
        (
            alloc(Some("vectors"), Some(5)),
            r#"{"op":"alloc","tenant":"stream","size":4096,"criterion":"bandwidth","fallback":"spill","label":"vectors","ttl":5}"#,
        ),
        (
            Request::Renew { tenant: "stream".into(), lease: 9 },
            r#"{"op":"renew","tenant":"stream","lease":9}"#,
        ),
        (Request::Heartbeat { tenant: "stream".into() }, r#"{"op":"heartbeat","tenant":"stream"}"#),
        (
            Request::Free { tenant: "stream".into(), lease: 9 },
            r#"{"op":"free","tenant":"stream","lease":9}"#,
        ),
        (Request::Stats, r#"{"op":"stats"}"#),
        (
            forward(Some("spill"), Some(5)),
            r#"{"op":"forward","origin":0,"tenant":"stream","size":4096,"criterion":"latency","fallback":"next","label":"spill","ttl":5}"#,
        ),
        (Request::Digest, r#"{"op":"digest"}"#),
        (
            alloc(None, None),
            r#"{"op":"alloc","tenant":"stream","size":4096,"criterion":"bandwidth","fallback":"spill"}"#,
        ),
        (
            alloc(Some("vectors"), None),
            r#"{"op":"alloc","tenant":"stream","size":4096,"criterion":"bandwidth","fallback":"spill","label":"vectors"}"#,
        ),
        (
            alloc(None, Some(5)),
            r#"{"op":"alloc","tenant":"stream","size":4096,"criterion":"bandwidth","fallback":"spill","ttl":5}"#,
        ),
        (
            forward(None, None),
            r#"{"op":"forward","origin":0,"tenant":"stream","size":4096,"criterion":"latency","fallback":"next"}"#,
        ),
        (
            forward(Some("spill"), None),
            r#"{"op":"forward","origin":0,"tenant":"stream","size":4096,"criterion":"latency","fallback":"next","label":"spill"}"#,
        ),
        (
            forward(None, Some(5)),
            r#"{"op":"forward","origin":0,"tenant":"stream","size":4096,"criterion":"latency","fallback":"next","ttl":5}"#,
        ),
    ]
}

/// Every response kind, then the optional-field forms of `renewed`,
/// `stats` and `digest`, each with its exact line.
fn response_corpus() -> Vec<(Response, &'static str)> {
    let graph = TenantStats {
        id: TenantId(3),
        name: "graph".into(),
        priority: Priority::Latency,
        held: BTreeMap::from([(MemoryKind::Hbm, 4096)]),
        admits: 2,
        clamps: 1,
        stalls: 0,
    };
    vec![
        (Response::Registered { tenant_id: 3 }, r#"{"ok":1,"tenant_id":3}"#),
        (
            Response::Granted {
                lease: 9,
                size: 8192,
                placement: vec![(NodeId(4), 4096), (NodeId(0), 4096)],
                fast_bytes: 4096,
            },
            r#"{"ok":1,"lease":9,"size":8192,"placement":[[4,4096],[0,4096]],"fast_bytes":4096}"#,
        ),
        (
            Response::Renewed { lease: 9, expires_at: Some(17) },
            r#"{"ok":1,"lease":9,"expires_at":17}"#,
        ),
        (Response::HeartbeatAck { renewed: 3 }, r#"{"ok":1,"renewed":3}"#),
        (Response::Freed, r#"{"ok":1}"#),
        (
            Response::Stats {
                tenants: vec![graph],
                nodes: vec![(NodeId(0), 0, 1 << 30), (NodeId(4), 4096, 1 << 30)],
                shards: 1,
                guided: None,
            },
            r#"{"ok":1,"shards":1,"tenants":[{"id":3,"name":"graph","priority":"latency","held":[["hbm",4096]],"admits":2,"clamps":1,"stalls":0}],"nodes":[[0,0,1073741824],[4,4096,1073741824]]}"#,
        ),
        (
            Response::Digest {
                broker: 2,
                epoch: 14,
                tiers: vec![(MemoryKind::Dram, 96 << 30, false), (MemoryKind::Hbm, 4 << 30, true)],
            },
            r#"{"ok":1,"broker":2,"epoch":14,"tiers":[["dram",103079215104,0],["hbm",4294967296,1]]}"#,
        ),
        (
            Response::Error { code: "admission".into(), error: "admission denied: ...".into() },
            r#"{"ok":0,"code":"admission","error":"admission denied: ..."}"#,
        ),
        (
            Response::Renewed { lease: 2, expires_at: None },
            r#"{"ok":1,"lease":2,"expires_at":null}"#,
        ),
        (
            Response::Stats {
                tenants: vec![],
                nodes: vec![],
                shards: 4,
                guided: Some(vec![("graph".into(), 1536.0), ("stream".into(), 0.25)]),
            },
            r#"{"ok":1,"shards":4,"guided":[["graph",1536],["stream",0.25]],"tenants":[],"nodes":[]}"#,
        ),
        (
            Response::Stats { tenants: vec![], nodes: vec![], shards: 1, guided: Some(vec![]) },
            r#"{"ok":1,"shards":1,"guided":[],"tenants":[],"nodes":[]}"#,
        ),
        (
            Response::Digest { broker: 0, epoch: 0, tiers: vec![] },
            r#"{"ok":1,"broker":0,"epoch":0,"tiers":[]}"#,
        ),
    ]
}

#[test]
fn every_request_encodes_to_its_golden_line_and_back() {
    let corpus = request_corpus();
    let ops: Vec<&str> = corpus.iter().take(REQUEST_OPS.len()).map(|(r, _)| r.op()).collect();
    assert_eq!(ops, REQUEST_OPS, "the corpus opens with one request per op, in order");
    for (req, line) in corpus {
        assert_eq!(req.to_json(), line);
        assert_eq!(Request::from_json(line).expect(line), req, "{line}");
    }
}

#[test]
fn every_response_encodes_to_its_golden_line_and_back() {
    let corpus = response_corpus();
    let kinds: Vec<&str> =
        corpus.iter().take(RESPONSE_KINDS.len()).map(|(r, _)| r.kind()).collect();
    assert_eq!(kinds, RESPONSE_KINDS, "the corpus opens with one response per kind, in order");
    for (resp, line) in corpus {
        assert_eq!(resp.to_json(), line);
        assert_eq!(Response::from_json(line).expect(line), resp, "{line}");
    }
}

#[test]
fn error_responses_carry_the_stable_code() {
    let resp = Response::from_error(&ServiceError::UnknownLease(4));
    assert_eq!(resp.to_json(), r#"{"ok":0,"code":"unknown_lease","error":"unknown lease #4"}"#);
}

#[test]
fn absent_fields_decode_to_their_defaults() {
    let request_cases = [
        (
            r#"{"op":"alloc","tenant":"t","size":4096}"#,
            Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: attr::CAPACITY,
                fallback: Fallback::NextTarget,
                label: None,
                ttl: None,
            },
        ),
        (
            r#"{"op":"forward","origin":1,"tenant":"t","size":4096}"#,
            Request::Forward {
                origin: 1,
                tenant: "t".into(),
                size: 4096,
                criterion: attr::CAPACITY,
                fallback: Fallback::NextTarget,
                label: None,
                ttl: None,
            },
        ),
        (
            r#"{"op":"register","tenant":"t"}"#,
            Request::Register {
                tenant: "t".into(),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            },
        ),
    ];
    for (line, want) in request_cases {
        assert_eq!(Request::from_json(line).expect(line), want, "{line}");
    }
    let response_cases = [
        (
            r#"{"ok":1,"tenants":[],"nodes":[]}"#,
            Response::Stats { tenants: vec![], nodes: vec![], shards: 1, guided: None },
        ),
        (
            r#"{"ok":0,"error":"boom"}"#,
            Response::Error { code: String::new(), error: "boom".into() },
        ),
    ];
    for (line, want) in response_cases {
        assert_eq!(Response::from_json(line).expect(line), want, "{line}");
    }
}

#[test]
fn vocabulary_aliases_and_case_rules_hold() {
    // Kind aliases decode, and re-encode under the canonical name.
    let line = r#"{"op":"register","tenant":"t","quota":[["mcdram",1]],"reserve":[["pmem",2]]}"#;
    let req = Request::from_json(line).expect(line);
    assert_eq!(
        req,
        Request::Register {
            tenant: "t".into(),
            priority: Priority::Normal,
            quota: vec![(MemoryKind::Hbm, 1)],
            reserve: vec![(MemoryKind::Nvdimm, 2)],
        }
    );
    assert_eq!(
        req.to_json(),
        r#"{"op":"register","tenant":"t","priority":"normal","quota":[["hbm",1]],"reserve":[["nvdimm",2]]}"#
    );

    // Kind, criterion and fallback ignore ASCII case.
    let line = r#"{"op":"alloc","tenant":"t","size":1,"criterion":"Bandwidth","fallback":"SPILL"}"#;
    let Request::Alloc { criterion, fallback, .. } = Request::from_json(line).expect(line) else {
        panic!("{line} is an alloc");
    };
    assert_eq!((criterion, fallback), (attr::BANDWIDTH, Fallback::PartialSpill));
    let line = r#"{"ok":1,"broker":0,"epoch":0,"tiers":[["HBM",1,0]]}"#;
    assert_eq!(
        Response::from_json(line).expect(line),
        Response::Digest { broker: 0, epoch: 0, tiers: vec![(MemoryKind::Hbm, 1, false)] }
    );

    // Priority does not.
    let line = r#"{"op":"register","tenant":"t","priority":"LATENCY"}"#;
    assert!(matches!(Request::from_json(line), Err(ServiceError::Wire(_))), "{line}");

    // A criterion outside the vocabulary is written as `capacity`.
    let req = Request::Alloc {
        tenant: "t".into(),
        size: 1,
        criterion: AttrId(99),
        fallback: Fallback::Strict,
        label: None,
        ttl: None,
    };
    assert_eq!(
        req.to_json(),
        r#"{"op":"alloc","tenant":"t","size":1,"criterion":"capacity","fallback":"strict"}"#
    );
}
