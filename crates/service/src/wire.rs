//! The JSONL wire protocol: one JSON object per line in each
//! direction, speaking the same hand-rolled dialect as the telemetry
//! trace format ([`hetmem_telemetry::json`]) — no external
//! dependencies, deterministic rendering.
//!
//! Requests:
//!
//! ```json
//! {"op":"register","tenant":"stream","priority":"batch","quota":[["hbm",1073741824]]}
//! {"op":"alloc","tenant":"stream","size":4096,"criterion":"bandwidth","fallback":"spill","ttl":5}
//! {"op":"renew","tenant":"stream","lease":0}
//! {"op":"heartbeat","tenant":"stream"}
//! {"op":"free","tenant":"stream","lease":0}
//! {"op":"stats"}
//! {"op":"forward","origin":0,"tenant":"stream","size":4096,"criterion":"latency","fallback":"next"}
//! {"op":"digest"}
//! ```
//!
//! Responses always carry `"ok"`; failures carry `"error"` plus a
//! stable machine-readable `"code"` ([`crate::ERROR_CODES`]):
//!
//! ```json
//! {"ok":1,"lease":0,"size":4096,"placement":[[4,4096]],"fast_bytes":4096}
//! {"ok":0,"code":"admission","error":"admission denied: ..."}
//! ```
//!
//! Every frame is declared once, in the `frames!` table below, on the
//! field codecs of [`hetmem_telemetry::schema`]. Criterion, fallback
//! and memory-kind spellings match the scenario DSL (`bandwidth`,
//! `spill`, `hbm`, ...), so the same vocabulary works in scripts and
//! over the socket. The full specification — every frame, every field,
//! every error code — lives in `docs/PROTOCOL.md` and is enforced by a
//! coverage test over [`REQUEST_OPS`], [`RESPONSE_KINDS`] and
//! [`hetmem_telemetry::EVENT_KINDS`].

use crate::tenant::{Priority, TenantStats};
use crate::ServiceError;
use hetmem_alloc::Fallback;
use hetmem_core::{attr, AttrId};
use hetmem_telemetry::json::{parse, JsonValue};
use hetmem_telemetry::schema::{field, omit_none, JsonCodec, Named, Vocab};
use hetmem_telemetry::{json_field, ParseError};
use hetmem_topology::{MemoryKind, NodeId};

/// Ranking criteria by their DSL names, which ignore case.
const CRITERIA: Vocab<AttrId> = Vocab {
    what: "criterion",
    fold_case: true,
    names: &[
        (attr::BANDWIDTH, "bandwidth"),
        (attr::LATENCY, "latency"),
        (attr::CAPACITY, "capacity"),
        (attr::LOCALITY, "locality"),
        (attr::READ_BANDWIDTH, "readbandwidth"),
        (attr::WRITE_BANDWIDTH, "writebandwidth"),
        (attr::READ_LATENCY, "readlatency"),
        (attr::WRITE_LATENCY, "writelatency"),
    ],
};

/// Fallback modes by their DSL names, which ignore case.
const FALLBACKS: Vocab<Fallback> = Vocab {
    what: "fallback",
    fold_case: true,
    names: &[
        (Fallback::Strict, "strict"),
        (Fallback::NextTarget, "next"),
        (Fallback::PartialSpill, "spill"),
    ],
};

/// Wire spelling of an attribute criterion (DSL vocabulary); an id
/// outside the vocabulary is written `capacity`.
pub fn criterion_name(id: AttrId) -> &'static str {
    CRITERIA.name(id).unwrap_or("capacity")
}

/// Parses a criterion spelling ([`criterion_name`] vocabulary).
pub fn criterion_from_name(s: &str) -> Option<AttrId> {
    CRITERIA.value(s)
}

/// Wire spelling of a fallback mode (DSL vocabulary).
pub fn fallback_name(f: Fallback) -> &'static str {
    FALLBACKS.name(f).expect("every fallback mode has a name")
}

/// Parses a fallback spelling ([`fallback_name`] vocabulary).
pub fn fallback_from_name(s: &str) -> Option<Fallback> {
    FALLBACKS.value(s)
}

/// Wire spelling of a memory kind.
pub fn kind_name(kind: MemoryKind) -> &'static str {
    MemoryKind::VOCAB.name(kind).expect("every memory kind has a name")
}

/// Parses a memory-kind spelling ([`kind_name`] vocabulary, plus the
/// aliases `mcdram` and `pmem`).
pub fn kind_from_name(s: &str) -> Option<MemoryKind> {
    MemoryKind::VOCAB.value(s)
}

/// Override: a criterion by name.
mod criterion {
    use super::*;
    pub fn to_json(v: &AttrId) -> Option<JsonValue> {
        Some(JsonValue::str(criterion_name(*v)))
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<AttrId, ParseError> {
        CRITERIA.from_json(v)
    }
}

/// Override: a fallback mode by name.
mod fallback {
    use super::*;
    pub fn to_json(v: &Fallback) -> Option<JsonValue> {
        FALLBACKS.to_json(*v)
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<Fallback, ParseError> {
        FALLBACKS.from_json(v)
    }
}

/// Override: digest rows, whose `degraded` flag is written `1`/`0`.
mod tier_rows {
    use super::*;
    pub fn to_json(v: &[(MemoryKind, u64, bool)]) -> Option<JsonValue> {
        v.iter()
            .map(|&(kind, free, degraded)| (kind, free, u64::from(degraded)))
            .collect::<Vec<_>>()
            .to_json()
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<Vec<(MemoryKind, u64, bool)>, ParseError> {
        let rows = Vec::<(MemoryKind, u64, u64)>::from_json(v)?;
        Ok(rows.into_iter().map(|(kind, free, degraded)| (kind, free, degraded != 0)).collect())
    }
}

fn wire(e: ParseError) -> ServiceError {
    ServiceError::Wire(e.to_string())
}

/// The `op` a request frame names.
fn request_op(v: &JsonValue) -> Result<String, ServiceError> {
    field(v, "op", String::from_json, None).map_err(wire)
}

/// How a response kind is told apart on the wire.
struct Shape {
    kind: &'static str,
    /// The `ok` value its frames carry.
    ok: u8,
    /// The key only its frames carry; `None` for the bare frame of its
    /// `ok` class.
    key: Option<&'static str>,
}

/// The kind a response frame decodes as: among the kinds of its `ok`
/// class, the one whose discriminating key it carries, else the one
/// without a key. A frame carrying two discriminating keys is
/// malformed.
fn response_kind(v: &JsonValue) -> Result<&'static str, ServiceError> {
    let ok = field(v, "ok", u64::from_json, None).map_err(wire)?;
    let class = RESPONSE_SHAPES.iter().filter(|s| (s.ok == 0) == (ok == 0));
    let carries = |s: &&Shape| s.key.is_some_and(|k| matches!(v.lookup(k), Ok(Some(_))));
    let mut keyed = class.clone().filter(carries);
    match (keyed.next(), keyed.next()) {
        (Some(s), None) => Ok(s.kind),
        (Some(a), Some(b)) => Err(ServiceError::Wire(format!(
            "response carries the keys of both {:?} and {:?}",
            a.kind, b.kind
        ))),
        (None, _) => {
            Ok(class.clone().find(|s| s.key.is_none()).expect("a bare kind per ok class").kind)
        }
    }
}

/// Declares the frame table. A request is its [`Request`] variant and
/// `op` string; a response is its [`Response`] variant, kind name, `ok`
/// value and the key only its frames carry. Each is followed by its
/// fields in key order, in the field grammar of
/// [`hetmem_telemetry::json_record!`] less renames. Generates both
/// enums, [`REQUEST_OPS`], [`RESPONSE_KINDS`], `op()`, `kind()` and
/// both JSON directions.
macro_rules! frames {
    (
        $(#[$qmeta:meta])*
        pub enum Request {$(
            $(#[$qvmeta:meta])* $qvariant:ident($op:literal) $({ $($qbody:tt)* })?,
        )*}
        $(#[$rmeta:meta])*
        pub enum Response {$(
            $(#[$rvmeta:meta])*
            $rvariant:ident($kind:literal, ok: $ok:literal $(, key: $key:literal)?)
            $({ $($rbody:tt)* })?,
        )*}
    ) => {
        frames! {
            @enum $(#[$qmeta])* Request, request_op, "op",
            /// The `op` field value this variant encodes to — one of
            /// [`REQUEST_OPS`].
            ///
            /// ```
            /// use hetmem_service::wire::{Request, REQUEST_OPS};
            /// let req = Request::Heartbeat { tenant: "stream".into() };
            /// assert_eq!(req.op(), "heartbeat");
            /// assert!(REQUEST_OPS.contains(&req.op()));
            /// ```
            op;
            $($(#[$qvmeta])* $qvariant($op, "op": JsonValue::str($op)) $({ $($qbody)* })?,)*
        }
        frames! {
            @enum $(#[$rmeta])* Response, response_kind, "response kind",
            /// The stable name of this variant — one of [`RESPONSE_KINDS`].
            kind;
            $($(#[$rvmeta])* $rvariant($kind, "ok": JsonValue::num(f64::from($ok)))
              $({ $($rbody)* })?,)*
        }

        /// The `op` field value of every [`Request`] variant, in
        /// declaration order. `docs/PROTOCOL.md` coverage tests
        /// enumerate this list.
        pub const REQUEST_OPS: &[&str] = &[$($op),*];

        /// A stable name per [`Response`] variant (responses are
        /// discriminated by field shape on the wire, not by a tag; these
        /// names exist for the spec and its coverage test).
        pub const RESPONSE_KINDS: &[&str] = &[$($kind),*];

        /// The wire shape of every [`Response`] variant.
        const RESPONSE_SHAPES: &[Shape] =
            &[$(Shape { kind: $kind, ok: $ok, key: [$(Some($key),)? None][0] }),*];
    };
    // One enum: each entry is its variant, its wire name and the key and
    // value written first; `$name_of` reads the wire name off a frame.
    (
        @enum $(#[$meta:meta])* $enum:ident, $name_of:ident, $what:literal,
        $(#[$name_meta:meta])* $name_fn:ident;
        $($(#[$vmeta:meta])* $variant:ident($name:literal, $tag:literal: $tag_value:expr) $({$(
            $(#[$fmeta:meta])* $field:ident : $ty:ty $(as $with:ident)? $(= $default:expr)?,
        )*})?,)*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum $enum {
            $($(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty,)* })?,)*
        }

        impl $enum {
            $(#[$name_meta])*
            pub fn $name_fn(&self) -> &'static str {
                match self {
                    $($enum::$variant { .. } => $name,)*
                }
            }

            /// Renders the frame as one JSON line (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut fields = Vec::with_capacity(8);
                match self {
                    $($enum::$variant $({ $($field),* })? => {
                        fields.push(($tag.to_string(), $tag_value));
                        $($(json_field!(
                            put fields, $field; $field: $ty $(as $with)? $(= $default)?
                        );)*)?
                    })*
                }
                JsonValue::Object(fields).render()
            }

            /// Parses one frame line.
            pub fn from_json(line: &str) -> Result<$enum, ServiceError> {
                let v = parse(line).map_err(wire)?;
                match &*$name_of(&v)? {
                    $($name => Ok($enum::$variant $({$(
                        $field: json_field!(
                            take &v; $field: $ty $(as $with)? $(= $default)?
                        ).map_err(wire)?,
                    )*})?),)*
                    other => Err(ServiceError::Wire(format!("unknown {} {other:?}", $what))),
                }
            }
        }
    };
}

// The frame table. A request entry is its variant and `op` string; a
// response entry is its variant, kind name, `ok` value and the key
// only its frames carry. Fields follow in JSON key order; `as` names
// an override module and `= value` is what an absent key reads as.
frames! {
    /// One client request.
    pub enum Request {
        /// Register a tenant.
        Register("register") {
            /// Tenant name (must be unique per broker).
            tenant: String,
            /// Priority class.
            priority: Priority = Priority::Normal,
            /// Per-tier hard caps.
            quota: Vec<(MemoryKind, u64)> = Vec::new(),
            /// Per-tier guaranteed floors.
            reserve: Vec<(MemoryKind, u64)> = Vec::new(),
        },
        /// Request an allocation lease.
        Alloc("alloc") {
            /// Owning tenant name.
            tenant: String,
            /// Bytes requested.
            size: u64,
            /// Ranking criterion.
            criterion: AttrId as criterion = attr::CAPACITY,
            /// Fallback mode when the best target cannot take it all.
            fallback: Fallback as fallback = Fallback::NextTarget,
            /// Optional buffer label (shows up in telemetry).
            label: Option<String> as omit_none,
            /// Optional TTL override in service epochs; `None` uses the
            /// tenant's default (which may itself be "no TTL").
            ttl: Option<u64> as omit_none,
        },
        /// Reset the TTL clock of one lease.
        Renew("renew") {
            /// Owning tenant name.
            tenant: String,
            /// Lease id from the alloc response.
            lease: u64,
        },
        /// Renew every lease the tenant holds (the keepalive).
        Heartbeat("heartbeat") {
            /// Tenant name.
            tenant: String,
        },
        /// Return a lease.
        Free("free") {
            /// Owning tenant name.
            tenant: String,
            /// Lease id from the alloc response.
            lease: u64,
        },
        /// Snapshot broker state.
        Stats("stats"),
        /// A federation spill: a peer broker forwards the residual of a
        /// shortfalling placement here. The tenant must be registered on
        /// the receiving broker too (federations mirror registrations).
        Forward("forward") {
            /// Broker id of the forwarding peer.
            origin: u32,
            /// Owning tenant name.
            tenant: String,
            /// Residual bytes to place locally.
            size: u64,
            /// Ranking criterion of the original request.
            criterion: AttrId as criterion = attr::CAPACITY,
            /// Fallback mode of the original request.
            fallback: Fallback as fallback = Fallback::NextTarget,
            /// Optional buffer label (shows up in telemetry).
            label: Option<String> as omit_none,
            /// Optional TTL override in service epochs.
            ttl: Option<u64> as omit_none,
        },
        /// Ask the broker for its capacity digest (federation gossip).
        Digest("digest"),
    }

    /// One server response.
    pub enum Response {
        /// Tenant registered.
        Registered("registered", ok: 1, key: "tenant_id") {
            /// The issued tenant id.
            tenant_id: u32,
        },
        /// Lease granted.
        Granted("granted", ok: 1, key: "placement") {
            /// The issued lease id.
            lease: u64,
            /// Bytes granted (page-rounded).
            size: u64,
            /// Placement split `(node, bytes)`.
            placement: Vec<(NodeId, u64)>,
            /// Bytes that landed on the fast tier.
            fast_bytes: u64,
        },
        /// Lease TTL clock reset.
        Renewed("renewed", ok: 1, key: "expires_at") {
            /// The renewed lease id.
            lease: u64,
            /// The new expiry epoch; `None` when the lease has no TTL.
            expires_at: Option<u64>,
        },
        /// Heartbeat acknowledged.
        HeartbeatAck("heartbeat_ack", ok: 1, key: "renewed") {
            /// Number of leases whose TTL clock was reset.
            renewed: u64,
        },
        /// Lease returned.
        Freed("freed", ok: 1),
        /// Broker snapshot.
        Stats("stats", ok: 1, key: "tenants") {
            /// Dispatch shards serving this broker (`1` = the single
            /// dispatcher; absent frames from older brokers parse as `1`).
            shards: u32 = 1,
            /// Per-tenant `(name, sampling overhead ns)` when guided
            /// service is on; `None` when it is off. An absent field
            /// parses as off, so unguided brokers keep the old frame.
            guided: Option<Vec<(String, f64)>> as omit_none,
            /// Per-tenant standing.
            tenants: Vec<TenantStats>,
            /// Per-node `(node, used, total)` bytes.
            nodes: Vec<(NodeId, u64, u64)>,
        },
        /// The broker's capacity digest (answer to a `digest` request).
        Digest("digest", ok: 1, key: "tiers") {
            /// Responding broker id.
            broker: u32,
            /// The broker's virtual epoch when the digest was taken.
            epoch: u64,
            /// Per-tier `(kind, free bytes, degraded)` rows, ordered by
            /// kind.
            tiers: Vec<(MemoryKind, u64, bool)> as tier_rows,
        },
        /// The request failed; the connection stays usable.
        Error("error", ok: 0) {
            /// Stable machine-readable code ([`crate::ERROR_CODES`]).
            code: String = String::new(),
            /// Human-readable reason (the [`ServiceError`] display).
            error: String,
        },
    }
}

impl Request {
    /// The tenant the request acts for, when it names one.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Register { tenant, .. }
            | Request::Alloc { tenant, .. }
            | Request::Renew { tenant, .. }
            | Request::Heartbeat { tenant }
            | Request::Free { tenant, .. }
            | Request::Forward { tenant, .. } => Some(tenant),
            Request::Stats | Request::Digest => None,
        }
    }
}

impl Response {
    /// An error response carrying `e`'s stable code and display text.
    pub fn from_error(e: &ServiceError) -> Response {
        Response::Error { code: e.code().to_string(), error: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Register {
                tenant: "graph \"prod\"".into(),
                priority: Priority::Latency,
                quota: vec![(MemoryKind::Hbm, 1 << 30)],
                reserve: vec![(MemoryKind::Dram, 2 << 30), (MemoryKind::Hbm, 1 << 20)],
            },
            Request::Alloc {
                tenant: "stream".into(),
                size: 4096,
                criterion: attr::READ_BANDWIDTH,
                fallback: Fallback::PartialSpill,
                label: Some("a".into()),
                ttl: Some(5),
            },
            Request::Alloc {
                tenant: "stream".into(),
                size: 1,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Renew { tenant: "stream".into(), lease: 3 },
            Request::Heartbeat { tenant: "stream".into() },
            Request::Free { tenant: "stream".into(), lease: 7 },
            Request::Stats,
            Request::Forward {
                origin: 1,
                tenant: "stream".into(),
                size: 1 << 20,
                criterion: attr::LATENCY,
                fallback: Fallback::NextTarget,
                label: Some("spill".into()),
                ttl: Some(3),
            },
            Request::Forward {
                origin: 0,
                tenant: "stream".into(),
                size: 4096,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Digest,
        ];
        for req in reqs {
            let line = req.to_json();
            assert_eq!(Request::from_json(&line).expect(&line), req, "{line}");
        }
    }

    #[test]
    fn alloc_defaults_apply_when_fields_are_absent() {
        let req = Request::from_json(r#"{"op":"alloc","tenant":"t","size":4096}"#).expect("parses");
        assert_eq!(
            req,
            Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: attr::CAPACITY,
                fallback: Fallback::NextTarget,
                label: None,
                ttl: None,
            }
        );
    }

    #[test]
    fn every_request_op_is_listed_and_every_response_kind_is_listed() {
        let reqs = [
            Request::Register {
                tenant: "t".into(),
                priority: Priority::Normal,
                quota: vec![],
                reserve: vec![],
            },
            Request::Alloc {
                tenant: "t".into(),
                size: 1,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Renew { tenant: "t".into(), lease: 0 },
            Request::Heartbeat { tenant: "t".into() },
            Request::Free { tenant: "t".into(), lease: 0 },
            Request::Stats,
            Request::Forward {
                origin: 0,
                tenant: "t".into(),
                size: 1,
                criterion: attr::CAPACITY,
                fallback: Fallback::Strict,
                label: None,
                ttl: None,
            },
            Request::Digest,
        ];
        let ops: Vec<&str> = reqs.iter().map(|r| r.op()).collect();
        assert_eq!(ops, REQUEST_OPS);
        assert_eq!(reqs[0].tenant(), Some("t"));
        assert_eq!(reqs[5].tenant(), None);
        assert_eq!(reqs[6].tenant(), Some("t"));
        assert_eq!(reqs[7].tenant(), None);

        let resps = [
            Response::Registered { tenant_id: 0 },
            Response::Granted { lease: 0, size: 0, placement: vec![], fast_bytes: 0 },
            Response::Renewed { lease: 0, expires_at: None },
            Response::HeartbeatAck { renewed: 0 },
            Response::Freed,
            Response::Stats { tenants: vec![], nodes: vec![], shards: 1, guided: None },
            Response::Digest { broker: 0, epoch: 0, tiers: vec![] },
            Response::from_error(&ServiceError::Stalled),
        ];
        let kinds: Vec<&str> = resps.iter().map(|r| r.kind()).collect();
        assert_eq!(kinds, RESPONSE_KINDS);
    }

    #[test]
    fn responses_roundtrip() {
        let mut held = BTreeMap::new();
        held.insert(MemoryKind::Hbm, 4096u64);
        let resps = vec![
            Response::Registered { tenant_id: 3 },
            Response::Granted {
                lease: 9,
                size: 8192,
                placement: vec![(NodeId(4), 4096), (NodeId(0), 4096)],
                fast_bytes: 4096,
            },
            Response::Renewed { lease: 9, expires_at: Some(17) },
            Response::Renewed { lease: 2, expires_at: None },
            Response::HeartbeatAck { renewed: 3 },
            Response::Freed,
            Response::Stats {
                tenants: vec![crate::TenantStats {
                    id: crate::TenantId(3),
                    name: "graph".into(),
                    priority: Priority::Latency,
                    held,
                    admits: 2,
                    clamps: 1,
                    stalls: 0,
                }],
                nodes: vec![(NodeId(0), 0, 1 << 30), (NodeId(4), 4096, 1 << 30)],
                shards: 4,
                guided: None,
            },
            Response::Stats {
                tenants: vec![],
                nodes: vec![(NodeId(0), 0, 1 << 30)],
                shards: 1,
                guided: Some(vec![("graph".into(), 1536.0), ("stream".into(), 0.0)]),
            },
            Response::Digest {
                broker: 2,
                epoch: 14,
                tiers: vec![(MemoryKind::Dram, 96 << 30, false), (MemoryKind::Hbm, 4 << 30, true)],
            },
            Response::Error { code: "admission".into(), error: "admission denied".into() },
            Response::from_error(&ServiceError::UnknownLease(4)),
            Response::from_error(&ServiceError::PeerUnreachable(1)),
            Response::from_error(&ServiceError::StaleDigest { peer: 3 }),
        ];
        for resp in resps {
            let line = resp.to_json();
            assert_eq!(Response::from_json(&line).expect(&line), resp, "{line}");
        }
    }

    #[test]
    fn legacy_stats_frames_parse_as_single_shard_and_unguided() {
        let line = r#"{"ok":1,"tenants":[],"nodes":[]}"#;
        let resp = Response::from_json(line).expect("legacy stats frame");
        assert_eq!(
            resp,
            Response::Stats { tenants: vec![], nodes: vec![], shards: 1, guided: None }
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_wire_errors() {
        for line in [
            "not json",
            r#"{"tenant":"t"}"#,
            r#"{"op":"warp","tenant":"t"}"#,
            r#"{"op":"alloc","tenant":"t"}"#,
            r#"{"op":"alloc","tenant":"t","size":-1}"#,
            r#"{"op":"alloc","tenant":"t","size":4096,"criterion":"speed"}"#,
            r#"{"op":"register","tenant":"t","quota":[["fast",1]]}"#,
            r#"{"op":"free","tenant":"t"}"#,
            r#"{"op":"forward","origin":4294967296,"tenant":"t","size":4096}"#,
            r#"{"op":"alloc","tenant":"t","size":4096,"label":5}"#,
        ] {
            assert!(matches!(Request::from_json(line), Err(ServiceError::Wire(_))), "{line}");
        }
    }

    #[test]
    fn malformed_responses_are_rejected_with_wire_errors() {
        for line in [
            // A tenant's `held` entry that is not a [kind, bytes] pair.
            r#"{"ok":1,"tenants":[{"id":1,"name":"a","priority":"normal","held":[[]],"admits":0,"clamps":0,"stalls":0}],"nodes":[]}"#,
            // A discriminating key with an ill-typed value is not `freed`.
            r#"{"ok":1,"renewed":"x"}"#,
            r#"{"ok":1,"lease":0,"size":4096,"placement":[[4]],"fast_bytes":0}"#,
            r#"{"ok":1,"broker":0,"epoch":0,"tiers":[["hbm",1]]}"#,
            r#"{"ok":1,"tenants":[],"nodes":[[0,1]]}"#,
            // Two discriminating keys name two kinds.
            r#"{"ok":1,"tenant_id":1,"lease":0,"size":0,"placement":[],"fast_bytes":0}"#,
            // A present optional field must still be well typed.
            r#"{"ok":0,"code":5,"error":"x"}"#,
            r#"{"ok":"1"}"#,
            "[1]",
        ] {
            assert!(matches!(Response::from_json(line), Err(ServiceError::Wire(_))), "{line}");
        }
    }

    #[test]
    fn vocabulary_roundtrips() {
        for id in [
            attr::BANDWIDTH,
            attr::LATENCY,
            attr::CAPACITY,
            attr::LOCALITY,
            attr::READ_BANDWIDTH,
            attr::WRITE_BANDWIDTH,
            attr::READ_LATENCY,
            attr::WRITE_LATENCY,
        ] {
            assert_eq!(criterion_from_name(criterion_name(id)), Some(id));
        }
        for f in [Fallback::Strict, Fallback::NextTarget, Fallback::PartialSpill] {
            assert_eq!(fallback_from_name(fallback_name(f)), Some(f));
        }
        for k in [
            MemoryKind::Dram,
            MemoryKind::Hbm,
            MemoryKind::Nvdimm,
            MemoryKind::NetworkAttached,
            MemoryKind::GpuMemory,
        ] {
            assert_eq!(kind_from_name(kind_name(k)), Some(k));
        }
        // Aliases and case rules: kind, criterion and fallback ignore
        // ASCII case; priority does not.
        assert_eq!(kind_from_name("mcdram"), Some(MemoryKind::Hbm));
        assert_eq!(kind_from_name("pmem"), Some(MemoryKind::Nvdimm));
        assert_eq!(kind_from_name("HBM"), Some(MemoryKind::Hbm));
        assert_eq!(criterion_from_name("Bandwidth"), Some(attr::BANDWIDTH));
        assert_eq!(fallback_from_name("SPILL"), Some(Fallback::PartialSpill));
        assert_eq!(Priority::from_str_opt("LATENCY"), None);
        assert_eq!(kind_from_name("fast"), None);
        assert_eq!(criterion_name(attr::FIRST_CUSTOM), "capacity");
    }
}
