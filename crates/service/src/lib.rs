#![warn(missing_docs)]
//! hetmem-service: a multi-tenant allocation broker for heterogeneous
//! memory.
//!
//! The paper's attribute machinery answers *where* a buffer should go
//! for one application. On production machines the fast tier (MCDRAM,
//! HBM) is shared by several jobs at once, and uncoordinated
//! first-come-first-served allocation lets one bandwidth-hungry tenant
//! starve everyone else. This crate adds the missing coordination
//! point:
//!
//! * [`Broker`] — owns a shared [`hetmem_memsim::MemoryManager`]
//!   behind per-NUMA-node lock striping and serves
//!   [`hetmem_alloc::AllocRequest`]s from concurrent clients.
//! * [`TenantSpec`] / [`Priority`] — the tenant model: priority class
//!   plus optional per-tier quota (hard cap) and reservation
//!   (guaranteed floor).
//! * [`ArbitrationPolicy`] — fair-share (weighted, work-conserving),
//!   FCFS, or static partitioning; admission uses the same attribute
//!   rankings as the single-tenant allocator and emits `TenantAdmit` /
//!   `QuotaClamp` telemetry.
//! * [`wire`] / [`server`] — a JSONL request/response protocol over a
//!   Unix or TCP socket with a thread-per-connection pool and
//!   per-tick request batching (`hetmem-serve` binary).
//! * [`TrafficBoard`] — contention feedback: co-located tenants that
//!   saturate a node charge each other bandwidth-degradation stalls,
//!   surfaced as `ContentionStall` events.
//! * [`shard`] — the sharded dispatch plane: per-shard admission
//!   queues ([`ShardConfig`]; in the server, each is served by
//!   whichever connection thread holds its dispatch token),
//!   consecutive same-tenant requests coalesced into single planning
//!   walks (`BatchCoalesced`), and work stealing from loaded siblings
//!   (`ShardSteal`), with arbitration outcomes byte-identical to the
//!   single-dispatcher plane. The server and [`ShardCore`] run the
//!   same assignment, steal and grouping rules.
//! * Lease lifecycle — leases may carry a TTL in service epochs
//!   ([`TenantSpec::lease_ttl`]) with heartbeat renewal over the wire;
//!   a silent or disconnected tenant's capacity is reclaimed within
//!   one TTL, and tiers marked degraded fall to last-resort rank so
//!   placement degrades gracefully instead of hard-failing. The wire
//!   protocol is specified in `docs/PROTOCOL.md`; failure handling and
//!   tuning live in `docs/OPERATIONS.md`.

mod board;
mod broker;
pub mod server;
pub mod shard;
mod tenant;
pub mod wire;

pub use board::{TrafficBoard, STEAL_WARN_EPOCHS, STEAL_WARN_RATE};
pub use broker::guidance::GuidedConfig;
pub use broker::{
    ArbitrationPolicy, Broker, BrokerState, Lease, LeaseEntry, LeaseId, RobustnessStats,
    ServedPhase, StripeEntry, TenantEntry, MAX_CONTENTION_SLOWDOWN,
};
pub use shard::{ShardConfig, ShardCore};
pub use tenant::{Priority, TenantId, TenantSpec, TenantStats};

/// Declares [`ServiceError`] as one table of variants, each with its
/// stable wire code, and generates [`ERROR_CODES`] and
/// [`ServiceError::code`] from it, so a variant and its code are one
/// entry.
macro_rules! service_errors {
    (
        $(#[$meta:meta])*
        pub enum ServiceError {$(
            $(#[$vmeta:meta])*
            $variant:ident $(($($tuple:ty),*))? $({ $($body:tt)* })? => $code:literal,
        )*}
    ) => {
        $(#[$meta])*
        pub enum ServiceError {$(
            $(#[$vmeta])*
            $variant $(($($tuple),*))? $({ $($body)* })?,
        )*}

        /// Stable wire codes for every [`ServiceError`] variant, in
        /// declaration order — the `code` field of an error response
        /// frame. `docs/PROTOCOL.md` coverage tests enumerate this list.
        pub const ERROR_CODES: &[&str] = &[$($code),*];

        impl ServiceError {
            /// The stable wire code of this error — one of [`ERROR_CODES`].
            ///
            /// ```
            /// use hetmem_service::{ServiceError, ERROR_CODES};
            /// let e = ServiceError::UnknownLease(7);
            /// assert_eq!(e.code(), "unknown_lease");
            /// assert!(ERROR_CODES.contains(&e.code()));
            /// ```
            pub fn code(&self) -> &'static str {
                match self {$(ServiceError::$variant { .. } => $code,)*}
            }
        }
    };
}

service_errors! {
    /// Everything that can go wrong between a wire request and a lease.
    #[derive(Debug, Clone, PartialEq, Eq)]
    #[non_exhaustive]
    pub enum ServiceError {
        /// The tenant id or name is not registered.
        UnknownTenant(String) => "unknown_tenant",
        /// A tenant with this name already exists.
        DuplicateTenant(String) => "duplicate_tenant",
        /// The lease id does not refer to a live lease.
        UnknownLease(u64) => "unknown_lease",
        /// Registering this reservation would oversubscribe a tier.
        Reservation {
            /// The oversubscribed tier.
            kind: hetmem_topology::MemoryKind,
            /// Bytes the new tenant asked to reserve.
            requested: u64,
            /// Bytes still unreserved on the tier.
            available: u64,
        } => "reservation",
        /// Attribute ranking produced no usable candidates.
        Ranking(String) => "ranking",
        /// The arbiter could not admit the full request under the active
        /// policy and fallback mode. Nothing was committed.
        Admission {
            /// Bytes requested.
            requested: u64,
            /// Bytes the arbiter could have granted.
            granted: u64,
        } => "admission",
        /// The memory manager rejected the admitted plan (a broker bug or
        /// a race with an unmanaged allocation path).
        Commit(String) => "commit",
        /// A malformed wire request.
        Wire(String) => "wire",
        /// Socket-level failure.
        Io(String) => "io",
        /// The lease aged out: its TTL elapsed without a renewal and the
        /// capacity was reclaimed.
        LeaseExpired(u64) => "lease_expired",
        /// The broker is transiently refusing allocations (a fault
        /// injection or an operator pause). Safe to retry with backoff.
        Stalled => "stalled",
        /// The per-request deadline elapsed before a response arrived.
        DeadlineExceeded(String) => "deadline",
        /// The request's initiator cpuset is empty after intersection with
        /// the machine cpuset — no CPU could perform the accesses.
        EmptyInitiator => "empty_initiator",
        /// A snapshot could not be captured, decoded, or restored into a
        /// live broker (corrupt state, wrong machine, internal
        /// inconsistency).
        Snapshot(String) => "snapshot",
        /// A federation peer could not be reached for a forward or a
        /// digest exchange (marked down). Safe to retry after the next
        /// gossip round re-ranks the peers.
        PeerUnreachable(u32) => "peer_unreachable",
        /// A forwarded request was refused by the peer because its actual
        /// capacity no longer matches the digest the forwarder ranked on.
        /// The forwarder should refresh its board and re-rank.
        StaleDigest {
            /// The peer whose digest went stale.
            peer: u32,
        } => "stale_digest",
    }
}

impl ServiceError {
    /// Whether retrying the same request later can reasonably succeed
    /// without the caller changing anything. [`server::Client`]'s
    /// retry loop uses this to decide what its backoff applies to.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServiceError::Stalled | ServiceError::Io(_) | ServiceError::DeadlineExceeded(_)
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant(who) => write!(f, "unknown tenant {who}"),
            ServiceError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServiceError::UnknownLease(id) => write!(f, "unknown lease #{id}"),
            ServiceError::Reservation { kind, requested, available } => write!(
                f,
                "reservation of {requested} bytes oversubscribes the {kind:?} tier \
                 ({available} bytes unreserved)"
            ),
            ServiceError::Ranking(why) => write!(f, "attribute ranking failed: {why}"),
            ServiceError::Admission { requested, granted } => write!(
                f,
                "admission denied: {granted} of {requested} bytes admissible under the \
                 arbitration policy"
            ),
            ServiceError::Commit(why) => write!(f, "commit failed: {why}"),
            ServiceError::Wire(why) => write!(f, "bad request: {why}"),
            ServiceError::Io(why) => write!(f, "i/o error: {why}"),
            ServiceError::LeaseExpired(id) => {
                write!(f, "lease #{id} expired and its capacity was reclaimed")
            }
            ServiceError::Stalled => {
                write!(f, "allocation stalled; retry with backoff")
            }
            ServiceError::DeadlineExceeded(what) => {
                write!(f, "deadline exceeded waiting for {what}")
            }
            ServiceError::EmptyInitiator => {
                write!(f, "initiator cpuset is empty after machine intersection")
            }
            ServiceError::Snapshot(why) => write!(f, "snapshot error: {why}"),
            ServiceError::PeerUnreachable(peer) => {
                write!(f, "federation peer #{peer} is unreachable")
            }
            ServiceError::StaleDigest { peer } => {
                write!(f, "peer #{peer} refused the forward: its capacity digest is stale")
            }
        }
    }
}

impl std::error::Error for ServiceError {}
