//! The tenant model: who is asking for memory and what they are
//! entitled to.

use hetmem_telemetry::json::JsonValue;
use hetmem_telemetry::schema::{JsonCodec, Named, Vocab};
use hetmem_telemetry::ParseError;
use hetmem_topology::MemoryKind;
use std::collections::BTreeMap;

/// Opaque tenant handle issued by [`crate::Broker::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A tenant id is its number in JSON.
impl JsonCodec for TenantId {
    fn to_json(&self) -> Option<JsonValue> {
        self.0.to_json()
    }
    fn from_json(v: Option<&JsonValue>) -> Result<TenantId, ParseError> {
        u32::from_json(v).map(TenantId)
    }
}

/// Priority class of a tenant. Classes map to arbitration weights —
/// they scale the tenant's fair share of each memory tier, they never
/// preempt: an admitted lease is held until released regardless of who
/// asks later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive, e.g. a graph kernel whose pointer chases
    /// stall the critical path. Weight 4.
    Latency,
    /// Ordinary throughput job. Weight 2.
    #[default]
    Normal,
    /// Best-effort batch work, happy to run from slow memory. Weight 1.
    Batch,
}

impl Priority {
    /// The arbitration weight of this class.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Latency => 4,
            Priority::Normal => 2,
            Priority::Batch => 1,
        }
    }

    /// Stable lowercase name (wire format and DSL spelling).
    pub fn as_str(self) -> &'static str {
        Priority::VOCAB.name(self).expect("every priority has a name")
    }

    /// Parses the wire/DSL spelling produced by [`Priority::as_str`];
    /// unlike memory kinds, criteria and fallbacks, case matters.
    pub fn from_str_opt(s: &str) -> Option<Priority> {
        Priority::VOCAB.value(s)
    }
}

impl Named for Priority {
    const VOCAB: Vocab<Priority> = Vocab {
        what: "priority",
        fold_case: false,
        names: &[
            (Priority::Latency, "latency"),
            (Priority::Normal, "normal"),
            (Priority::Batch, "batch"),
        ],
    };
}

/// Registration request for one tenant, built fluently like
/// `AllocRequest`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    name: String,
    priority: Priority,
    quota: BTreeMap<MemoryKind, u64>,
    reserve: BTreeMap<MemoryKind, u64>,
    lease_ttl: Option<u64>,
}

impl TenantSpec {
    /// A tenant named `name` with [`Priority::Normal`], no quota, no
    /// reservation, and no default lease TTL (leases live until
    /// released).
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            priority: Priority::default(),
            quota: BTreeMap::new(),
            reserve: BTreeMap::new(),
            lease_ttl: None,
        }
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: Priority) -> TenantSpec {
        self.priority = priority;
        self
    }

    /// Hard per-tier cap: the tenant never holds more than `bytes` on
    /// `kind` memory, even when the tier is idle.
    pub fn quota(mut self, kind: MemoryKind, bytes: u64) -> TenantSpec {
        self.quota.insert(kind, bytes);
        self
    }

    /// Guaranteed floor: `bytes` of `kind` memory are always
    /// admissible for this tenant — other tenants may only borrow the
    /// tier's surplus beyond everyone's floors.
    pub fn reserve(mut self, kind: MemoryKind, bytes: u64) -> TenantSpec {
        self.reserve.insert(kind, bytes);
        self
    }

    /// The tenant name.
    pub fn get_name(&self) -> &str {
        &self.name
    }

    /// The priority class.
    pub fn get_priority(&self) -> Priority {
        self.priority
    }

    /// The per-tier quota map.
    pub fn get_quota(&self) -> &BTreeMap<MemoryKind, u64> {
        &self.quota
    }

    /// Default lease TTL in service epochs: every lease this tenant
    /// acquires expires `epochs` ticks after its grant (or last
    /// renewal) unless a `renew`/`heartbeat` arrives first. Without a
    /// TTL a crashed client leaks its quota forever; with one, the
    /// broker reclaims it within one TTL of the client going silent.
    ///
    /// ```
    /// use hetmem_service::TenantSpec;
    /// let spec = TenantSpec::new("stream").lease_ttl(5);
    /// assert_eq!(spec.get_lease_ttl(), Some(5));
    /// ```
    pub fn lease_ttl(mut self, epochs: u64) -> TenantSpec {
        self.lease_ttl = Some(epochs);
        self
    }

    /// The default lease TTL in epochs, if one is set.
    pub fn get_lease_ttl(&self) -> Option<u64> {
        self.lease_ttl
    }

    /// The per-tier reservation map.
    pub fn get_reserve(&self) -> &BTreeMap<MemoryKind, u64> {
        &self.reserve
    }
}

/// Internal registry record for one tenant.
#[derive(Debug, Clone)]
pub(crate) struct TenantState {
    pub(crate) name: String,
    pub(crate) priority: Priority,
    pub(crate) quota: BTreeMap<MemoryKind, u64>,
    pub(crate) reserve: BTreeMap<MemoryKind, u64>,
    /// Default TTL applied to this tenant's leases, in epochs.
    pub(crate) lease_ttl: Option<u64>,
    /// Admissions granted (lifetime counter).
    pub(crate) admits: u64,
    /// Quota clamps suffered (lifetime counter).
    pub(crate) clamps: u64,
    /// Contention stalls charged (lifetime counter).
    pub(crate) stalls: u64,
}

hetmem_telemetry::json_record! {
    /// Public snapshot of one tenant's standing, returned by
    /// [`crate::Broker::tenants`] and the wire `stats` op.
    #[derive(Eq)]
    pub struct TenantStats {
        /// Tenant id.
        id: TenantId,
        /// Tenant name.
        name: String,
        /// Priority class.
        priority: Priority,
        /// Live bytes held per tier.
        held: BTreeMap<MemoryKind, u64>,
        /// Admissions granted so far.
        admits: u64,
        /// Quota clamps suffered so far.
        clamps: u64,
        /// Contention stalls charged so far.
        stalls: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_weights_and_names_roundtrip() {
        for p in [Priority::Latency, Priority::Normal, Priority::Batch] {
            assert_eq!(Priority::from_str_opt(p.as_str()), Some(p));
        }
        assert!(Priority::Latency.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Batch.weight());
        assert_eq!(Priority::from_str_opt("urgent"), None);
    }

    #[test]
    fn spec_builder_accumulates() {
        let s = TenantSpec::new("stream")
            .priority(Priority::Batch)
            .quota(MemoryKind::Hbm, 1 << 30)
            .reserve(MemoryKind::Dram, 2 << 30);
        assert_eq!(s.get_name(), "stream");
        assert_eq!(s.get_priority(), Priority::Batch);
        assert_eq!(s.get_quota().get(&MemoryKind::Hbm), Some(&(1 << 30)));
        assert_eq!(s.get_reserve().get(&MemoryKind::Dram), Some(&(2 << 30)));
    }
}
