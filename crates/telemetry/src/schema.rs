//! The machinery behind the schema tables — the event table in the
//! crate root and the wire-frame table in `hetmem-service`: the field
//! codecs every table field is written through, and the macros that
//! turn a table into public types and their encodings.
//!
//! A field's JSON form is its type's [`JsonCodec`], unless the table
//! names an override module (`field: Type as module`) with its own
//! `to_json`/`from_json` — the way serde's `with` does. A field may
//! also give a default (`field: Type = expr`) that an absent key reads
//! as. The compact form (events only) is always the type's `Codec`.

use crate::compact::{put_f64, put_str, put_u64, CodecError, Cursor};
use crate::json::{JsonValue, ParseError};
use crate::{FallbackMode, Scope};
use hetmem_topology::{MemoryKind, NodeId};
use std::collections::BTreeMap;

/// How one field value is written in JSON.
pub trait JsonCodec: Sized {
    /// The JSON value; `None` omits the key.
    fn to_json(&self) -> Option<JsonValue>;
    /// Parses the JSON value; `v` is `None` when the key is absent.
    fn from_json(v: Option<&JsonValue>) -> Result<Self, ParseError>;
}

/// How one field value is written in the compact encoding.
pub(crate) trait Codec: JsonCodec {
    /// Appends the compact form.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the compact form back.
    fn get(c: &mut Cursor<'_>) -> Result<Self, CodecError>;
}

fn need(v: Option<&JsonValue>) -> Result<&JsonValue, ParseError> {
    v.ok_or_else(|| ParseError::new("missing field"))
}

/// Reads field `key` of the JSON object `obj` with `parse`. An absent
/// key reads as `default` when one is given; when the field is
/// required, the error names it.
pub fn field<T>(
    obj: &JsonValue,
    key: &str,
    parse: fn(Option<&JsonValue>) -> Result<T, ParseError>,
    default: Option<T>,
) -> Result<T, ParseError> {
    match (obj.lookup(key)?, default) {
        (None, Some(default)) => Ok(default),
        (None, None) => parse(None).map_err(|_| ParseError::new(format!("missing field {key:?}"))),
        (v, _) => parse(v),
    }
}

impl JsonCodec for u64 {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::num(*self as f64))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<u64, ParseError> {
        need(v)?.u64()
    }
}

impl Codec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<u64, CodecError> {
        c.u64()
    }
}

/// Rejects, not truncates, a JSON number beyond `u32`.
impl JsonCodec for u32 {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::num(f64::from(*self)))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<u32, ParseError> {
        let n = need(v)?.u64()?;
        u32::try_from(n).map_err(|_| ParseError::new(format!("{n} overflows u32")))
    }
}

impl Codec for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::from(*self));
    }
    fn get(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
        c.u32()
    }
}

impl JsonCodec for f64 {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::num(*self))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<f64, ParseError> {
        need(v)?.f64()
    }
}

impl Codec for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<f64, CodecError> {
        c.f64()
    }
}

impl JsonCodec for String {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::str(self))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<String, ParseError> {
        need(v)?.string()
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<String, CodecError> {
        c.str()
    }
}

impl JsonCodec for NodeId {
    fn to_json(&self) -> Option<JsonValue> {
        self.0.to_json()
    }
    fn from_json(v: Option<&JsonValue>) -> Result<NodeId, ParseError> {
        u32::from_json(v).map(NodeId)
    }
}

impl Codec for NodeId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<NodeId, CodecError> {
        c.node()
    }
}

/// The entries of a JSON array that must have exactly `N` of them.
fn entries<const N: usize>(v: Option<&JsonValue>) -> Result<&[JsonValue; N], ParseError> {
    let items = need(v)?.array()?;
    items
        .try_into()
        .map_err(|_| ParseError::new(format!("expected {N} entries, got {}", items.len())))
}

/// A pair, e.g. a `(node, bytes)` placement entry: `[a, b]` in JSON.
impl<A: JsonCodec, B: JsonCodec> JsonCodec for (A, B) {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::Array(vec![self.0.to_json()?, self.1.to_json()?]))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<(A, B), ParseError> {
        let [a, b] = entries(v)?;
        Ok((A::from_json(Some(a))?, B::from_json(Some(b))?))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<(A, B), CodecError> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

/// A triple: `[a, b, c]` in JSON.
impl<A: JsonCodec, B: JsonCodec, C: JsonCodec> JsonCodec for (A, B, C) {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::Array(vec![self.0.to_json()?, self.1.to_json()?, self.2.to_json()?]))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<(A, B, C), ParseError> {
        let [a, b, c] = entries(v)?;
        Ok((A::from_json(Some(a))?, B::from_json(Some(b))?, C::from_json(Some(c))?))
    }
}

/// A JSON array.
impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::Array(self.iter().filter_map(T::to_json).collect()))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<Vec<T>, ParseError> {
        need(v)?.array()?.iter().map(|item| T::from_json(Some(item))).collect()
    }
}

/// A length-prefixed list.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        self.iter().for_each(|item| item.put(out));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<T>, CodecError> {
        (0..c.u64()?).map(|_| T::get(c)).collect()
    }
}

/// A map: a JSON array of `[key, value]` pairs in key order.
impl<K: JsonCodec + Ord, V: JsonCodec> JsonCodec for BTreeMap<K, V> {
    fn to_json(&self) -> Option<JsonValue> {
        let pair = |(k, v): (&K, &V)| Some(JsonValue::Array(vec![k.to_json()?, v.to_json()?]));
        Some(JsonValue::Array(self.iter().filter_map(pair).collect()))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<BTreeMap<K, V>, ParseError> {
        Ok(Vec::<(K, V)>::from_json(v)?.into_iter().collect())
    }
}

/// JSON `null` for `None`.
impl<T: JsonCodec> JsonCodec for Option<T> {
    fn to_json(&self) -> Option<JsonValue> {
        self.as_ref().map_or(Some(JsonValue::Null), T::to_json)
    }
    fn from_json(v: Option<&JsonValue>) -> Result<Option<T>, ParseError> {
        match need(v)? {
            JsonValue::Null => Ok(None),
            v => T::from_json(Some(v)).map(Some),
        }
    }
}

/// A flag byte then the value.
impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.is_some() as u8);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(c: &mut Cursor<'_>) -> Result<Option<T>, CodecError> {
        c.bool()?.then(|| T::get(c)).transpose()
    }
}

/// A closed set of values and their names. A value's first entry is
/// its name; later entries for it are aliases that decoding accepts.
pub struct Vocab<T: 'static> {
    /// What a value of the set is called in decode errors.
    pub what: &'static str,
    /// Whether decoding ignores ASCII case.
    pub fold_case: bool,
    /// The `(value, name)` entries.
    pub names: &'static [(T, &'static str)],
}

impl<T: Copy + PartialEq> Vocab<T> {
    /// The name of `v`, `None` when the set lacks it.
    pub fn name(&self, v: T) -> Option<&'static str> {
        self.names.iter().find(|(x, _)| *x == v).map(|&(_, name)| name)
    }

    /// The value `name` (or an alias) spells.
    pub fn value(&self, name: &str) -> Option<T> {
        let spells =
            |n: &str| if self.fold_case { n.eq_ignore_ascii_case(name) } else { n == name };
        self.names.iter().find(|(_, n)| spells(n)).map(|&(v, _)| v)
    }

    /// The name of `v` as a JSON string.
    pub fn to_json(&self, v: T) -> Option<JsonValue> {
        self.name(v).map(JsonValue::str)
    }

    /// Parses a JSON string naming a value; an unknown name is an error.
    pub fn from_json(&self, v: Option<&JsonValue>) -> Result<T, ParseError> {
        let name = need(v)?.string()?;
        self.value(&name).ok_or_else(|| ParseError::new(format!("unknown {} {name:?}", self.what)))
    }
}

/// A type whose values form a [`Vocab`]: its name in JSON, one byte
/// (the value's index in the table) in compact form.
pub trait Named: Copy + PartialEq + 'static {
    /// The set's names.
    const VOCAB: Vocab<Self>;
}

impl<T: Named> JsonCodec for T {
    fn to_json(&self) -> Option<JsonValue> {
        T::VOCAB.to_json(*self)
    }
    fn from_json(v: Option<&JsonValue>) -> Result<T, ParseError> {
        T::VOCAB.from_json(v)
    }
}

impl<T: Named> Codec for T {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(T::VOCAB.names.iter().position(|(v, _)| v == self).expect("named value") as u8);
    }
    fn get(c: &mut Cursor<'_>) -> Result<T, CodecError> {
        let byte = c.take(1)?[0];
        let entry = T::VOCAB.names.get(usize::from(byte));
        entry.map(|&(v, _)| v).ok_or_else(|| CodecError::new(format!("bad enum byte {byte}")))
    }
}

impl Named for bool {
    const VOCAB: Vocab<bool> =
        Vocab { what: "flag", fold_case: false, names: &[(false, "no"), (true, "yes")] };
}

impl Named for Scope {
    const VOCAB: Vocab<Scope> = Vocab {
        what: "scope",
        fold_case: false,
        names: &[(Scope::Local, "local"), (Scope::Any, "any")],
    };
}

impl Named for FallbackMode {
    const VOCAB: Vocab<FallbackMode> = Vocab {
        what: "fallback mode",
        fold_case: false,
        names: &[
            (FallbackMode::Strict, "strict"),
            (FallbackMode::NextTarget, "next_target"),
            (FallbackMode::PartialSpill, "partial_spill"),
        ],
    };
}

/// Memory kinds by their scenario-DSL and wire names, which ignore
/// case; `mcdram` and `pmem` are aliases.
impl Named for MemoryKind {
    const VOCAB: Vocab<MemoryKind> = Vocab {
        what: "memory kind",
        fold_case: true,
        names: &[
            (MemoryKind::Dram, "dram"),
            (MemoryKind::Hbm, "hbm"),
            (MemoryKind::Nvdimm, "nvdimm"),
            (MemoryKind::NetworkAttached, "nam"),
            (MemoryKind::GpuMemory, "gpu"),
            (MemoryKind::Hbm, "mcdram"),
            (MemoryKind::Nvdimm, "pmem"),
        ],
    };
}

/// Override: an attribute id, written by name ([`crate::attr_name`]).
pub(crate) mod attr {
    use super::*;
    pub fn to_json(v: &u32) -> Option<JsonValue> {
        Some(JsonValue::str(&crate::attr_name(*v)))
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<u32, ParseError> {
        crate::attr_id(&need(v)?.string()?)
    }
}

/// Override: a promotion flag, written `"promote"`/`"demote"`.
pub(crate) mod action {
    use super::*;
    const ACTIONS: Vocab<bool> =
        Vocab { what: "action", fold_case: false, names: &[(false, "demote"), (true, "promote")] };
    pub fn to_json(v: &bool) -> Option<JsonValue> {
        ACTIONS.to_json(*v)
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<bool, ParseError> {
        ACTIONS.from_json(v)
    }
}

/// Override: an optional value whose `None` omits the key.
pub mod omit_none {
    use super::*;
    /// The value's JSON, or nothing for `None`.
    pub fn to_json<T: JsonCodec>(v: &Option<T>) -> Option<JsonValue> {
        v.as_ref().and_then(T::to_json)
    }
    /// `None` for an absent key, else the value.
    pub fn from_json<T: JsonCodec>(v: Option<&JsonValue>) -> Result<Option<T>, ParseError> {
        v.map(|v| T::from_json(Some(v))).transpose()
    }
}

/// The JSON function `$f` of a table field: its override module's when
/// one is named, else its type's [`schema::JsonCodec`](crate::schema::JsonCodec).
#[doc(hidden)]
#[macro_export]
macro_rules! json_fn {
    ($f:ident, $ty:ty) => {
        <$ty as $crate::schema::JsonCodec>::$f
    };
    ($f:ident, $ty:ty, $with:ident) => {
        $with::$f
    };
}

/// One table field in JSON. `put` pushes the field's `(key, value)`
/// for the reference `$value` onto the list `$fields`, unless its codec
/// omits it; `take` reads the field from the object `$obj`.
#[doc(hidden)]
#[macro_export]
macro_rules! json_field {
    (put $fields:ident, $value:expr;
        $field:ident $(($key:literal))? : $ty:ty $(as $with:ident)? $(= $default:expr)?) => {
        // The key is the rename when one is given, else the name.
        if let Some(value) = $crate::json_fn!(to_json, $ty $(, $with)?)($value) {
            $fields.push(([$($key,)? stringify!($field)][0].to_string(), value));
        }
    };
    (take $obj:expr;
        $field:ident $(($key:literal))? : $ty:ty $(as $with:ident)? $(= $default:expr)?) => {
        $crate::schema::field(
            $obj,
            [$($key,)? stringify!($field)][0],
            $crate::json_fn!(from_json, $ty $(, $with)?),
            // `Some(default)` when the table gives one.
            None $(.or(Some($default)))?,
        )
    };
}

/// Declares records: public structs that derive `Debug`, `Clone` and
/// `PartialEq` (plus any derives given) and whose JSON form is an
/// object with one key per field, in order. A field is `name: Type`,
/// optionally renamed in JSON (`name("key")`), optionally given an
/// override module (`as module`, resolved where the table is) and
/// optionally given a default for an absent key (`= expr`).
#[macro_export]
macro_rules! json_record {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])*
              $field:ident $(($key:literal))? : $ty:ty $(as $with:ident)? $(= $default:expr)?,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::schema::JsonCodec for $name {
            fn to_json(&self) -> Option<$crate::json::JsonValue> {
                let mut fields = Vec::new();
                $($crate::json_field!(
                    put fields, &self.$field; $field $(($key))? : $ty $(as $with)? $(= $default)?
                );)*
                Some($crate::json::JsonValue::Object(fields))
            }
            fn from_json(
                v: Option<&$crate::json::JsonValue>,
            ) -> Result<$name, $crate::json::ParseError> {
                let obj = v.ok_or_else(|| $crate::json::ParseError::new("missing record"))?;
                Ok($name {$(
                    $field: $crate::json_field!(
                        take obj; $field $(($key))? : $ty $(as $with)? $(= $default)?
                    )?,
                )*})
            }
        }
    )*};
}

/// Declares [`json_record!`] records that also have a compact form:
/// their fields' `Codec`s, in order.
macro_rules! record {
    ($($(#[$meta:meta])* pub struct $name:ident { $($body:tt)* })*) => {
        $crate::json_record! {$($(#[$meta])* pub struct $name { $($body)* })*}
        $(record!(@compact $name $($body)*);)*
    };
    (@compact $name:ident $($(#[$fmeta:meta])*
        $field:ident $(($key:literal))? : $ty:ty $(as $with:ident)? $(= $default:expr)?,)*) => {
        impl $crate::schema::Codec for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::schema::Codec::put(&self.$field, out);)*
            }
            fn get(
                c: &mut $crate::compact::Cursor<'_>,
            ) -> Result<$name, $crate::compact::CodecError> {
                Ok($name { $($field: <$ty as $crate::schema::Codec>::get(c)?,)* })
            }
        }
    };
}

/// Declares the event table: each entry is an [`crate::Event`]
/// variant (with its doc comment) and its `event` kind string,
/// followed by the [`record!`] struct it carries. An entry's position
/// is its compact kind byte.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])* $variant:ident($kind:literal)
        $(#[$smeta:meta])* pub struct $name:ident { $($body:tt)* }
    )*) => {
        record! {$($(#[$smeta])* pub struct $name { $($body)* })*}

        /// A telemetry event.
        #[derive(Debug, Clone, PartialEq)]
        #[non_exhaustive]
        pub enum Event {
            $($(#[$vmeta])* $variant($name),)*
        }

        /// The `event` field value of every [`Event`] variant, in
        /// declaration order. `docs/PROTOCOL.md` coverage tests
        /// enumerate this list so the spec cannot silently fall behind
        /// the enum.
        pub const EVENT_KINDS: &[&str] = &[$($kind),*];

        /// Each variant's position in the table.
        #[repr(u8)]
        enum KindByte {
            $($variant,)*
        }

        impl Event {
            /// The `event` field value this variant encodes to — one of
            /// [`EVENT_KINDS`].
            ///
            /// ```
            /// use hetmem_telemetry::{Event, LeaseExpired, EVENT_KINDS};
            /// let e = Event::LeaseExpired(LeaseExpired {
            ///     broker: 0,
            ///     tenant: "graph500".into(),
            ///     lease: 7,
            ///     ttl_epochs: 5,
            /// });
            /// assert_eq!(e.kind(), "lease_expired");
            /// assert!(EVENT_KINDS.contains(&e.kind()));
            /// ```
            pub fn kind(&self) -> &'static str {
                EVENT_KINDS[usize::from(self.kind_byte())]
            }

            /// The compact kind byte: this variant's index in
            /// [`EVENT_KINDS`].
            pub(crate) fn kind_byte(&self) -> u8 {
                match self {
                    $(Event::$variant(_) => KindByte::$variant as u8,)*
                }
            }

            /// Appends the compact form of the carried record.
            pub(crate) fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $(Event::$variant(e) => $crate::schema::Codec::put(e, out),)*
                }
            }

            /// Reads the compact form of the record a `kind` byte names.
            pub(crate) fn get_fields(
                kind: u64,
                c: &mut $crate::compact::Cursor<'_>,
            ) -> Result<Event, $crate::compact::CodecError> {
                $(if kind == KindByte::$variant as u64 {
                    return Ok(Event::$variant($crate::schema::Codec::get(c)?));
                })*
                Err($crate::compact::CodecError::new(format!("unknown kind byte {kind}")))
            }

            /// Encodes the event as a single-line JSON object.
            pub fn to_json(&self) -> String {
                use $crate::json::JsonValue;
                let body = match self {
                    $(Event::$variant(e) => $crate::schema::JsonCodec::to_json(e),)*
                };
                let mut fields = vec![("event".to_string(), JsonValue::str(self.kind()))];
                if let Some(JsonValue::Object(body)) = body {
                    fields.extend(body);
                }
                JsonValue::Object(fields).render()
            }

            /// Parses one JSON line produced by [`Event::to_json`].
            pub fn from_json(line: &str) -> Result<Event, $crate::json::ParseError> {
                let v = $crate::json::parse(line)?;
                match v.get("event")?.string()?.as_str() {
                    $($kind => Ok(Event::$variant($crate::schema::JsonCodec::from_json(Some(&v))?)),)*
                    other => Err($crate::json::ParseError::new(format!(
                        "unknown event kind {other:?}"
                    ))),
                }
            }
        }
    };
}
