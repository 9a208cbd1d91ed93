//! The machinery behind the event table in the crate root: the field
//! codec every event field is written through, and the macros that
//! turn the table into the public structs, [`crate::Event`],
//! [`crate::EVENT_KINDS`] and both encodings (compact records and
//! JSON lines).
//!
//! A field's compact form is always its type's [`Codec`]. Its JSON
//! form is too, unless the table names an override module
//! (`field: Type as module`) with its own `to_json`/`from_json` — the
//! way serde's `with` does.

use crate::compact::{put_f64, put_str, put_u64, CodecError, Cursor};
use crate::json::{JsonValue, ParseError};
use crate::{FallbackMode, Scope};
use hetmem_topology::NodeId;

/// How one field value is written in both encodings.
pub(crate) trait Codec: Sized {
    /// Appends the compact form.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the compact form back.
    fn get(c: &mut Cursor<'_>) -> Result<Self, CodecError>;
    /// The JSON value; `None` omits the key.
    fn to_json(&self) -> Option<JsonValue>;
    /// Parses the JSON value; `v` is `None` when the key is absent.
    fn from_json(v: Option<&JsonValue>) -> Result<Self, ParseError>;
}

fn need(v: Option<&JsonValue>) -> Result<&JsonValue, ParseError> {
    v.ok_or_else(|| ParseError::new("missing field"))
}

/// Reads field `key` of the JSON object `obj` with `parse`; when the
/// key is absent and required, the error names it.
pub(crate) fn field<T>(
    obj: &JsonValue,
    key: &str,
    parse: fn(Option<&JsonValue>) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let v = obj.get(key);
    parse(v.as_ref().ok()).map_err(|e| v.err().unwrap_or(e))
}

impl Codec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<u64, CodecError> {
        c.u64()
    }
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::num(*self as f64))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<u64, ParseError> {
        need(v)?.u64()
    }
}

impl Codec for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, u64::from(*self));
    }
    fn get(c: &mut Cursor<'_>) -> Result<u32, CodecError> {
        c.u32()
    }
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::num(f64::from(*self)))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<u32, ParseError> {
        let n = need(v)?.u64()?;
        u32::try_from(n).map_err(|_| ParseError::new(format!("{n} overflows u32")))
    }
}

impl Codec for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<f64, CodecError> {
        c.f64()
    }
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::num(*self))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<f64, ParseError> {
        need(v)?.f64()
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(c: &mut Cursor<'_>) -> Result<String, CodecError> {
        c.str()
    }
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::str(self))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<String, ParseError> {
        need(v)?.string()
    }
}

impl Codec for NodeId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<NodeId, CodecError> {
        c.node()
    }
    fn to_json(&self) -> Option<JsonValue> {
        self.0.to_json()
    }
    fn from_json(v: Option<&JsonValue>) -> Result<NodeId, ParseError> {
        u32::from_json(v).map(NodeId)
    }
}

/// One placement entry: `[node, bytes]` in JSON.
impl Codec for (NodeId, u64) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut Cursor<'_>) -> Result<(NodeId, u64), CodecError> {
        Ok((c.node()?, c.u64()?))
    }
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::Array(vec![self.0.to_json()?, self.1.to_json()?]))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<(NodeId, u64), ParseError> {
        match need(v)?.array()? {
            [node, bytes] => Ok((NodeId::from_json(Some(node))?, u64::from_json(Some(bytes))?)),
            _ => Err(ParseError::new("placement pair must have two entries")),
        }
    }
}

/// A length-prefixed list; a JSON array.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        self.iter().for_each(|item| item.put(out));
    }
    fn get(c: &mut Cursor<'_>) -> Result<Vec<T>, CodecError> {
        (0..c.u64()?).map(|_| T::get(c)).collect()
    }
    fn to_json(&self) -> Option<JsonValue> {
        Some(JsonValue::Array(self.iter().filter_map(T::to_json).collect()))
    }
    fn from_json(v: Option<&JsonValue>) -> Result<Vec<T>, ParseError> {
        need(v)?.array()?.iter().map(|item| T::from_json(Some(item))).collect()
    }
}

/// A flag byte then the value; JSON `null` for `None`.
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

/// A closed set of values: one byte (the value's index in `NAMES`) in
/// compact form, its name in JSON.
pub(crate) trait Named: Copy + PartialEq + 'static {
    const NAMES: &'static [(Self, &'static str)];
}

impl<T: Named> Codec for T {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(T::NAMES.iter().position(|(v, _)| v == self).expect("named value") as u8);
    }
    fn get(c: &mut Cursor<'_>) -> Result<T, CodecError> {
        let byte = c.take(1)?[0];
        let entry = T::NAMES.get(usize::from(byte));
        entry.map(|&(v, _)| v).ok_or_else(|| CodecError::new(format!("bad enum byte {byte}")))
    }
    fn to_json(&self) -> Option<JsonValue> {
        name_of(T::NAMES, self)
    }
    fn from_json(v: Option<&JsonValue>) -> Result<T, ParseError> {
        value_of(T::NAMES, v)
    }
}

fn name_of<T: PartialEq>(names: &[(T, &str)], v: &T) -> Option<JsonValue> {
    names.iter().find(|(x, _)| x == v).map(|(_, name)| JsonValue::str(name))
}

fn value_of<T: Copy>(names: &[(T, &str)], v: Option<&JsonValue>) -> Result<T, ParseError> {
    let name = need(v)?.string()?;
    let entry = names.iter().find(|(_, n)| *n == name);
    entry.map(|&(v, _)| v).ok_or_else(|| ParseError::new(format!("unknown value {name:?}")))
}

impl Named for bool {
    const NAMES: &'static [(bool, &'static str)] = &[(false, "no"), (true, "yes")];
}

impl Named for Scope {
    const NAMES: &'static [(Scope, &'static str)] = &[(Scope::Local, "local"), (Scope::Any, "any")];
}

impl Named for FallbackMode {
    const NAMES: &'static [(FallbackMode, &'static str)] = &[
        (FallbackMode::Strict, "strict"),
        (FallbackMode::NextTarget, "next_target"),
        (FallbackMode::PartialSpill, "partial_spill"),
    ];
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
    const NAMES: &[(bool, &str)] = &[(false, "demote"), (true, "promote")];
    pub fn to_json(v: &bool) -> Option<JsonValue> {
        name_of(NAMES, v)
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<bool, ParseError> {
        value_of(NAMES, v)
    }
}

/// Override: an optional string whose `None` omits the key.
pub(crate) mod omit_none {
    use super::*;
    pub fn to_json(v: &Option<String>) -> Option<JsonValue> {
        v.as_deref().map(JsonValue::str)
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<Option<String>, ParseError> {
        v.map(JsonValue::string).transpose()
    }
}

/// Override: a `u32` whose absent key parses as 0. Broker ids came
/// with federation; older traces are standalone (broker 0).
pub(crate) mod or_zero {
    use super::*;
    pub fn to_json(v: &u32) -> Option<JsonValue> {
        v.to_json()
    }
    pub fn from_json(v: Option<&JsonValue>) -> Result<u32, ParseError> {
        v.map_or(Ok(0), |v| u32::from_json(Some(v)))
    }
}

/// The JSON function `$f` of a table field: its override module's when
/// one is named, else its type's [`Codec`].
macro_rules! json_fn {
    ($f:ident, $ty:ty) => {
        <$ty as $crate::schema::Codec>::$f
    };
    ($f:ident, $ty:ty, $with:ident) => {
        $crate::schema::$with::$f
    };
}

/// Declares records: public structs that derive `Debug`, `Clone` and
/// `PartialEq` (plus any derives given) and whose fields, in order,
/// are their JSON keys and their compact byte order. A field is
/// `name: Type`, optionally renamed in JSON (`name("key")`) and
/// optionally given an override module (`as module`).
macro_rules! record {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident $(($key:literal))? : $ty:ty $(as $with:ident)?,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::schema::Codec for $name {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::schema::Codec::put(&self.$field, out);)*
            }
            fn get(
                c: &mut $crate::compact::Cursor<'_>,
            ) -> Result<$name, $crate::compact::CodecError> {
                Ok($name { $($field: <$ty as $crate::schema::Codec>::get(c)?,)* })
            }
            fn to_json(&self) -> Option<$crate::json::JsonValue> {
                let mut fields = Vec::new();
                $(
                    // The key is the rename when one is given, else the name.
                    let key = [$($key,)? stringify!($field)][0].to_string();
                    if let Some(value) = json_fn!(to_json, $ty $(, $with)?)(&self.$field) {
                        fields.push((key, value));
                    }
                )*
                Some($crate::json::JsonValue::Object(fields))
            }
            fn from_json(
                v: Option<&$crate::json::JsonValue>,
            ) -> Result<$name, $crate::json::ParseError> {
                let obj = v.ok_or_else(|| $crate::json::ParseError::new("missing record"))?;
                Ok($name {$(
                    $field: $crate::schema::field(
                        obj,
                        [$($key,)? stringify!($field)][0],
                        json_fn!(from_json, $ty $(, $with)?),
                    )?,
                )*})
            }
        }
    )*};
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
                    $(Event::$variant(e) => $crate::schema::Codec::to_json(e),)*
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
                    $($kind => Ok(Event::$variant($crate::schema::Codec::from_json(Some(&v))?)),)*
                    other => Err($crate::json::ParseError::new(format!(
                        "unknown event kind {other:?}"
                    ))),
                }
            }
        }
    };
}
