//! Offline drop-in subset of the [`serde`] + `serde_json` API used by
//! the SmartPAF tree.
//!
//! The build container has no registry access, so — like the
//! `criterion` and `proptest` shims — this crate provides exactly the
//! surface the tree uses: a value-tree serialization model
//! ([`Serialize`] renders a type into a [`json::Value`],
//! [`Deserialize`] reads one back) plus a JSON writer and parser in
//! [`json`]. There is no derive macro and no streaming `Serializer`
//! trait. A record whose wire shape is its field list implements both
//! traits with one [`wire_struct!`] or [`wire_enum!`] invocation, so
//! its format is stated once and the two directions cannot drift:
//! `CkksParams`, `StageTrace`, `TraceReport`, `PipelineDesc`,
//! `StageDesc`, `VectorCost`, `PlannedCandidate` and the plan body.
//! Four types write their traits by hand because their shape is not
//! field-for-field: `PafForm` (a tag string), `Polynomial` (a bare
//! array), `CompositePaf` (its form is set after construction) and
//! `Objective` (a tuple variant). Every on-disk format is specified
//! in `docs/ARTIFACT_FORMAT.md` in the repository root.
//!
//! Two properties the plan registry depends on:
//!
//! - **Exact `f64` round-trips.** Floats are written with Rust's
//!   shortest-round-trip formatting (`{:?}`, which always keeps a
//!   `.0`/exponent marker so a float never collapses into an integer
//!   token) and parsed with `str::parse::<f64>`, so
//!   `from_str(&to_string(v))` reproduces every finite float
//!   bit-for-bit.
//! - **Deterministic output.** Object keys keep insertion order and
//!   the compact writer inserts no whitespace, so equal values always
//!   produce byte-identical JSON — the precondition for
//!   content-addressed artifact keys.
//!
//! [`serde`]: https://docs.rs/serde

pub mod json;

pub use json::{Error, Value};

/// Renders `self` into a JSON value tree.
///
/// The shim's analogue of `serde::Serialize`: instead of driving a
/// streaming `Serializer`, implementations build a [`Value`] directly.
///
/// # Example
///
/// ```
/// use serde::{json, Serialize, Value};
///
/// struct Point {
///     x: f64,
///     y: f64,
/// }
///
/// impl Serialize for Point {
///     fn serialize(&self) -> Value {
///         Value::object([("x", self.x.serialize()), ("y", self.y.serialize())])
///     }
/// }
///
/// let v = Point { x: 1.0, y: -2.5 }.serialize();
/// assert_eq!(json::to_string(&v), r#"{"x":1.0,"y":-2.5}"#);
/// ```
pub trait Serialize {
    /// The JSON value tree representing `self`.
    fn serialize(&self) -> Value;
}

/// Reads `Self` back from a JSON value tree.
///
/// The shim's analogue of `serde::Deserialize`; the borrowed input
/// plays the role of the deserializer.
///
/// # Example
///
/// ```
/// use serde::{json, Deserialize};
///
/// let v = json::from_str("[1.5, 2.5]").unwrap();
/// let xs = Vec::<f64>::deserialize(&v).unwrap();
/// assert_eq!(xs, vec![1.5, 2.5]);
/// ```
pub trait Deserialize: Sized {
    /// Parses `Self` from `value`, reporting shape mismatches as
    /// [`Error`]s.
    fn deserialize(value: &Value) -> Result<Self, Error>;
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_mismatch("bool", other)),
        }
    }
}

impl Serialize for u64 {
    fn serialize(&self) -> Value {
        Value::UInt(*self)
    }
}

impl Deserialize for u64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::UInt(n) => Ok(*n),
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            other => Err(Error::type_mismatch("u64", other)),
        }
    }
}

impl Serialize for u32 {
    fn serialize(&self) -> Value {
        Value::UInt(u64::from(*self))
    }
}

impl Deserialize for u32 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let n = u64::deserialize(value)?;
        u32::try_from(n).map_err(|_| Error::custom(format!("{n} overflows u32")))
    }
}

impl Serialize for usize {
    fn serialize(&self) -> Value {
        Value::UInt(*self as u64)
    }
}

impl Deserialize for usize {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let n = u64::deserialize(value)?;
        usize::try_from(n).map_err(|_| Error::custom(format!("{n} overflows usize")))
    }
}

impl Serialize for i64 {
    fn serialize(&self) -> Value {
        Value::Int(*self)
    }
}

impl Deserialize for i64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Int(n) => Ok(*n),
            Value::UInt(n) => {
                i64::try_from(*n).map_err(|_| Error::custom(format!("{n} overflows i64")))
            }
            other => Err(Error::type_mismatch("i64", other)),
        }
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            Value::Int(n) => Ok(*n as f64),
            other => Err(Error::type_mismatch("number", other)),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::type_mismatch("string", other)),
        }
    }
}

impl Serialize for &str {
    fn serialize(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        self.as_slice().serialize()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => Err(Error::type_mismatch("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

/// Implements [`Serialize`] and [`Deserialize`] for a struct from one
/// field list: a JSON object whose keys are the field names, written
/// in the listed order. Every key is required on read (an absent one
/// is an [`Error`] naming it); keys not listed are never looked at.
/// Each field's type is the struct's own. An optional `check` — any
/// `Fn(&T) -> Result<(), E>` with `E: Into<String>` — runs on the read
/// record and turns its `Err` into an [`Error`].
///
/// # Example
///
/// ```
/// use serde::{json, wire_struct, Deserialize, Serialize};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     lo: u64,
///     hi: u64,
/// }
///
/// wire_struct!(Span { lo, hi } check |s: &Span| {
///     if s.lo <= s.hi { Ok(()) } else { Err("an empty span") }
/// });
///
/// let text = json::to_string(&Span { lo: 1, hi: 3 }.serialize());
/// assert_eq!(text, r#"{"lo":1,"hi":3}"#);
/// let bad = json::from_str(r#"{"lo":3,"hi":1}"#).unwrap();
/// assert_eq!(Span::deserialize(&bad).unwrap_err().to_string(), "an empty span");
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(check $check:expr)?) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self) -> $crate::Value {
                $crate::Value::object([
                    $((stringify!($field), $crate::Serialize::serialize(&self.$field)),)+
                ])
            }
        }

        impl $crate::Deserialize for $ty {
            fn deserialize(value: &$crate::Value) -> ::core::result::Result<Self, $crate::Error> {
                let record = $ty {
                    $($field: $crate::Deserialize::deserialize(value.req(stringify!($field))?)?,)+
                };
                $(($check)(&record).map_err($crate::Error::custom)?;)?
                Ok(record)
            }
        }
    };
}

/// Implements [`Serialize`] and [`Deserialize`] for an enum of struct
/// and unit variants, tagged by the string under the key `$kind`: each
/// variant is an object holding its tag first, then its fields in the
/// listed order, read as [`wire_struct!`] reads them. An unknown tag
/// is an [`Error`] naming it.
///
/// # Example
///
/// ```
/// use serde::{json, wire_enum, Deserialize, Serialize};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle { r: f64 },
/// }
///
/// wire_enum!(Shape, "kind" { Dot = "dot", Circle = "circle" { r } });
///
/// let text = json::to_string(&Shape::Circle { r: 2.0 }.serialize());
/// assert_eq!(text, r#"{"kind":"circle","r":2.0}"#);
/// assert_eq!(json::to_string(&Shape::Dot.serialize()), r#"{"kind":"dot"}"#);
/// let back = Shape::deserialize(&json::from_str(&text).unwrap()).unwrap();
/// assert_eq!(back, Shape::Circle { r: 2.0 });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident, $kind:literal {
        $($variant:ident = $tag:literal $({ $($field:ident),+ $(,)? })?),+ $(,)?
    }) => {
        impl $crate::Serialize for $ty {
            fn serialize(&self) -> $crate::Value {
                match self {
                    $($ty::$variant $({ $($field),+ })? => $crate::Value::object([
                        ($kind, $crate::Serialize::serialize(&$tag)),
                        $($((stringify!($field), $crate::Serialize::serialize($field)),)+)?
                    ]),)+
                }
            }
        }

        impl $crate::Deserialize for $ty {
            fn deserialize(value: &$crate::Value) -> ::core::result::Result<Self, $crate::Error> {
                let tag = <String as $crate::Deserialize>::deserialize(value.req($kind)?)?;
                match tag.as_str() {
                    $($tag => Ok($ty::$variant $({
                        $($field: $crate::Deserialize::deserialize(value.req(stringify!($field))?)?,)+
                    })?),)+
                    other => Err($crate::Error::custom(format!(
                        "unknown {} {} `{other}`",
                        stringify!($ty),
                        $kind
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        let cases: Vec<Value> = vec![
            true.serialize(),
            42u64.serialize(),
            7usize.serialize(),
            (-3i64).serialize(),
            1.5f64.serialize(),
            "hi".serialize(),
            vec![1.0f64, 2.0].serialize(),
            Option::<u64>::None.serialize(),
        ];
        for v in cases {
            let text = json::to_string(&v);
            assert_eq!(json::from_str(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for &x in &[
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            1.5e-300,
            std::f64::consts::PI,
            f64::MIN_POSITIVE,
            f64::MAX,
            1.2e-9,
            0.1 + 0.2,
        ] {
            let text = json::to_string(&x.serialize());
            let back = f64::deserialize(&json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {text}");
        }
    }

    #[test]
    fn integer_floats_stay_floats() {
        // 1.0 must serialize with a `.0` marker so it never collapses
        // into an integer token on the way back.
        let text = json::to_string(&1.0f64.serialize());
        assert_eq!(text, "1.0");
        assert!(matches!(json::from_str(&text).unwrap(), Value::Float(_)));
    }

    #[test]
    fn option_none_is_null() {
        assert_eq!(json::to_string(&Option::<u64>::None.serialize()), "null");
        let some = Option::<u64>::deserialize(&json::from_str("3").unwrap()).unwrap();
        assert_eq!(some, Some(3));
    }

    #[test]
    fn type_mismatches_are_typed_errors() {
        let v = json::from_str("\"nope\"").unwrap();
        assert!(u64::deserialize(&v).is_err());
        assert!(bool::deserialize(&v).is_err());
        assert!(Vec::<f64>::deserialize(&v).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        name: String,
        span: Vec<u64>,
        at: Option<usize>,
    }

    wire_struct!(Probe { name, span, at } check |p: &Probe| {
        if p.span.is_empty() { Err("an empty span") } else { Ok(()) }
    });

    #[derive(Debug, PartialEq)]
    enum Event {
        Start { probe: Probe, x: f64 },
        Stop,
    }

    wire_enum!(Event, "kind" { Start = "start" { probe, x }, Stop = "stop" });

    #[test]
    fn wire_macros_read_and_write_one_field_list() {
        let start = Event::Start {
            probe: Probe {
                name: "p".to_string(),
                span: vec![3, 1],
                at: None,
            },
            x: -0.5,
        };
        // Round trips, keys in the listed order (the tag first).
        for (event, text) in [
            (
                start,
                r#"{"kind":"start","probe":{"name":"p","span":[3,1],"at":null},"x":-0.5}"#,
            ),
            (Event::Stop, r#"{"kind":"stop"}"#),
        ] {
            assert_eq!(json::to_string(&event.serialize()), text);
            let back = Event::deserialize(&json::from_str(text).unwrap()).unwrap();
            assert_eq!(back, event);
        }
        let read = |text: &str| Probe::deserialize(&json::from_str(text).unwrap());
        assert_eq!(
            read(r#"{"at":7,"span":[1],"name":"q","extra":0}"#)
                .unwrap()
                .at,
            Some(7)
        );
        // Every listed key is required, however it is misspelt.
        let error = |result: Result<_, Error>| result.map(|_: Probe| ()).unwrap_err().to_string();
        for (text, message) in [
            (r#"{"span":[1],"at":null}"#, "missing field `name`"),
            (
                r#"{"name":"p","spans":[1],"at":null}"#,
                "missing field `span`",
            ),
            (r#"{"name":"p","span":[1]}"#, "missing field `at`"),
            (r#"{"name":"p","span":[],"at":null}"#, "an empty span"),
            (
                r#"{"name":"p","span":[-1],"at":null}"#,
                "expected u64, found integer",
            ),
        ] {
            assert_eq!(error(read(text)), message, "{text}");
        }
        let event = |text: &str| Event::deserialize(&json::from_str(text).unwrap());
        for (text, message) in [
            (r#"{"kind":"pause"}"#, "unknown Event kind `pause`"),
            (r#"{"kind":1}"#, "expected string, found integer"),
            (r#"{"x":1.0}"#, "missing field `kind`"),
            (r#"{"kind":"start","x":1.0}"#, "missing field `probe`"),
        ] {
            assert_eq!(event(text).unwrap_err().to_string(), message, "{text}");
        }
    }

    #[test]
    fn u64_max_survives() {
        let text = json::to_string(&u64::MAX.serialize());
        let back = u64::deserialize(&json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, u64::MAX);
    }
}
