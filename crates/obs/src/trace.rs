//! Structured trace events and their JSON-lines encoding.

use crate::json;
use crate::ring::{push_seq_open, JsonLine};

/// A field value in a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Floating point.
    F(f64),
    /// String.
    S(String),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U(v) => out.push_str(&v.to_string()),
            Value::I(v) => out.push_str(&v.to_string()),
            Value::F(v) => json::push_f64(out, *v),
            Value::S(v) => json::push_str(out, v),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::S(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::S(v)
    }
}

/// One structured event: a kind tag plus ordered key/value fields.
///
/// Events are cheap to build (`&'static str` keys, no map) and encode
/// to one `{"seq":N,"kind":...}` JSON line via [`JsonLine`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind, e.g. `"token_fire"`, `"resync"`, `"route"`.
    pub kind: &'static str,
    /// Ordered fields; duplicate keys are kept as-is.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    /// Start an event of the given kind.
    pub fn new(kind: &'static str) -> TraceEvent {
        TraceEvent { kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> TraceEvent {
        self.fields.push((key, value.into()));
        self
    }
}

/// The flight-recorder and trigger-capture line:
/// `{"seq":N,"kind":...,...fields}`.
impl JsonLine for TraceEvent {
    fn push_json_line(&self, seq: u64, out: &mut String) {
        push_seq_open(out, seq);
        out.push_str("\"kind\":");
        json::push_str(out, self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            json::push_str(out, k);
            out.push(':');
            v.write_json(out);
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(e: &TraceEvent) -> String {
        let mut out = String::new();
        e.push_json_line(7, &mut out);
        out
    }

    #[test]
    fn event_json_shape() {
        let e = TraceEvent::new("token_fire")
            .field("token", 3u32)
            .field("start", 10u64)
            .field("end", 14u64)
            .field("name", "methodName");
        assert_eq!(
            line(&e),
            "{\"seq\":7,\"kind\":\"token_fire\",\"token\":3,\"start\":10,\"end\":14,\"name\":\"methodName\"}\n"
        );
    }

    #[test]
    fn value_escaping_and_floats() {
        let e = TraceEvent::new("x").field("s", "a\"b\\c\nd").field("f", 1.5f64).field("i", -2i64);
        let json = line(&e);
        assert!(json.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"f\":1.5"));
        assert!(json.contains("\"i\":-2"));
    }
}
