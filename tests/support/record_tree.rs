//! The reference tree of a binary payload, shared by the test files that
//! hold the streamed transaction codec to the `Value` path.

use serde::{Serialize, Sink, Value, ValueSink};

/// A [`ValueSink`] that builds each struct as the array of its field values
/// (a record), as `serde::binary::Writer` writes it, where `to_value` keeps
/// the field names. Enum variant tags and real maps keep their keys.
#[derive(Default)]
struct Records(ValueSink);

impl Sink for Records {
    fn null(&mut self) {
        self.0.null();
    }
    fn bool(&mut self, b: bool) {
        self.0.bool(b);
    }
    fn i64(&mut self, n: i64) {
        self.0.i64(n);
    }
    fn u128(&mut self, n: u128) {
        self.0.u128(n);
    }
    fn f64(&mut self, x: f64) {
        self.0.f64(x);
    }
    fn str(&mut self, s: &str) {
        self.0.str(s);
    }
    fn seq(&mut self, len: usize) {
        self.0.seq(len);
    }
    fn map(&mut self, len: usize) {
        self.0.map(len);
    }
    fn key(&mut self, key: &str) {
        self.0.key(key);
    }
    fn record(&mut self, len: usize) {
        self.0.seq(len);
    }
    fn field(&mut self, _name: &str) {}
}

/// The tree `serde::binary::from_bytes` reads `serde::binary::write(value)`
/// as: byte arrays as arrays of integers, structs as records.
pub fn record_tree<T: Serialize + ?Sized>(value: &T) -> Value {
    let mut sink = Records::default();
    value.serialize(&mut sink);
    sink.0.finish()
}
