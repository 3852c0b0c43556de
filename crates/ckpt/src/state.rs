//! The typed, ordered key/value tree snapshots are built from, and the
//! [`Snapshot`]/[`Restore`] traits stateful components implement.

use crate::CkptError;

/// One value in a [`State`].
///
/// Floating-point values are stored and compared by their raw bit patterns,
/// so round-trips are bit-exact (including NaN payloads and signed zeros).
#[derive(Debug, Clone)]
pub enum Value {
    /// An unsigned integer (counters, element counts).
    U64(u64),
    /// A single `f32` (learning rates, scalar baselines).
    F32(f32),
    /// A single `f64` (quality metrics).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// A UTF-8 string (benchmark codes, provenance).
    Str(String),
    /// A dense `f32` tensor: shape plus row-major data.
    F32s {
        /// Dimensions, outermost first.
        shape: Vec<usize>,
        /// Row-major elements; length equals the shape product.
        data: Vec<f32>,
    },
    /// A list of unsigned integers (epoch indices).
    U64s(Vec<u64>),
    /// A list of `f64` values (quality traces).
    F64s(Vec<f64>),
}

impl PartialEq for Value {
    /// Bitwise equality: two float values are equal iff their bit patterns
    /// are, so `NaN == NaN` here (deliberately — snapshots must round-trip
    /// NaN quality values exactly).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::U64(a), Value::U64(b)) => a == b,
            (Value::F32(a), Value::F32(b)) => a.to_bits() == b.to_bits(),
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (
                Value::F32s {
                    shape: sa,
                    data: da,
                },
                Value::F32s {
                    shape: sb,
                    data: db,
                },
            ) => {
                sa == sb
                    && da.len() == db.len()
                    && da.iter().zip(db).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Value::U64s(a), Value::U64s(b)) => a == b,
            (Value::F64s(a), Value::F64s(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

/// Joins a component prefix and a field name into a dotted key.
///
/// An empty prefix yields the bare field name, so top-level components and
/// nested ones share one convention.
///
/// # Example
///
/// ```
/// assert_eq!(aibench_ckpt::key("opt", "lr"), "opt.lr");
/// assert_eq!(aibench_ckpt::key("", "epoch"), "epoch");
/// ```
pub fn key(prefix: &str, field: &str) -> String {
    if prefix.is_empty() {
        field.to_string()
    } else {
        format!("{prefix}.{field}")
    }
}

/// An ordered collection of typed key/value entries — the in-memory form
/// of one snapshot section.
///
/// Insertion order is preserved and keys are unique (duplicate insertion is
/// a programming error and panics), so encoding a `State` is deterministic:
/// the same state always produces the same bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct State {
    entries: Vec<(String, Value)>,
}

impl State {
    /// An empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the state holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Inserts an entry.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already present — components must write each key
    /// exactly once, under their own prefix.
    pub fn put(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        assert!(!self.contains_key(&key), "duplicate snapshot key `{key}`");
        self.entries.push((key, value));
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Inserts a `u64`.
    pub fn put_u64(&mut self, key: impl Into<String>, v: u64) {
        self.put(key, Value::U64(v));
    }

    /// Inserts a `usize` (stored as `u64`).
    pub fn put_usize(&mut self, key: impl Into<String>, v: usize) {
        self.put(key, Value::U64(v as u64));
    }

    /// Inserts an `f32`.
    pub fn put_f32(&mut self, key: impl Into<String>, v: f32) {
        self.put(key, Value::F32(v));
    }

    /// Inserts an `f64`.
    pub fn put_f64(&mut self, key: impl Into<String>, v: f64) {
        self.put(key, Value::F64(v));
    }

    /// Inserts a boolean.
    pub fn put_bool(&mut self, key: impl Into<String>, v: bool) {
        self.put(key, Value::Bool(v));
    }

    /// Inserts a string.
    pub fn put_str(&mut self, key: impl Into<String>, v: impl Into<String>) {
        self.put(key, Value::Str(v.into()));
    }

    /// Inserts an `f32` tensor as shape + row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the shape product.
    pub fn put_f32s(&mut self, key: impl Into<String>, shape: &[usize], data: Vec<f32>) {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "put_f32s: {} element(s) do not fit shape {shape:?}",
            data.len()
        );
        self.put(
            key,
            Value::F32s {
                shape: shape.to_vec(),
                data,
            },
        );
    }

    /// Inserts a `u64` list.
    pub fn put_u64s(&mut self, key: impl Into<String>, v: Vec<u64>) {
        self.put(key, Value::U64s(v));
    }

    /// Inserts an `f64` list.
    pub fn put_f64s(&mut self, key: impl Into<String>, v: Vec<f64>) {
        self.put(key, Value::F64s(v));
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Result<&Value, CkptError> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| CkptError::MissingKey {
                key: key.to_string(),
            })
    }

    fn wrong_type(&self, key: &str, expected: &'static str) -> CkptError {
        CkptError::WrongType {
            key: key.to_string(),
            expected,
        }
    }

    /// Reads a `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, CkptError> {
        match self.get(key)? {
            Value::U64(v) => Ok(*v),
            _ => Err(self.wrong_type(key, "u64")),
        }
    }

    /// Reads a `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, CkptError> {
        Ok(self.u64(key)? as usize)
    }

    /// Reads an `f32`.
    pub fn f32(&self, key: &str) -> Result<f32, CkptError> {
        match self.get(key)? {
            Value::F32(v) => Ok(*v),
            _ => Err(self.wrong_type(key, "f32")),
        }
    }

    /// Reads an `f64`.
    pub fn f64(&self, key: &str) -> Result<f64, CkptError> {
        match self.get(key)? {
            Value::F64(v) => Ok(*v),
            _ => Err(self.wrong_type(key, "f64")),
        }
    }

    /// Reads a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, CkptError> {
        match self.get(key)? {
            Value::Bool(v) => Ok(*v),
            _ => Err(self.wrong_type(key, "bool")),
        }
    }

    /// Reads a string.
    pub fn str(&self, key: &str) -> Result<&str, CkptError> {
        match self.get(key)? {
            Value::Str(v) => Ok(v),
            _ => Err(self.wrong_type(key, "str")),
        }
    }

    /// Reads an `f32` tensor as `(shape, data)`.
    pub fn f32s(&self, key: &str) -> Result<(&[usize], &[f32]), CkptError> {
        match self.get(key)? {
            Value::F32s { shape, data } => Ok((shape, data)),
            _ => Err(self.wrong_type(key, "f32 tensor")),
        }
    }

    /// Reads a `u64` list.
    pub fn u64s(&self, key: &str) -> Result<&[u64], CkptError> {
        match self.get(key)? {
            Value::U64s(v) => Ok(v),
            _ => Err(self.wrong_type(key, "u64 list")),
        }
    }

    /// Reads an `f64` list.
    pub fn f64s(&self, key: &str) -> Result<&[f64], CkptError> {
        match self.get(key)? {
            Value::F64s(v) => Ok(v),
            _ => Err(self.wrong_type(key, "f64 list")),
        }
    }
}

/// A component whose mutable state can be captured into a [`State`].
///
/// Implementations write every field that changes during training under
/// `prefix` (via [`key`]), in a fixed order, so that a snapshot taken after
/// a restore is byte-identical to the snapshot restored from.
pub trait Snapshot {
    /// Writes this component's mutable state into `state` under `prefix`.
    fn snapshot(&self, state: &mut State, prefix: &str);
}

/// A component whose mutable state can be restored from a [`State`].
///
/// The component must already have the right *structure* (shapes, parameter
/// counts) — restore replaces values, it does not rebuild architecture.
/// Implementations must either fully succeed or return an error; a failed
/// restore leaves the component in an unspecified state and the caller is
/// expected to rebuild it before retrying.
pub trait Restore {
    /// Reads this component's mutable state from `state` under `prefix`.
    fn restore(&mut self, state: &State, prefix: &str) -> Result<(), CkptError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get_round_trip() {
        let mut s = State::new();
        s.put_u64("a", 7);
        s.put_f32("b", 1.5);
        s.put_f64("c", -2.25);
        s.put_bool("d", true);
        s.put_str("e", "hello");
        s.put_f32s("f", &[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        s.put_u64s("g", vec![1, 2, 3]);
        s.put_f64s("h", vec![0.5, 0.25]);
        assert_eq!(s.u64("a").unwrap(), 7);
        assert_eq!(s.f32("b").unwrap(), 1.5);
        assert_eq!(s.f64("c").unwrap(), -2.25);
        assert!(s.bool("d").unwrap());
        assert_eq!(s.str("e").unwrap(), "hello");
        assert_eq!(s.f32s("f").unwrap().0, &[2, 2]);
        assert_eq!(s.u64s("g").unwrap(), &[1, 2, 3]);
        assert_eq!(s.f64s("h").unwrap(), &[0.5, 0.25]);
    }

    #[test]
    fn missing_and_mistyped_keys_error() {
        let mut s = State::new();
        s.put_u64("a", 1);
        assert!(matches!(s.u64("b"), Err(CkptError::MissingKey { .. })));
        assert!(s.contains_key("a") && !s.contains_key("b"));
        assert!(matches!(s.f32("a"), Err(CkptError::WrongType { .. })));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot key")]
    fn duplicate_key_panics() {
        let mut s = State::new();
        s.put_u64("a", 1);
        s.put_u64("a", 2);
    }

    #[test]
    fn nan_values_compare_equal_bitwise() {
        let mut a = State::new();
        a.put_f64("q", f64::NAN);
        let mut b = State::new();
        b.put_f64("q", f64::NAN);
        assert_eq!(a, b);
    }

    #[test]
    fn key_joins_with_dots() {
        assert_eq!(key("opt.p3", "value"), "opt.p3.value");
        assert_eq!(key("", "epoch"), "epoch");
    }
}
