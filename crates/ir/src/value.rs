//! Dynamically typed data values for the nested-parallel language.
//!
//! The parsing phase manipulates *code as data* (paper Sec. 4.1.1); the
//! lowering interpreter then needs a runtime datum that can flow through
//! engine bags and be used as grouping keys and lifting tags — hence a
//! dynamically typed `Value` with total equality and hashing (doubles
//! compare by bit pattern).

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::ast::BinOp;
use crate::error::{IrError, IrResult};

/// A datum of the embedded language: scalars and tuples. Bags are *not*
/// values (they are collections of values), mirroring the paper's assumption
/// that bags do not nest inside other data structures (Sec. 7).
#[derive(Debug, Clone)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Long(i64),
    /// A 64-bit float (equality and hashing by bit pattern).
    Double(f64),
    /// An immutable string.
    Str(Arc<str>),
    /// A tuple of values: one allocation, the components inline behind it.
    Tuple(Arc<[Value]>),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// Convenience tuple constructor.
    pub fn tuple(items: Vec<Value>) -> Value {
        Value::Tuple(items.into())
    }

    /// A 2-tuple built from an array: no `Vec` for `Arc::from` to copy and
    /// free, which is what the per-record sites (`(k, v)`, join output) need.
    pub(crate) fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(Arc::from([a, b]))
    }

    /// Project a tuple component.
    pub fn proj(&self, i: usize) -> IrResult<Value> {
        self.proj_ref(i).cloned()
    }

    /// Borrowing projection: the component by reference, with the same
    /// errors as [`Value::proj`]. Lets chained projections (`v.0.1`) walk to
    /// the final component and clone only once — the compiled-UDF
    /// evaluator's projection-path fast path ([`crate::compile`]).
    pub fn proj_ref(&self, i: usize) -> IrResult<&Value> {
        match self {
            Value::Tuple(items) => items.get(i).ok_or_else(|| {
                IrError::Type(format!("tuple index {i} out of bounds (len {})", items.len()))
            }),
            other => Err(IrError::Type(format!("projection .{i} on non-tuple {other}"))),
        }
    }

    /// Flatten for `flatMap`: a tuple's components individually, any other
    /// value as a singleton (the `FlatMapTuple` emission rule, shared by the
    /// flat and lifted cells of [`crate::Lowering`]).
    pub fn splat_tuple(self) -> Vec<Value> {
        match self {
            Value::Tuple(items) => items.to_vec(),
            other => vec![other],
        }
    }

    /// As a boolean, or a type error.
    pub fn as_bool(&self) -> IrResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(IrError::Type(format!("expected Bool, got {other}"))),
        }
    }

    /// As a long, or a type error.
    pub fn as_long(&self) -> IrResult<i64> {
        match self {
            Value::Long(x) => Ok(*x),
            other => Err(IrError::Type(format!("expected Long, got {other}"))),
        }
    }

    /// Numeric view (longs widen to doubles).
    pub fn as_f64(&self) -> IrResult<f64> {
        match self {
            Value::Long(x) => Ok(*x as f64),
            Value::Double(x) => Ok(*x),
            other => Err(IrError::Type(format!("expected number, got {other}"))),
        }
    }

    /// The ordering behind the language's `<` and `>`: two `Long`s compare
    /// as integers (exact beyond 2^53, where `f64` is not), anything else
    /// numerically after widening; `None` when a NaN is involved.
    pub fn num_cmp(&self, other: &Value) -> IrResult<Option<std::cmp::Ordering>> {
        match (self, other) {
            (Value::Long(a), Value::Long(b)) => Ok(Some(a.cmp(b))),
            _ => Ok(self.as_f64()?.partial_cmp(&other.as_f64()?)),
        }
    }

    /// The language's `Long` `+`, `-` and `*` (`op`; negation is `0 - x`),
    /// the same in every build profile: an overflow is an error naming the
    /// operation, never a panic or a wrapped value.
    #[inline]
    pub(crate) fn long_arith(op: BinOp, x: i64, y: i64) -> IrResult<Value> {
        let result = match op {
            BinOp::Add => x.checked_add(y),
            BinOp::Sub => x.checked_sub(y),
            _ => x.checked_mul(y),
        };
        match result {
            Some(v) => Ok(Value::Long(v)),
            None => Err(long_overflow(op, x, y)),
        }
    }
}

/// Out of line: `long_arith` sits in the UDF evaluator's recursive hot loop,
/// which pays for every byte of its stack frame.
#[cold]
#[inline(never)]
fn long_overflow(op: BinOp, x: i64, y: i64) -> IrError {
    IrError::Type(format!("Long overflow in {x} {} {y}", op.symbol()))
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => a == b,
            _ => false,
        }
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Unit => {}
            Value::Bool(b) => b.hash(state),
            Value::Long(x) => x.hash(state),
            Value::Double(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Tuple(items) => items.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Unit => 0,
                Value::Bool(_) => 1,
                Value::Long(_) => 2,
                Value::Double(_) => 3,
                Value::Str(_) => 4,
                Value::Tuple(_) => 5,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Long(a), Value::Long(b)) => a.cmp(b),
            (Value::Double(a), Value::Double(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)).then(Ordering::Equal),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Long(x) => write!(f, "{x}"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_covers_doubles_by_bits() {
        assert_eq!(Value::Double(1.5), Value::Double(1.5));
        assert_ne!(Value::Double(0.0), Value::Double(-0.0));
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
    }

    #[test]
    fn hashing_is_consistent_with_equality() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::tuple(vec![Value::Long(1), Value::str("a")]));
        assert!(set.contains(&Value::tuple(vec![Value::Long(1), Value::str("a")])));
        assert!(!set.contains(&Value::tuple(vec![Value::Long(2), Value::str("a")])));
    }

    /// The layout the simulator depends on. `stable_hash` places records in
    /// partitions (part of the simulated identity); the constants were
    /// recorded on the `Arc<Vec<..>>` representation, before tuples became
    /// one allocation.
    #[test]
    fn layout_and_stable_hash_are_pinned() {
        use matryoshka_engine::partitioner::stable_hash;
        assert_eq!(std::mem::size_of::<Value>(), 24);
        let pair = Value::tuple(vec![Value::Long(7), Value::Long(-3)]);
        let nested = Value::tuple(vec![
            Value::Long(1),
            Value::tuple(vec![Value::str("a"), Value::Double(2.5), Value::Unit]),
            Value::Bool(true),
        ]);
        assert_eq!(stable_hash(&pair), 0x6bf0_4f50_90ac_7bba);
        assert_eq!(stable_hash(&nested), 0x4e19_c8cb_6d32_486b);
        assert_eq!(stable_hash(&Value::str("matryoshka")), 0x37f8_e87e_91bb_163b);
        assert_eq!(stable_hash(&Value::Double(-0.5)), 0xef7d_c2cd_62a5_fb8c);
        let built = Value::pair(Value::Long(7), Value::Long(-3));
        assert_eq!(built, pair);
        assert_eq!(stable_hash(&built), stable_hash(&pair));
    }

    #[test]
    fn projection_and_accessors() {
        let t = Value::tuple(vec![Value::Long(7), Value::Bool(true)]);
        assert_eq!(t.proj(0).unwrap(), Value::Long(7));
        assert!(t.proj(5).is_err());
        assert!(Value::Long(1).proj(0).is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Long(3).as_f64().unwrap(), 3.0);
        assert!(Value::str("x").as_long().is_err());
    }

    #[test]
    fn ordering_is_total() {
        let mut vs =
            [Value::str("b"), Value::Long(2), Value::Unit, Value::Double(1.0), Value::Long(1)];
        vs.sort();
        assert_eq!(vs[0], Value::Unit);
        assert_eq!(vs[1], Value::Long(1));
    }

    #[test]
    fn proj_ref_matches_proj() {
        let t = Value::tuple(vec![Value::Long(7), Value::str("a")]);
        assert_eq!(t.proj_ref(1).unwrap(), &Value::str("a"));
        assert_eq!(t.proj_ref(9).unwrap_err().to_string(), t.proj(9).unwrap_err().to_string());
        assert_eq!(
            Value::Long(1).proj_ref(0).unwrap_err().to_string(),
            Value::Long(1).proj(0).unwrap_err().to_string()
        );
    }

    #[test]
    fn splat_tuple_flattens_only_tuples() {
        let t = Value::tuple(vec![Value::Long(1), Value::Long(2)]);
        assert_eq!(t.splat_tuple(), vec![Value::Long(1), Value::Long(2)]);
        assert_eq!(Value::Long(3).splat_tuple(), vec![Value::Long(3)]);
    }

    #[test]
    fn display_is_readable() {
        let t = Value::tuple(vec![Value::Long(1), Value::str("x")]);
        assert_eq!(t.to_string(), "(1, \"x\")");
    }
}
