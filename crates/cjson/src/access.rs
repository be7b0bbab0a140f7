//! Typed, path-aware field access.
//!
//! The Condor frontend validates user-authored network-representation
//! files; when a field is missing or has the wrong type the error must name
//! the document path (`layers[3].kernel_size`) rather than a byte offset.
//! These helpers build those diagnostics.

use crate::value::Value;
use std::fmt;

/// A field-access failure with the document path that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessError {
    /// Dotted/bracketed path of the offending field.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl AccessError {
    fn new(path: &str, message: impl Into<String>) -> Self {
        AccessError {
            path: path.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at `{}`: {}", self.path, self.message)
    }
}

impl std::error::Error for AccessError {}

/// Required object field, any type.
pub fn req<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a Value, AccessError> {
    let obj = v
        .as_object()
        .ok_or_else(|| AccessError::new(path, format!("expected object, got {}", v.type_name())))?;
    obj.get(key)
        .ok_or_else(|| AccessError::new(&join(path, key), "missing required field"))
}

/// Required string field.
pub fn req_str<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a str, AccessError> {
    let field = req(v, path, key)?;
    field
        .as_str()
        .ok_or_else(|| type_err(path, key, "string", field))
}

/// Required non-negative integer field.
pub fn req_usize(v: &Value, path: &str, key: &str) -> Result<usize, AccessError> {
    let field = req(v, path, key)?;
    let n = field
        .as_i64()
        .ok_or_else(|| type_err(path, key, "integer", field))?;
    usize::try_from(n)
        .map_err(|_| AccessError::new(&join(path, key), format!("must be non-negative, got {n}")))
}

/// Required array field.
pub fn req_array<'a>(v: &'a Value, path: &str, key: &str) -> Result<&'a [Value], AccessError> {
    let field = req(v, path, key)?;
    field
        .as_array()
        .ok_or_else(|| type_err(path, key, "array", field))
}

/// Optional string field.
pub fn opt_str<'a>(v: &'a Value, path: &str, key: &str) -> Result<Option<&'a str>, AccessError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => field
            .as_str()
            .map(Some)
            .ok_or_else(|| type_err(path, key, "string", field)),
    }
}

/// Optional non-negative integer with a default.
pub fn usize_or(v: &Value, path: &str, key: &str, default: usize) -> Result<usize, AccessError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(field) => {
            let n = field
                .as_i64()
                .ok_or_else(|| type_err(path, key, "integer", field))?;
            usize::try_from(n).map_err(|_| {
                AccessError::new(&join(path, key), format!("must be non-negative, got {n}"))
            })
        }
    }
}

/// Optional finite float with a default.
pub fn f64_or(v: &Value, path: &str, key: &str, default: f64) -> Result<f64, AccessError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(field) => field
            .as_f64()
            .ok_or_else(|| type_err(path, key, "number", field)),
    }
}

/// Optional bool with a default.
pub fn bool_or(v: &Value, path: &str, key: &str, default: bool) -> Result<bool, AccessError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(field) => field
            .as_bool()
            .ok_or_else(|| type_err(path, key, "bool", field)),
    }
}

/// Path of the `i`-th element of array field `key`.
pub fn elem_path(path: &str, key: &str, i: usize) -> String {
    format!("{}[{i}]", join(path, key))
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn type_err(path: &str, key: &str, want: &str, got: &Value) -> AccessError {
    AccessError::new(
        &join(path, key),
        format!("expected {want}, got {}", got.type_name()),
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::parse::parse;

    fn doc() -> Value {
        parse(r#"{"name":"lenet","kernel":5,"freq":180.5,"relu":true,"layers":[1,2]}"#).unwrap()
    }

    #[test]
    fn required_fields_succeed() {
        let d = doc();
        assert_eq!(req_str(&d, "", "name").unwrap(), "lenet");
        assert_eq!(req_usize(&d, "", "kernel").unwrap(), 5);
        assert_eq!(req_array(&d, "", "layers").unwrap().len(), 2);
    }

    #[test]
    fn missing_field_names_path() {
        let d = doc();
        let e = req_str(&d, "net", "board").unwrap_err();
        assert_eq!(e.path, "net.board");
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn wrong_type_names_expectation() {
        let d = doc();
        let e = req_usize(&d, "", "name").unwrap_err();
        assert_eq!(e.path, "name");
        assert!(e.message.contains("expected integer, got string"));
    }

    #[test]
    fn negative_integer_rejected_for_usize() {
        let d = parse(r#"{"k":-3}"#).unwrap();
        let e = req_usize(&d, "", "k").unwrap_err();
        assert!(e.message.contains("non-negative"));
    }

    #[test]
    fn defaults_apply_only_when_absent_or_null() {
        let d = parse(r#"{"a":7,"b":null}"#).unwrap();
        assert_eq!(usize_or(&d, "", "a", 1).unwrap(), 7);
        assert_eq!(usize_or(&d, "", "b", 1).unwrap(), 1);
        assert_eq!(usize_or(&d, "", "c", 1).unwrap(), 1);
        assert_eq!(f64_or(&d, "", "c", 2.5).unwrap(), 2.5);
        assert!(bool_or(&d, "", "c", true).unwrap());
        assert_eq!(opt_str(&d, "", "c").unwrap(), None);
    }

    #[test]
    fn access_on_non_object_fails() {
        let e = req(&Value::int(1), "layers[0]", "type").unwrap_err();
        assert!(e.message.contains("expected object"));
    }

    #[test]
    fn elem_path_formats() {
        assert_eq!(elem_path("net", "layers", 3), "net.layers[3]");
        assert_eq!(elem_path("", "layers", 0), "layers[0]");
    }
}
