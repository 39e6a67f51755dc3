//! A JSON-Schema-subset validator (std-only).
//!
//! The build environment is offline, so tracetool output can't be
//! checked with `jsonschema`/`ajv`. This module implements the small
//! keyword subset the committed schemas
//! (`scripts/tracetool_schema.json`) actually use:
//!
//! `type` (string or array of strings, incl. `"integer"`),
//! `required`, `properties`, `additionalProperties` (boolean form),
//! `items` (single-schema form), `minItems`, and `enum`.
//!
//! Unknown keywords are ignored (like a full validator would ignore
//! annotations), so the committed schema files stay forward-portable
//! to real validators.

use fupermod_core::json::Value;

/// Validates `value` against `schema`.
///
/// # Errors
///
/// Returns every violation found, as `"<path>: <message>"` strings
/// (path `$` is the document root).
pub fn validate(schema: &Value, value: &Value) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    check(schema, value, "$", &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn check(schema: &Value, value: &Value, path: &str, errors: &mut Vec<String>) {
    let Value::Obj(_) = schema else {
        // `true` means "anything"; anything else is an authoring bug.
        if !matches!(schema, Value::Bool(true)) {
            errors.push(format!("{path}: schema is not an object"));
        }
        return;
    };

    if let Some(ty) = schema.get("type") {
        if !type_matches(ty, value) {
            errors.push(format!(
                "{path}: expected type {}, got {}",
                type_names(ty),
                value.type_name()
            ));
            return; // Follow-on keyword checks would only cascade.
        }
    }

    if let Some(Value::Arr(allowed)) = schema.get("enum") {
        if !allowed.iter().any(|a| a == value) {
            errors.push(format!("{path}: value not in enum"));
        }
    }

    if let Value::Obj(members) = value {
        if let Some(Value::Arr(required)) = schema.get("required") {
            for r in required {
                if let Value::Str(key) = r {
                    if value.get(key).is_none() {
                        errors.push(format!("{path}: missing required member \"{key}\""));
                    }
                }
            }
        }
        let props = schema.get("properties").and_then(Value::as_object);
        if let Some(props) = props {
            for (key, sub) in props {
                if let Some(v) = value.get(key) {
                    check(sub, v, &format!("{path}.{key}"), errors);
                }
            }
        }
        if let Some(Value::Bool(false)) = schema.get("additionalProperties") {
            for (key, _) in members {
                let known = props.is_some_and(|p| p.iter().any(|(k, _)| k == key));
                if !known {
                    errors.push(format!("{path}: unexpected member \"{key}\""));
                }
            }
        }
    }

    if let Value::Arr(items) = value {
        if let Some(Value::Num(min)) = schema.get("minItems") {
            if (items.len() as f64) < *min {
                errors.push(format!(
                    "{path}: {} items, expected at least {min}",
                    items.len()
                ));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                check(item_schema, item, &format!("{path}[{i}]"), errors);
            }
        }
    }
}

/// Whether `value` matches a `type` keyword (string or array form).
fn type_matches(ty: &Value, value: &Value) -> bool {
    match ty {
        Value::Str(name) => one_type_matches(name, value),
        Value::Arr(names) => names.iter().any(|n| match n {
            Value::Str(name) => one_type_matches(name, value),
            _ => false,
        }),
        _ => false,
    }
}

fn one_type_matches(name: &str, value: &Value) -> bool {
    match name {
        "null" => matches!(value, Value::Null),
        "boolean" => matches!(value, Value::Bool(_)),
        "number" => matches!(value, Value::Num(_)),
        "integer" => matches!(value, Value::Num(x) if x.is_finite() && x.fract() == 0.0),
        "string" => matches!(value, Value::Str(_)),
        "array" => matches!(value, Value::Arr(_)),
        "object" => matches!(value, Value::Obj(_)),
        _ => false,
    }
}

/// Human rendering of a `type` keyword for messages.
fn type_names(ty: &Value) -> String {
    match ty {
        Value::Str(name) => name.clone(),
        Value::Arr(names) => names
            .iter()
            .filter_map(Value::as_str)
            .collect::<Vec<_>>()
            .join("|"),
        _ => "?".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Value {
        fupermod_core::json::parse(text).unwrap()
    }

    #[test]
    fn validates_nested_structures() {
        let schema = s(r#"{
            "type": "object",
            "required": ["name", "items"],
            "properties": {
                "name": {"type": "string"},
                "items": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["n"],
                        "properties": {"n": {"type": "integer"}}
                    }
                },
                "mode": {"enum": ["a", "b"]}
            }
        }"#);
        assert!(validate(&schema, &s(r#"{"name":"x","items":[{"n":3}],"mode":"a"}"#)).is_ok());

        let errs = validate(&schema, &s(r#"{"name":7,"items":[],"mode":"z"}"#)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("$.name")));
        assert!(errs.iter().any(|e| e.contains("at least 1")));
        assert!(errs.iter().any(|e| e.contains("enum")));

        let errs = validate(&schema, &s(r#"{"items":[{"n":1.5}]}"#)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing required member \"name\"")));
        assert!(errs.iter().any(|e| e.contains("$.items[0].n")));
    }

    #[test]
    fn type_arrays_allow_nullable_members() {
        let schema = s(r#"{"type":["object","null"],"required":["k"]}"#);
        assert!(validate(&schema, &s("null")).is_ok());
        assert!(validate(&schema, &s(r#"{"k":1}"#)).is_ok());
        assert!(validate(&schema, &s(r#"{}"#)).is_err());
        assert!(validate(&schema, &s("3")).is_err());
    }

    #[test]
    fn additional_properties_false_rejects_unknown_keys() {
        let schema = s(r#"{
            "type": "object",
            "properties": {"a": {"type": "number"}},
            "additionalProperties": false
        }"#);
        assert!(validate(&schema, &s(r#"{"a":1}"#)).is_ok());
        let errs = validate(&schema, &s(r#"{"a":1,"b":2}"#)).unwrap_err();
        assert!(errs[0].contains("unexpected member \"b\""));
    }

    #[test]
    fn unknown_keywords_are_ignored() {
        let schema = s(r#"{"type":"number","description":"ignored","$comment":"x"}"#);
        assert!(validate(&schema, &s("4.5")).is_ok());
    }
}
