//! Shared by the integration tests: `BENCHMARK.json` read back as the
//! driver reads it.

use mp2p_trace::json::{self, Value};

/// The parsed `BENCHMARK.json` from the repository root.
pub fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// The elements of the array under `key`.
pub fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key:?} is not an array: {other:?}"),
    }
}

/// The `name` of every object in the array under `key`, in order.
pub fn names(doc: &Value, key: &str) -> Vec<String> {
    array(doc, key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("every entry has a name")
                .to_owned()
        })
        .collect()
}

/// The keys of an object, in source order.
pub fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}
