//! The one JSON writer behind every artifact the workspace emits: the
//! provenance event stream, the Chrome trace, `DIFF_report.json`, the
//! `BENCH_*.json` files and every `--json` report.
//!
//! Callers build a [`Json`] value and pick one of two fixed renderings:
//!
//! * [`Json::compact`] — no whitespace at all (the event stream and the
//!   Chrome trace);
//! * [`Json::pretty`] — a line-oriented document: 2-space indent,
//!   `"key": value`, a container that holds no container printed compact
//!   on one line, every other container one member per line.
//!
//! The pretty rendering carries the invariant the CI determinism gates
//! rely on: a member named `volatile` or `wall_ms` is printed compact on a
//! line of its own, so `grep -vE '"wall_ms"|"volatile"'` removes exactly
//! the timing- and scheduling-dependent data and nothing else.

use std::fmt::Write as _;

/// Member names whose values are timing- or scheduling-dependent. The
/// pretty rendering gives each such member a line of its own.
const VOLATILE_KEYS: [&str; 2] = ["volatile", "wall_ms"];

/// A JSON value with ordered object members.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed exactly.
    Int(i128),
    /// A float printed with the given number of decimals (`{:.N}`).
    Fixed(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members print in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    #[must_use]
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends the member `key: value` to an object.
    ///
    /// # Panics
    /// If `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// Appends `key: value` when `value` is present.
    #[must_use]
    pub fn opt_field(self, key: &str, value: Option<impl Into<Json>>) -> Json {
        match value {
            Some(v) => self.field(key, v),
            None => self,
        }
    }

    /// The single-line rendering with no whitespace.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// The line-oriented document rendering, ending in a newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Whether the pretty rendering prints this value on one line: scalars,
    /// and containers holding neither a container nor a volatile member.
    fn is_flat(&self) -> bool {
        match self {
            Json::Arr(items) => !items.iter().any(Json::is_container),
            Json::Obj(members) => !members
                .iter()
                .any(|(k, v)| v.is_container() || VOLATILE_KEYS.contains(&k.as_str())),
            _ => true,
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Fixed(v, decimals) => {
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Str(s) => escape(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        if self.is_flat() {
            return self.write_compact(out);
        }
        let (open, close) = if matches!(self, Json::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        out.push(open);
        let line = |i: usize, out: &mut String| {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&"  ".repeat(depth + 1));
        };
        match self {
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    line(i, out);
                    v.write_pretty(out, depth + 1);
                }
            }
            Json::Obj(members) => {
                for (i, (k, v)) in members.iter().enumerate() {
                    line(i, out);
                    escape(out, k);
                    out.push_str(": ");
                    if VOLATILE_KEYS.contains(&k.as_str()) {
                        v.write_compact(out);
                    } else {
                        v.write_pretty(out, depth + 1);
                    }
                }
            }
            _ => unreachable!("scalars are flat"),
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push(close);
    }
}

/// Writes `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// newline as `\n`, every other control character as `\u00XX`.
fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Int(n as i128)
            }
        }
    )*};
}
from_int!(u32, i32, u64, i64, usize);

impl From<u128> for Json {
    fn from(n: u128) -> Json {
        Json::Int(i128::try_from(n).unwrap_or(i128::MAX))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        items.into_iter().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Json::from("q\" b\\ n\n t\t c\u{1} é → ✓");
        assert_eq!(s.compact(), "\"q\\\" b\\\\ n\\n t\\u0009 c\\u0001 é → ✓\"");
        assert_eq!(
            Json::object().field("k\"", "v").compact(),
            "{\"k\\\"\":\"v\"}"
        );
    }

    #[test]
    fn fixed_decimals_match_format_precision() {
        for v in [0.0, 1379.00283, 2.0 / 3.0, 516.6835, 12.0, -0.25] {
            assert_eq!(Json::Fixed(v, 3).compact(), format!("{v:.3}"));
            assert_eq!(Json::Fixed(v, 4).compact(), format!("{v:.4}"));
        }
        assert_eq!(
            Json::from(u128::from(u64::MAX)).compact(),
            u64::MAX.to_string()
        );
        assert_eq!(Json::from(-7i64).compact(), "-7");
    }

    #[test]
    fn compact_has_no_whitespace() {
        let doc = Json::object()
            .field("a", vec![1u32, 2])
            .field("b", Json::object().field("c", true))
            .field("e", Vec::<u32>::new())
            .field("f", Json::object());
        assert_eq!(
            doc.compact(),
            "{\"a\":[1,2],\"b\":{\"c\":true},\"e\":[],\"f\":{}}"
        );
    }

    #[test]
    fn pretty_expands_only_containers_of_containers() {
        let doc = Json::object()
            .field("n", 1u32)
            .field("flat", Json::object().field("x", 1u32).field("y", "z"))
            .field(
                "rows",
                vec![
                    Json::object().field("k", 1u32),
                    Json::object().field("k", 2u32),
                ],
            )
            .field("empty", Vec::<u32>::new());
        assert_eq!(
            doc.pretty(),
            "{\n  \"n\": 1,\n  \"flat\": {\"x\":1,\"y\":\"z\"},\n  \"rows\": [\n    \
             {\"k\":1},\n    {\"k\":2}\n  ],\n  \"empty\": []\n}\n"
        );
    }

    /// The `service_bench` shape: `volatile` at depth 3 (inside a sweep of
    /// an array) holding nested objects, arrays and a `wall_ms` member,
    /// plus top-level `wall_ms`/`volatile` members (the `runtime_bench`
    /// shape) and a flat object that would otherwise inline `wall_ms`.
    #[test]
    fn volatile_members_sit_alone_on_their_lines() {
        let volatile = Json::object()
            .field("wall_ms", Json::Fixed(516.683, 3))
            .field("cache", Json::object().field("hits", 188u32))
            .field("shard_occupancy", vec![2u32, 1, 2])
            .field(
                "queue",
                Json::object().field("p50", vec![Json::object().field("x", 1u32)]),
            );
        let sweep = Json::object()
            .field("platform", "ia32")
            .field("rows", vec![Json::object().field("cycles", 1u32)])
            .field("volatile", volatile.clone());
        let doc = Json::object()
            .field("sweeps", vec![sweep.clone(), sweep])
            .field(
                "timing",
                Json::object()
                    .field("steps", 3u32)
                    .field("wall_ms", Json::Fixed(1.5, 3)),
            )
            .field(
                "wall_ms",
                Json::object().field("adaptive", Json::Fixed(31.2, 3)),
            )
            .field("volatile", volatile);
        let text = doc.pretty();
        let whole: Vec<String> = volatile_values(&doc).iter().map(|v| v.compact()).collect();
        let (volatile_lines, kept): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| {
            VOLATILE_KEYS
                .iter()
                .any(|k| l.contains(&format!("\"{k}\"")))
        });
        // Two sweep `volatile`s, `timing.wall_ms`, top-level `wall_ms` and
        // `volatile`; a nested `wall_ms` rides on its `volatile` line.
        assert_eq!(volatile_lines.len(), 5, "{text}");
        for line in volatile_lines {
            // Exactly one member, named by a volatile key, with its whole
            // value on this line.
            let member = line.trim_start().trim_end_matches(',');
            let (name, value) = member.split_once(": ").expect("one member per line");
            assert!(
                VOLATILE_KEYS.iter().any(|k| name == format!("\"{k}\"")),
                "{line}"
            );
            assert!(whole.iter().any(|w| w == value), "partial value: {line}");
        }
        // The CI filter loses nothing but volatile data.
        for stable in ["\"platform\"", "\"rows\"", "\"cycles\"", "\"steps\""] {
            assert!(
                kept.iter().any(|l| l.contains(stable)),
                "{stable} lost:\n{text}"
            );
        }
    }

    fn volatile_values(v: &Json) -> Vec<&Json> {
        match v {
            Json::Arr(items) => items.iter().flat_map(volatile_values).collect(),
            Json::Obj(members) => members
                .iter()
                .flat_map(|(k, v)| {
                    let mut found = volatile_values(v);
                    if VOLATILE_KEYS.contains(&k.as_str()) {
                        found.push(v);
                    }
                    found
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}
