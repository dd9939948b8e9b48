//! A minimal JSON writer (the workspace builds without crates.io, so no
//! serde) and the run's environment header.

use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// A JSON value under construction. Objects keep insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a fraction.
    Int(i128),
    /// A float, printed with all its digits (non-finite becomes `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a field (objects only; a no-op on anything else).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(fields) = &mut self {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i128)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i128)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
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
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// Cores visible to this process when it first asked — before
/// `sut::separate_cores` narrows the process's own affinity to one of
/// them, after which the standard library would answer 1.
pub fn nproc() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let line = String::from_utf8_lossy(&out.stdout).lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// The environment and validity header of `results.json`: what a reader
/// needs to decide whether two result files are comparable.
pub fn environment(seed: u64, scratch: &Path) -> Json {
    let cores = nproc();
    Json::object()
        .field("nproc", cores)
        // With one core, generator and server time-slice it: rates bound
        // software overhead, not capacity, and every result is flagged.
        .field("single_core", cores < 2)
        // Generator on CPU 0, server on the rest (see `sut::separate_cores`).
        .field("server_cpus", crate::sut::server_cpus().map_or(Json::Null, Json::from))
        .field(
            "git_rev",
            command_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
                .map_or(Json::Null, Json::from),
        )
        .field("rustc", command_line("rustc", &["--version"]).map_or(Json::Null, Json::from))
        .field("scratch_filesystem", filesystem_of(scratch))
        .field("seed", seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_in_order() {
        let j = Json::object()
            .field("a", 1u64)
            .field("b", 1.5)
            .field("c", "x\"y\n")
            .field("d", vec![Json::Null, Json::Bool(true)])
            .field("e", Json::object().field("f", f64::NAN));
        assert_eq!(
            j.render(),
            r#"{"a": 1, "b": 1.5, "c": "x\"y\n", "d": [null, true], "e": {"f": null}}"#
        );
    }

    #[test]
    fn floats_keep_all_their_digits() {
        assert_eq!(Json::from(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::from(3.0).render(), "3.0");
    }
}
