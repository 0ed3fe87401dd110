//! The on-disk instrumentation profile.
//!
//! A profile captures what one adaptive session learned, keyed by the
//! packed XRay IDs the runtime actually patches (the `capi::ic`
//! packed-ID extension), with enough identity information — a name plus
//! a content fingerprint per object — for a later session to re-anchor
//! those IDs safely (see [`crate::matching`]).
//!
//! Serialization is JSON with an explicit `schema_version` header and a
//! `kind` tag. [`InstrumentationProfile::to_json_string`] canonicalizes
//! before printing (objects by object ID, functions and efficiency rows
//! by raw packed ID, map keys sorted by the printer), so identical
//! states produce **byte-identical** files — the property the warm-start
//! benchmarks and the CI round-trip step diff for.

use crate::error::PersistError;
use serde_json::{write_escaped_str, Value};
use std::fmt::Write as _;
use std::path::Path;

/// Schema version this build writes.
///
/// Version 2 added the per-function sampling-rate dimension. Version 1
/// profiles (which predate it) are still accepted: parsing migrates
/// every function in at rate 1 — full instrumentation — which is
/// exactly what a v1 session ran, so the migration is lossless.
pub const SCHEMA_VERSION: u32 = 2;

/// The `kind` tag every profile carries.
const PROFILE_KIND: &str = "capi-instrumentation-profile";

/// Identity of one XRay object (main executable or DSO) at export time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectRecord {
    /// XRay object ID the records of this object were keyed under.
    pub object_id: u8,
    /// Object file name (e.g. `libsolver.so`).
    pub name: String,
    /// Content fingerprint over the symbol table (see
    /// [`fingerprint_object`]). Two loads of the same build match;
    /// a rebuild does not.
    pub fingerprint: u64,
}

/// A prior drop decision, carried so the next session can pre-trim at
/// epoch 0 and keep once-trimmed expansion candidates out (the
/// never-re-expand set is exactly the records with `times_dropped`
/// above the policy's re-drop allowance).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DropState {
    /// Epoch of the most recent drop in the recorded run.
    pub epoch: usize,
    /// How many times the function was dropped over that run.
    pub times_dropped: u32,
    /// Name of the policy that dropped it last.
    pub policy: String,
}

/// Everything the profile knows about one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionRecord {
    /// Raw packed `(object, function)` ID at export time.
    pub raw_id: u32,
    /// Resolved symbol name (or the stable `fid:0x…` placeholder).
    pub name: String,
    /// Whether the function was in the converged active set.
    pub active: bool,
    /// Sampling rate the function converged at (1-in-N); 1 means full
    /// instrumentation. Serialized only when above 1, so rate-1 rows
    /// stay byte-identical to their pre-sampling form (schema v2).
    pub rate: u32,
    /// Last measured per-epoch instrumentation cost, virtual ns.
    pub inst_ns: Option<u64>,
    /// Last measured per-epoch visit count (summed over ranks).
    pub visits: Option<u64>,
    /// Drop history, if the function was ever trimmed.
    pub drop: Option<DropState>,
}

/// Last observed efficiency of one TALP region (fixed-point
/// parts-per-million so the artifact stays byte-stable and
/// representation-independent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionSummary {
    /// Raw packed ID of the region's function.
    pub raw_id: u32,
    /// Display name.
    pub name: String,
    /// Epoch the summary was taken from (the last one that saw the
    /// region).
    pub epoch: usize,
    /// Load balance × 1e6.
    pub lb_ppm: u32,
    /// Communication fraction × 1e6.
    pub comm_ppm: u32,
    /// Parallel efficiency × 1e6.
    pub pe_ppm: u32,
    /// Region entries in that epoch.
    pub enters: u64,
}

impl RegionSummary {
    /// Converts a `[0, 1]` ratio to clamped parts-per-million.
    pub fn to_ppm(ratio: f64) -> u32 {
        (ratio.clamp(0.0, 1.0) * 1e6).round() as u32
    }
}

/// The persisted outcome of one adaptive session.
#[derive(Clone, Debug, PartialEq)]
pub struct InstrumentationProfile {
    /// The overhead budget the recorded run converged under, percent.
    pub budget_pct: f64,
    /// First epoch the recorded run converged at, if it did.
    pub converged_at: Option<usize>,
    /// Epochs the recorded run observed.
    pub epochs_observed: usize,
    /// Identity of every object the records reference.
    pub objects: Vec<ObjectRecord>,
    /// Per-function state (converged IC + drop records + cost seeds).
    pub functions: Vec<FunctionRecord>,
    /// Last-epoch efficiency summary per TALP region.
    pub efficiency: Vec<RegionSummary>,
}

impl InstrumentationProfile {
    /// Raw packed IDs of the converged active set, ascending.
    pub fn active_raw_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .functions
            .iter()
            .filter(|f| f.active)
            .map(|f| f.raw_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The per-epoch event volume this profile predicts for a warm run
    /// converged to the same configuration: each active function
    /// contributes two events (enter + exit) per visit, divided by its
    /// sampling rate. `None` when no active function carries visit
    /// data (nothing to baseline against). Seeds the event-volume
    /// regression detector in `capi-obs::health`.
    pub fn baseline_epoch_events(&self) -> Option<u64> {
        let mut total = 0u64;
        let mut seeded = false;
        for f in self.functions.iter().filter(|f| f.active) {
            if let Some(visits) = f.visits {
                seeded = true;
                total += 2 * visits / u64::from(f.rate.max(1));
            }
        }
        seeded.then_some(total)
    }

    /// Canonical, byte-deterministic JSON text (sorted rows, sorted
    /// keys, two-space indent, trailing newline). Identical profiles —
    /// regardless of the order their rows were pushed in — render
    /// identically.
    ///
    /// The text is streamed into one pre-sized `String`: rows are
    /// sorted by reference and every key is a literal, in the order
    /// `serde_json`'s `BTreeMap`-backed pretty printer emits them, so
    /// the bytes are exactly what printing the equivalent `Value` tree
    /// yields (the tests hold the two equal) at the cost of the bytes
    /// written, not of a tree node per field.
    pub fn to_json_string(&self) -> String {
        let mut objects: Vec<&ObjectRecord> = self.objects.iter().collect();
        objects.sort_by(|a, b| a.object_id.cmp(&b.object_id).then(a.name.cmp(&b.name)));
        let mut functions: Vec<&FunctionRecord> = self.functions.iter().collect();
        functions.sort_by_key(|f| f.raw_id);
        let mut efficiency: Vec<&RegionSummary> = self.efficiency.iter().collect();
        efficiency.sort_by_key(|r| r.raw_id);

        // Row sizes observed on the 60 k OpenFOAM profile (~170 bytes a
        // function row with its name, ~150 an efficiency row); an
        // underestimate only costs a regrow.
        let mut out = String::with_capacity(
            256 + 96 * objects.len() + 192 * functions.len() + 176 * efficiency.len(),
        );
        // `Number`'s formatting keeps the decimal point on integral
        // floats and prints a non-finite budget as `null`.
        let _ = write!(
            out,
            "{{\n  \"budget_pct\": {}",
            serde_json::Number::Float(self.budget_pct)
        );
        out.push_str(",\n  \"converged_at\": ");
        match self.converged_at {
            Some(e) => push_u64(&mut out, e as u64),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"efficiency\": ");
        write_rows(&mut out, &efficiency, |out, r| {
            out.push_str("\n      \"comm_ppm\": ");
            push_u64(out, u64::from(r.comm_ppm));
            out.push_str(",\n      \"enters\": ");
            push_u64(out, r.enters);
            out.push_str(",\n      \"epoch\": ");
            push_u64(out, r.epoch as u64);
            out.push_str(",\n      \"lb_ppm\": ");
            push_u64(out, u64::from(r.lb_ppm));
            out.push_str(",\n      \"name\": ");
            write_escaped_str(out, &r.name);
            out.push_str(",\n      \"pe_ppm\": ");
            push_u64(out, u64::from(r.pe_ppm));
            out.push_str(",\n      \"raw_id\": ");
            push_u64(out, u64::from(r.raw_id));
        });
        out.push_str(",\n  \"epochs_observed\": ");
        push_u64(&mut out, self.epochs_observed as u64);
        out.push_str(",\n  \"functions\": ");
        write_rows(&mut out, &functions, |out, f| {
            out.push_str("\n      \"active\": ");
            out.push_str(if f.active { "true" } else { "false" });
            if let Some(d) = &f.drop {
                out.push_str(",\n      \"drop\": {\n        \"epoch\": ");
                push_u64(out, d.epoch as u64);
                out.push_str(",\n        \"policy\": ");
                write_escaped_str(out, &d.policy);
                out.push_str(",\n        \"times_dropped\": ");
                push_u64(out, u64::from(d.times_dropped));
                out.push_str("\n      }");
            }
            if let Some(c) = f.inst_ns {
                out.push_str(",\n      \"inst_ns\": ");
                push_u64(out, c);
            }
            out.push_str(",\n      \"name\": ");
            write_escaped_str(out, &f.name);
            if f.rate > 1 {
                out.push_str(",\n      \"rate\": ");
                push_u64(out, u64::from(f.rate));
            }
            out.push_str(",\n      \"raw_id\": ");
            push_u64(out, u64::from(f.raw_id));
            if let Some(n) = f.visits {
                out.push_str(",\n      \"visits\": ");
                push_u64(out, n);
            }
        });
        out.push_str(",\n  \"kind\": ");
        write_escaped_str(&mut out, PROFILE_KIND);
        out.push_str(",\n  \"objects\": ");
        write_rows(&mut out, &objects, |out, o| {
            out.push_str("\n      \"fingerprint\": ");
            push_u64(out, o.fingerprint);
            out.push_str(",\n      \"name\": ");
            write_escaped_str(out, &o.name);
            out.push_str(",\n      \"object_id\": ");
            push_u64(out, u64::from(o.object_id));
        });
        out.push_str(",\n  \"schema_version\": ");
        push_u64(&mut out, u64::from(SCHEMA_VERSION));
        out.push_str("\n}\n");
        out
    }

    /// Parses profile text, rejecting wrong kinds, schema mismatches,
    /// and malformed/truncated documents with typed errors.
    pub fn parse(text: &str) -> Result<Self, PersistError> {
        let doc: Value = serde_json::from_str(text)
            .map_err(|e| PersistError::Malformed(format!("JSON parse failed: {e:?}")))?;
        let kind = doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| PersistError::Malformed("missing `kind` tag".into()))?;
        if kind != PROFILE_KIND {
            return Err(PersistError::WrongKind(kind.to_string()));
        }
        // The version gate comes before any structural parsing: a newer
        // schema may be structurally incompatible, and the error must
        // say *why* instead of an arbitrary missing-field message.
        let found = doc
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| PersistError::Malformed("missing `schema_version`".into()))?
            as u32;
        // v1 is a strict structural subset of v2 (no `rate` keys), so
        // the same parser migrates it: every function comes in at the
        // rate-1 default the v1 session actually ran at.
        if found != SCHEMA_VERSION && found != 1 {
            return Err(PersistError::SchemaMismatch {
                found,
                expected: SCHEMA_VERSION,
            });
        }
        let budget_pct = doc
            .get("budget_pct")
            .and_then(Value::as_f64)
            .ok_or_else(|| PersistError::Malformed("missing `budget_pct`".into()))?;
        let converged_at = match doc.get("converged_at") {
            None | Some(Value::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| PersistError::Malformed("bad `converged_at`".into()))?
                    as usize,
            ),
        };
        let epochs_observed = doc
            .get("epochs_observed")
            .and_then(Value::as_u64)
            .ok_or_else(|| PersistError::Malformed("missing `epochs_observed`".into()))?
            as usize;

        let mut objects = Vec::new();
        for o in req_array(&doc, "objects")? {
            objects.push(ObjectRecord {
                object_id: req_bounded(o, "object_id", u64::from(u8::MAX))? as u8,
                name: req_str(o, "name")?,
                fingerprint: req_u64(o, "fingerprint")?,
            });
        }
        let mut functions = Vec::new();
        for f in req_array(&doc, "functions")? {
            let drop = match f.get("drop") {
                None | Some(Value::Null) => None,
                Some(d) => Some(DropState {
                    epoch: req_u64(d, "epoch")? as usize,
                    times_dropped: req_bounded(d, "times_dropped", u64::from(u32::MAX))? as u32,
                    policy: req_str(d, "policy")?,
                }),
            };
            let rate = match opt_u64(f, "rate")? {
                None => 1,
                Some(0) => {
                    return Err(PersistError::Malformed(
                        "`rate` 0 is meaningless: rates are 1-in-N with N >= 1".into(),
                    ))
                }
                Some(r) if r > u64::from(u32::MAX) => {
                    return Err(PersistError::Malformed(format!(
                        "`rate` {r} exceeds maximum {}",
                        u32::MAX
                    )))
                }
                Some(r) => r as u32,
            };
            functions.push(FunctionRecord {
                raw_id: req_bounded(f, "raw_id", u64::from(u32::MAX))? as u32,
                name: req_str(f, "name")?,
                active: f
                    .get("active")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| PersistError::Malformed("missing `active`".into()))?,
                rate,
                inst_ns: opt_u64(f, "inst_ns")?,
                visits: opt_u64(f, "visits")?,
                drop,
            });
        }
        let mut efficiency = Vec::new();
        for r in req_array(&doc, "efficiency")? {
            efficiency.push(RegionSummary {
                raw_id: req_bounded(r, "raw_id", u64::from(u32::MAX))? as u32,
                name: req_str(r, "name")?,
                epoch: req_u64(r, "epoch")? as usize,
                lb_ppm: req_bounded(r, "lb_ppm", u64::from(u32::MAX))? as u32,
                comm_ppm: req_bounded(r, "comm_ppm", u64::from(u32::MAX))? as u32,
                pe_ppm: req_bounded(r, "pe_ppm", u64::from(u32::MAX))? as u32,
                enters: req_u64(r, "enters")?,
            });
        }
        Ok(Self {
            budget_pct,
            converged_at,
            epochs_observed,
            objects,
            functions,
            efficiency,
        })
    }

    /// Writes the canonical form to `path`, atomically: the bytes go
    /// to a uniquely named sibling temp file first and are renamed
    /// into place, so neither a crash mid-write nor a concurrent
    /// reader/writer on the same `CAPI_PROFILE_PATH` can observe (or
    /// publish) a torn profile — the previous good file survives until
    /// a complete replacement lands. The temp name carries the process
    /// ID and a process-wide counter so two savers never share one, and
    /// the temp file is removed whichever step fails (a short write on
    /// a full disk included).
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        publish_via(Path::new(&tmp), path, &self.to_json_string())
    }

    /// Loads and parses a profile from `path`.
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        let text = std::fs::read_to_string(path).map_err(|e| PersistError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::parse(&text)
    }

    /// Like [`Self::load`], wrapped in a `persist.load` telemetry span
    /// recording the path, the typed outcome ([`PersistError::kind`] on
    /// failure), the schema versions involved and the profile shape.
    pub fn load_with(path: &Path, tel: Option<&capi_obs::Telemetry>) -> Result<Self, PersistError> {
        let Some(tel) = tel else {
            return Self::load(path);
        };
        let span = tel.span("persist.load");
        let wall = std::time::Instant::now();
        let res = Self::load(path);
        span.arg("path", path.display());
        match &res {
            Ok(p) => {
                span.arg("outcome", "ok");
                span.arg("schema_version", SCHEMA_VERSION);
                span.arg("objects", p.objects.len());
                span.arg("functions", p.functions.len());
            }
            Err(e) => {
                span.arg("outcome", e.kind());
                if let PersistError::SchemaMismatch { found, expected } = e {
                    span.arg("found_version", *found);
                    span.arg("expected_version", *expected);
                }
            }
        }
        span.wall_ns(wall.elapsed().as_nanos() as u64);
        res
    }

    /// Like [`Self::save`], wrapped in a `persist.save` telemetry span
    /// recording the path, outcome and profile shape.
    pub fn save_with(
        &self,
        path: &Path,
        tel: Option<&capi_obs::Telemetry>,
    ) -> Result<(), PersistError> {
        let Some(tel) = tel else {
            return self.save(path);
        };
        let span = tel.span("persist.save");
        let wall = std::time::Instant::now();
        let res = self.save(path);
        span.arg("path", path.display());
        span.arg("schema_version", SCHEMA_VERSION);
        span.arg("objects", self.objects.len());
        span.arg("functions", self.functions.len());
        match &res {
            Ok(()) => span.arg("outcome", "ok"),
            Err(e) => span.arg("outcome", e.kind()),
        }
        span.wall_ns(wall.elapsed().as_nanos() as u64);
        res
    }
}

/// Writes `text` to `tmp` and renames it onto `path`. Whichever step
/// fails, `tmp` is removed: a failed write may have created and torn
/// it, a failed rename leaves it whole but unpublished.
fn publish_via(tmp: &Path, path: &Path, text: &str) -> Result<(), PersistError> {
    std::fs::write(tmp, text)
        .and_then(|()| std::fs::rename(tmp, path))
        .map_err(|e| {
            std::fs::remove_file(tmp).ok();
            PersistError::Io {
                path: path.display().to_string(),
                reason: e.to_string(),
            }
        })
}

/// Appends one top-level array of the canonical form: `[]` when empty,
/// else one `{ … }` per row at four spaces, `fields` writing the row's
/// `"key": value` lines (each starting with its own newline + indent).
fn write_rows<T>(out: &mut String, rows: &[&T], fields: impl Fn(&mut String, &T)) {
    if rows.is_empty() {
        out.push_str("[]");
        return;
    }
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "[\n    {" } else { ",\n    {" });
        fields(out, row);
        out.push_str("\n    }");
    }
    out.push_str("\n  ]");
}

/// Appends `n` in decimal without going through `fmt`.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn req_array<'a>(doc: &'a Value, key: &str) -> Result<&'a Vec<Value>, PersistError> {
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| PersistError::Malformed(format!("missing `{key}` array")))
}

fn req_u64(doc: &Value, key: &str) -> Result<u64, PersistError> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| PersistError::Malformed(format!("missing `{key}`")))
}

/// Like [`req_u64`] but rejects values above `max` — an out-of-range
/// ID in a hand-edited or corrupted profile must be a typed error, not
/// an `as`-cast truncation that aliases the record onto a different
/// object/function.
fn req_bounded(doc: &Value, key: &str, max: u64) -> Result<u64, PersistError> {
    let v = req_u64(doc, key)?;
    if v > max {
        return Err(PersistError::Malformed(format!(
            "`{key}` {v} exceeds maximum {max}"
        )));
    }
    Ok(v)
}

/// An optional field may be absent (or null) — but if present it must
/// be a non-negative integer. Silently coercing a malformed value to
/// `None` would drop a cost seed without a trace, which is exactly the
/// kind of quiet degradation the typed-error contract forbids.
fn opt_u64(doc: &Value, key: &str) -> Result<Option<u64>, PersistError> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| PersistError::Malformed(format!("bad `{key}`: not a u64"))),
    }
}

fn req_str(doc: &Value, key: &str) -> Result<String, PersistError> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| PersistError::Malformed(format!("missing `{key}`")))
}

/// FNV-1a content fingerprint of one object: the object name followed
/// by every symbol's name and offset, in symbol-table order. Stable
/// across loads of the same build (load addresses do not participate);
/// any rebuild that adds, removes, renames, or moves a symbol changes
/// it.
pub fn fingerprint_object<'a, I>(name: &str, symbols: I) -> u64
where
    I: IntoIterator<Item = (&'a str, u64)>,
{
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(name.as_bytes());
    eat(&[0xff]);
    for (sym, offset) in symbols {
        eat(sym.as_bytes());
        eat(&offset.to_le_bytes());
        eat(&[0xfe]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The rendering `to_json_string` replaced — build the `Value` tree,
    /// pretty-print it — kept as the oracle the streamed writer is held
    /// byte-equal to.
    fn value_tree_text(p: &InstrumentationProfile) -> String {
        use serde_json::json;
        let mut objects = p.objects.clone();
        objects.sort_by(|a, b| a.object_id.cmp(&b.object_id).then(a.name.cmp(&b.name)));
        let mut functions = p.functions.clone();
        functions.sort_by_key(|f| f.raw_id);
        let mut efficiency = p.efficiency.clone();
        efficiency.sort_by_key(|r| r.raw_id);
        let doc = json!({
            "kind": PROFILE_KIND,
            "schema_version": SCHEMA_VERSION,
            "budget_pct": p.budget_pct,
            "converged_at": match p.converged_at {
                Some(e) => json!(e),
                None => Value::Null,
            },
            "epochs_observed": p.epochs_observed,
            "objects": objects.iter().map(|o| json!({
                "object_id": o.object_id,
                "name": o.name,
                "fingerprint": o.fingerprint,
            })).collect::<Vec<_>>(),
            "functions": functions.iter().map(|f| {
                let mut map = serde_json::Map::new();
                map.insert("raw_id".to_string(), json!(f.raw_id));
                map.insert("name".to_string(), json!(f.name));
                map.insert("active".to_string(), json!(f.active));
                if f.rate > 1 {
                    map.insert("rate".to_string(), json!(f.rate));
                }
                if let Some(c) = f.inst_ns {
                    map.insert("inst_ns".to_string(), json!(c));
                }
                if let Some(n) = f.visits {
                    map.insert("visits".to_string(), json!(n));
                }
                if let Some(d) = &f.drop {
                    map.insert(
                        "drop".to_string(),
                        json!({
                            "epoch": d.epoch,
                            "times_dropped": d.times_dropped,
                            "policy": d.policy,
                        }),
                    );
                }
                Value::Object(map)
            }).collect::<Vec<_>>(),
            "efficiency": efficiency.iter().map(|r| json!({
                "raw_id": r.raw_id,
                "name": r.name,
                "epoch": r.epoch,
                "lb_ppm": r.lb_ppm,
                "comm_ppm": r.comm_ppm,
                "pe_ppm": r.pe_ppm,
                "enters": r.enters,
            })).collect::<Vec<_>>(),
        });
        let mut out = serde_json::to_string_pretty(&doc).expect("profiles serialize");
        out.push('\n');
        out
    }

    fn sample_profile() -> InstrumentationProfile {
        InstrumentationProfile {
            budget_pct: 5.0,
            converged_at: Some(2),
            epochs_observed: 6,
            objects: vec![
                ObjectRecord {
                    object_id: 1,
                    name: "libsolver.so".into(),
                    fingerprint: 0xDEAD_BEEF,
                },
                ObjectRecord {
                    object_id: 0,
                    name: "app".into(),
                    fingerprint: 42,
                },
            ],
            functions: vec![
                FunctionRecord {
                    raw_id: 7,
                    name: "kernel".into(),
                    active: true,
                    rate: 4,
                    inst_ns: Some(1_200),
                    visits: Some(24),
                    drop: None,
                },
                FunctionRecord {
                    raw_id: 3,
                    name: "tiny_hot".into(),
                    active: false,
                    rate: 1,
                    inst_ns: Some(90_000),
                    visits: Some(50_000),
                    drop: Some(DropState {
                        epoch: 0,
                        times_dropped: 1,
                        policy: "budget".into(),
                    }),
                },
            ],
            efficiency: vec![RegionSummary {
                raw_id: 7,
                name: "kernel".into(),
                epoch: 5,
                lb_ppm: 750_000,
                comm_ppm: 120_000,
                pe_ppm: 660_000,
                enters: 24,
            }],
        }
    }

    #[test]
    fn round_trip_is_lossless_and_byte_identical() {
        let p = sample_profile();
        let text = p.to_json_string();
        let back = InstrumentationProfile::parse(&text).unwrap();
        // Parsing canonicalizes row order; compare canonically.
        assert_eq!(back.to_json_string(), text);
        assert_eq!(back.active_raw_ids(), vec![7]);
        assert_eq!(back.budget_pct, 5.0);
        assert_eq!(back.converged_at, Some(2));
        assert_eq!(back.functions.len(), 2);
        // Re-save of the parsed profile is byte-identical.
        assert_eq!(
            InstrumentationProfile::parse(&back.to_json_string())
                .unwrap()
                .to_json_string(),
            text
        );
    }

    #[test]
    fn row_order_does_not_affect_bytes() {
        let a = sample_profile();
        let mut b = sample_profile();
        b.functions.reverse();
        b.objects.reverse();
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let text = sample_profile()
            .to_json_string()
            .replace("\"schema_version\": 2", "\"schema_version\": 99");
        assert_eq!(
            InstrumentationProfile::parse(&text),
            Err(PersistError::SchemaMismatch {
                found: 99,
                expected: SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn v1_profiles_migrate_in_at_rate_one_losslessly() {
        // A v1 profile is exactly a v2 profile with no `rate` keys and
        // the old version header. Build one from a rate-free profile.
        let mut p = sample_profile();
        for f in &mut p.functions {
            f.rate = 1;
        }
        let v1_text = p
            .to_json_string()
            .replace("\"schema_version\": 2", "\"schema_version\": 1");
        let migrated = InstrumentationProfile::parse(&v1_text).unwrap();
        assert!(migrated.functions.iter().all(|f| f.rate == 1));
        // Lossless: besides the version header, the canonical re-render
        // is byte-identical to the v1 source.
        assert_eq!(
            migrated.to_json_string(),
            v1_text.replace("\"schema_version\": 1", "\"schema_version\": 2")
        );
        // Parsing canonicalizes row order; compare canonically.
        assert_eq!(
            migrated,
            InstrumentationProfile::parse(&p.to_json_string()).unwrap()
        );
    }

    #[test]
    fn rate_survives_the_round_trip_and_zero_is_rejected() {
        let p = sample_profile();
        let text = p.to_json_string();
        assert!(text.contains("\"rate\": 4"), "rate 4 serialized");
        let back = InstrumentationProfile::parse(&text).unwrap();
        let kernel = back.functions.iter().find(|f| f.raw_id == 7).unwrap();
        assert_eq!(kernel.rate, 4);
        // Rate 1 is the default and never emitted — tiny_hot's row
        // carries no rate key.
        let tiny = back.functions.iter().find(|f| f.raw_id == 3).unwrap();
        assert_eq!(tiny.rate, 1);
        // Rate 0 is meaningless and must be a typed error.
        let bad = text.replace("\"rate\": 4", "\"rate\": 0");
        let err = InstrumentationProfile::parse(&bad).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("rate")),
            "got {err:?}"
        );
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let text = sample_profile().to_json_string();
        for cut in [1, text.len() / 3, text.len() / 2, text.len() - 2] {
            let err = InstrumentationProfile::parse(&text[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Malformed(_)),
                "cut at {cut} must be Malformed, got {err:?}"
            );
        }
    }

    #[test]
    fn malformed_optional_fields_are_typed_errors_not_dropped() {
        let text = sample_profile()
            .to_json_string()
            .replace("\"inst_ns\": 1200", "\"inst_ns\": \"1200\"");
        let err = InstrumentationProfile::parse(&text).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("inst_ns")),
            "got {err:?}"
        );
    }

    #[test]
    fn out_of_range_ids_are_rejected_not_truncated() {
        // object_id 256 would silently alias object 0 under an as-cast.
        let text = sample_profile()
            .to_json_string()
            .replace("\"object_id\": 1", "\"object_id\": 256");
        let err = InstrumentationProfile::parse(&text).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("object_id")),
            "got {err:?}"
        );
        // raw_id beyond u32 would alias a small packed ID.
        let text = sample_profile()
            .to_json_string()
            .replace("\"raw_id\": 7", "\"raw_id\": 4294967299");
        let err = InstrumentationProfile::parse(&text).unwrap_err();
        assert!(
            matches!(&err, PersistError::Malformed(m) if m.contains("raw_id")),
            "got {err:?}"
        );
    }

    #[test]
    fn save_replaces_atomically_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("capi-persist-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let p = sample_profile();
        p.save(&path).unwrap();
        // Overwrite an existing profile: same result, no leftover temp.
        p.save(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), p.to_json_string());
        let leftover_tmp = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!leftover_tmp, "no temp files left behind");
        std::fs::remove_file(&path).ok();
    }

    /// A disk-full write: the temp path reaches `/dev/full`, so the file
    /// opens and the write fails with `ENOSPC` — the failure `save` used
    /// to answer by leaving the torn temp file beside the good profile.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_write_removes_the_temp_file_and_keeps_the_good_profile() {
        let dir = std::env::temp_dir().join("capi-persist-short-write-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let good = sample_profile();
        good.save(&path).unwrap();
        let tmp = dir.join("profile.json.tmp");
        std::fs::remove_file(&tmp).ok();
        std::os::unix::fs::symlink("/dev/full", &tmp).unwrap();
        let err = publish_via(&tmp, &path, "torn").unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }), "got {err:?}");
        assert!(
            std::fs::symlink_metadata(&tmp).is_err(),
            "the temp file must not outlive the failed write"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            good.to_json_string()
        );
        std::fs::remove_file(&path).ok();
    }

    /// Characters a name can carry that the writer must escape or pass
    /// through: quotes, backslashes, every control-character form, and
    /// multi-byte UTF-8.
    const NAME_ALPHABET: [char; 16] = [
        'a', 'Z', '_', ':', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{01}',
        'é', '💥',
    ];

    fn name() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..NAME_ALPHABET.len(), 0..10)
            .prop_map(|ix| ix.into_iter().map(|i| NAME_ALPHABET[i]).collect())
    }

    /// `Some` about half the time.
    fn maybe<T>(flag: bool, value: T) -> Option<T> {
        flag.then_some(value)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The streamed writer prints the bytes the `Value` tree would,
        /// and they parse back to the same profile — for hostile names,
        /// empty tables and every optional-field combination.
        #[test]
        fn streamed_text_equals_the_value_tree_and_round_trips(
            header in (0u32..200_000, any::<bool>(), 0usize..40, 0usize..40),
            objects in proptest::collection::vec((any::<u8>(), name(), any::<u64>()), 0..4),
            functions in proptest::collection::vec(
                ((any::<u32>(), name(), 0u8..64), (1u32..40, any::<u64>()), (0usize..9, 0u32..5, name())),
                0..8,
            ),
            efficiency in proptest::collection::vec(
                ((any::<u32>(), name()), (0usize..30, any::<u64>()), (0u32..=1_000_000, 0u32..=1_000_000, any::<u32>())),
                0..5,
            ),
        ) {
            let (budget_milli, converged, at, epochs_observed) = header;
            let p = InstrumentationProfile {
                budget_pct: f64::from(budget_milli) / 1000.0,
                converged_at: maybe(converged, at),
                epochs_observed,
                objects: objects
                    .into_iter()
                    .map(|(object_id, name, fingerprint)| ObjectRecord { object_id, name, fingerprint })
                    .collect(),
                functions: functions
                    .into_iter()
                    .map(|((raw_id, name, flags), (rate, n), (epoch, times_dropped, policy))| FunctionRecord {
                        raw_id,
                        name,
                        active: flags & 1 != 0,
                        rate: if flags & 2 != 0 { rate } else { 1 },
                        inst_ns: maybe(flags & 4 != 0, n),
                        visits: maybe(flags & 8 != 0, n / 3),
                        drop: maybe(flags & 16 != 0, DropState { epoch, times_dropped, policy }),
                    })
                    .collect(),
                efficiency: efficiency
                    .into_iter()
                    .map(|((raw_id, name), (epoch, enters), (lb_ppm, comm_ppm, pe_ppm))| RegionSummary {
                        raw_id,
                        name,
                        epoch,
                        lb_ppm,
                        comm_ppm,
                        pe_ppm,
                        enters,
                    })
                    .collect(),
            };
            let text = p.to_json_string();
            prop_assert_eq!(&text, &value_tree_text(&p));
            // Parsing yields the rows in file order, which is canonical
            // order (stable sorts, so ties keep their pushed order).
            let mut canonical = p.clone();
            canonical
                .objects
                .sort_by(|a, b| a.object_id.cmp(&b.object_id).then(a.name.cmp(&b.name)));
            canonical.functions.sort_by_key(|f| f.raw_id);
            canonical.efficiency.sort_by_key(|r| r.raw_id);
            let back = InstrumentationProfile::parse(&text);
            prop_assert_eq!(back.as_ref(), Ok(&canonical));
            // The same rows under the v1 header (which has no rates).
            if canonical.functions.iter().all(|f| f.rate == 1) {
                let v1 = text.replace("\"schema_version\": 2", "\"schema_version\": 1");
                prop_assert_eq!(InstrumentationProfile::parse(&v1), Ok(canonical));
            }
        }
    }

    #[test]
    fn a_non_finite_budget_prints_null_like_the_value_tree() {
        let mut p = sample_profile();
        p.budget_pct = f64::NAN;
        assert!(p.to_json_string().contains("\"budget_pct\": null"));
        assert_eq!(p.to_json_string(), value_tree_text(&p));
    }

    #[test]
    fn wrong_kind_is_typed() {
        let err = InstrumentationProfile::parse(r#"{"kind": "something-else"}"#).unwrap_err();
        assert_eq!(err, PersistError::WrongKind("something-else".into()));
        let err = InstrumentationProfile::parse(r#"{"schema_version": 1}"#).unwrap_err();
        assert!(matches!(err, PersistError::Malformed(_)));
    }

    #[test]
    fn load_missing_file_is_io() {
        let err = InstrumentationProfile::load(Path::new("/nonexistent/profile.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io { .. }));
    }

    #[test]
    fn save_load_through_disk() {
        let dir = std::env::temp_dir().join("capi-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.json");
        let p = sample_profile();
        p.save(&path).unwrap();
        let back = InstrumentationProfile::load(&path).unwrap();
        assert_eq!(back.to_json_string(), p.to_json_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprints_are_content_sensitive() {
        let base = fingerprint_object("lib.so", [("a", 0u64), ("b", 64)]);
        assert_eq!(base, fingerprint_object("lib.so", [("a", 0u64), ("b", 64)]));
        assert_ne!(
            base,
            fingerprint_object("other.so", [("a", 0u64), ("b", 64)])
        );
        assert_ne!(
            base,
            fingerprint_object("lib.so", [("a", 0u64), ("b", 128)])
        );
        assert_ne!(base, fingerprint_object("lib.so", [("a", 0u64)]));
        assert_ne!(base, fingerprint_object("lib.so", [("a", 0u64), ("c", 64)]));
    }

    #[test]
    fn ppm_conversion_clamps() {
        assert_eq!(RegionSummary::to_ppm(0.75), 750_000);
        assert_eq!(RegionSummary::to_ppm(-0.5), 0);
        assert_eq!(RegionSummary::to_ppm(7.0), 1_000_000);
    }
}
