//! Pinned program outputs: `goldens.json`.
//!
//! The benchmark's correctness oracle is the program's deterministic
//! output, not its speed: event totals, per-epoch `events` /
//! `active_after`, and the final patch state, per fixture size,
//! workload and seed. Normal runs only compare; `--bless` rewrites the
//! entry of the run it just made. Seeds 1 and 2 are pinned at both
//! sizes, so a claim made on one can be re-checked on the other. Runs
//! on other seeds still check every iteration against the first.

use crate::Size;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The outputs of one workload run that must repeat exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Golden {
    /// Events delivered over one iteration (openfoam, lulesh); writer
    /// operations applied at the pin point (repatch).
    pub events: u64,
    /// Per epoch: events dispatched, functions active afterwards.
    pub epochs: Vec<(u64, u64)>,
    /// Functions patched at the end.
    pub patched: u64,
    /// [`crate::fingerprint`] of the final patch state.
    pub fingerprint: String,
}

impl Golden {
    fn to_json(&self) -> Value {
        let epochs: Vec<Value> = self.epochs.iter().map(|&(e, a)| json!([e, a])).collect();
        json!({
            "events": self.events,
            "epochs": epochs,
            "patched": self.patched,
            "fingerprint": self.fingerprint.as_str(),
        })
    }

    fn from_json(v: &Value) -> Option<Self> {
        let epochs = v
            .get("epochs")?
            .as_array()?
            .iter()
            .map(|pair| Some((pair.get(0)?.as_u64()?, pair.get(1)?.as_u64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(Self {
            events: v.get("events")?.as_u64()?,
            epochs,
            patched: v.get("patched")?.as_u64()?,
            fingerprint: v.get("fingerprint")?.as_str()?.to_string(),
        })
    }
}

/// The parsed `goldens.json`: size → workload → seed → [`Golden`].
#[derive(Clone, Debug, Default)]
pub struct Goldens {
    entries: BTreeMap<(String, String, u64), Golden>,
}

impl Goldens {
    /// Where the file lives.
    pub fn path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("goldens.json")
    }

    /// Reads and parses the file. A missing file is an empty set (the
    /// state before the first `--bless`); a malformed one is an error.
    pub fn load() -> Result<Self, String> {
        let path = Self::path();
        match std::fs::read_to_string(&path) {
            Ok(text) => Self::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        let doc = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let mut out = Self::default();
        let sizes = doc.as_object().ok_or("top level is not an object")?;
        for (size, workloads) in sizes.iter() {
            let workloads = workloads.as_object().ok_or("size is not an object")?;
            for (workload, seeds) in workloads.iter() {
                let seeds = seeds.as_object().ok_or("workload is not an object")?;
                for (seed, golden) in seeds.iter() {
                    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
                    let golden = Golden::from_json(golden)
                        .ok_or_else(|| format!("bad golden {size}/{workload}/{seed}"))?;
                    out.entries
                        .insert((size.clone(), workload.clone(), seed), golden);
                }
            }
        }
        Ok(out)
    }

    /// The golden pinned for this run, if any.
    pub fn get(&self, size: Size, workload: &str, seed: u64) -> Option<&Golden> {
        self.entries
            .get(&(size.key().to_string(), workload.to_string(), seed))
    }

    /// Pins `golden` for this run (`--bless`).
    pub fn set(&mut self, size: Size, workload: &str, seed: u64, golden: Golden) {
        self.entries
            .insert((size.key().to_string(), workload.to_string(), seed), golden);
    }

    /// The file's text: one golden per line, grouped by size and
    /// workload, so a re-bless shows up as a one-line diff.
    fn to_text(&self) -> String {
        let mut sizes: BTreeMap<&str, BTreeMap<&str, Vec<String>>> = BTreeMap::new();
        for ((size, workload, seed), golden) in &self.entries {
            sizes
                .entry(size)
                .or_default()
                .entry(workload)
                .or_default()
                .push(format!("      \"{seed}\": {}", golden.to_json()));
        }
        let sizes: Vec<String> = sizes
            .into_iter()
            .map(|(size, workloads)| {
                let workloads: Vec<String> = workloads
                    .into_iter()
                    .map(|(w, seeds)| format!("    \"{w}\": {{\n{}\n    }}", seeds.join(",\n")))
                    .collect();
                format!("  \"{size}\": {{\n{}\n  }}", workloads.join(",\n"))
            })
            .collect();
        format!("{{\n{}\n}}\n", sizes.join(",\n"))
    }

    /// Writes the file back.
    pub fn save(&self) -> Result<(), String> {
        let path = Self::path();
        std::fs::write(&path, self.to_text()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_round_trip_through_json() {
        let g = Golden {
            events: 13_120_172,
            epochs: vec![(10, 5_179), (7, 4_000)],
            patched: 4_000,
            fingerprint: "00ff".into(),
        };
        let mut all = Goldens::default();
        all.set(Size::Full, "lulesh_events", 1, g.clone());
        all.set(Size::Quick, "lulesh_events", 2, Golden::default());
        let back = Goldens::parse(&all.to_text()).unwrap();
        assert_eq!(back.get(Size::Full, "lulesh_events", 1), Some(&g));
        assert_eq!(
            back.get(Size::Quick, "lulesh_events", 2),
            Some(&Golden::default())
        );
        assert_eq!(back.get(Size::Full, "lulesh_events", 2), None);
        assert!(Goldens::parse("[]").is_err());
        assert!(Goldens::parse(r#"{"full":{"w":{"x":{}}}}"#).is_err());
    }
}
