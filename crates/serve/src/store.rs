//! Persistent results store: append-only JSONL records of drained runs.
//!
//! Each [`StoreRecord`] is one shard's certified
//! [`RunSummary`] plus identifying metadata
//! (run id, `git describe`, shard index). Records append to
//! `<dir>/<run_id>.jsonl`, one JSON object per line, so a run can be
//! re-executed (appending new lines to the same file) without rewriting
//! history, and [`load_records`] can trend over every run in a directory.
//! The conventional location is `results/store/` at the repository root.
//! A directory scan reads every `*.jsonl` except flight dumps; a corrupt
//! line fails it with that file's `path:line`.

use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use flowtree_analysis::RunSummary;

use crate::shard::SwapEvent;
use crate::telemetry::is_flight_dump;

/// One persisted shard result.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// Identifies the serve run (conventionally from [`run_id`]).
    pub run_id: String,
    /// `git describe --always --dirty` of the producing tree (or
    /// `"unknown"` outside a repository).
    pub git: String,
    /// Which shard of the run this record is.
    pub shard: usize,
    /// How many shards the run had.
    pub shards: usize,
    /// The shard's certified run summary.
    pub summary: RunSummary,
    /// Scheduler hot-swaps applied during the run, in event-time order
    /// (empty for swap-free runs and for records predating the field).
    pub swaps: Vec<SwapEvent>,
}

// Manual impl instead of `impl_serde_struct!`: the macro rejects records
// missing a field, but `swaps` was added after stores were already written,
// so old JSONL lines must deserialize with an empty swap list.
impl serde::Serialize for StoreRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("run_id".to_string(), serde::Serialize::to_value(&self.run_id)),
            ("git".to_string(), serde::Serialize::to_value(&self.git)),
            ("shard".to_string(), serde::Serialize::to_value(&self.shard)),
            ("shards".to_string(), serde::Serialize::to_value(&self.shards)),
            ("summary".to_string(), serde::Serialize::to_value(&self.summary)),
            ("swaps".to_string(), serde::Serialize::to_value(&self.swaps)),
        ])
    }
}

impl serde::Deserialize for StoreRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            let f = v.get(name).ok_or_else(|| serde::Error::missing_field(name))?;
            T::from_value(f)
        }
        Ok(StoreRecord {
            run_id: field(v, "run_id")?,
            git: field(v, "git")?,
            shard: field(v, "shard")?,
            shards: field(v, "shards")?,
            summary: field(v, "summary")?,
            swaps: match v.get("swaps") {
                Some(f) => serde::Deserialize::from_value(f)?,
                None => Vec::new(),
            },
        })
    }
}

/// An append-only directory of JSONL run records.
#[derive(Debug, Clone)]
pub struct ResultsStore {
    dir: PathBuf,
}

impl ResultsStore {
    /// Open (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultsStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one record to `<dir>/<run_id>.jsonl`; returns the file path.
    pub fn append(&self, record: &StoreRecord) -> io::Result<PathBuf> {
        let file = self.dir.join(format!("{}.jsonl", sanitize(&record.run_id)));
        let line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut f = OpenOptions::new().create(true).append(true).open(&file)?;
        writeln!(f, "{line}")?;
        Ok(file)
    }

    /// Load every record in the store, file-sorted then line-ordered.
    pub fn load(&self) -> io::Result<Vec<StoreRecord>> {
        load_records(&self.dir)
    }
}

/// Load records from a JSONL file, or from every `*.jsonl` file (sorted by
/// name) when `path` is a directory — except flight-recorder dumps
/// ([`is_flight_dump`]), which share the store directory but not the
/// record schema.
pub fn load_records(path: &Path) -> io::Result<Vec<StoreRecord>> {
    let mut records = Vec::new();
    if path.is_dir() {
        let mut files: Vec<PathBuf> = fs::read_dir(path)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .filter(|p| !is_flight_dump(p))
            .collect();
        files.sort();
        for file in files {
            load_file(&file, &mut records)?;
        }
    } else {
        load_file(path, &mut records)?;
    }
    Ok(records)
}

fn load_file(path: &Path, out: &mut Vec<StoreRecord>) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record: StoreRecord = serde_json::from_str(line).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{}:{}: {e}", path.display(), i + 1))
        })?;
        out.push(record);
    }
    Ok(())
}

/// `git describe --always --dirty` of the current tree, or `"unknown"`.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The conventional run id: `<scenario>-<scheduler>-m<m>-s<seed>`,
/// sanitized for use as a file name.
pub fn run_id(scenario: &str, scheduler: &str, m: usize, seed: u64) -> String {
    sanitize(&format!("{scenario}-{scheduler}-m{m}-s{seed}"))
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ids_are_filesystem_safe() {
        assert_eq!(run_id("sort farm", "fifo", 8, 42), "sort-farm-fifo-m8-s42");
        assert_eq!(sanitize("a/b\\c:d"), "a-b-c-d");
    }

    fn sample_summary() -> RunSummary {
        use crate::pool::{ServeConfig, ShardPool};
        let pool = ShardPool::launch(ServeConfig::new("fifo".parse().expect("fifo parses"), 1))
            .expect("launch");
        pool.handle()
            .offer(flowtree_sim::JobSpec { graph: flowtree_dag::builder::chain(2), release: 0 })
            .expect("offer");
        pool.drain().expect("drain").remove(0).summary
    }

    #[test]
    fn records_without_swaps_field_still_deserialize() {
        let record = StoreRecord {
            run_id: "r1".to_string(),
            git: "abc1234".to_string(),
            shard: 0,
            shards: 1,
            summary: sample_summary(),
            swaps: vec![SwapEvent { t: 7, from: "fifo".to_string(), to: "lpf".to_string() }],
        };
        let line = serde_json::to_string(&record).expect("serializes");
        assert!(line.contains("\"swaps\""), "{line}");
        let back: StoreRecord = serde_json::from_str(&line).expect("roundtrips");
        assert_eq!(back, record);

        // A pre-control-plane line has no "swaps" key at all.
        let legacy = line.replace(",\"swaps\":[{\"t\":7,\"from\":\"fifo\",\"to\":\"lpf\"}]", "");
        assert!(!legacy.contains("swaps"), "{legacy}");
        let old: StoreRecord = serde_json::from_str(&legacy).expect("legacy line loads");
        assert!(old.swaps.is_empty());
        assert_eq!(old.summary, record.summary);
    }

    #[test]
    fn directory_scan_skips_flight_recorder_dumps() {
        let dir = std::env::temp_dir().join(format!("flowtree-store-scan-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let record = StoreRecord {
            run_id: "r1".to_string(),
            git: "abc1234".to_string(),
            shard: 0,
            shards: 1,
            summary: sample_summary(),
            swaps: Vec::new(),
        };
        let store = ResultsStore::open(&dir).expect("open");
        store.append(&record).expect("append");
        // A flight-recorder dump shares the directory but not the schema; a
        // drained serve run writes one beside the records by default.
        fs::write(dir.join("flight-r1.jsonl"), "{\"t_us\":1,\"shard\":0,\"kind\":\"drain\"}\n")
            .expect("write flight dump");
        let loaded = load_records(&dir).expect("flight dump must not break the scan");
        assert_eq!(loaded, vec![record.clone()]);
        // A corrupt record file is not skipped: the error names its line.
        let good = serde_json::to_string(&record).expect("serializes");
        fs::write(dir.join("bad.jsonl"), format!("{good}\n{{\"run_id\":\n")).expect("write");
        let err = load_records(&dir).expect_err("a malformed record line fails the scan");
        assert!(err.to_string().contains("bad.jsonl:2"), "{err}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn git_describe_never_panics() {
        let g = git_describe();
        assert!(!g.is_empty());
        assert!(!g.contains('\n'));
    }
}
