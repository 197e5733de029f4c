//! Persistent results store: append-only JSONL records of drained runs.
//!
//! Each [`StoreRecord`] is one shard's certified
//! [`RunSummary`] plus identifying metadata
//! (run id, `git describe`, shard index). Records append to
//! `<dir>/<run_id>.jsonl`, one JSON object per line, so a run can be
//! re-executed (appending new lines to the same file) without rewriting
//! history, and [`load_records`] can trend over every run in a directory.
//! The conventional location is `results/store/` at the repository root.

use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use flowtree_analysis::RunSummary;

use crate::shard::SwapEvent;

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

/// Where [`gc_store`] folds superseded lines: a compacted history file in
/// the store directory, excluded from directory scans like flight dumps
/// (its lines are still plain [`StoreRecord`]s, loadable by passing the
/// file path to [`load_records`] directly).
pub const HISTORY_FILE: &str = "history.jsonl";

/// Sidecar next to [`HISTORY_FILE`] recording *when* lines were folded:
/// one `{"at": <unix-secs>, "lines": N}` entry per [`gc_store`] fold, in
/// fold order. [`prune_history`] uses it to age lines; history files
/// predating the sidecar simply have unknown-age lines (never pruned by
/// `--max-age`, still prunable oldest-first by `--max-bytes`).
pub const HISTORY_META_FILE: &str = "history.meta.jsonl";

/// Is this store-directory file one of the maintenance files (flight
/// dumps, history, history metadata) rather than a live record file?
fn is_sidecar(p: &Path) -> bool {
    p.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("flight") || n == HISTORY_FILE || n == HISTORY_META_FILE)
}

/// Load records from a JSONL file, or from every `*.jsonl` file (sorted by
/// name) when `path` is a directory — except `flight*.jsonl` flight-recorder
/// dumps (which share the store directory but not the record schema), the
/// [`HISTORY_FILE`] of folded superseded runs, and its
/// [`HISTORY_META_FILE`] sidecar.
pub fn load_records(path: &Path) -> io::Result<Vec<StoreRecord>> {
    let mut records = Vec::new();
    if path.is_dir() {
        let mut files: Vec<PathBuf> = fs::read_dir(path)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .filter(|p| !is_sidecar(p))
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

/// One store file's outcome in a [`GcReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcFileReport {
    /// File name within the store directory.
    pub file: String,
    /// Lines kept in place (current git for their run id).
    pub kept: usize,
    /// Superseded lines folded (or foldable, under `--dry-run`) into
    /// [`HISTORY_FILE`].
    pub folded: usize,
}

/// What a [`gc_store`] pass did — or would do, when planned with
/// `dry_run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Per-file outcomes, sorted by file name (files with nothing to fold
    /// included, so a dry run lists the whole corpus).
    pub files: Vec<GcFileReport>,
    /// Whether this was a plan only (nothing written).
    pub dry_run: bool,
}

impl GcReport {
    /// Superseded lines across all files.
    pub fn total_folded(&self) -> usize {
        self.files.iter().map(|f| f.folded).sum()
    }

    /// Kept lines across all files.
    pub fn total_kept(&self) -> usize {
        self.files.iter().map(|f| f.kept).sum()
    }
}

/// Compact a store directory: within each record file, a line is
/// *superseded* when a later line carries the same `run_id` with a
/// different `git` — the file is append-only, so line order is re-run
/// order, and only the newest git's records describe the current tree.
/// Superseded lines move (verbatim, preserving legacy lines without a
/// `swaps` field byte for byte) into [`HISTORY_FILE`]; current lines stay.
/// With `dry_run` nothing is written and the report says what would fold.
/// Flight dumps and the history file itself are never touched.
pub fn gc_store(dir: &Path, dry_run: bool) -> io::Result<GcReport> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .filter(|p| !is_sidecar(p))
        .collect();
    files.sort();
    let mut report = GcReport { files: Vec::new(), dry_run };
    for file in files {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("<non-utf8>").to_string();
        let text = fs::read_to_string(&file)?;
        // (raw line, run_id, git) for every record line, in file order.
        let mut lines: Vec<(String, String, String)> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let record: StoreRecord = serde_json::from_str(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", file.display(), i + 1),
                )
            })?;
            lines.push((line.to_string(), record.run_id, record.git));
        }
        // The current git per run id is whatever the *last* line says.
        let mut current: Vec<(String, String)> = Vec::new();
        for (_, run_id, git) in &lines {
            match current.iter_mut().find(|(r, _)| r == run_id) {
                Some((_, g)) => g.clone_from(git),
                None => current.push((run_id.clone(), git.clone())),
            }
        }
        let is_current =
            |run_id: &str, git: &str| current.iter().any(|(r, g)| r == run_id && g == git);
        let (kept, folded): (Vec<_>, Vec<_>) =
            lines.iter().partition(|(_, run_id, git)| is_current(run_id, git));
        if !dry_run && !folded.is_empty() {
            let mut history =
                OpenOptions::new().create(true).append(true).open(dir.join(HISTORY_FILE))?;
            for (raw, _, _) in &folded {
                writeln!(history, "{raw}")?;
            }
            // Stamp the fold in the metadata sidecar so `prune_history`
            // can age these lines later.
            let at = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            let mut meta =
                OpenOptions::new().create(true).append(true).open(dir.join(HISTORY_META_FILE))?;
            writeln!(meta, "{{\"at\":{at},\"lines\":{}}}", folded.len())?;
            let mut out = String::new();
            for (raw, _, _) in &kept {
                out.push_str(raw);
                out.push('\n');
            }
            fs::write(&file, out)?;
        }
        report
            .files
            .push(GcFileReport { file: name, kept: kept.len(), folded: folded.len() });
    }
    Ok(report)
}

/// One live record file's row in an [`LsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsFileReport {
    /// File name within the store directory.
    pub file: String,
    /// Record lines in the file.
    pub records: usize,
    /// File size on disk.
    pub bytes: u64,
    /// Distinct run ids, in first-seen order.
    pub runs: Vec<String>,
    /// Distinct `git describe` revisions, in first-seen order.
    pub gits: Vec<String>,
}

/// What [`ls_store`] saw: live record files plus the maintenance files
/// that share the directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LsReport {
    /// Per record file, sorted by file name.
    pub files: Vec<LsFileReport>,
    /// Superseded records folded into [`HISTORY_FILE`].
    pub superseded: usize,
    /// Size of [`HISTORY_FILE`] on disk (0 when absent).
    pub history_bytes: u64,
    /// Flight-recorder dumps (`flight*.jsonl`) in the directory.
    pub flight_files: usize,
    /// Their combined size on disk.
    pub flight_bytes: u64,
}

impl LsReport {
    /// Live records across all files.
    pub fn total_records(&self) -> usize {
        self.files.iter().map(|f| f.records).sum()
    }

    /// Live record bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Distinct run ids across all files, in first-seen order.
    pub fn runs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for f in &self.files {
            for r in &f.runs {
                if !out.contains(r) {
                    out.push(r.clone());
                }
            }
        }
        out
    }

    /// Distinct git revisions across all files, in first-seen order.
    pub fn gits(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for f in &self.files {
            for g in &f.gits {
                if !out.contains(g) {
                    out.push(g.clone());
                }
            }
        }
        out
    }
}

/// Summarize a store directory without modifying it: every live record
/// file (validated line by line — a corrupt record is an error, same as a
/// [`load_records`] scan), the folded history, and any flight dumps.
pub fn ls_store(dir: &Path) -> io::Result<LsReport> {
    let mut report = LsReport::default();
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    for file in files {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("<non-utf8>").to_string();
        let bytes = fs::metadata(&file)?.len();
        if name.starts_with("flight") {
            report.flight_files += 1;
            report.flight_bytes += bytes;
            continue;
        }
        if name == HISTORY_META_FILE {
            continue;
        }
        if name == HISTORY_FILE {
            report.superseded = count_lines(&file)?;
            report.history_bytes = bytes;
            continue;
        }
        let mut records = Vec::new();
        load_file(&file, &mut records)?;
        let mut runs: Vec<String> = Vec::new();
        let mut gits: Vec<String> = Vec::new();
        for r in &records {
            if !runs.contains(&r.run_id) {
                runs.push(r.run_id.clone());
            }
            if !gits.contains(&r.git) {
                gits.push(r.git.clone());
            }
        }
        report
            .files
            .push(LsFileReport { file: name, records: records.len(), bytes, runs, gits });
    }
    Ok(report)
}

fn count_lines(path: &Path) -> io::Result<usize> {
    Ok(fs::read_to_string(path)?.lines().filter(|l| !l.trim().is_empty()).count())
}

/// Retention limits for [`prune_history`]; `None` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneLimits {
    /// Drop history lines folded more than this many days ago (needs the
    /// [`HISTORY_META_FILE`] sidecar; unknown-age lines are kept).
    pub max_age_days: Option<u64>,
    /// Keep [`HISTORY_FILE`] at most this large, dropping oldest lines
    /// first until it fits.
    pub max_bytes: Option<u64>,
}

/// What a [`prune_history`] pass did (or, under `dry_run`, would do).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PruneReport {
    /// History lines inspected.
    pub scanned: usize,
    /// Lines dropped (oldest first).
    pub pruned: usize,
    /// History file size before.
    pub bytes_before: u64,
    /// History file size after (projected, under `dry_run`).
    pub bytes_after: u64,
    /// Whether this was a plan only (nothing written).
    pub dry_run: bool,
}

/// Prune the folded history under retention [`PruneLimits`]. History lines
/// are in fold order, so age pruning and size pruning both drop from the
/// head — the oldest generations go first, and what remains is still a
/// contiguous, newest-suffix of the history. The metadata sidecar is
/// rewritten to match (fold entries covering dropped lines shrink or
/// disappear). Live record files are never touched; deletion is real here,
/// which is why [`gc_store`] (which only *moves* lines) is a separate
/// verb.
pub fn prune_history(dir: &Path, limits: PruneLimits, dry_run: bool) -> io::Result<PruneReport> {
    let path = dir.join(HISTORY_FILE);
    if !path.exists() {
        return Ok(PruneReport {
            scanned: 0,
            pruned: 0,
            bytes_before: 0,
            bytes_after: 0,
            dry_run,
        });
    }
    let text = fs::read_to_string(&path)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    // Parse the sidecar: (folded-at, line-count) per fold, oldest first.
    let meta_path = dir.join(HISTORY_META_FILE);
    let mut meta: Vec<(u64, usize)> = Vec::new();
    if meta_path.exists() {
        for (i, line) in fs::read_to_string(&meta_path)?.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v: serde::Value = serde_json::from_str(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", meta_path.display(), i + 1),
                )
            })?;
            let entry = (|| Some((v.get("at")?.as_u64()?, v.get("lines")?.as_u64()? as usize)))()
                .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: expected {{\"at\",\"lines\"}}", meta_path.display(), i + 1),
                )
            })?;
            meta.push(entry);
        }
    }
    // The sidecar covers the *newest* lines (it may be shorter than the
    // history when the history predates it): align coverage from the end.
    let covered: usize = meta.iter().map(|&(_, n)| n).sum::<usize>().min(lines.len());
    let unknown = lines.len() - covered;
    let mut folded_at: Vec<Option<u64>> = vec![None; unknown];
    for &(at, n) in &meta {
        for _ in 0..n {
            if folded_at.len() < lines.len() {
                folded_at.push(Some(at));
            }
        }
    }
    // Age pass: drop known-age lines older than the cutoff.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut keep: Vec<bool> = match limits.max_age_days {
        Some(days) => {
            let cutoff = now.saturating_sub(days.saturating_mul(86_400));
            folded_at.iter().map(|ts| !matches!(ts, Some(t) if *t < cutoff)).collect()
        }
        None => vec![true; lines.len()],
    };
    // Size pass: drop oldest kept lines until the survivors fit.
    if let Some(max) = limits.max_bytes {
        let line_bytes = |i: usize| lines[i].len() as u64 + 1;
        let mut total: u64 = (0..lines.len()).filter(|&i| keep[i]).map(line_bytes).sum();
        for (i, k) in keep.iter_mut().enumerate() {
            if total <= max {
                break;
            }
            if *k {
                *k = false;
                total -= line_bytes(i);
            }
        }
    }
    let pruned = keep.iter().filter(|k| !*k).count();
    let bytes_before = fs::metadata(&path)?.len();
    let bytes_after: u64 =
        (0..lines.len()).filter(|&i| keep[i]).map(|i| lines[i].len() as u64 + 1).sum();
    if !dry_run && pruned > 0 {
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            if keep[i] {
                out.push_str(line);
                out.push('\n');
            }
        }
        if out.is_empty() {
            fs::remove_file(&path)?;
        } else {
            fs::write(&path, out)?;
        }
        // Rewrite the sidecar: shrink each fold entry by its dropped
        // lines (unknown-age lines had no entry to begin with).
        let mut new_meta = String::new();
        let mut idx = unknown;
        for &(at, n) in &meta {
            let span = n.min(lines.len().saturating_sub(idx));
            let kept_in_span = (idx..idx + span).filter(|&i| keep[i]).count();
            idx += span;
            if kept_in_span > 0 {
                new_meta.push_str(&format!("{{\"at\":{at},\"lines\":{kept_in_span}}}\n"));
            }
        }
        if new_meta.is_empty() {
            if meta_path.exists() {
                fs::remove_file(&meta_path)?;
            }
        } else {
            fs::write(&meta_path, new_meta)?;
        }
    }
    Ok(PruneReport {
        scanned: lines.len(),
        pruned,
        bytes_before,
        bytes_after,
        dry_run,
    })
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
        assert_eq!(loaded, vec![record]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_folds_superseded_runs_and_preserves_legacy_lines() {
        let dir = std::env::temp_dir().join(format!("flowtree-store-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let summary = sample_summary();
        let record = |git: &str, shard: usize| StoreRecord {
            run_id: "r1".to_string(),
            git: git.to_string(),
            shard,
            shards: 2,
            summary: summary.clone(),
            swaps: Vec::new(),
        };
        // An old re-run under git "aaa" — one line predating the `swaps`
        // field — then the current run under git "bbb".
        let legacy = serde_json::to_string(&record("aaa", 0))
            .expect("serializes")
            .replace(",\"swaps\":[]", "");
        assert!(!legacy.contains("swaps"), "{legacy}");
        let current: Vec<String> = (0..2)
            .map(|s| serde_json::to_string(&record("bbb", s)).expect("serializes"))
            .collect();
        let file = dir.join("r1.jsonl");
        fs::write(&file, format!("{legacy}\n{}\n{}\n", current[0], current[1])).expect("seed");
        // A flight dump must never be touched by gc.
        fs::write(dir.join("flight-r1.jsonl"), "{\"not\":\"a record\"}\n").expect("flight");

        let plan = gc_store(&dir, true).expect("dry run");
        assert!(plan.dry_run);
        assert_eq!(plan.files, vec![GcFileReport { file: "r1.jsonl".into(), kept: 2, folded: 1 }]);
        assert!(!dir.join(HISTORY_FILE).exists(), "dry run must not write");

        let done = gc_store(&dir, false).expect("gc");
        assert_eq!((done.total_kept(), done.total_folded()), (2, 1));
        // The superseded legacy line moved to history byte for byte.
        let history = fs::read_to_string(dir.join(HISTORY_FILE)).expect("history");
        assert_eq!(history, format!("{legacy}\n"));
        let live = fs::read_to_string(&file).expect("live file");
        assert_eq!(live, format!("{}\n{}\n", current[0], current[1]));
        // Scans see only current records; history still loads explicitly.
        let records = load_records(&dir).expect("scan");
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.git == "bbb"));
        let old = load_records(&dir.join(HISTORY_FILE)).expect("history loads");
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].git, "aaa");
        assert!(old[0].swaps.is_empty());
        // Idempotent: a second pass folds nothing.
        let again = gc_store(&dir, false).expect("second gc");
        assert_eq!(again.total_folded(), 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn ls_summarizes_live_history_and_flight_files() {
        let dir = std::env::temp_dir().join(format!("flowtree-store-ls-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let summary = sample_summary();
        let record = |run: &str, git: &str, shard: usize| StoreRecord {
            run_id: run.to_string(),
            git: git.to_string(),
            shard,
            shards: 2,
            summary: summary.clone(),
            swaps: Vec::new(),
        };
        let store = ResultsStore::open(&dir).expect("open");
        store.append(&record("r1", "aaa", 0)).expect("append");
        store.append(&record("r1", "bbb", 0)).expect("append");
        store.append(&record("r1", "bbb", 1)).expect("append");
        store.append(&record("r2", "bbb", 0)).expect("append");
        fs::write(dir.join("flight-r1.jsonl"), "{\"not\":\"a record\"}\n").expect("flight");

        let before = ls_store(&dir).expect("ls");
        assert_eq!(before.files.len(), 2);
        assert_eq!(before.total_records(), 4);
        assert_eq!(before.runs(), vec!["r1".to_string(), "r2".to_string()]);
        assert_eq!(before.gits(), vec!["aaa".to_string(), "bbb".to_string()]);
        assert_eq!(before.superseded, 0);
        assert_eq!(before.flight_files, 1);
        assert!(before.flight_bytes > 0);
        assert!(before.total_bytes() > 0);

        // After gc, the superseded "aaa" line shows up as history.
        gc_store(&dir, false).expect("gc");
        let after = ls_store(&dir).expect("ls");
        assert_eq!(after.total_records(), 3);
        assert_eq!(after.superseded, 1);
        assert!(after.history_bytes > 0);
        assert_eq!(after.gits(), vec!["bbb".to_string()]);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn prune_history_drops_oldest_first_under_both_limits() {
        let dir = std::env::temp_dir().join(format!("flowtree-store-prune-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        // Three folded generations: an ancient pre-sidecar line (unknown
        // age), an old stamped fold, and a fresh stamped fold.
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        let l = |tag: &str| format!("{{\"line\":\"{tag}\"}}");
        fs::write(
            dir.join(HISTORY_FILE),
            format!("{}\n{}\n{}\n", l("ancient"), l("old"), l("fresh")),
        )
        .expect("history");
        fs::write(
            dir.join(HISTORY_META_FILE),
            format!("{{\"at\":{},\"lines\":1}}\n{{\"at\":{now},\"lines\":1}}\n", now - 10 * 86_400),
        )
        .expect("meta");

        // No limits: nothing to do.
        let noop = prune_history(&dir, PruneLimits::default(), false).expect("noop");
        assert_eq!((noop.scanned, noop.pruned), (3, 0));

        // Age limit of 5 days: the 10-day-old line goes; the unknown-age
        // ancient line is kept (no evidence it is old).
        let plan =
            prune_history(&dir, PruneLimits { max_age_days: Some(5), max_bytes: None }, true)
                .expect("dry run");
        assert_eq!((plan.scanned, plan.pruned), (3, 1));
        assert!(plan.dry_run);
        assert_eq!(
            fs::read_to_string(dir.join(HISTORY_FILE)).unwrap().lines().count(),
            3,
            "dry run must not write"
        );
        let done =
            prune_history(&dir, PruneLimits { max_age_days: Some(5), max_bytes: None }, false)
                .expect("prune");
        assert_eq!(done.pruned, 1);
        let left = fs::read_to_string(dir.join(HISTORY_FILE)).unwrap();
        assert_eq!(left, format!("{}\n{}\n", l("ancient"), l("fresh")));
        assert!(done.bytes_after < done.bytes_before);
        // The sidecar shrank to the surviving stamped fold.
        let meta = fs::read_to_string(dir.join(HISTORY_META_FILE)).unwrap();
        assert_eq!(meta, format!("{{\"at\":{now},\"lines\":1}}\n"));

        // Size limit smaller than one line: everything goes, files too.
        let wiped =
            prune_history(&dir, PruneLimits { max_age_days: None, max_bytes: Some(4) }, false)
                .expect("wipe");
        assert_eq!((wiped.scanned, wiped.pruned, wiped.bytes_after), (2, 2, 0));
        assert!(!dir.join(HISTORY_FILE).exists());
        assert!(!dir.join(HISTORY_META_FILE).exists());
        // Pruning an empty store is a clean no-op.
        let empty = prune_history(&dir, PruneLimits::default(), false).expect("empty");
        assert_eq!(empty.scanned, 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_stamps_the_history_sidecar() {
        let dir = std::env::temp_dir().join(format!("flowtree-store-meta-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let summary = sample_summary();
        let record = |git: &str| StoreRecord {
            run_id: "r1".to_string(),
            git: git.to_string(),
            shard: 0,
            shards: 1,
            summary: summary.clone(),
            swaps: Vec::new(),
        };
        let store = ResultsStore::open(&dir).expect("open");
        store.append(&record("aaa")).expect("append");
        store.append(&record("bbb")).expect("append");
        gc_store(&dir, false).expect("gc");
        let meta = fs::read_to_string(dir.join(HISTORY_META_FILE)).expect("sidecar written");
        assert!(meta.contains("\"lines\":1"), "{meta}");
        // The sidecar must not pollute record scans or a second gc.
        assert_eq!(load_records(&dir).expect("scan").len(), 1);
        assert_eq!(gc_store(&dir, false).expect("regc").total_folded(), 0);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn git_describe_never_panics() {
        let g = git_describe();
        assert!(!g.is_empty());
        assert!(!g.contains('\n'));
    }
}
