//! The checkpoint journal: terminal cell outcomes, persisted with an
//! atomic temp-file+rename writer.
//!
//! The journal is append-only in content — records are only ever added
//! — but each flush rewrites the file in full through a `.tmp` sibling
//! followed by `fs::rename`. POSIX rename is atomic within a
//! filesystem, so a kill at any instant leaves either the previous
//! journal or the new one on disk, never a torn mixture. That contract
//! is what makes resume safe, and smartlint rule `C1` pins it: the two
//! annotated writes below are the only file-writing sites allowed in
//! this crate.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use smartbalance::JobResult;

use crate::flight::{AttemptOutcome, FlightRecord};

/// One terminal cell outcome, as stored on disk (one JSON line each).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The cell ran to completion (possibly after retries).
    Completed {
        /// Content-addressed cell identity.
        id: String,
        /// Grid index the cell completed at.
        index: usize,
        /// Total tries consumed (1 = first-try success).
        attempts: u32,
        /// The measurements, exactly as the suite produced them
        /// (boxed: a `JobResult` dwarfs the `Quarantined` variant).
        result: Box<JobResult>,
    },
    /// The cell exhausted its retry ladder and was quarantined.
    Quarantined {
        /// Content-addressed cell identity.
        id: String,
        /// Grid index the cell failed at.
        index: usize,
        /// Total tries consumed (always `max_retries + 1`).
        attempts: u32,
        /// The final failure: panic payload or budget violation.
        error: String,
        /// Every rung of the retry ladder, in attempt order. `None`
        /// only when the record was replayed from a pre-v2 journal
        /// (the mini-serde deserializer maps a missing key to `None`).
        attempts_log: Option<Vec<AttemptOutcome>>,
        /// Flight-recorder forensics from the final failed attempt.
        /// `None` only on records replayed from a pre-v2 journal.
        flight: Option<Box<FlightRecord>>,
    },
}

impl JournalRecord {
    /// The record's content-addressed identity.
    pub fn id(&self) -> &str {
        match self {
            JournalRecord::Completed { id, .. } | JournalRecord::Quarantined { id, .. } => id,
        }
    }

    /// The record's grid index.
    pub fn index(&self) -> usize {
        match self {
            JournalRecord::Completed { index, .. } | JournalRecord::Quarantined { index, .. } => {
                *index
            }
        }
    }

    /// Total tries the cell consumed.
    pub fn attempts(&self) -> u32 {
        match self {
            JournalRecord::Completed { attempts, .. }
            | JournalRecord::Quarantined { attempts, .. } => *attempts,
        }
    }
}

/// The on-disk checkpoint state of one campaign, keyed by cell
/// identity (a `BTreeMap`, so the serialized line order is
/// deterministic regardless of completion order).
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    /// Each record with its JSON line, rendered once when the record
    /// enters the journal, so a flush only joins lines.
    records: BTreeMap<String, (JournalRecord, String)>,
    skipped_lines: usize,
}

impl CheckpointJournal {
    /// Opens the journal at `path`, replaying any existing records. A
    /// missing file is an empty journal (fresh campaign); a line that
    /// does not parse — a torn tail left by a non-atomic foreign
    /// writer, or hand-edited damage — is skipped and counted in
    /// [`CheckpointJournal::skipped_lines`] rather than aborting the
    /// resume, because every record is self-contained. A replayed
    /// record is rendered afresh rather than kept as read, so a line in
    /// an older schema flushes in the current one.
    pub fn load(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut journal = CheckpointJournal {
            path,
            records: BTreeMap::new(),
            skipped_lines: 0,
        };
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<JournalRecord>(line) {
                Ok(rec) => journal.insert(rec)?,
                Err(_) => journal.skipped_lines += 1,
            }
        }
        Ok(journal)
    }

    /// Where this journal persists.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a terminal outcome for `id` is already checkpointed.
    pub fn contains(&self, id: &str) -> bool {
        self.records.contains_key(id)
    }

    /// The checkpointed outcome for `id`, if any.
    pub fn get(&self, id: &str) -> Option<&JournalRecord> {
        self.records.get(id).map(|(record, _)| record)
    }

    /// Adds (or overwrites) a terminal outcome in memory and renders
    /// its journal line; call [`CheckpointJournal::flush`] to persist.
    /// Returns `Err` only if the record does not serialize.
    pub fn insert(&mut self, record: JournalRecord) -> io::Result<()> {
        let line = serde_json::to_string(&record).map_err(io::Error::other)?;
        self.records.insert(record.id().to_owned(), (record, line));
        Ok(())
    }

    /// Number of checkpointed cells.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Unparseable lines skipped during [`CheckpointJournal::load`].
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The records in identity order.
    pub fn records(&self) -> impl Iterator<Item = &JournalRecord> {
        self.records.values().map(|(record, _)| record)
    }

    /// Persists the journal atomically: joins the records' rendered
    /// lines into JSONL, writes the whole byte string to a `.tmp`
    /// sibling, syncs it to stable storage, then renames it over the
    /// live path. The rename is the commit point — a crash before it
    /// leaves the previous journal intact, a crash after it leaves the
    /// new one. Returns the number of bytes committed (feeds the live
    /// plane's flush stats).
    pub fn flush(&self) -> io::Result<usize> {
        let mut buf = String::with_capacity(self.records.values().map(|(_, l)| l.len() + 1).sum());
        for (_, line) in self.records.values() {
            buf.push_str(line);
            buf.push('\n');
        }
        let tmp = tmp_sibling(&self.path);
        {
            // smartlint: allow(checkpoint-write, "this is the sanctioned atomic writer: the bytes go to the .tmp sibling, never the live journal")
            let mut file = fs::File::create(&tmp)?;
            // smartlint: allow(checkpoint-write, "writes the .tmp sibling opened above; the rename below is the commit point")
            file.write_all(buf.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        Ok(buf.len())
    }
}

/// `<path>.tmp`, kept next to the journal so the rename never crosses
/// a filesystem boundary (cross-device renames are not atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, index: usize) -> JournalRecord {
        JournalRecord::Quarantined {
            id: id.to_owned(),
            index,
            attempts: 3,
            error: "boom".to_owned(),
            attempts_log: Some(vec![
                AttemptOutcome {
                    attempt: 1,
                    error: "boom".to_owned(),
                },
                AttemptOutcome {
                    attempt: 2,
                    error: "boom".to_owned(),
                },
                AttemptOutcome {
                    attempt: 3,
                    error: "boom".to_owned(),
                },
            ]),
            flight: Some(Box::new(FlightRecord::default())),
        }
    }

    fn temp_journal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("campaign-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir creates");
        dir.join(name)
    }

    #[test]
    fn round_trips_records_through_disk() {
        let path = temp_journal("roundtrip.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        assert!(j.is_empty());
        j.insert(record("aaaa", 0)).expect("insert");
        j.insert(record("bbbb", 1)).expect("insert");
        j.flush().expect("flush");

        let j2 = CheckpointJournal::load(&path).expect("reload");
        assert_eq!(j2.len(), 2);
        assert!(j2.contains("aaaa") && j2.contains("bbbb"));
        assert_eq!(j2.get("bbbb").map(JournalRecord::index), Some(1));
        assert_eq!(j2.skipped_lines(), 0);
    }

    #[test]
    fn torn_tail_lines_are_skipped_not_fatal() {
        let path = temp_journal("torn.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        j.insert(record("cccc", 0)).expect("insert");
        j.flush().expect("flush");
        // Simulate a kill mid-append by a non-atomic writer.
        let mut text = fs::read_to_string(&path).expect("read back");
        text.push_str("{\"Completed\":{\"id\":\"dddd\",\"ind");
        fs::write(&path, text).expect("corrupt");

        let j2 = CheckpointJournal::load(&path).expect("reload tolerates tail");
        assert_eq!(j2.len(), 1, "the intact record survives");
        assert_eq!(j2.skipped_lines(), 1, "the torn line is counted");
    }

    #[test]
    fn pre_v2_quarantine_lines_still_parse() {
        // A Quarantined line exactly as schema-1 journals wrote it: no
        // attempts_log, no flight. Resume must replay it rather than
        // recompute the cell.
        let line =
            r#"{"Quarantined":{"id":"0123456789abcdef","index":4,"attempts":3,"error":"boom"}}"#;
        let rec: JournalRecord = serde_json::from_str(line).expect("old line parses");
        match rec {
            JournalRecord::Quarantined {
                attempts,
                attempts_log,
                flight,
                ..
            } => {
                assert_eq!(attempts, 3);
                assert!(attempts_log.is_none(), "missing key maps to None");
                assert!(flight.is_none(), "missing key maps to None");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn quarantine_forensics_round_trip_through_disk() {
        let path = temp_journal("forensics.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        j.insert(record("ffff", 2)).expect("insert");
        j.flush().expect("flush");
        let j2 = CheckpointJournal::load(&path).expect("reload");
        match j2.get("ffff").expect("record present") {
            JournalRecord::Quarantined {
                attempts_log: Some(log),
                flight: Some(flight),
                ..
            } => {
                assert_eq!(log.len(), 3);
                assert_eq!(log[0].attempt, 1);
                assert_eq!(log[2].error, "boom");
                assert!(flight.spans.is_empty());
            }
            other => panic!("forensics lost in round trip: {other:?}"),
        }
    }

    /// What `flush` writes, rendered the slow way: every record's
    /// `serde_json::to_string` line, in identity order.
    fn rendered(records: &[&JournalRecord]) -> String {
        records
            .iter()
            .map(|r| serde_json::to_string(r).expect("serialize") + "\n")
            .collect()
    }

    #[test]
    fn flush_writes_each_record_rendered_in_id_order() {
        let path = temp_journal("rendered.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load empty");
        j.insert(record("bbbb", 1)).expect("insert");
        j.insert(record("aaaa", 0)).expect("insert");
        // A second insert for a cell replaces its line.
        let retried = JournalRecord::Quarantined {
            id: "bbbb".to_owned(),
            index: 1,
            attempts: 1,
            error: "again".to_owned(),
            attempts_log: None,
            flight: None,
        };
        j.insert(retried.clone()).expect("overwrite");
        let bytes = j.flush().expect("flush");
        let text = fs::read_to_string(&path).expect("read");
        assert_eq!(text, rendered(&[&record("aaaa", 0), &retried]));
        assert_eq!(bytes, text.len());
    }

    #[test]
    fn pre_v2_line_flushes_in_the_current_schema() {
        let path = temp_journal("pre_v2.jsonl");
        let line =
            r#"{"Quarantined":{"id":"0123456789abcdef","index":4,"attempts":3,"error":"boom"}}"#;
        fs::write(&path, format!("{line}\n")).expect("seed journal");
        let j = CheckpointJournal::load(&path).expect("load");
        let parsed: JournalRecord = serde_json::from_str(line).expect("old line parses");
        j.flush().expect("flush");
        let text = fs::read_to_string(&path).expect("read");
        assert_eq!(text, rendered(&[&parsed]));
        assert_ne!(text.trim_end(), line, "the raw pre-v2 text is not kept");
    }

    #[test]
    fn flush_leaves_no_tmp_residue_and_is_idempotent() {
        let path = temp_journal("residue.jsonl");
        let _ = fs::remove_file(&path);
        let mut j = CheckpointJournal::load(&path).expect("load");
        j.insert(record("eeee", 4)).expect("insert");
        j.flush().expect("first flush");
        j.flush().expect("second flush");
        assert!(!tmp_sibling(&path).exists(), "tmp is always renamed away");
        let a = fs::read_to_string(&path).expect("read");
        j.flush().expect("third flush");
        let b = fs::read_to_string(&path).expect("read again");
        assert_eq!(a, b, "re-flushing identical state is byte-identical");
    }
}
