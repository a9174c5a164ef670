//! Write-ahead job journal: crash-safe durability for `raven-serve`.
//!
//! Verification jobs are expensive — a single MILP run can burn a whole
//! deadline budget — so losing queued or running jobs to a crash,
//! OOM-kill, or redeploy silently throws away paid-for solver work. The
//! journal records every job's lifecycle in an append-only, checksummed
//! log so a restarted server can pick up exactly where the dead process
//! stopped:
//!
//! * **`Submitted`** (fsync'd before the client is acked) carries the job
//!   id, property, raw request body, and optional idempotency key —
//!   everything needed to re-run the job from scratch.
//! * **`Started`** (fsync'd before the worker computes) marks a pickup;
//!   a `Started` with no later terminal record is the signature of a
//!   crash-while-running, and replay counts them to quarantine "poison"
//!   jobs that keep killing the process.
//! * **`Completed` / `Failed`** are terminal. `Completed` embeds the full
//!   response envelope so a restarted server serves the *byte-identical*
//!   verdict without re-solving.
//! * **`Quarantined`** pins a poison verdict so later restarts don't
//!   re-count crash signatures.
//! * **`CleanShutdown`** is appended after a graceful drain; replay that
//!   ends on it skips the non-terminal rescue scan entirely (fast path).
//!
//! ## On-disk format
//!
//! A journal is a directory of segments `wal-<seq>.log`. Each record is
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][payload bytes]
//! ```
//!
//! with the payload a compact JSON object (`raven-json`). The checksum is
//! the same FNV-1a the model registry uses for content hashes. A torn or
//! corrupt record ends replay of its segment — everything before it is
//! kept, everything after is unreachable (append-only logs corrupt only
//! at the tail under crash, so this loses at most the last record).
//!
//! ## Rotation and compaction
//!
//! The active segment rotates once it exceeds `segment_bytes`. Closed
//! segments whose every job has reached a terminal state are *compacted*:
//! rewritten to hold only self-contained [`Record::Verdict`] entries
//! (cacheable envelopes plus the submit info that regenerates their cache
//! key), which keeps idempotent replay working while dropping the
//! lifecycle chatter. If the directory still exceeds `cap_bytes`, the
//! oldest closed segments are deleted — trading replayable cache warmth
//! for bounded disk, never correctness.

use raven_json::Json;
use raven_nn::fnv1a64;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Compaction keeps the whole journal directory below this many bytes
    /// (best-effort: the active segment is never deleted).
    pub cap_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            cap_bytes: 64 * 1024 * 1024,
        }
    }
}

/// One journal record (the payload JSON, decoded).
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was accepted: everything needed to re-run it from scratch.
    Submitted {
        /// Job id (stable across restarts).
        id: u64,
        /// Property family (`"uap"` / `"monotonicity"`).
        property: String,
        /// Raw request body (UTF-8 JSON text).
        body: String,
        /// Client idempotency key, when one was supplied.
        key: Option<String>,
    },
    /// A worker picked the job up (one record per attempt).
    Started {
        /// Job id.
        id: u64,
    },
    /// The job was shipped to a remote fleet worker. While a remote
    /// attempt is outstanding the local process is just waiting on a
    /// socket, so a crash in that window is not the job's fault: replay
    /// subtracts it from the crash-signature weight (see
    /// [`ReplayJob::crash_weight`]).
    RemoteAttempt {
        /// Job id.
        id: u64,
        /// Fleet worker name (from its hello frame).
        worker: String,
    },
    /// Every remote attempt failed (rejection, timeout, disconnect); the
    /// job fell back to local compute, which *can* crash the process, so
    /// the crash-signature weight goes back up.
    LocalFallback {
        /// Job id.
        id: u64,
    },
    /// The job finished; the envelope is the exact response served.
    Completed {
        /// Job id.
        id: u64,
        /// Full response envelope (verdict, timings, model hash).
        envelope: Json,
        /// Whether the verdict may enter the LRU cache on replay
        /// (degraded verdicts are never cacheable).
        cacheable: bool,
    },
    /// The job finished with an error.
    Failed {
        /// Job id.
        id: u64,
        /// The error message served to the client.
        error: String,
    },
    /// Replay decided this job is poison (crashed the process repeatedly).
    Quarantined {
        /// Job id.
        id: u64,
    },
    /// A compacted terminal verdict: `Submitted` + `Completed` merged into
    /// one self-contained record.
    Verdict {
        /// Job id.
        id: u64,
        /// Property family.
        property: String,
        /// Raw request body (regenerates the cache key on replay).
        body: String,
        /// Client idempotency key, when one was supplied.
        key: Option<String>,
        /// Full response envelope.
        envelope: Json,
        /// Whether the verdict may enter the LRU cache on replay.
        cacheable: bool,
    },
    /// Graceful drain finished; nothing after this record.
    CleanShutdown,
}

impl Record {
    /// The job id this record concerns (`None` for [`Record::CleanShutdown`]).
    pub fn id(&self) -> Option<u64> {
        match self {
            Record::Submitted { id, .. }
            | Record::Started { id }
            | Record::RemoteAttempt { id, .. }
            | Record::LocalFallback { id }
            | Record::Completed { id, .. }
            | Record::Failed { id, .. }
            | Record::Quarantined { id }
            | Record::Verdict { id, .. } => Some(*id),
            Record::CleanShutdown => None,
        }
    }

    fn to_json(&self) -> Json {
        // Job ids are u64 but JSON numbers are f64: ids are sequential
        // (start at 1), so they stay far below 2^53 and roundtrip exactly.
        let id_field = |id: u64| ("id", Json::from(id as f64));
        let opt_key = |key: &Option<String>| match key {
            Some(k) => vec![("key", Json::from(k.as_str()))],
            None => vec![],
        };
        match self {
            Record::Submitted {
                id,
                property,
                body,
                key,
            } => {
                let mut fields = vec![
                    ("t", Json::from("submitted")),
                    id_field(*id),
                    ("property", Json::from(property.as_str())),
                    ("body", Json::from(body.as_str())),
                ];
                fields.extend(opt_key(key));
                Json::obj(fields)
            }
            Record::Started { id } => Json::obj([("t", Json::from("started")), id_field(*id)]),
            Record::RemoteAttempt { id, worker } => Json::obj([
                ("t", Json::from("remote_attempt")),
                id_field(*id),
                ("worker", Json::from(worker.as_str())),
            ]),
            Record::LocalFallback { id } => {
                Json::obj([("t", Json::from("local_fallback")), id_field(*id)])
            }
            Record::Completed {
                id,
                envelope,
                cacheable,
            } => Json::obj([
                ("t", Json::from("completed")),
                id_field(*id),
                ("cacheable", Json::from(*cacheable)),
                ("envelope", envelope.clone()),
            ]),
            Record::Failed { id, error } => Json::obj([
                ("t", Json::from("failed")),
                id_field(*id),
                ("error", Json::from(error.as_str())),
            ]),
            Record::Quarantined { id } => {
                Json::obj([("t", Json::from("quarantined")), id_field(*id)])
            }
            Record::Verdict {
                id,
                property,
                body,
                key,
                envelope,
                cacheable,
            } => {
                let mut fields = vec![
                    ("t", Json::from("verdict")),
                    id_field(*id),
                    ("property", Json::from(property.as_str())),
                    ("body", Json::from(body.as_str())),
                ];
                fields.extend(opt_key(key));
                fields.push(("cacheable", Json::from(*cacheable)));
                fields.push(("envelope", envelope.clone()));
                Json::obj(fields)
            }
            Record::CleanShutdown => Json::obj([("t", Json::from("clean_shutdown"))]),
        }
    }

    fn from_json(json: &Json) -> Option<Record> {
        let id = || json.get("id").and_then(Json::as_f64).map(|n| n as u64);
        let text = |field: &str| json.get(field).and_then(Json::as_str).map(str::to_string);
        let key = || text("key");
        match json.get("t").and_then(Json::as_str)? {
            "submitted" => Some(Record::Submitted {
                id: id()?,
                property: text("property")?,
                body: text("body")?,
                key: key(),
            }),
            "started" => Some(Record::Started { id: id()? }),
            // Journals written by servers that split jobs into input-region
            // shards carry `shard_attempt`/`shard_fallback` tags. Their
            // crash-excuse accounting is identical to the whole-job
            // records, so they decode as those and old journals replay.
            "remote_attempt" | "shard_attempt" => Some(Record::RemoteAttempt {
                id: id()?,
                worker: text("worker")?,
            }),
            "local_fallback" | "shard_fallback" => Some(Record::LocalFallback { id: id()? }),
            "completed" => Some(Record::Completed {
                id: id()?,
                envelope: json.get("envelope")?.clone(),
                cacheable: json.get("cacheable").and_then(Json::as_bool)?,
            }),
            "failed" => Some(Record::Failed {
                id: id()?,
                error: text("error")?,
            }),
            "quarantined" => Some(Record::Quarantined { id: id()? }),
            "verdict" => Some(Record::Verdict {
                id: id()?,
                property: text("property")?,
                body: text("body")?,
                key: key(),
                envelope: json.get("envelope")?.clone(),
                cacheable: json.get("cacheable").and_then(Json::as_bool)?,
            }),
            "clean_shutdown" => Some(Record::CleanShutdown),
            _ => None,
        }
    }
}

/// Encodes one record into its on-disk framing.
fn encode_record(record: &Record) -> Vec<u8> {
    let payload = record.to_json().to_string().into_bytes();
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes as many whole, checksum-valid records as `bytes` holds; stops
/// silently at the first torn or corrupt frame (crash tail).
fn decode_records(bytes: &[u8]) -> Vec<Record> {
    let mut records = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 12 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let Some(payload) = bytes.get(at + 12..at + 12 + len) else {
            break; // torn tail: length points past EOF
        };
        if fnv1a64(payload) != crc {
            break; // corrupt payload
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Some(record) = Json::parse(text).ok().as_ref().and_then(Record::from_json) else {
            break;
        };
        records.push(record);
        at += 12 + len;
    }
    records
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Sorted `(seq, path)` list of all segments in `dir`.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments: Vec<(u64, PathBuf)> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter_map(|p| segment_seq(&p).map(|seq| (seq, p)))
        .collect();
    segments.sort();
    Ok(segments)
}

struct JournalInner {
    active: File,
    active_seq: u64,
    active_bytes: u64,
}

/// A write-ahead journal over a directory of segments. Thread-safe: all
/// appends serialize behind one internal lock.
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    inner: Mutex<JournalInner>,
}

impl Journal {
    /// Opens (creating the directory if needed) and starts a fresh active
    /// segment after any existing ones.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or the active segment.
    pub fn open(dir: &Path, config: JournalConfig) -> std::io::Result<Journal> {
        fs::create_dir_all(dir)?;
        let next_seq = list_segments(dir)?.last().map_or(0, |(seq, _)| seq + 1);
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, next_seq))?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            config,
            inner: Mutex::new(JournalInner {
                active,
                active_seq: next_seq,
                active_bytes: 0,
            }),
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record; `durable` additionally fsyncs before returning
    /// (submit and start records, where the ack or the crash-counting
    /// semantics depend on the record surviving power loss).
    ///
    /// # Errors
    ///
    /// Propagates write/fsync errors (callers fail the request rather than
    /// ack a job the journal did not capture).
    pub fn append(&self, record: &Record, durable: bool) -> std::io::Result<()> {
        let bytes = encode_record(record);
        let mut inner = self.inner.lock().expect("journal lock");
        inner.active.write_all(&bytes)?;
        if durable {
            inner.active.sync_data()?;
        }
        inner.active_bytes += bytes.len() as u64;
        crate::metrics::JOURNAL_APPENDS.inc();
        if inner.active_bytes >= self.config.segment_bytes {
            self.rotate(&mut inner)?;
        }
        Ok(())
    }

    /// Closes the active segment and opens the next one, then compacts.
    fn rotate(&self, inner: &mut JournalInner) -> std::io::Result<()> {
        inner.active.sync_data()?;
        let next = inner.active_seq + 1;
        inner.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, next))?;
        inner.active_seq = next;
        inner.active_bytes = 0;
        self.compact_locked(inner)
    }

    /// Compacts closed segments (public entry point used after recovery).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors listing or rewriting segments.
    pub fn compact(&self) -> std::io::Result<()> {
        let mut inner = self.inner.lock().expect("journal lock");
        self.compact_locked(&mut inner)
    }

    /// Rewrites fully-terminal closed segments down to their verdicts and
    /// enforces the directory size cap (oldest closed segments deleted
    /// first). Runs with the journal lock held — compaction is rare
    /// (segment rotation) and never on the submit path.
    fn compact_locked(&self, inner: &mut JournalInner) -> std::io::Result<()> {
        // Journal-wide view: which jobs are terminal, and each job's
        // submit info (terminal verdicts must stay self-contained).
        let segments = list_segments(&self.dir)?;
        let mut terminal: HashSet<u64> = HashSet::new();
        let mut submits: HashMap<u64, (String, String, Option<String>)> = HashMap::new();
        let mut per_segment: Vec<(u64, PathBuf, Vec<Record>)> = Vec::new();
        for (seq, path) in segments {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let records = decode_records(&bytes);
            for r in &records {
                match r {
                    Record::Submitted {
                        id,
                        property,
                        body,
                        key,
                    } => {
                        submits.insert(*id, (property.clone(), body.clone(), key.clone()));
                    }
                    Record::Completed { id, .. }
                    | Record::Failed { id, .. }
                    | Record::Quarantined { id }
                    | Record::Verdict { id, .. } => {
                        terminal.insert(*id);
                    }
                    _ => {}
                }
            }
            per_segment.push((seq, path, records));
        }
        for (seq, path, records) in &per_segment {
            if *seq == inner.active_seq {
                continue; // never touch the active segment
            }
            let all_terminal = records
                .iter()
                .filter_map(Record::id)
                .all(|id| terminal.contains(&id));
            if !all_terminal {
                continue;
            }
            // Keep only self-contained verdicts (and quarantine pins).
            let mut kept: Vec<Record> = Vec::new();
            for r in records {
                match r {
                    Record::Completed {
                        id,
                        envelope,
                        cacheable,
                    } => {
                        if let Some((property, body, key)) = submits.get(id) {
                            kept.push(Record::Verdict {
                                id: *id,
                                property: property.clone(),
                                body: body.clone(),
                                key: key.clone(),
                                envelope: envelope.clone(),
                                cacheable: *cacheable,
                            });
                        }
                    }
                    Record::Verdict { .. } | Record::Quarantined { .. } => kept.push(r.clone()),
                    _ => {}
                }
            }
            let tmp = path.with_extension("tmp");
            {
                let mut f = File::create(&tmp)?;
                for r in &kept {
                    f.write_all(&encode_record(r))?;
                }
                f.sync_data()?;
            }
            fs::rename(&tmp, path)?;
            crate::metrics::JOURNAL_COMPACTIONS.inc();
        }
        // Size cap: drop the oldest closed segments until under the cap.
        let mut segments = list_segments(&self.dir)?;
        let mut total: u64 = segments
            .iter()
            .map(|(_, p)| fs::metadata(p).map(|m| m.len()).unwrap_or(0))
            .sum();
        segments.retain(|(seq, _)| *seq != inner.active_seq);
        for (_, path) in segments {
            if total <= self.config.cap_bytes {
                break;
            }
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            total = total.saturating_sub(len);
        }
        Ok(())
    }

    /// Fsyncs the active segment (graceful-shutdown flush).
    ///
    /// # Errors
    ///
    /// Propagates the fsync error.
    pub fn sync(&self) -> std::io::Result<()> {
        self.inner.lock().expect("journal lock").active.sync_data()
    }
}

/// Reads every record from every segment of `dir` in order. Missing
/// directories replay as empty (first boot).
///
/// # Errors
///
/// Propagates I/O errors other than a missing directory.
pub fn replay_dir(dir: &Path) -> std::io::Result<Vec<Record>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut records = Vec::new();
    for (_, path) in list_segments(dir)? {
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        records.extend(decode_records(&bytes));
    }
    Ok(records)
}

/// Terminal outcome of a replayed job.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayTerminal {
    /// Finished with this response envelope (`cacheable` controls LRU
    /// restoration).
    Completed {
        /// The exact response envelope that was served.
        envelope: Json,
        /// Whether the verdict may enter the LRU cache.
        cacheable: bool,
    },
    /// Finished with an error.
    Failed(String),
    /// Pinned as poison by an earlier replay.
    Quarantined,
}

/// Everything replay learned about one job.
#[derive(Debug, Clone, Default)]
pub struct ReplayJob {
    /// Property family from the submit record.
    pub property: Option<String>,
    /// Raw request body from the submit record.
    pub body: Option<String>,
    /// Idempotency key from the submit record.
    pub key: Option<String>,
    /// Number of `Started` records (attempt count).
    pub starts: u32,
    /// Crash-signature weight: `Started` records not excused by an
    /// outstanding remote attempt. A crash while a fleet worker held the
    /// job says nothing about the job being poison — the local process
    /// was only waiting on a socket — so a `RemoteAttempt` after a
    /// `Started` subtracts that start from the weight, and a
    /// `LocalFallback` (the job came back for local compute) adds it
    /// back. Quarantine triggers on this weight, not on raw `starts`.
    pub crash_weight: u32,
    /// Whether the latest lifecycle record left the job in remote hands.
    pub remote: bool,
    /// Terminal state, when one was journaled.
    pub terminal: Option<ReplayTerminal>,
}

/// The digested journal: per-job state plus the clean-shutdown flag.
#[derive(Debug, Default)]
pub struct ReplayState {
    /// Per-job replayed state, keyed by job id.
    pub jobs: HashMap<u64, ReplayJob>,
    /// Whether the journal's final record is a clean-shutdown marker.
    pub clean_shutdown: bool,
    /// Total records replayed.
    pub records: u64,
}

impl ReplayState {
    /// Folds a record stream into per-job state.
    pub fn digest(records: &[Record]) -> ReplayState {
        let mut state = ReplayState {
            clean_shutdown: matches!(records.last(), Some(Record::CleanShutdown)),
            records: records.len() as u64,
            ..ReplayState::default()
        };
        for record in records {
            let Some(id) = record.id() else { continue };
            let job = state.jobs.entry(id).or_default();
            match record {
                Record::Submitted {
                    property,
                    body,
                    key,
                    ..
                } => {
                    job.property = Some(property.clone());
                    job.body = Some(body.clone());
                    job.key.clone_from(key);
                }
                Record::Started { .. } => {
                    job.starts += 1;
                    job.crash_weight += 1;
                    job.remote = false;
                }
                Record::RemoteAttempt { .. } => {
                    if !job.remote {
                        job.remote = true;
                        job.crash_weight = job.crash_weight.saturating_sub(1);
                    }
                }
                Record::LocalFallback { .. } => {
                    if job.remote {
                        job.remote = false;
                        job.crash_weight += 1;
                    }
                }
                Record::Completed {
                    envelope,
                    cacheable,
                    ..
                } => {
                    job.terminal = Some(ReplayTerminal::Completed {
                        envelope: envelope.clone(),
                        cacheable: *cacheable,
                    });
                }
                Record::Failed { error, .. } => {
                    job.terminal = Some(ReplayTerminal::Failed(error.clone()));
                }
                Record::Quarantined { .. } => {
                    job.terminal = Some(ReplayTerminal::Quarantined);
                }
                Record::Verdict {
                    property,
                    body,
                    key,
                    envelope,
                    cacheable,
                    ..
                } => {
                    job.property = Some(property.clone());
                    job.body = Some(body.clone());
                    job.key.clone_from(key);
                    job.terminal = Some(ReplayTerminal::Completed {
                        envelope: envelope.clone(),
                        cacheable: *cacheable,
                    });
                }
                Record::CleanShutdown => {}
            }
        }
        state
    }

    /// The largest job id seen (0 when the journal is empty).
    pub fn max_id(&self) -> u64 {
        self.jobs.keys().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("raven_journal_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn submitted(id: u64, key: Option<&str>) -> Record {
        Record::Submitted {
            id,
            property: "uap".to_string(),
            body: format!("{{\"job\":{id}}}"),
            key: key.map(str::to_string),
        }
    }

    fn completed(id: u64) -> Record {
        Record::Completed {
            id,
            envelope: Json::obj([("result", Json::from(id as f64))]),
            cacheable: true,
        }
    }

    #[test]
    fn records_roundtrip_through_the_wire_format() {
        let records = vec![
            submitted(1, Some("k1")),
            Record::Started { id: 1 },
            completed(1),
            submitted(2, None),
            Record::Started { id: 2 },
            Record::Failed {
                id: 2,
                error: "boom".to_string(),
            },
            Record::Quarantined { id: 3 },
            Record::RemoteAttempt {
                id: 4,
                worker: "w-1".to_string(),
            },
            Record::LocalFallback { id: 4 },
            Record::CleanShutdown,
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        assert_eq!(decode_records(&bytes), records);
    }

    #[test]
    fn torn_tail_and_corruption_stop_decoding_without_panicking() {
        let mut bytes = encode_record(&submitted(1, None));
        bytes.extend_from_slice(&encode_record(&completed(1)));
        let whole = decode_records(&bytes).len();
        assert_eq!(whole, 2);
        // Torn tail: drop the last 3 bytes.
        let torn = &bytes[..bytes.len() - 3];
        assert_eq!(decode_records(torn).len(), 1);
        // Bit flip inside the second payload: checksum rejects it.
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n - 2] ^= 0x40;
        assert_eq!(decode_records(&corrupt).len(), 1);
    }

    #[test]
    fn journal_appends_replay_in_order_across_reopens() {
        let dir = tmp_dir("reopen");
        {
            let j = Journal::open(&dir, JournalConfig::default()).unwrap();
            j.append(&submitted(1, None), true).unwrap();
            j.append(&Record::Started { id: 1 }, true).unwrap();
        }
        {
            // A reopen (restart) starts a new segment; order is preserved.
            let j = Journal::open(&dir, JournalConfig::default()).unwrap();
            j.append(&completed(1), false).unwrap();
        }
        let records = replay_dir(&dir).unwrap();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[2], Record::Completed { id: 1, .. }));
        let state = ReplayState::digest(&records);
        assert_eq!(state.jobs.len(), 1);
        assert_eq!(state.jobs[&1].starts, 1);
        assert!(matches!(
            state.jobs[&1].terminal,
            Some(ReplayTerminal::Completed { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_counts_crash_signatures_and_flags_clean_shutdown() {
        let records = vec![
            submitted(7, Some("key-7")),
            Record::Started { id: 7 },
            Record::Started { id: 7 }, // second crash-while-running
        ];
        let state = ReplayState::digest(&records);
        assert_eq!(state.jobs[&7].starts, 2);
        assert!(state.jobs[&7].terminal.is_none());
        assert!(!state.clean_shutdown);
        assert_eq!(state.max_id(), 7);

        let mut clean = records;
        clean.push(Record::CleanShutdown);
        assert!(ReplayState::digest(&clean).clean_shutdown);
    }

    #[test]
    fn remote_attempts_excuse_crash_signatures() {
        let remote = |id| Record::RemoteAttempt {
            id,
            worker: "w-1".to_string(),
        };
        // Crash while a fleet worker held the job: not a poison signature.
        let records = vec![
            submitted(9, None),
            Record::Started { id: 9 },
            remote(9),
            Record::Started { id: 9 }, // restart, re-dispatched
            remote(9),
        ];
        let state = ReplayState::digest(&records);
        assert_eq!(state.jobs[&9].starts, 2);
        assert_eq!(state.jobs[&9].crash_weight, 0);
        assert!(state.jobs[&9].remote);

        // Falling back to local compute restores the signature; duplicate
        // remote attempts (retries on other workers) excuse only one start.
        let records = vec![
            submitted(9, None),
            Record::Started { id: 9 },
            remote(9),
            remote(9),
            Record::LocalFallback { id: 9 },
        ];
        let state = ReplayState::digest(&records);
        assert_eq!(state.jobs[&9].crash_weight, 1);
        assert!(!state.jobs[&9].remote);

        // Plain local runs are unchanged: two starts, weight two.
        let records = vec![
            submitted(9, None),
            Record::Started { id: 9 },
            Record::Started { id: 9 },
        ];
        assert_eq!(ReplayState::digest(&records).jobs[&9].crash_weight, 2);
    }

    /// Frames raw record JSON the way `encode_record` does, for records
    /// this build no longer writes.
    fn legacy_frame(text: &str) -> Vec<u8> {
        let payload = text.as_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn legacy_shard_records_replay_like_whole_job_ones() {
        let attempt = |id: u64, shard: u32| {
            legacy_frame(&format!(
                r#"{{"t":"shard_attempt","id":{id},"shard":{shard},"worker":"w-1"}}"#
            ))
        };
        let fallback = |id: u64, shard: u32| {
            legacy_frame(&format!(
                r#"{{"t":"shard_fallback","id":{id},"shard":{shard}}}"#
            ))
        };
        let remote = |id| Record::RemoteAttempt {
            id,
            worker: "w-1".to_string(),
        };
        let decode = |frames: Vec<Vec<u8>>| decode_records(&frames.concat());

        // Crash while input-region shards were in remote hands: decodes to
        // whole-job attempts and is excused once, exactly like them.
        let legacy = decode(vec![
            encode_record(&submitted(11, None)),
            encode_record(&Record::Started { id: 11 }),
            attempt(11, 0),
            attempt(11, 1),
            encode_record(&Record::Started { id: 11 }),
            attempt(11, 0),
        ]);
        let whole = vec![
            submitted(11, None),
            Record::Started { id: 11 },
            remote(11),
            remote(11),
            Record::Started { id: 11 },
            remote(11),
        ];
        assert_eq!(legacy, whole);
        let state = ReplayState::digest(&legacy);
        assert_eq!(state.jobs[&11].starts, 2);
        assert_eq!(state.jobs[&11].crash_weight, 0);
        assert!(state.jobs[&11].remote);

        // A shard falling back to local compute restores the crash
        // accounting, like a whole-job LocalFallback.
        let legacy = decode(vec![
            encode_record(&submitted(11, None)),
            encode_record(&Record::Started { id: 11 }),
            attempt(11, 0),
            fallback(11, 0),
        ]);
        let whole = vec![
            submitted(11, None),
            Record::Started { id: 11 },
            remote(11),
            Record::LocalFallback { id: 11 },
        ];
        assert_eq!(legacy, whole);
        let (legacy, whole) = (ReplayState::digest(&legacy), ReplayState::digest(&whole));
        assert_eq!(legacy.jobs[&11].crash_weight, 1);
        assert_eq!(legacy.jobs[&11].crash_weight, whole.jobs[&11].crash_weight);
        assert!(!legacy.jobs[&11].remote);
    }

    #[test]
    fn rotation_compacts_fully_terminal_segments_to_verdicts() {
        let dir = tmp_dir("compact");
        let config = JournalConfig {
            segment_bytes: 1, // rotate after every append
            cap_bytes: u64::MAX,
        };
        let j = Journal::open(&dir, config).unwrap();
        j.append(&submitted(1, Some("k1")), true).unwrap();
        j.append(&Record::Started { id: 1 }, true).unwrap();
        j.append(&completed(1), false).unwrap();
        // The last append rotated again: every closed segment is now fully
        // terminal and holds at most a self-contained verdict.
        let records = replay_dir(&dir).unwrap();
        let verdicts: Vec<_> = records
            .iter()
            .filter(|r| matches!(r, Record::Verdict { .. }))
            .collect();
        assert_eq!(verdicts.len(), 1, "compacted to one verdict: {records:?}");
        let state = ReplayState::digest(&records);
        let job = &state.jobs[&1];
        assert_eq!(job.key.as_deref(), Some("k1"));
        assert_eq!(job.body.as_deref(), Some("{\"job\":1}"));
        assert!(matches!(
            job.terminal,
            Some(ReplayTerminal::Completed {
                cacheable: true,
                ..
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_with_live_jobs_survive_compaction() {
        let dir = tmp_dir("live");
        let config = JournalConfig {
            segment_bytes: 1,
            cap_bytes: u64::MAX,
        };
        let j = Journal::open(&dir, config).unwrap();
        j.append(&submitted(1, None), true).unwrap();
        j.append(&Record::Started { id: 1 }, true).unwrap();
        j.append(&submitted(2, None), true).unwrap(); // forces rotations
        let records = replay_dir(&dir).unwrap();
        let state = ReplayState::digest(&records);
        assert_eq!(
            state.jobs[&1].starts, 1,
            "non-terminal job 1 kept: {records:?}"
        );
        assert!(state.jobs[&1].body.is_some());
        assert!(state.jobs[&2].body.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_deletes_oldest_closed_segments() {
        let dir = tmp_dir("cap");
        let config = JournalConfig {
            segment_bytes: 1,
            cap_bytes: 200, // far below a few records
        };
        let j = Journal::open(&dir, config).unwrap();
        for id in 1..=6 {
            j.append(&submitted(id, None), false).unwrap();
            j.append(&completed(id), false).unwrap();
        }
        let total: u64 = list_segments(&dir)
            .unwrap()
            .iter()
            .map(|(_, p)| fs::metadata(p).unwrap().len())
            .sum();
        assert!(total <= 400, "dir stays near the cap, got {total}");
        let _ = fs::remove_dir_all(&dir);
    }
}
