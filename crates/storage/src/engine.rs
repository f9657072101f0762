//! The storage engine: generations of snapshot + WAL under one data
//! directory, with a `CURRENT` pointer as the single commit point.
//!
//! ```text
//! data-dir/
//!   CURRENT               # decimal generation number, replaced atomically
//!   snapshot-000003.uqsj  # full state image for generation 3
//!   wal-000003.log        # appends since that snapshot
//! ```
//!
//! - **open**: read `CURRENT` (initializing an empty generation 0 on a
//!   fresh directory; `open_existing` refuses one instead), load the
//!   snapshot, replay the WAL over it (truncating a torn tail), delete
//!   stale files from other generations, and hand back both the
//!   recovered state and an engine ready to append.
//! - **append**: journal accepted templates; they are durable (fsynced)
//!   before the caller applies them in memory.
//! - **compact**: write the caller's current state as the next
//!   generation's snapshot, start its empty WAL, then commit by
//!   atomically replacing `CURRENT`. A crash anywhere in between leaves
//!   `CURRENT` pointing at the old, fully intact generation.

use crate::error::StorageError;
use crate::snapshot::{self, SnapshotState};
use crate::wal::{WalRecord, WalWriter};
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use uqsj_nlp::Lexicon;
use uqsj_rdf::TripleStore;
use uqsj_template::{Template, TemplateLibrary};

/// Name of the generation pointer file.
const CURRENT: &str = "CURRENT";

/// State recovered by [`StorageEngine::open`].
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// The snapshot state with all valid WAL records applied.
    pub state: SnapshotState,
    /// How many WAL records were replayed on top of the snapshot.
    pub wal_records: usize,
    /// Bytes of torn WAL tail dropped during recovery (0 = clean
    /// shutdown).
    pub wal_torn_bytes: u64,
}

/// A durable snapshot + WAL store rooted at one data directory.
#[derive(Debug)]
pub struct StorageEngine {
    dir: PathBuf,
    generation: u64,
    wal: WalWriter,
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:06}.uqsj"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:06}.log"))
}

/// Atomically replace `CURRENT` with `generation`.
fn commit_current(dir: &Path, generation: u64) -> Result<(), StorageError> {
    let tmp = dir.join("CURRENT.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(generation.to_string().as_bytes())?;
        f.sync_all()?;
    }
    let current = dir.join(CURRENT);
    fs::rename(&tmp, &current)?;
    snapshot::sync_parent_dir(&current)?;
    Ok(())
}

fn read_current(dir: &Path) -> Result<u64, StorageError> {
    let text = fs::read_to_string(dir.join(CURRENT))?;
    text.trim()
        .parse()
        .map_err(|_| StorageError::corrupt(format!("CURRENT does not name a generation: {text:?}")))
}

impl StorageEngine {
    /// Open (or initialize) the engine at `dir` and recover its state.
    ///
    /// A fresh directory is initialized to an empty generation 0. A torn
    /// WAL tail is truncated, never an error; a corrupted snapshot or WAL
    /// header is a typed error and nothing is modified.
    pub fn open(dir: &Path) -> Result<(Self, RecoveredState), StorageError> {
        let _span = uqsj_obs::span("storage.open");
        fs::create_dir_all(dir)?;
        if !dir.join(CURRENT).exists() {
            let empty = SnapshotState::default();
            snapshot::write_snapshot(
                &snapshot_path(dir, 0),
                0,
                &empty.library,
                &empty.lexicon,
                &empty.triples,
            )?;
            WalWriter::create(&wal_path(dir, 0), 0)?;
            commit_current(dir, 0)?;
        }
        let generation = read_current(dir)?;
        let (mut state, snap_generation) =
            snapshot::read_snapshot(&snapshot_path(dir, generation))?;
        if snap_generation != generation {
            return Err(StorageError::corrupt(format!(
                "snapshot header says generation {snap_generation}, CURRENT says {generation}"
            )));
        }
        let (wal, replay) = WalWriter::open(&wal_path(dir, generation))?;
        for record in &replay.records {
            match record {
                WalRecord::AddTemplate(t) => {
                    state.library.add(t.clone());
                }
            }
        }
        let engine = Self { dir: dir.to_owned(), generation, wal };
        engine.remove_stale_generations();
        Ok((
            engine,
            RecoveredState {
                state,
                wal_records: replay.records.len(),
                wal_torn_bytes: replay.torn_bytes,
            },
        ))
    }

    /// Like [`StorageEngine::open`], but only for a directory that already
    /// holds a committed generation: a missing directory, or one without
    /// a generation pointer, is an error and nothing is created. Recovery
    /// uses this so a deleted directory is never mistaken for an empty
    /// store.
    pub fn open_existing(dir: &Path) -> Result<(Self, RecoveredState), StorageError> {
        if !dir.join(CURRENT).is_file() {
            return Err(StorageError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{} holds no committed generation", dir.display()),
            )));
        }
        Self::open(dir)
    }

    /// Journal accepted templates. Durable (fsynced) on return — apply
    /// them to the in-memory store only after this succeeds.
    pub fn append_templates(&mut self, templates: &[Template]) -> Result<(), StorageError> {
        let records: Vec<WalRecord> =
            templates.iter().map(|t| WalRecord::AddTemplate(t.clone())).collect();
        self.wal.append(&records)
    }

    /// Fold the WAL into a fresh snapshot of `library`/`lexicon`/
    /// `triples` (the caller's current in-memory state) and rotate to the
    /// next generation. Returns the new generation number.
    pub fn compact(
        &mut self,
        library: &TemplateLibrary,
        lexicon: &Lexicon,
        triples: &TripleStore,
    ) -> Result<u64, StorageError> {
        let _span = uqsj_obs::span("storage.compact");
        let started = std::time::Instant::now();
        let next = self.generation + 1;
        snapshot::write_snapshot(&snapshot_path(&self.dir, next), next, library, lexicon, triples)?;
        let wal = WalWriter::create(&wal_path(&self.dir, next), next)?;
        // The commit point: until this rename lands, recovery still uses
        // the previous generation in full.
        commit_current(&self.dir, next)?;
        self.generation = next;
        self.wal = wal;
        self.remove_stale_generations();
        let obs = crate::obs::storage_obs();
        obs.compactions.inc();
        obs.compaction_us.observe_duration(started.elapsed());
        Ok(next)
    }

    /// Best-effort cleanup of snapshot/WAL files from other generations
    /// (leftovers of a crash between snapshot write and commit, or of a
    /// completed rotation).
    fn remove_stale_generations(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        let keep_snapshot = snapshot_path(&self.dir, self.generation);
        let keep_wal = wal_path(&self.dir, self.generation);
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let stale = (name.starts_with("snapshot-") || name.starts_with("wal-"))
                && path != keep_snapshot
                && path != keep_wal;
            if stale || name.ends_with(".tmp") {
                let _ = fs::remove_file(&path);
            }
        }
    }

    /// The active generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fsync barrier on the active WAL. Appends are durable when
    /// [`StorageEngine::append_templates`] returns; drain paths call this
    /// for an explicit flush point before shutdown.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Path of the active generation's WAL (the file the fault-injection
    /// tests truncate).
    pub fn wal_file(&self) -> &Path {
        self.wal.path()
    }

    /// Path of the active generation's snapshot.
    pub fn snapshot_file(&self) -> PathBuf {
        snapshot_path(&self.dir, self.generation)
    }
}
