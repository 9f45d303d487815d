//! Versioned on-disk trace corpus.
//!
//! Recording a workload trace is pure but not free; a campaign matrix that
//! runs in CI (or is re-run many times while iterating on a detector) pays
//! the recording cost on every invocation even though the recorded op
//! streams never change. The corpus makes that cost a one-time expense: a
//! directory holding one file per unique [`TraceKey`], each a versioned,
//! checksummed snapshot of the trace text the recorder produced. Later runs
//! load the snapshot instead of re-recording, and the replay pipeline is
//! bit-for-bit oblivious to where the trace came from — the golden
//! scorecards are byte-identical either way (pinned by the corpus
//! round-trip test and the CI corpus leg).
//!
//! # File format (version 1)
//!
//! A corpus file is plain text: a header, a `---` separator, then the trace
//! in [`Trace::to_text`] form.
//!
//! ```text
//! safemem-trace v1
//! workload ypserv1
//! workload_seed 0
//! requests -
//! phys_bytes 16777216
//! swap_policy pin
//! scrub_interval_cycles 2000000
//! ecc_mode correct-and-scrub
//! ops 1234
//! checksum 3f2a9c01d4e5b687
//! ---
//! M 64 0x1 0x2
//! ...
//! ```
//!
//! The header pins every [`TraceKey`] field, the op count, and an FNV-1a
//! checksum of the trace text. Every header line is required, in this
//! order, so a loaded file is validated against the exact key the runner
//! would have recorded under — a stale, foreign or truncated file fails
//! loudly (naming the file and the expected version or field) instead of
//! silently perturbing the scorecard.
//!
//! # Version policy
//!
//! The magic line carries the format version. Readers accept exactly the
//! versions they know (`v1` today); any other version — older or newer — is
//! a [`CorpusError::Version`] naming the file and the expected version, and
//! the fix is to re-record (`--corpus-mode record`). The trace text itself
//! is the compatibility boundary: a change to the op grammar requires a new
//! corpus version.

use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use safemem_ecc::EccMode;
use safemem_os::SwapPolicy;
use safemem_workloads::Trace;

use crate::runner::TraceKey;

/// The magic + version line every corpus file must start with.
pub const CORPUS_MAGIC: &str = "safemem-trace v1";

/// How a campaign run uses a trace corpus directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorpusMode {
    /// Load traces that are present and valid; record and store the rest.
    #[default]
    Auto,
    /// Record every trace fresh and (re)write its corpus file. Never reads.
    Record,
    /// Only load. A missing or invalid file is an error, never a silent
    /// re-record — this is the CI replay leg's mode.
    ReplayFrom,
}

impl CorpusMode {
    /// Parses the `--corpus-mode` flag value.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted values for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(CorpusMode::Auto),
            "record" => Ok(CorpusMode::Record),
            "replay-from" => Ok(CorpusMode::ReplayFrom),
            other => Err(format!(
                "unknown corpus mode {other:?} (expected auto, record, or replay-from)"
            )),
        }
    }
}

/// Why a corpus file could not be used. Every variant names the offending
/// file so the error is actionable without re-running under a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The file is missing but the mode required it.
    Missing {
        /// The corpus file that should have held the trace.
        path: PathBuf,
    },
    /// The file could not be read or written.
    Io {
        /// The corpus file involved.
        path: PathBuf,
        /// The underlying I/O error, stringified.
        error: String,
    },
    /// The magic/version line is wrong — foreign file or other format
    /// version.
    Version {
        /// The offending file.
        path: PathBuf,
        /// Its actual first line.
        found: String,
    },
    /// The header disagrees with the [`TraceKey`] the runner needs.
    KeyMismatch {
        /// The offending file.
        path: PathBuf,
        /// Header field that disagrees.
        field: &'static str,
        /// Value the key requires.
        expected: String,
        /// Value the file holds.
        found: String,
    },
    /// The body fails its checksum or does not parse as a trace.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What exactly failed.
        detail: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Missing { path } => write!(
                f,
                "trace corpus: {} is missing (record it with --corpus-mode record or auto)",
                path.display()
            ),
            CorpusError::Io { path, error } => {
                write!(f, "trace corpus: {}: {error}", path.display())
            }
            CorpusError::Version { path, found } => write!(
                f,
                "trace corpus: {} has version line {found:?}, expected {CORPUS_MAGIC:?} \
                 (re-record with --corpus-mode record)",
                path.display()
            ),
            CorpusError::KeyMismatch {
                path,
                field,
                expected,
                found,
            } => write!(
                f,
                "trace corpus: {} was recorded for {field} {found}, this run needs {expected}",
                path.display()
            ),
            CorpusError::Corrupt { path, detail } => {
                write!(f, "trace corpus: {} is corrupt: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// FNV-1a 64-bit over the trace text — stable, dependency-free, and spelled
/// out here so the file format is self-describing.
#[must_use]
pub fn corpus_checksum(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in text.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn swap_policy_token(policy: SwapPolicy) -> &'static str {
    match policy {
        SwapPolicy::PinWatchedPages => "pin",
        SwapPolicy::SwapAware => "swap-aware",
    }
}

fn ecc_mode_token(mode: EccMode) -> &'static str {
    match mode {
        EccMode::Disabled => "disabled",
        EccMode::CheckOnly => "check-only",
        EccMode::CorrectError => "correct-error",
        EccMode::CorrectAndScrub => "correct-and-scrub",
    }
}

fn opt_token(value: Option<u64>) -> String {
    value.map_or_else(|| "-".into(), |v| v.to_string())
}

/// The header lines that pin a [`TraceKey`], in file order: the one table
/// [`TraceCorpus::render`] writes and [`TraceCorpus::parse`] checks.
fn key_header(key: &TraceKey) -> [(&'static str, String); 7] {
    [
        ("workload", key.workload.clone()),
        ("workload_seed", key.workload_seed.to_string()),
        ("requests", opt_token(key.requests)),
        ("phys_bytes", key.phys_bytes.to_string()),
        ("swap_policy", swap_policy_token(key.swap_policy).into()),
        (
            "scrub_interval_cycles",
            opt_token(key.scrub_interval_cycles),
        ),
        ("ecc_mode", ecc_mode_token(key.ecc_mode).into()),
    ]
}

/// A directory of versioned trace snapshots, one file per [`TraceKey`].
#[derive(Debug, Clone)]
pub struct TraceCorpus {
    dir: PathBuf,
    mode: CorpusMode,
}

impl TraceCorpus {
    /// Opens (and for writable modes, creates) the corpus directory.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the directory cannot be created
    /// (record/auto) or does not exist (replay-from).
    pub fn open(dir: impl Into<PathBuf>, mode: CorpusMode) -> Result<Self, CorpusError> {
        let dir = dir.into();
        match mode {
            CorpusMode::ReplayFrom => {
                if !dir.is_dir() {
                    return Err(CorpusError::Io {
                        path: dir,
                        error: "not a directory (nothing recorded here yet?)".into(),
                    });
                }
            }
            CorpusMode::Auto | CorpusMode::Record => {
                std::fs::create_dir_all(&dir).map_err(|e| CorpusError::Io {
                    path: dir.clone(),
                    error: e.to_string(),
                })?;
            }
        }
        Ok(TraceCorpus { dir, mode })
    }

    /// The configured mode.
    #[must_use]
    pub fn mode(&self) -> CorpusMode {
        self.mode
    }

    /// The corpus file a key maps to. Deterministic in the key alone, so
    /// every run (and every machine) agrees on the layout.
    #[must_use]
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        let name = format!(
            "{}_s{}_r{}_p{}_{}_i{}_{}.trace",
            key.workload,
            key.workload_seed,
            opt_token(key.requests),
            key.phys_bytes,
            swap_policy_token(key.swap_policy),
            opt_token(key.scrub_interval_cycles),
            ecc_mode_token(key.ecc_mode),
        );
        self.dir.join(name)
    }

    /// Serialises a trace under its key into the version-1 file format.
    #[must_use]
    pub fn render(key: &TraceKey, trace: &Trace) -> String {
        let body = trace.to_text();
        let mut out = String::with_capacity(body.len() + 256);
        let _ = writeln!(out, "{CORPUS_MAGIC}");
        for (field, value) in key_header(key) {
            let _ = writeln!(out, "{field} {value}");
        }
        let _ = writeln!(out, "ops {}", trace.len());
        let _ = writeln!(out, "checksum {:016x}", corpus_checksum(&body));
        let _ = writeln!(out, "---");
        out.push_str(&body);
        out
    }

    /// Writes (or overwrites) the snapshot for `key`.
    ///
    /// # Errors
    ///
    /// [`CorpusError::Io`] if the file cannot be written.
    pub fn store(&self, key: &TraceKey, trace: &Trace) -> Result<(), CorpusError> {
        let path = self.path_for(key);
        std::fs::write(&path, Self::render(key, trace)).map_err(|e| CorpusError::Io {
            path: path.clone(),
            error: e.to_string(),
        })
    }

    /// Loads and validates the snapshot for `key`.
    ///
    /// Under [`CorpusMode::Auto`], a *missing* file returns `Ok(None)` (the
    /// caller records and stores); every other defect is still a hard error
    /// — auto mode heals absence, not corruption. Under
    /// [`CorpusMode::ReplayFrom`], absence is an error too. Under
    /// [`CorpusMode::Record`], nothing is ever read and this returns
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// See [`CorpusError`]; every variant names the offending file.
    pub fn load(&self, key: &TraceKey) -> Result<Option<Trace>, CorpusError> {
        if self.mode == CorpusMode::Record {
            return Ok(None);
        }
        let path = self.path_for(key);
        let content = match std::fs::read_to_string(&path) {
            Ok(content) => content,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return if self.mode == CorpusMode::ReplayFrom {
                    Err(CorpusError::Missing { path })
                } else {
                    Ok(None)
                };
            }
            Err(e) => {
                return Err(CorpusError::Io {
                    path,
                    error: e.to_string(),
                })
            }
        };
        Self::parse(&path, key, &content).map(Some)
    }

    /// Parses and validates one corpus file against the key it must serve.
    /// The header must hold exactly the lines [`TraceCorpus::render`]
    /// writes, in its order.
    fn parse(path: &Path, key: &TraceKey, content: &str) -> Result<Trace, CorpusError> {
        let corrupt = |detail: String| CorpusError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let magic = content.lines().next().unwrap_or_default();
        if magic != CORPUS_MAGIC {
            return Err(CorpusError::Version {
                path: path.to_path_buf(),
                found: magic.to_string(),
            });
        }
        let (header, body) = content
            .split_once("\n---\n")
            .ok_or_else(|| corrupt("missing --- separator".into()))?;
        let mut lines = header.lines().skip(1);
        let mut value = |field: &str| {
            let line = lines.next().unwrap_or_default();
            match line.split_once(' ') {
                Some((name, found)) if name == field => Ok(found),
                _ => Err(corrupt(format!("missing {field} header (found {line:?})"))),
            }
        };
        for (field, expected) in key_header(key) {
            let found = value(field)?;
            if found != expected {
                return Err(CorpusError::KeyMismatch {
                    path: path.to_path_buf(),
                    field,
                    expected,
                    found: found.to_string(),
                });
            }
        }
        let ops = value("ops")?;
        let ops: usize = ops
            .parse()
            .map_err(|_| corrupt(format!("unparsable ops count {ops:?}")))?;
        let checksum = value("checksum")?;
        let checksum = u64::from_str_radix(checksum, 16)
            .map_err(|_| corrupt(format!("unparsable checksum {checksum:?}")))?;
        if let Some(extra) = lines.next() {
            return Err(corrupt(format!("unknown header line {extra:?}")));
        }
        let actual_sum = corpus_checksum(body);
        if actual_sum != checksum {
            return Err(corrupt(format!(
                "checksum mismatch (header {checksum:016x}, body {actual_sum:016x})"
            )));
        }
        let trace = Trace::from_text(body)
            .map_err(|e| corrupt(format!("trace body does not parse: {e}")))?;
        if trace.len() != ops {
            return Err(corrupt(format!(
                "ops header says {ops}, body holds {}",
                trace.len()
            )));
        }
        Ok(trace)
    }
}

/// Obtains the recorded trace for a spec: from the corpus when one is
/// configured and holds a valid snapshot, freshly recorded otherwise.
/// Returns the trace and whether it was recorded fresh (telemetry only —
/// the trace itself is byte-identical either way, because the corpus
/// stores the exact text [`Trace::to_text`] produces).
///
/// # Errors
///
/// Recording errors, plus every [`CorpusError`] (stringified into
/// [`CampaignError`]) a configured corpus can raise.
pub fn obtain_campaign_trace(
    spec: &crate::spec::CampaignSpec,
    corpus: Option<&TraceCorpus>,
) -> Result<(crate::oracle::RecordedTrace, bool), crate::oracle::CampaignError> {
    use crate::oracle::{record_trace, CampaignError, RecordedTrace};
    let Some(corpus) = corpus else {
        return crate::oracle::record_campaign_trace(spec).map(|t| (t, true));
    };
    let key = TraceKey::of(spec);
    match corpus.load(&key) {
        Ok(Some(columnar)) => Ok((RecordedTrace { columnar }, false)),
        Ok(None) => {
            let columnar = record_trace(spec)?;
            corpus
                .store(&key, &columnar)
                .map_err(|e| CampaignError(e.to_string()))?;
            Ok((RecordedTrace { columnar }, true))
        }
        Err(e) => Err(CampaignError(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn key() -> TraceKey {
        let mut spec = CampaignSpec::harsh("tar", 0);
        spec.requests = Some(24);
        TraceKey::of(&spec)
    }

    fn trace() -> Trace {
        let mut spec = CampaignSpec::harsh("tar", 0);
        spec.requests = Some(24);
        crate::oracle::record_trace(&spec).expect("record")
    }

    #[test]
    fn round_trips_a_recorded_trace() {
        let dir = std::env::temp_dir().join("safemem-corpus-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = TraceCorpus::open(&dir, CorpusMode::Auto).expect("open");
        let key = key();
        assert_eq!(corpus.load(&key).expect("auto miss is ok"), None);
        let trace = trace();
        corpus.store(&key, &trace).expect("store");
        let loaded = corpus.load(&key).expect("load").expect("present");
        assert_eq!(loaded, trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_version_names_file_and_expected_version() {
        let key = key();
        let path = Path::new("corpus/x.trace");
        let err = TraceCorpus::parse(path, &key, "safemem-trace v0\n---\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("corpus/x.trace"), "{msg}");
        assert!(msg.contains("safemem-trace v1"), "{msg}");
        assert!(msg.contains("safemem-trace v0"), "{msg}");
    }

    #[test]
    fn key_mismatch_names_field_and_both_values() {
        let key = key();
        let mut other = key.clone();
        other.workload = "gzip".into();
        let rendered = TraceCorpus::render(&other, &Trace::new());
        let err = TraceCorpus::parse(Path::new("c/y.trace"), &key, &rendered).unwrap_err();
        match &err {
            CorpusError::KeyMismatch {
                field,
                expected,
                found,
                ..
            } => {
                assert_eq!(*field, "workload");
                assert_eq!(expected, "tar");
                assert_eq!(found, "gzip");
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("c/y.trace"), "{err}");
    }

    #[test]
    fn corrupted_body_fails_the_checksum() {
        let key = key();
        let trace = trace();
        let mut rendered = TraceCorpus::render(&key, &trace);
        let flip = rendered.rfind('M').expect("trace has a malloc op");
        rendered.replace_range(flip..=flip, "F");
        let err = TraceCorpus::parse(Path::new("c/z.trace"), &key, &rendered).unwrap_err();
        assert!(
            matches!(err, CorpusError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn replay_from_requires_the_file() {
        let dir = std::env::temp_dir().join("safemem-corpus-replay-missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let corpus = TraceCorpus::open(&dir, CorpusMode::ReplayFrom).expect("open");
        let err = corpus.load(&key()).unwrap_err();
        assert!(matches!(err, CorpusError::Missing { .. }), "{err:?}");
        assert!(err.to_string().contains(".trace"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_from_rejects_a_body_naming_an_unbound_id() {
        use safemem_workloads::TraceOp;
        let dir = std::env::temp_dir().join("safemem-corpus-unbound-id");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = key();
        let corpus = TraceCorpus::open(&dir, CorpusMode::ReplayFrom).expect("open replay");
        // `Trace::push` refuses the unbound id, so write the body by hand.
        let mut good = Trace::new();
        good.push(TraceOp::Malloc {
            size: 64,
            frames: vec![0x1],
        });
        good.push(TraceOp::Free { id: 0 });
        let checksum = |body: &str| format!("checksum {:016x}", corpus_checksum(body));
        let bad = TraceCorpus::render(&key, &good)
            .replace("F 0\n", "F 3\n")
            .replace(&checksum("M 64 0x1\nF 0\n"), &checksum("M 64 0x1\nF 3\n"));
        std::fs::write(corpus.path_for(&key), bad).expect("write");
        let err = corpus.load(&key).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(err, CorpusError::Corrupt { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains(&*corpus.path_for(&key).to_string_lossy()),
            "{msg}"
        );
        assert!(msg.contains("line 2: id not bound"), "{msg}");
    }

    #[test]
    fn a_file_ending_at_the_separator_is_corrupt() {
        // The body starts after the separator's newline; a file that ends
        // at `---` has none and must not be sliced past its end.
        let rendered = TraceCorpus::render(&key(), &Trace::new());
        let cut = rendered.strip_suffix('\n').expect("ends in a newline");
        let err = TraceCorpus::parse(Path::new("c/s.trace"), &key(), cut).unwrap_err();
        assert!(err.to_string().contains("missing --- separator"), "{err}");
    }

    /// The rendered file with the header line for `field` deleted.
    fn without_header_line(field: &str) -> String {
        let rendered = TraceCorpus::render(&key(), &trace());
        let line = rendered
            .lines()
            .find(|line| line.split_once(' ').is_some_and(|(name, _)| name == field))
            .expect("rendered header has the field");
        rendered.replacen(&format!("{line}\n"), "", 1)
    }

    #[test]
    fn a_header_missing_a_key_field_is_corrupt() {
        for field in [
            "workload",
            "workload_seed",
            "requests",
            "phys_bytes",
            "swap_policy",
            "scrub_interval_cycles",
            "ecc_mode",
        ] {
            let stripped = without_header_line(field);
            let err = TraceCorpus::parse(Path::new("c/k.trace"), &key(), &stripped).unwrap_err();
            match &err {
                CorpusError::Corrupt { detail, .. } => {
                    assert!(detail.contains(&format!("missing {field} header")), "{err}");
                }
                other => panic!("{field}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_header_missing_the_ops_line_is_corrupt() {
        let stripped = without_header_line("ops");
        let err = TraceCorpus::parse(Path::new("c/o.trace"), &key(), &stripped).unwrap_err();
        match &err {
            CorpusError::Corrupt { detail, .. } => {
                assert!(detail.contains("missing ops header"), "{err}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
