//! Versioned checkpoint sidecar files.
//!
//! A checkpoint is a small, human-inspectable key/value file that lets a
//! long run survive interruption: the budgeted optimizer and ATPG drivers
//! write one when their budget trips, and `--resume` reads it back and
//! continues *bit-identically* to the uninterrupted run.
//!
//! # File format (version 1)
//!
//! ```text
//! wrt-checkpoint v1
//! kind=<subsystem kind, e.g. optimize>
//! <key>=<value>
//! ...
//! checksum=<16 hex digits: FNV-1a 64 over every preceding line>
//! ```
//!
//! * Line-based, UTF-8, `\n` separators; keys contain no `=` or newline,
//!   values no newline.
//! * **Bit-exact floats**: `f64` payloads are stored as the hex of
//!   [`f64::to_bits`], never as decimal — resume bit-identity must not
//!   depend on float formatting round-trips.
//! * **Tamper evidence**: the trailing FNV-1a checksum covers the header
//!   and every field line.  A truncated, merged, or hand-edited file
//!   fails [`CheckpointError::Corrupt`] instead of deserializing garbage.
//! * **Versioned**: a reader encountering any version other than
//!   [`CHECKPOINT_VERSION`] reports [`CheckpointError::VersionMismatch`]
//!   — it never guesses at a foreign layout.
//!
//! Writes go through a temporary file in the same directory followed by a
//! rename, so an interrupted write never leaves a half-written checkpoint
//! where a resume would find it.

use std::fmt;
use std::path::Path;

use crate::failpoint;

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

const MAGIC: &str = "wrt-checkpoint";

/// Error reading or writing a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure (or an injected write failure in chaos tests).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file is a checkpoint of an unsupported format version.
    VersionMismatch {
        /// The version the file declares.
        found: String,
    },
    /// The checkpoint belongs to a different subsystem.
    WrongKind {
        /// The kind the reader expected.
        expected: String,
        /// The kind the file declares.
        found: String,
    },
    /// Structural damage: bad checksum, truncation, malformed lines, or
    /// an undecodable field value.
    Corrupt {
        /// What exactly is damaged.
        reason: String,
    },
    /// A field the resuming subsystem requires is absent.
    MissingField(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O on `{path}`: {message}")
            }
            CheckpointError::BadMagic => {
                write!(f, "not a checkpoint file (missing `{MAGIC}` header)")
            }
            CheckpointError::VersionMismatch { found } => write!(
                f,
                "checkpoint version `{found}` is not supported (this build reads v{CHECKPOINT_VERSION}); \
                 re-run without --resume to start fresh"
            ),
            CheckpointError::WrongKind { expected, found } => write!(
                f,
                "checkpoint kind `{found}` does not match the requested `{expected}` run"
            ),
            CheckpointError::Corrupt { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            CheckpointError::MissingField(key) => {
                write!(f, "corrupt checkpoint: field `{key}` is missing")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit over a byte stream: the tamper-evidence hash of the
/// file format, also used for the optimize/atpg run fingerprints and the
/// serve baseline cache key (stable across processes).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An in-memory checkpoint: a kind tag plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    kind: String,
    fields: Vec<(String, String)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint of the given subsystem kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` contains `=` or a newline.
    pub fn new(kind: &str) -> Self {
        assert!(
            !kind.contains('=') && !kind.contains('\n'),
            "checkpoint kind must be a bare token"
        );
        Checkpoint {
            kind: kind.to_string(),
            fields: Vec::new(),
        }
    }

    /// The subsystem kind this checkpoint belongs to.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Appends a field.
    ///
    /// # Panics
    ///
    /// Panics if `key` contains `=`/newline, if the value contains a
    /// newline, or if `key` collides with the reserved `checksum` field.
    pub fn put(&mut self, key: &str, value: impl fmt::Display) {
        let value = value.to_string();
        assert!(
            !key.is_empty() && !key.contains('=') && !key.contains('\n') && key != "checksum",
            "invalid checkpoint key `{key}`"
        );
        assert!(!value.contains('\n'), "checkpoint values are single-line");
        self.fields.push((key.to_string(), value));
    }

    /// Appends an `f64` bit-exactly (hex of [`f64::to_bits`]).
    pub fn put_f64_bits(&mut self, key: &str, value: f64) {
        self.put(key, format!("{:016x}", value.to_bits()));
    }

    /// Appends a slice of `f64`s bit-exactly (comma-joined bit hex).
    pub fn put_f64_slice_bits(&mut self, key: &str, values: &[f64]) {
        let joined: Vec<String> = values
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        self.put(key, joined.join(","));
    }

    /// Appends a slice of `u64`s (comma-joined decimal).
    pub fn put_u64_slice(&mut self, key: &str, values: &[u64]) {
        let joined: Vec<String> = values.iter().map(u64::to_string).collect();
        self.put(key, joined.join(","));
    }

    /// Records which circuit this checkpoint belongs to: the stable
    /// structural digest (identity across processes) and the
    /// process-local uid (for log correlation only — uids are assigned
    /// per process and never validated on resume).
    pub fn put_circuit_identity(&mut self, digest: u64, uid: u64) {
        self.put("circuit_digest", format!("{digest:016x}"));
        self.put("circuit_uid", uid);
    }

    /// Validates the recorded structural digest against the circuit a
    /// resume is targeting.  Checkpoints written before circuit identity
    /// was recorded carry no digest and pass unchecked.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] naming both digests when they
    /// disagree.
    pub fn validate_circuit_digest(&self, digest: u64) -> Result<(), CheckpointError> {
        if let Ok(recorded) = self.get("circuit_digest") {
            let expected = format!("{digest:016x}");
            if recorded != expected {
                return Err(CheckpointError::Corrupt {
                    reason: format!(
                        "checkpoint records circuit digest {recorded}, but this circuit's \
                         structural digest is {expected}; resume must target the same circuit"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Looks up a field's raw value.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingField`] when the key is absent.
    pub fn get(&self, key: &str) -> Result<&str, CheckpointError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| CheckpointError::MissingField(key.to_string()))
    }

    /// Looks up and parses a field.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingField`] when absent,
    /// [`CheckpointError::Corrupt`] when unparsable.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, CheckpointError> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| CheckpointError::Corrupt {
            reason: format!("field `{key}` has undecodable value `{raw}`"),
        })
    }

    /// Looks up a bit-exact `f64` field.
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::get_parse`].
    pub fn get_f64_bits(&self, key: &str) -> Result<f64, CheckpointError> {
        let raw = self.get(key)?;
        parse_f64_bits(raw).ok_or_else(|| CheckpointError::Corrupt {
            reason: format!("field `{key}` has undecodable f64 bits `{raw}`"),
        })
    }

    /// Looks up a bit-exact `f64` slice field (empty value = empty slice).
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::get_parse`].
    pub fn get_f64_slice_bits(&self, key: &str) -> Result<Vec<f64>, CheckpointError> {
        let raw = self.get(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|tok| {
                parse_f64_bits(tok).ok_or_else(|| CheckpointError::Corrupt {
                    reason: format!("field `{key}` has undecodable f64 bits `{tok}`"),
                })
            })
            .collect()
    }

    /// Looks up a `u64` slice field (empty value = empty slice).
    ///
    /// # Errors
    ///
    /// See [`Checkpoint::get_parse`].
    pub fn get_u64_slice(&self, key: &str) -> Result<Vec<u64>, CheckpointError> {
        let raw = self.get(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|tok| {
                tok.parse().map_err(|_| CheckpointError::Corrupt {
                    reason: format!("field `{key}` has undecodable u64 `{tok}`"),
                })
            })
            .collect()
    }

    /// Renders the checkpoint to its on-disk text, checksum included.
    pub fn render(&self) -> String {
        let mut body = format!("{MAGIC} v{CHECKPOINT_VERSION}\nkind={}\n", self.kind);
        for (key, value) in &self.fields {
            body.push_str(key);
            body.push('=');
            body.push_str(value);
            body.push('\n');
        }
        let checksum = fnv1a(body.bytes());
        body.push_str(&format!("checksum={checksum:016x}\n"));
        body
    }

    /// Parses checkpoint text, validating magic, version, kind, and
    /// checksum.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`], [`CheckpointError::VersionMismatch`],
    /// [`CheckpointError::WrongKind`], or [`CheckpointError::Corrupt`].
    pub fn parse(text: &str, expected_kind: &str) -> Result<Self, CheckpointError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let Some(version) = header.strip_prefix(MAGIC).map(str::trim) else {
            return Err(CheckpointError::BadMagic);
        };
        if version != format!("v{CHECKPOINT_VERSION}") {
            return Err(CheckpointError::VersionMismatch {
                found: version.to_string(),
            });
        }
        let mut fields: Vec<(String, String)> = Vec::new();
        let mut checksum: Option<String> = None;
        for line in lines {
            let Some((key, value)) = line.split_once('=') else {
                return Err(CheckpointError::Corrupt {
                    reason: format!("malformed line `{line}`"),
                });
            };
            if checksum.is_some() {
                return Err(CheckpointError::Corrupt {
                    reason: "fields after the checksum line".to_string(),
                });
            }
            if key == "checksum" {
                checksum = Some(value.to_string());
            } else {
                fields.push((key.to_string(), value.to_string()));
            }
        }
        let Some(recorded) = checksum else {
            return Err(CheckpointError::Corrupt {
                reason: "missing checksum line (truncated file)".to_string(),
            });
        };
        // Recompute over exactly what render() hashed.
        let mut body = format!("{header}\n");
        for (key, value) in &fields {
            body.push_str(key);
            body.push('=');
            body.push_str(value);
            body.push('\n');
        }
        let expected_sum = format!("{:016x}", fnv1a(body.bytes()));
        if recorded != expected_sum {
            return Err(CheckpointError::Corrupt {
                reason: format!("checksum mismatch (recorded {recorded}, computed {expected_sum})"),
            });
        }
        let kind_pos = fields.iter().position(|(k, _)| k == "kind");
        let Some(kind_pos) = kind_pos else {
            return Err(CheckpointError::Corrupt {
                reason: "missing kind line".to_string(),
            });
        };
        let (_, kind) = fields.remove(kind_pos);
        if kind != expected_kind {
            return Err(CheckpointError::WrongKind {
                expected: expected_kind.to_string(),
                found: kind,
            });
        }
        Ok(Checkpoint { kind, fields })
    }

    /// Writes the checkpoint atomically: render to `<path>.tmp`, then
    /// rename over `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure (or when the
    /// `checkpoint::write` fail point is armed).
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let io_err = |message: String| CheckpointError::Io {
            path: path.display().to_string(),
            message,
        };
        if let Err(e) = failpoint::hit(failpoint::sites::CHECKPOINT_WRITE) {
            return Err(io_err(e.to_string()));
        }
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.render()).map_err(|e| io_err(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(e.to_string()))
    }

    /// Reads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when unreadable; otherwise every
    /// validation error [`Checkpoint::parse`] can produce.
    pub fn read(path: &Path, expected_kind: &str) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Checkpoint::parse(&text, expected_kind)
    }
}

fn parse_f64_bits(tok: &str) -> Option<f64> {
    // Exactly 16 lowercase hex digits, as put_f64_bits writes.
    if tok.len() != 16 {
        return None;
    }
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new("optimize");
        c.put("sweep", 7u64);
        c.put_f64_bits("best_length", 1234.5678e12);
        c.put_f64_slice_bits("weights", &[0.25, 0.5, f64::MIN_POSITIVE, 1.0 - 1e-16]);
        c.put_u64_slice("excluded", &[3, 17, 99]);
        c.put("empty", "");
        c
    }

    #[test]
    fn fnv1a_matches_the_standard_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let c = sample();
        let text = c.render();
        let back = Checkpoint::parse(&text, "optimize").expect("parses");
        assert_eq!(back, c);
        assert_eq!(back.get_parse::<u64>("sweep").unwrap(), 7);
        assert_eq!(
            back.get_f64_bits("best_length").unwrap().to_bits(),
            (1234.5678e12f64).to_bits()
        );
        let ws = back.get_f64_slice_bits("weights").unwrap();
        assert_eq!(ws[2].to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(back.get_u64_slice("excluded").unwrap(), vec![3, 17, 99]);
        assert_eq!(back.get_f64_slice_bits("empty").unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn nan_and_infinity_survive_bit_exactly() {
        // Decimal formatting could never round-trip these; the bit
        // encoding must.
        let mut c = Checkpoint::new("t");
        let weird = f64::from_bits(0x7FF8_0000_0000_0001); // a specific NaN
        c.put_f64_slice_bits("xs", &[f64::INFINITY, f64::NEG_INFINITY, weird, -0.0]);
        let back = Checkpoint::parse(&c.render(), "t").unwrap();
        let xs = back.get_f64_slice_bits("xs").unwrap();
        assert_eq!(xs[0], f64::INFINITY);
        assert_eq!(xs[1], f64::NEG_INFINITY);
        assert_eq!(xs[2].to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(xs[3].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bad_magic_is_detected() {
        assert_eq!(
            Checkpoint::parse("hello world\n", "optimize"),
            Err(CheckpointError::BadMagic)
        );
        assert_eq!(
            Checkpoint::parse("", "optimize"),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn version_mismatch_is_detected_not_guessed() {
        let text = sample().render().replace("v1", "v2");
        match Checkpoint::parse(&text, "optimize") {
            Err(CheckpointError::VersionMismatch { found }) => assert_eq!(found, "v2"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_detected() {
        let text = sample().render();
        match Checkpoint::parse(&text, "atpg") {
            Err(CheckpointError::WrongKind { expected, found }) => {
                assert_eq!(expected, "atpg");
                assert_eq!(found, "optimize");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn any_single_byte_flip_in_a_value_is_detected() {
        let text = sample().render();
        // Flip the sweep count: checksum must catch it.
        let tampered = text.replace("sweep=7", "sweep=8");
        assert!(matches!(
            Checkpoint::parse(&tampered, "optimize"),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().render();
        // Drop the checksum line entirely.
        let mut truncated = String::new();
        for line in text.lines().take_while(|l| !l.starts_with("checksum=")) {
            truncated.push_str(line);
            truncated.push('\n');
        }
        assert!(matches!(
            Checkpoint::parse(&truncated, "optimize"),
            Err(CheckpointError::Corrupt { .. })
        ));
        // Garbage line without '='.
        let garbled = text.replace("sweep=7", "sweep 7");
        assert!(matches!(
            Checkpoint::parse(&garbled, "optimize"),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_and_undecodable_fields_are_structured_errors() {
        let c = sample();
        assert_eq!(
            c.get("nope"),
            Err(CheckpointError::MissingField("nope".to_string()))
        );
        assert!(matches!(
            c.get_parse::<u64>("empty"),
            Err(CheckpointError::Corrupt { .. })
        ));
        let mut bad = Checkpoint::new("t");
        bad.put("x", "zz");
        assert!(matches!(
            bad.get_f64_bits("x"),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn atomic_write_and_read_round_trip() {
        let dir = std::env::temp_dir().join("wrt_robust_ckpt_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.ckpt");
        let c = sample();
        c.write_atomic(&path).expect("writes");
        let back = Checkpoint::read(&path, "optimize").expect("reads");
        assert_eq!(back, c);
        // The temporary never survives a successful write.
        assert!(!path.with_extension("tmp").exists());
        let missing = dir.join("never-written.ckpt");
        assert!(matches!(
            Checkpoint::read(&missing, "optimize"),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn circuit_identity_round_trips_and_gates_resume() {
        let mut c = Checkpoint::new("optimize");
        c.put_circuit_identity(0xDEAD_BEEF, 7);
        assert_eq!(c.get("circuit_digest").unwrap(), "00000000deadbeef");
        assert_eq!(c.get("circuit_uid").unwrap(), "7");
        assert!(c.validate_circuit_digest(0xDEAD_BEEF).is_ok());
        match c.validate_circuit_digest(0xFEED) {
            Err(CheckpointError::Corrupt { reason }) => {
                assert!(reason.contains("00000000deadbeef"));
                assert!(reason.contains("000000000000feed"));
            }
            other => panic!("{other:?}"),
        }
        // Pre-identity checkpoints carry no digest and pass unchecked.
        assert!(Checkpoint::new("optimize")
            .validate_circuit_digest(1)
            .is_ok());
    }

    #[test]
    fn injected_write_failure_is_a_structured_io_error() {
        let dir = std::env::temp_dir().join("wrt_robust_ckpt_inject");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("run.ckpt");
        let s = crate::failpoint::session();
        s.arm("checkpoint::write", crate::failpoint::FailAction::Error, 0);
        match sample().write_atomic(&path) {
            Err(CheckpointError::Io { message, .. }) => {
                assert!(message.contains("checkpoint::write"));
            }
            other => panic!("{other:?}"),
        }
        drop(s);
        // With the arm spent, the same write succeeds.
        sample()
            .write_atomic(&path)
            .expect("writes after injection");
    }
}
