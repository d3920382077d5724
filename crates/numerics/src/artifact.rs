//! Versioned, checksummed binary artifacts for solver-engine state.
//!
//! The engine cache (ROADMAP direction 5) needs to move a factored engine —
//! the assembled operator plus its IC(0) factor, or a whole multigrid
//! hierarchy — between processes without re-paying assembly and
//! factorization. This module is the dependency-free codec behind that:
//! little-endian sections inside one fixed envelope, no external crates
//! (the serde shims stay JSON-only and are never on this path).
//!
//! # Envelope
//!
//! ```text
//! magic "VCAF" | version u32 | payload … | checksum u64
//! ```
//!
//! An artifact is exactly one envelope: its owner writes the whole payload
//! into one [`ArtifactWriter`] and reads it back from one
//! [`ArtifactReader`]. The solver state — the operator and its
//! preconditioner — is one section of that payload, written by
//! [`ArtifactWriter::put_solver_state`] and read by
//! [`ArtifactReader::get_solver_state`]; the matrix, factor and hierarchy
//! codecs behind it are private to this module.
//!
//! The trailing checksum (FNV-1a over everything before it) covers the
//! header too, so header corruption is caught, and the version is checked
//! *before* the checksum so a format bump reports [`ArtifactError::VersionSkew`]
//! rather than a misleading mismatch.
//!
//! # Safety contract
//!
//! Decoding untrusted bytes **never panics**: every read is bounds-checked
//! ([`ArtifactError::Truncated`]), every payload is re-validated against the
//! structural invariants the kernels assume (via the existing
//! [`CsrMatrix::validate`] / [`CsrMatrix::validate_symmetric`] checkers plus
//! codec-local factor checks), and failures come back as typed
//! [`ArtifactError`] values so callers can fall back to a fresh build.

use std::sync::Arc;

use crate::multigrid::{Multigrid, MultigridHierarchy};
use crate::precond::{AnyPreconditioner, IncompleteCholesky};
use crate::{CsrMatrix, NumericsError};

/// Format version written into (and required from) every artifact envelope.
///
/// Version 7: the header is the magic and this version, with no kind
/// byte, and nothing nests a second envelope. The solver state is a tag
/// byte and its sections, inline in the owner's payload: tag 0 is a
/// multigrid hierarchy (each non-coarsest level's operator, prolongator
/// and Chebyshev bound, then the coarsest operator), whose finest level
/// is the operator; tag 1 is the operator followed by its IC(0) factor
/// (`n` and the three factor arrays). A hierarchy carries no
/// construction parameters, which are constants, and no coarsest-level
/// factor: the restore factors the coarsest operator by the build's own
/// rule.
pub const ARTIFACT_VERSION: u32 = 7;

/// Envelope magic: "VCsel Artifact Format".
const MAGIC: [u8; 4] = *b"VCAF";

/// Bytes before the payload: magic (4) + version (4).
const HEADER_LEN: usize = 8;
/// Trailing checksum length.
const CHECKSUM_LEN: usize = 8;

/// Typed decode failure — the restore paths turn each of these into a
/// fall-back-to-fresh-build, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The byte stream ended before a read completed.
    Truncated {
        /// Bytes the read needed to reach.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The trailing checksum does not match the stored bytes.
    ChecksumMismatch {
        /// Checksum stored in the envelope.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// The envelope was written by a different format version.
    VersionSkew {
        /// Version this build understands.
        supported: u32,
        /// Version found in the envelope.
        found: u32,
    },
    /// The leading magic bytes are not an artifact envelope.
    BadMagic,
    /// The payload decoded but violates a structural invariant.
    BadStructure {
        /// First violated invariant.
        reason: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { needed, available } => {
                write!(f, "artifact truncated: needed {needed} bytes, have {available}")
            }
            Self::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            Self::VersionSkew { supported, found } => write!(
                f,
                "artifact version skew: this build reads v{supported}, envelope is v{found}"
            ),
            Self::BadMagic => write!(f, "not an artifact envelope (bad magic)"),
            Self::BadStructure { reason } => write!(f, "artifact payload invalid: {reason}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<NumericsError> for ArtifactError {
    fn from(err: NumericsError) -> Self {
        Self::BadStructure { reason: err.to_string() }
    }
}

fn bad(reason: String) -> ArtifactError {
    ArtifactError::BadStructure { reason }
}

// ---------------------------------------------------------------------------
// Checksum / content hashing.

/// FNV-1a-64 over an 8-byte-chunked stream (the envelope checksum). The
/// chunking folds whole little-endian words per multiply, so checksumming a
/// paper-scale hierarchy costs milliseconds, not a per-byte pass.
fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h ^= w;
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Streaming FNV-1a-64 hasher for cache-key content hashes (conductivity
/// fields, boundary sets). Byte-exact: two inputs hash equal iff the pushed
/// byte streams are identical, so `f64` payloads are folded as IEEE bit
/// patterns and distinguish `0.0` from `-0.0` — exactly the bitwise
/// invalidation contract the engine cache documents.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl ContentHasher {
    /// Starts a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Folds raw bytes into the hash.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(PRIME);
        }
    }

    /// Folds one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.push_bytes(&[v]);
    }

    /// Folds a `u64` as its little-endian bytes.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64` as its IEEE-754 bit pattern.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// The accumulated 64-bit hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Encode/decode inner loops (registered in lint.toml's rule-3 hot-path
// audit: they run once per stored non-zero and must not allocate).

/// Appends each `u32` as little-endian bytes.
fn extend_u32_le(buf: &mut Vec<u8>, vals: &[u32]) {
    for &v in vals {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends each `usize` as a little-endian `u64`.
fn extend_usize_le(buf: &mut Vec<u8>, vals: &[usize]) {
    for &v in vals {
        buf.extend_from_slice(&(v as u64).to_le_bytes());
    }
}

/// Appends each `f64` as its little-endian IEEE-754 bit pattern.
fn extend_f64_le(buf: &mut Vec<u8>, vals: &[f64]) {
    for &v in vals {
        buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Fills `dst` from packed little-endian `u32`s (`src.len() == 4 * dst.len()`).
fn fill_u32_le(dst: &mut [u32], src: &[u8]) {
    for (i, d) in dst.iter_mut().enumerate() {
        let o = 4 * i;
        *d = u32::from_le_bytes([src[o], src[o + 1], src[o + 2], src[o + 3]]);
    }
}

/// Fills `dst` from packed little-endian `u64`s, returning `false` if any
/// value overflows `usize` (32-bit targets).
fn fill_usize_le(dst: &mut [usize], src: &[u8]) -> bool {
    for (i, d) in dst.iter_mut().enumerate() {
        let o = 8 * i;
        let w = u64::from_le_bytes([
            src[o],
            src[o + 1],
            src[o + 2],
            src[o + 3],
            src[o + 4],
            src[o + 5],
            src[o + 6],
            src[o + 7],
        ]);
        let Ok(v) = usize::try_from(w) else {
            return false;
        };
        *d = v;
    }
    true
}

/// Fills `dst` from packed little-endian `f64` bit patterns.
fn fill_f64_le(dst: &mut [f64], src: &[u8]) {
    for (i, d) in dst.iter_mut().enumerate() {
        let o = 8 * i;
        *d = f64::from_bits(u64::from_le_bytes([
            src[o],
            src[o + 1],
            src[o + 2],
            src[o + 3],
            src[o + 4],
            src[o + 5],
            src[o + 6],
            src[o + 7],
        ]));
    }
}

// ---------------------------------------------------------------------------
// Envelope writer / reader.

/// Builds one artifact envelope: header up front, the owner's payload
/// appended in order (the solver state as one section of it), checksum
/// sealed by [`ArtifactWriter::finish`].
#[derive(Debug)]
pub struct ArtifactWriter {
    buf: Vec<u8>,
}

impl ArtifactWriter {
    /// Starts an envelope at [`ARTIFACT_VERSION`].
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        Self { buf }
    }

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed `u32` slice.
    fn put_u32_slice(&mut self, vals: &[u32]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(4 * vals.len());
        extend_u32_le(&mut self.buf, vals);
    }

    /// Appends a length-prefixed `usize` slice (stored as `u64`s).
    fn put_usize_slice(&mut self, vals: &[usize]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(8 * vals.len());
        extend_usize_le(&mut self.buf, vals);
    }

    /// Appends a length-prefixed `f64` slice (IEEE bit patterns).
    pub fn put_f64_slice(&mut self, vals: &[f64]) {
        self.put_u64(vals.len() as u64);
        self.buf.reserve(8 * vals.len());
        extend_f64_le(&mut self.buf, vals);
    }

    /// Seals the envelope: appends the checksum and returns the bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let c = checksum64(&self.buf);
        self.buf.extend_from_slice(&c.to_le_bytes());
        self.buf
    }
}

impl Default for ArtifactWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Bounds-checked reader over a verified envelope. Obtained from
/// [`ArtifactReader::open`], which has already validated magic, version
/// and checksum; every getter then fails typed instead of panicking.
#[derive(Debug)]
pub struct ArtifactReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ArtifactReader<'a> {
    /// Verifies the envelope (magic, version, trailing checksum) and
    /// positions a reader at the start of the payload.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] when shorter than the fixed envelope,
    /// [`ArtifactError::BadMagic`] / [`ArtifactError::VersionSkew`] /
    /// [`ArtifactError::ChecksumMismatch`] for the corresponding header
    /// defects. The version is checked before the checksum, so a future
    /// format reports skew, not corruption.
    pub fn open(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        let min = HEADER_LEN + CHECKSUM_LEN;
        if bytes.len() < min {
            return Err(ArtifactError::Truncated { needed: min, available: bytes.len() });
        }
        if bytes[..4] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let found = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if found != ARTIFACT_VERSION {
            return Err(ArtifactError::VersionSkew { supported: ARTIFACT_VERSION, found });
        }
        let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        let stored = u64::from_le_bytes([
            tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
        ]);
        let computed = checksum64(body);
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }
        Ok(Self { buf: body, pos: HEADER_LEN })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ArtifactError::Truncated { needed: usize::MAX, available: self.buf.len() })?;
        if end > self.buf.len() {
            return Err(ArtifactError::Truncated { needed: end, available: self.buf.len() });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn slice_len(&mut self, elem_bytes: usize) -> Result<usize, ArtifactError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| bad(format!("slice length {len} overflows")))?;
        len.checked_mul(elem_bytes)
            .ok_or_else(|| bad(format!("slice byte length overflows ({len} elements)")))?;
        Ok(len)
    }

    /// Reads one byte ([`ArtifactError::Truncated`] at end of payload).
    fn get_u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] at end of payload.
    pub fn get_u64(&mut self) -> Result<u64, ArtifactError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a `u64` and converts it to `usize`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] at end of payload,
    /// [`ArtifactError::BadStructure`] on overflow (32-bit targets).
    pub fn get_usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| bad(format!("value {v} overflows usize")))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] at end of payload.
    pub fn get_f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `u32` slice ([`ArtifactError::Truncated`]
    /// when the declared length outruns the payload).
    fn get_u32_slice(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let len = self.slice_len(4)?;
        let src = self.take(4 * len)?;
        let mut out = vec![0u32; len];
        fill_u32_le(&mut out, src);
        Ok(out)
    }

    /// Reads a length-prefixed `usize` slice (stored as `u64`s):
    /// [`ArtifactError::Truncated`] when the declared length outruns the
    /// payload, [`ArtifactError::BadStructure`] on `usize` overflow.
    fn get_usize_slice(&mut self) -> Result<Vec<usize>, ArtifactError> {
        let len = self.slice_len(8)?;
        let src = self.take(8 * len)?;
        let mut out = vec![0usize; len];
        if !fill_usize_le(&mut out, src) {
            return Err(bad("usize slice element overflows this target".into()));
        }
        Ok(out)
    }

    /// Reads a length-prefixed `f64` slice (IEEE bit patterns).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] when the declared length outruns the
    /// payload.
    pub fn get_f64_slice(&mut self) -> Result<Vec<f64>, ArtifactError> {
        let len = self.slice_len(8)?;
        let src = self.take(8 * len)?;
        let mut out = vec![0.0f64; len];
        fill_f64_le(&mut out, src);
        Ok(out)
    }

    /// Bytes of payload not read yet.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::BadStructure`] when trailing bytes remain — a
    /// writer/reader schema drift, not corruption (the checksum passed).
    pub fn expect_end(&self) -> Result<(), ArtifactError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing payload bytes", self.remaining())))
        }
    }
}

// ---------------------------------------------------------------------------
// Solver state: the one public section over the operator and its
// preconditioner.

/// Solver-state tag of a multigrid hierarchy, whose finest level is the
/// operator.
const TAG_MULTIGRID: u8 = 0;
/// Solver-state tag of an operator followed by its IC(0) factor.
const TAG_INCOMPLETE_CHOLESKY: u8 = 1;

impl ArtifactWriter {
    /// Appends an engine's solver state: `operator` and the
    /// preconditioner built on it. A multigrid preconditioner is stored
    /// as its hierarchy alone, whose finest level is `operator`, so the
    /// operator's bytes appear once; an IC(0) one as the operator followed
    /// by the factor.
    ///
    /// Returns `None`, having written nothing, when the state cannot be
    /// cached: a Jacobi preconditioner, or a multigrid hierarchy whose
    /// finest level is not `operator`.
    pub fn put_solver_state(
        &mut self,
        operator: &Arc<CsrMatrix>,
        precond: &AnyPreconditioner,
    ) -> Option<()> {
        match precond {
            AnyPreconditioner::Multigrid(m)
                if Arc::ptr_eq(m.hierarchy().fine_operator(), operator) =>
            {
                self.put_u8(TAG_MULTIGRID);
                write_hierarchy(self, m.hierarchy());
            }
            AnyPreconditioner::IncompleteCholesky(ic) => {
                self.put_u8(TAG_INCOMPLETE_CHOLESKY);
                write_csr(self, operator);
                write_ic0(self, ic);
            }
            _ => return None,
        }
        Some(())
    }
}

impl ArtifactReader<'_> {
    /// Reads the solver state [`ArtifactWriter::put_solver_state`] wrote:
    /// the operator and its preconditioner, every section revalidated and
    /// nothing coarsened or estimated. A multigrid operator comes back as
    /// the hierarchy's finest level, shared as on a fresh build; the only
    /// factorization is the hierarchy's coarsest level (at most 500 rows),
    /// re-derived by the build's own rule.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`]: truncation, an unknown tag, an operator that
    /// is not a valid symmetric CSR matrix, a factor or hierarchy that
    /// violates its invariants, or a factor whose row count differs from
    /// the operator's ([`ArtifactError::BadStructure`]).
    pub fn get_solver_state(
        &mut self,
    ) -> Result<(Arc<CsrMatrix>, AnyPreconditioner), ArtifactError> {
        match self.get_u8()? {
            TAG_MULTIGRID => {
                let h = read_hierarchy(self)?;
                let operator = Arc::clone(h.fine_operator());
                let mg = Multigrid::from_hierarchy(h);
                Ok((operator, AnyPreconditioner::Multigrid(Box::new(mg))))
            }
            TAG_INCOMPLETE_CHOLESKY => {
                let operator = read_sym_csr(self)?;
                let ic = read_ic0(self, operator.rows())?;
                Ok((Arc::new(operator), AnyPreconditioner::IncompleteCholesky(ic)))
            }
            t => Err(bad(format!("unknown solver-state tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// CsrMatrix section.

/// Writes the CSR arrays of `a`.
fn write_csr(w: &mut ArtifactWriter, a: &CsrMatrix) {
    let (row_ptr, col_idx, values) = a.raw_parts();
    w.put_u64(a.rows() as u64);
    w.put_u64(a.cols() as u64);
    w.put_usize_slice(row_ptr);
    w.put_u32_slice(col_idx);
    w.put_f64_slice(values);
}

/// Reads CSR arrays and revalidates them through [`CsrMatrix::validate`].
fn read_csr(r: &mut ArtifactReader<'_>) -> Result<CsrMatrix, ArtifactError> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let row_ptr = r.get_usize_slice()?;
    let col_idx = r.get_u32_slice()?;
    let values = r.get_f64_slice()?;
    Ok(CsrMatrix::try_from_sorted_parts(rows, cols, row_ptr, col_idx, values)?)
}

/// [`read_csr`] plus the symmetric-operator invariants
/// ([`CsrMatrix::validate_symmetric`]) the level operators must satisfy.
fn read_sym_csr(r: &mut ArtifactReader<'_>) -> Result<CsrMatrix, ArtifactError> {
    let m = read_csr(r)?;
    m.validate_symmetric()?;
    Ok(m)
}

// ---------------------------------------------------------------------------
// IncompleteCholesky section.

/// Structural invariants of an IC(0) factor: square CSR with each row
/// non-empty, columns strictly ascending, the diagonal stored last (column
/// == row) with a strictly positive value, and every value finite.
fn validate_ic0_factor(
    n: usize,
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
) -> Result<(), ArtifactError> {
    if row_ptr.len() != n + 1 {
        return Err(bad(format!("factor row_ptr has {} entries for {n} rows", row_ptr.len())));
    }
    if row_ptr[0] != 0 {
        return Err(bad(format!("factor row_ptr must start at 0, starts at {}", row_ptr[0])));
    }
    if col_idx.len() != values.len() || *row_ptr.last().unwrap_or(&0) != values.len() {
        return Err(bad(format!(
            "factor arrays disagree: row_ptr ends at {}, {} columns, {} values",
            row_ptr.last().unwrap_or(&0),
            col_idx.len(),
            values.len()
        )));
    }
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        if lo >= hi {
            return Err(bad(format!("factor row {i} is empty or row_ptr decreases")));
        }
        if col_idx[hi - 1] as usize != i {
            return Err(bad(format!(
                "factor row {i} must store its diagonal last, last column is {}",
                col_idx[hi - 1]
            )));
        }
        if let Some(w) = col_idx[lo..hi].windows(2).find(|w| w[0] >= w[1]) {
            return Err(bad(format!(
                "factor row {i} columns not strictly ascending ({} then {})",
                w[0], w[1]
            )));
        }
        if !(values[hi - 1] > 0.0) || !values[hi - 1].is_finite() {
            return Err(bad(format!("factor pivot {} at row {i} is not positive", values[hi - 1])));
        }
        if let Some(k) = values[lo..hi].iter().position(|v| !v.is_finite()) {
            return Err(bad(format!("non-finite factor value at row {i}, entry {k}")));
        }
    }
    Ok(())
}

/// Writes the factor arrays, so a restore skips the factorization.
fn write_ic0(w: &mut ArtifactWriter, ic: &IncompleteCholesky) {
    let (row_ptr, col_idx, values) = ic.factor_parts();
    w.put_u64(row_ptr.len().saturating_sub(1) as u64);
    w.put_usize_slice(row_ptr);
    w.put_u32_slice(col_idx);
    w.put_f64_slice(values);
}

/// Reads a factor of an operator with `rows` rows, with full structural
/// revalidation: a factor of any other size is rejected here, before a
/// triangular solve could run on mismatched columns.
fn read_ic0(r: &mut ArtifactReader<'_>, rows: usize) -> Result<IncompleteCholesky, ArtifactError> {
    let n = r.get_usize()?;
    if n != rows {
        return Err(bad(format!("IC(0) factor has {n} rows, its operator {rows}")));
    }
    let row_ptr = r.get_usize_slice()?;
    let col_idx = r.get_u32_slice()?;
    let values = r.get_f64_slice()?;
    validate_ic0_factor(n, &row_ptr, &col_idx, &values)?;
    Ok(IncompleteCholesky::from_restored_parts(row_ptr, col_idx, values))
}

// ---------------------------------------------------------------------------
// MultigridHierarchy section.

/// Writes every level operator, prolongator and Chebyshev bound, then the
/// coarsest operator. Restrictions (`R = Pᵀ`), inverse diagonals and the
/// coarsest solver are deterministic functions of the operators and are
/// rebuilt on restore instead of being stored twice; the bounds are stored
/// because estimating them costs SpMVs.
fn write_hierarchy(w: &mut ArtifactWriter, h: &MultigridHierarchy) {
    w.put_u64(h.level_parts().len() as u64);
    for (a, p, lambda_max) in h.level_parts() {
        write_csr(w, a);
        write_csr(w, p);
        w.put_f64(lambda_max);
    }
    write_csr(w, h.coarse_matrix());
}

/// Reads a hierarchy [`write_hierarchy`] wrote: level operators are
/// revalidated with [`CsrMatrix::validate_symmetric`], prolongators with
/// [`CsrMatrix::validate`], the transfer-chain dimensions are checked,
/// each stored Chebyshev bound must be finite, positive and at most its
/// level's Gershgorin bound, and inverse diagonals, restrictions and the
/// coarsest solver are rebuilt from the restored operators. No coarsening
/// or spectral estimation runs.
fn read_hierarchy(r: &mut ArtifactReader<'_>) -> Result<MultigridHierarchy, ArtifactError> {
    let level_count = r.get_usize()?;
    // Cap the pre-allocation by what the payload could hold: a hostile
    // count must not reserve memory before the reads fail.
    let capacity = level_count.min(r.remaining());
    let mut ops = Vec::with_capacity(capacity);
    let mut prolongators = Vec::with_capacity(capacity);
    let mut bounds = Vec::with_capacity(capacity);
    for _ in 0..level_count {
        ops.push(Arc::new(read_sym_csr(r)?));
        prolongators.push(read_csr(r)?);
        bounds.push(r.get_f64()?);
    }
    let coarse_a = read_sym_csr(r)?;
    Ok(MultigridHierarchy::from_restored_parts(ops, prolongators, bounds, coarse_a)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{Preconditioner, PreconditionerKind};
    use crate::TripletBuilder;

    fn poisson_1d(n: usize) -> CsrMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            b.add(i, i, 2.001);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    /// Seals one envelope around what `write` appends.
    fn sealed(write: impl FnOnce(&mut ArtifactWriter)) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        write(&mut w);
        w.finish()
    }

    /// Opens `bytes`, decodes one section with `read` and requires the
    /// payload to end there.
    fn opened<'b, T>(
        bytes: &'b [u8],
        read: impl FnOnce(&mut ArtifactReader<'b>) -> Result<T, ArtifactError>,
    ) -> Result<T, ArtifactError> {
        let mut r = ArtifactReader::open(bytes)?;
        let value = read(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }

    #[test]
    fn csr_round_trip_is_bitwise() {
        let a = poisson_1d(64);
        let bytes = sealed(|w| write_csr(w, &a));
        let back = opened(&bytes, read_csr).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn envelope_rejects_truncation_checksum_version_and_magic() {
        let a = poisson_1d(16);
        let bytes = sealed(|w| write_csr(w, &a));

        for cut in [0, 3, HEADER_LEN, bytes.len() - CHECKSUM_LEN - 1] {
            let err = opened(&bytes[..cut], read_csr).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            opened(&flipped, read_csr).unwrap_err(),
            ArtifactError::ChecksumMismatch { .. }
        ));

        let mut payload_flip = bytes.clone();
        payload_flip[HEADER_LEN + 4] ^= 0x80;
        assert!(matches!(
            opened(&payload_flip, read_csr).unwrap_err(),
            ArtifactError::ChecksumMismatch { .. }
        ));

        // A future format and the previous one are both skew.
        for version in [ARTIFACT_VERSION + 1, ARTIFACT_VERSION - 1] {
            let mut skew = bytes.clone();
            skew[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                opened(&skew, read_csr).unwrap_err(),
                ArtifactError::VersionSkew { found, .. } if found == version
            ));
        }

        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(matches!(opened(&magic, read_csr).unwrap_err(), ArtifactError::BadMagic));
    }

    #[test]
    fn csr_decode_revalidates_structure() {
        // A structurally broken payload behind a *valid* envelope must be
        // rejected by the revalidation pass, not trusted.
        let bytes = sealed(|w| {
            w.put_u64(2);
            w.put_u64(2);
            w.put_usize_slice(&[0, 1, 3]); // row_ptr ends past nnz
            w.put_u32_slice(&[0, 1]);
            w.put_f64_slice(&[1.0, 2.0]);
        });
        let err = opened(&bytes, read_csr).unwrap_err();
        assert!(matches!(err, ArtifactError::BadStructure { .. }), "{err}");
    }

    #[test]
    fn ic0_round_trip_matches_fresh_factor() {
        let a = poisson_1d(200);
        let fresh = IncompleteCholesky::new(&a).unwrap();
        let bytes = sealed(|w| write_ic0(w, &fresh));
        let restored = opened(&bytes, |r| read_ic0(r, 200)).unwrap();
        // PartialEq covers the factor arrays.
        assert_eq!(fresh, restored);

        let r: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut z1 = vec![0.0; 200];
        let mut z2 = vec![0.0; 200];
        let mut fresh = fresh;
        let mut restored = restored;
        fresh.apply(&r, &mut z1);
        restored.apply(&r, &mut z2);
        assert_eq!(z1, z2, "restored apply must be bitwise identical");
    }

    #[test]
    fn ic0_decode_rejects_broken_factor() {
        let a = poisson_1d(32);
        let fresh = IncompleteCholesky::new(&a).unwrap();
        let (row_ptr, col_idx, values) = fresh.factor_parts();
        let ic0_payload = |vals: &[f64]| {
            let mut w = ArtifactWriter::new();
            w.put_u64(32);
            w.put_usize_slice(row_ptr);
            w.put_u32_slice(col_idx);
            w.put_f64_slice(vals);
            w
        };
        // Negate a pivot: structurally intact envelope, invalid factor.
        let mut vals = values.to_vec();
        vals[row_ptr[1] - 1] = -vals[row_ptr[1] - 1];
        let err = opened(&ic0_payload(&vals).finish(), |r| read_ic0(r, 32)).unwrap_err();
        assert!(matches!(err, ArtifactError::BadStructure { .. }), "{err}");

        // A valid factor followed by the version-2 tail (apply knob, thread
        // pin, schedule flag), resealed under the current version: the
        // checksum passes, so the trailing bytes must be rejected.
        let mut w = ic0_payload(values);
        w.put_u8(1);
        w.put_u8(0);
        w.put_u64(0);
        w.put_u8(0);
        let err = opened(&w.finish(), |r| read_ic0(r, 32)).unwrap_err();
        assert!(matches!(err, ArtifactError::BadStructure { .. }), "{err}");
    }

    #[test]
    fn solver_state_rejects_a_factor_of_another_size() {
        // Each section is valid on its own; only the row-count check stops
        // a 32-row factor from reaching a solve on a 64-row operator.
        let operator = Arc::new(poisson_1d(64));
        let foreign = PreconditionerKind::IncompleteCholesky.build(&Arc::new(poisson_1d(32)));
        let bytes = sealed(|w| w.put_solver_state(&operator, &foreign.unwrap()).unwrap());
        let err = opened(&bytes, ArtifactReader::get_solver_state).unwrap_err();
        assert!(matches!(err, ArtifactError::BadStructure { .. }), "{err}");
    }

    /// Builds a multigrid preconditioner on `a`, round-trips its hierarchy
    /// through the codec and returns it after checking the restore: the
    /// restored hierarchy equals the fresh one (levels, bounds and the
    /// coarsest solver the restore re-derives), and one apply of the
    /// restored [`Multigrid`] is bitwise the fresh one.
    fn restores_bitwise(a: CsrMatrix) -> Multigrid {
        let n = a.rows();
        let mut fresh = Multigrid::new(Arc::new(a)).unwrap();
        let bytes = sealed(|w| write_hierarchy(w, fresh.hierarchy()));
        let restored = opened(&bytes, read_hierarchy).unwrap();
        assert!(fresh.hierarchy() == &restored, "restore must re-derive the fresh hierarchy");
        let mut restored = Multigrid::from_hierarchy(restored);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin() + 0.2).collect();
        let (mut z1, mut z2) = (vec![0.0; n], vec![0.0; n]);
        fresh.apply(&b, &mut z1);
        restored.apply(&b, &mut z2);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&z1), bits(&z2), "restored apply must be bitwise identical");
        fresh
    }

    #[test]
    fn hierarchy_round_trip_refactors_a_dense_coarsest_level() {
        let fresh = restores_bitwise(poisson_1d(1500));
        let sizes = fresh.hierarchy().level_sizes();
        assert!(sizes.len() >= 2 && sizes[sizes.len() - 1] <= 500, "{sizes:?}");
    }

    #[test]
    fn hierarchy_round_trip_restores_the_jacobi_cg_fallback() {
        // A diagonal operator has no strong couplings, so coarsening
        // stalls at once: the 600-row fine level is the coarsest, too
        // large for the dense factor, and runs Jacobi-CG.
        let mut b = TripletBuilder::new(600, 600);
        for i in 0..600 {
            b.add(i, i, 1.0 + (i % 7) as f64);
        }
        let fresh = restores_bitwise(b.build());
        assert_eq!(fresh.hierarchy().level_sizes(), [600]);
    }

    #[test]
    fn hierarchy_decode_rejects_broken_transfer_chain() {
        let m = Multigrid::new(Arc::new(poisson_1d(1500))).unwrap();
        let h = m.hierarchy();
        assert!(h.level_count() >= 2, "fixture must coarsen");
        // Re-encode with a prolongator whose column count disagrees with
        // the next level: caught by the dimension-chain check.
        let mut w = ArtifactWriter::new();
        w.put_u64(h.level_parts().len() as u64);
        for (a_l, _, lambda_max) in h.level_parts() {
            write_csr(&mut w, a_l);
            write_csr(&mut w, &CsrMatrix::identity(a_l.rows())); // wrong P
            w.put_f64(lambda_max);
        }
        write_csr(&mut w, h.coarse_matrix());
        let err = opened(&w.finish(), read_hierarchy).unwrap_err();
        assert!(matches!(err, ArtifactError::BadStructure { .. }), "{err}");
    }

    #[test]
    fn hierarchy_decode_rejects_out_of_range_smoother_bounds() {
        let m = Multigrid::new(Arc::new(poisson_1d(1500))).unwrap();
        let h = m.hierarchy();
        // Re-encode with the first level's bound replaced: each value must
        // be rejected typed, before any cycle could use it.
        for bad_bound in [f64::NAN, f64::INFINITY, 0.0, -1.0, 1e300] {
            let mut w = ArtifactWriter::new();
            w.put_u64(h.level_parts().len() as u64);
            for (idx, (a_l, p, lambda_max)) in h.level_parts().enumerate() {
                write_csr(&mut w, a_l);
                write_csr(&mut w, p);
                w.put_f64(if idx == 0 { bad_bound } else { lambda_max });
            }
            write_csr(&mut w, h.coarse_matrix());
            let err = opened(&w.finish(), read_hierarchy).unwrap_err();
            assert!(matches!(err, ArtifactError::BadStructure { .. }), "{bad_bound}: {err}");
        }
    }

    #[test]
    fn multigrid_solver_state_is_a_working_preconditioner() {
        let shared = Arc::new(poisson_1d(1200));
        let fresh = PreconditionerKind::Multigrid.build(&shared).unwrap();
        let bytes = sealed(|w| w.put_solver_state(&shared, &fresh).unwrap());
        let (operator, mut restored) = opened(&bytes, ArtifactReader::get_solver_state).unwrap();
        assert_eq!(operator, shared);
        let hierarchy = restored.as_multigrid().expect("multigrid state").hierarchy();
        assert!(Arc::ptr_eq(hierarchy.fine_operator(), &operator));
        let mut fresh = fresh;
        let r: Vec<f64> = (0..1200).map(|i| (i as f64 * 0.19).cos()).collect();
        let mut z1 = vec![0.0; 1200];
        let mut z2 = vec![0.0; 1200];
        fresh.apply(&r, &mut z1);
        restored.apply(&r, &mut z2);
        assert_eq!(z1, z2);

        // Not cacheable: a hierarchy over another copy of the operator, and
        // Jacobi. Neither writes a byte.
        let mut w = ArtifactWriter::new();
        assert!(w.put_solver_state(&Arc::new(poisson_1d(1200)), &fresh).is_none());
        let jacobi = PreconditionerKind::Jacobi.build(&shared).unwrap();
        assert!(w.put_solver_state(&shared, &jacobi).is_none());
        assert_eq!(w.buf.len(), HEADER_LEN);
    }

    #[test]
    fn content_hasher_is_order_and_bit_sensitive() {
        let mut a = ContentHasher::new();
        a.push_f64(1.0);
        a.push_f64(2.0);
        let mut b = ContentHasher::new();
        b.push_f64(2.0);
        b.push_f64(1.0);
        assert_ne!(a.finish(), b.finish());
        let mut c = ContentHasher::new();
        c.push_f64(0.0);
        let mut d = ContentHasher::new();
        d.push_f64(-0.0);
        assert_ne!(c.finish(), d.finish(), "bitwise contract distinguishes signed zero");
        let hash = |bytes: &[u8]| {
            let mut h = ContentHasher::new();
            h.push_bytes(bytes);
            h.finish()
        };
        assert_eq!(hash(b"abc"), hash(b"abc"));
        assert_ne!(hash(b"abc"), hash(b"abd"));
    }
}
