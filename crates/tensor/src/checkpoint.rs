//! Versioned, checksummed, atomic training checkpoints.
//!
//! A [`Checkpoint`] is an ordered list of named binary sections. The layers
//! above decide what goes in each section (parameter values, Adam moments,
//! RNG/step counters, epoch position); this module owns the container
//! format, its integrity guarantees, and on-disk lifecycle:
//!
//! * **Versioned**: a magic + format version header, rejected on mismatch.
//! * **Checksummed**: a CRC-32 (IEEE) over the entire payload is stored in
//!   the trailer; any flipped or missing byte makes the load fail with
//!   `InvalidData` instead of silently restoring garbage.
//! * **Atomic**: [`Checkpoint::save`] writes to a temporary file in the
//!   destination directory, fsyncs it, and `rename`s it into place, so a
//!   crash mid-write can never leave a half-written file under the final
//!   name (POSIX rename is atomic within a filesystem).
//! * **Retained + self-healing**: [`CheckpointManager`] keeps the last K
//!   checkpoints of a training run and, on load, falls back across corrupt
//!   or truncated files to the newest one that still validates.
//!
//! Binary layout (little-endian):
//!
//! ```text
//! magic "BTCP" | version u32 | step u64 | n_sections u32
//! repeat n_sections: name_len u32 | name (UTF-8) | payload_len u64 | payload
//! crc32 u32   (over every preceding byte)
//! ```

use crate::param::ParamStore;
use crate::tensor::Tensor;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"BTCP";
const VERSION: u32 = 1;
/// Refuse to parse section names longer than this (corruption guard).
const MAX_NAME_LEN: usize = 1 << 12;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB88320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Slice-by-8 extension tables: tables[k][i] advances the CRC of byte i
    // through k additional zero bytes.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `bytes`, slice-by-8: eight table lookups per 8-byte
/// word instead of one per byte. Cold-start artifact validation CRCs the
/// whole multi-megabyte file (trailer + per-section), so this sits on the
/// serve-ready critical path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// CRC-32C (Castagnoli), hardware-accelerated where available.
// ---------------------------------------------------------------------------

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0x82F63B78 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

fn crc32c_sw(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// SAFETY: caller must ensure SSE4.2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u32::MAX as u64;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        c = _mm_crc32_u64(c, u64::from_le_bytes(ch.try_into().expect("8-byte chunk")));
    }
    let mut c = c as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// CRC-32C (Castagnoli) of `bytes` — the checksum of the frozen serving
/// artifact (`frozen`), picked over CRC-32/IEEE because x86_64 executes it
/// in hardware (SSE4.2 `crc32` instruction, ~an order of magnitude faster
/// than the table walk). The software slice-by-8 fallback computes the
/// identical function, so artifacts are portable across machines. The
/// `BTCP` checkpoint format keeps CRC-32/IEEE ([`crc32`]) — its files
/// predate this function.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: feature detected at runtime.
        return unsafe { crc32c_hw(bytes) };
    }
    crc32c_sw(bytes)
}

// ---------------------------------------------------------------------------
// Error helpers: every error names the file it came from.
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Wraps `err` with the path it concerns, preserving the error kind.
pub fn with_path(err: io::Error, path: &Path) -> io::Error {
    io::Error::new(err.kind(), format!("{}: {err}", path.display()))
}

// ---------------------------------------------------------------------------
// Atomic file writes.
// ---------------------------------------------------------------------------

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// flush + fsync, then rename over the destination. On unix the directory
/// is fsynced too so the rename itself is durable.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| bad(format!("{}: not a file path", path.display())))?;
    let tmp = path.with_file_name(format!(".{}.tmp", file_name.to_string_lossy()));
    let ctx = |e: io::Error| with_path(e, &tmp);

    let mut f = fs::File::create(&tmp).map_err(ctx)?;
    f.write_all(bytes).map_err(ctx)?;
    f.sync_all().map_err(ctx)?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| with_path(e, path))?;
    #[cfg(unix)]
    if let Some(dir) = dir {
        // Make the rename durable; ignore filesystems that refuse dir fsync.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

// ---------------------------------------------------------------------------
// The checkpoint container.
// ---------------------------------------------------------------------------

/// An ordered set of named binary sections with a step stamp.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Checkpoint {
    /// Optimizer-step count this checkpoint was taken at.
    pub step: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl Checkpoint {
    /// An empty checkpoint stamped with `step`.
    pub fn new(step: u64) -> Self {
        Self { step, sections: Vec::new() }
    }

    /// Adds (or replaces) a named section.
    pub fn put(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(s) = self.sections.iter_mut().find(|(n, _)| n == name) {
            s.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Returns a section's payload, if present.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, p)| p.as_slice())
    }

    /// Returns a section's payload or an `InvalidData` error naming it.
    pub fn require(&self, name: &str) -> io::Result<&[u8]> {
        self.get(name).ok_or_else(|| bad(format!("checkpoint missing section '{name}'")))
    }

    /// Section names in order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serializes to the checksummed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize =
            self.sections.iter().map(|(n, p)| 12 + n.len() + p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(20 + payload + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates the binary format. Fails with `InvalidData` on
    /// bad magic, unsupported version, truncation, or checksum mismatch.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < 20 + 4 {
            return Err(bad("checkpoint too short"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
        if crc32(body) != stored {
            return Err(bad("checkpoint checksum mismatch (corrupt or truncated)"));
        }
        let mut r = Reader { buf: body, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(bad("not a bootleg checkpoint file"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(bad(format!("unsupported checkpoint version {version}")));
        }
        let step = r.u64()?;
        let n = r.u32()? as usize;
        let mut sections = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name_len = r.u32()? as usize;
            if name_len > MAX_NAME_LEN {
                return Err(bad("implausible section name length"));
            }
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| bad("non-UTF8 section name"))?;
            let payload_len = r.u64()? as usize;
            let payload = r.take(payload_len)?.to_vec();
            sections.push((name, payload));
        }
        if r.pos != r.buf.len() {
            return Err(bad("trailing bytes after last checkpoint section"));
        }
        Ok(Self { step, sections })
    }

    /// Writes the checkpoint to `path` atomically (temp + fsync + rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, &self.to_bytes())
    }

    /// Loads and validates a checkpoint; errors carry the file path.
    pub fn load(path: &Path) -> io::Result<Self> {
        let bytes = fs::read(path).map_err(|e| with_path(e, path))?;
        Self::from_bytes(&bytes).map_err(|e| with_path(e, path))
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(bad("checkpoint truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

// ---------------------------------------------------------------------------
// Section payload helpers: tensors, parameter stores, scalar vectors.
// ---------------------------------------------------------------------------

/// Encodes a list of tensors: count u32, then per tensor rank u32, dims
/// (u64 each), f32 LE data.
pub fn encode_tensors(tensors: &[Tensor]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for t in tensors {
        out.extend_from_slice(&(t.rank() as u32).to_le_bytes());
        for &d in t.shape() {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Decodes a tensor list written by [`encode_tensors`].
pub fn decode_tensors(bytes: &[u8]) -> io::Result<Vec<Tensor>> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let rank = r.u32()? as usize;
        if rank > 8 {
            return Err(bad("implausible tensor rank"));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(r.u64()? as usize);
        }
        let byte_len = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .and_then(|numel| numel.checked_mul(4))
            .ok_or_else(|| bad("tensor dims overflow"))?;
        let raw = r.take(byte_len)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        out.push(Tensor::new(shape, data));
    }
    if r.pos != r.buf.len() {
        return Err(bad("trailing bytes after tensor list"));
    }
    Ok(out)
}

/// Encodes a parameter store's values in the `bootleg_tensor::io` format.
pub fn encode_param_store(store: &ParamStore) -> Vec<u8> {
    let mut buf = Vec::new();
    crate::io::write_store(store, &mut buf).expect("Vec<u8> writes are infallible");
    buf
}

/// Restores parameter values into a matching store from
/// [`encode_param_store`] bytes (names and shapes are verified).
pub fn decode_param_store_into(store: &mut ParamStore, bytes: &[u8]) -> io::Result<()> {
    crate::io::read_into_store(store, &mut &bytes[..])
}

/// Encodes `u64` values (count-prefixed, little-endian).
pub fn encode_u64s(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + values.len() * 8);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a [`encode_u64s`] payload.
pub fn decode_u64s(bytes: &[u8]) -> io::Result<Vec<u64>> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(r.u64()?);
    }
    if r.pos != r.buf.len() {
        return Err(bad("trailing bytes after u64 list"));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// On-disk lifecycle: retention + fallback.
// ---------------------------------------------------------------------------

/// A checkpoint that failed to load during fallback, and why.
#[derive(Clone, Debug)]
pub struct RejectedCheckpoint {
    /// File that failed validation.
    pub path: PathBuf,
    /// Human-readable reason (checksum mismatch, truncation, ...).
    pub reason: String,
}

/// Result of [`CheckpointManager::load_latest_valid`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The newest checkpoint that validated.
    pub checkpoint: Checkpoint,
    /// File it was loaded from.
    pub path: PathBuf,
    /// Newer checkpoints that were rejected as corrupt, newest first.
    pub rejected: Vec<RejectedCheckpoint>,
}

/// Manages a directory of `ckpt-<step>.btcp` files: atomic saves, last-K
/// retention, and corrupt-aware loading.
#[derive(Clone, Debug)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep_last: usize,
}

impl CheckpointManager {
    /// Opens (creating if needed) a checkpoint directory. `keep_last` is
    /// clamped to at least 1.
    pub fn new(dir: impl Into<PathBuf>, keep_last: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| with_path(e, &dir))?;
        Ok(Self { dir, keep_last: keep_last.max(1) })
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_for_step(&self, step: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{step:012}.btcp"))
    }

    /// Saves `checkpoint` under its step stamp and prunes old files beyond
    /// the retention window. Returns the final path.
    pub fn save(&self, checkpoint: &Checkpoint) -> io::Result<PathBuf> {
        let path = self.file_for_step(checkpoint.step);
        checkpoint.save(&path)?;
        self.prune()?;
        Ok(path)
    }

    /// All checkpoint files present, sorted ascending by step.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| with_path(e, &self.dir))? {
            let entry = entry.map_err(|e| with_path(e, &self.dir))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(step) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".btcp"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((step, entry.path()));
            }
        }
        out.sort_by_key(|(step, _)| *step);
        Ok(out)
    }

    fn prune(&self) -> io::Result<()> {
        let files = self.list()?;
        if files.len() > self.keep_last {
            for (_, path) in &files[..files.len() - self.keep_last] {
                fs::remove_file(path).map_err(|e| with_path(e, path))?;
            }
        }
        Ok(())
    }

    /// Loads the newest checkpoint that passes validation, recording every
    /// newer corrupt file it had to skip. Returns `Ok(None)` if the
    /// directory holds no valid checkpoint at all.
    pub fn load_latest_valid(&self) -> io::Result<Option<LoadedCheckpoint>> {
        let mut rejected = Vec::new();
        for (_, path) in self.list()?.into_iter().rev() {
            match Checkpoint::load(&path) {
                Ok(checkpoint) => {
                    return Ok(Some(LoadedCheckpoint { checkpoint, path, rejected }))
                }
                Err(e) => {
                    rejected.push(RejectedCheckpoint { path, reason: e.to_string() });
                }
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bootleg_ckpt_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn sample() -> Checkpoint {
        let mut c = Checkpoint::new(42);
        c.put("params", vec![1, 2, 3, 4, 5]);
        c.put("opt", vec![9; 100]);
        c.put("state", encode_u64s(&[7, 8, 9]));
        c
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32 (IEEE) of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32c_matches_known_vector() {
        // CRC-32C (Castagnoli) of "123456789" is 0xE3069283.
        assert_eq!(crc32c(b"123456789"), 0xE3069283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_hw_and_sw_agree() {
        // The dispatcher may pick either implementation depending on the
        // host; an artifact written on one machine must verify on any other,
        // so the two paths have to agree on every length and alignment.
        let data: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for start in [0usize, 1, 3, 7] {
            for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 1023, 4000] {
                let slice = &data[start..start + len];
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("sse4.2") {
                    assert_eq!(unsafe { crc32c_hw(slice) }, crc32c_sw(slice), "start {start} len {len}");
                }
                assert_eq!(crc32c(slice), crc32c_sw(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn byte_roundtrip_is_identity() {
        let c = sample();
        let bytes = c.to_bytes();
        let d = Checkpoint::from_bytes(&bytes).expect("parse");
        assert_eq!(c, d);
        assert_eq!(bytes, d.to_bytes(), "save -> load -> save must be byte-identical");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn atomic_save_leaves_no_temp_files(){
        let dir = tmpdir("atomic");
        let path = dir.join("c.btcp");
        sample().save(&path).expect("save");
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("read_dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["c.btcp".to_string()]);
        assert_eq!(Checkpoint::load(&path).expect("load"), sample());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tensor_section_roundtrip() {
        let tensors =
            vec![Tensor::new(vec![2, 3], (0..6).map(|i| i as f32 * 0.5).collect()), Tensor::scalar(7.0)];
        let bytes = encode_tensors(&tensors);
        let back = decode_tensors(&bytes).expect("decode");
        assert_eq!(tensors, back);
        assert!(decode_tensors(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn u64_section_roundtrip() {
        let vals = vec![0, 1, u64::MAX, 123456789];
        assert_eq!(decode_u64s(&encode_u64s(&vals)).expect("decode"), vals);
    }

    #[test]
    fn manager_retains_last_k_and_falls_back_over_corruption() {
        let dir = tmpdir("mgr");
        let mgr = CheckpointManager::new(&dir, 3).expect("mgr");
        for step in [10, 20, 30, 40, 50] {
            let mut c = Checkpoint::new(step);
            c.put("state", encode_u64s(&[step]));
            mgr.save(&c).expect("save");
        }
        let files = mgr.list().expect("list");
        assert_eq!(files.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![30, 40, 50]);

        // Corrupt the newest (truncate) and the next (bit flip).
        let p50 = files[2].1.clone();
        let b = fs::read(&p50).expect("read");
        fs::write(&p50, &b[..b.len() / 2]).expect("truncate");
        let p40 = files[1].1.clone();
        let mut b = fs::read(&p40).expect("read");
        let mid = b.len() / 2;
        b[mid] ^= 0xFF;
        fs::write(&p40, &b).expect("flip");

        let loaded = mgr.load_latest_valid().expect("io").expect("some");
        assert_eq!(loaded.checkpoint.step, 30);
        assert_eq!(loaded.rejected.len(), 2);
        assert_eq!(
            decode_u64s(loaded.checkpoint.require("state").expect("section")).expect("u64s"),
            vec![30]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manager_empty_dir_loads_none() {
        let dir = tmpdir("empty");
        let mgr = CheckpointManager::new(&dir, 2).expect("mgr");
        assert!(mgr.load_latest_valid().expect("io").is_none());
        fs::remove_dir_all(&dir).ok();
    }
}
