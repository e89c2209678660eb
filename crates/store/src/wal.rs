//! The framed append-only log.
//!
//! One WAL file holds a sequence of frames, each wrapping the strict-JSON
//! encoding of a [`WalRecord`]:
//!
//! ```text
//! ┌────────────────┬──────────────────────┬────────────────┐
//! │ len: u32 (BE)  │ payload: `len` bytes │ crc32: u32 (BE)│
//! │                │ (WalRecord as JSON)  │ (over payload) │
//! └────────────────┴──────────────────────┴────────────────┘
//! ```
//!
//! Appends write a whole frame with one `write_all`, so an interrupted append
//! leaves a *prefix* of a valid frame at the tail — never interleaved or
//! reordered garbage. Opening therefore classifies the tail precisely:
//!
//! * frame bytes that simply stop (length field cut short, payload shorter
//!   than its length, missing checksum) are a **torn tail** — the expected
//!   `kill -9` signature — and are truncated away silently;
//! * a **complete** frame whose checksum or JSON decoding fails is
//!   **corruption** and aborts recovery loudly ([`StoreError::Corrupt`] /
//!   [`StoreError::Codec`]).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use netband_spec::WalRecord;

use crate::crc::crc32;
use crate::StoreError;

/// Upper bound on a single frame's payload. A length field beyond this is
/// not a plausible record of ours — it is garbage bytes where a length
/// should be, which a prefix-truncating crash cannot produce — so it is
/// treated as corruption rather than as a torn tail.
pub const MAX_FRAME_BYTES: u32 = 1 << 28;

/// Bytes of framing overhead per record (length prefix + checksum).
pub const FRAME_OVERHEAD: u64 = 8;

/// An open WAL file positioned for appending.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Valid bytes in the file (everything past a torn tail is truncated at
    /// open, so this is also the physical length).
    bytes: u64,
    /// Appends not yet covered by an fsync.
    unsynced: usize,
    /// The frame buffer, reused append after append: each record encodes
    /// straight into it behind a length placeholder.
    frame: String,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded records, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail discarded (0 for a cleanly closed log).
    pub truncated_bytes: u64,
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

impl Wal {
    /// Creates a new empty log at `path`, failing if one already exists
    /// (epoch rotation never reuses a file name).
    pub fn create(path: &Path) -> Result<Wal, StoreError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("create wal", path, e))?;
        file.sync_all().map_err(|e| io_err("sync wal", path, e))?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            bytes: 0,
            unsynced: 0,
            frame: String::new(),
        })
    }

    /// Opens an existing log, replays every decodable frame, truncates any
    /// torn tail, and leaves the file positioned for appending.
    pub fn open(path: &Path) -> Result<(Wal, WalReplay), StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open wal", path, e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| io_err("read wal", path, e))?;

        let mut records = Vec::new();
        let mut offset = 0usize;
        loop {
            let remaining = buf.len() - offset;
            if remaining == 0 {
                break;
            }
            if remaining < 4 {
                break; // torn: the length field itself is cut short
            }
            let len_bytes: [u8; 4] = buf[offset..offset + 4].try_into().expect("4 bytes");
            let len = u32::from_be_bytes(len_bytes);
            if len > MAX_FRAME_BYTES {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: offset as u64,
                    message: format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
                });
            }
            let frame_end = offset + 4 + len as usize + 4;
            if buf.len() < frame_end {
                break; // torn: payload or checksum cut short
            }
            let payload = &buf[offset + 4..offset + 4 + len as usize];
            let stored_crc =
                u32::from_be_bytes(buf[frame_end - 4..frame_end].try_into().expect("4 bytes"));
            let actual_crc = crc32(payload);
            if stored_crc != actual_crc {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: offset as u64,
                    message: format!(
                        "frame checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
                    ),
                });
            }
            let text = std::str::from_utf8(payload).map_err(|e| StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: offset as u64,
                message: format!("frame payload is not UTF-8: {e}"),
            })?;
            let record = WalRecord::from_json_text(text).map_err(|source| StoreError::Codec {
                path: path.to_path_buf(),
                source,
            })?;
            records.push(record);
            offset = frame_end;
        }

        let truncated_bytes = (buf.len() - offset) as u64;
        if truncated_bytes > 0 {
            file.set_len(offset as u64)
                .map_err(|e| io_err("truncate torn wal tail", path, e))?;
            file.sync_all().map_err(|e| io_err("sync wal", path, e))?;
        }
        file.seek(SeekFrom::Start(offset as u64))
            .map_err(|e| io_err("seek wal", path, e))?;

        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                bytes: offset as u64,
                unsynced: 0,
                frame: String::new(),
            },
            WalReplay {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Appends one record as a single framed write. Durability is the
    /// caller's schedule: nothing is fsynced until [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        let mut text = std::mem::take(&mut self.frame);
        text.clear();
        text.push_str("\0\0\0\0");
        record.write_json(&mut text);
        let mut frame = text.into_bytes();
        let payload_len = frame.len() - 4;
        let len = u32::try_from(payload_len)
            .ok()
            .filter(|&l| l <= MAX_FRAME_BYTES)
            .ok_or(StoreError::Corrupt {
                path: self.path.clone(),
                offset: self.bytes,
                message: format!(
                    "record encodes to {payload_len} bytes, beyond the {MAX_FRAME_BYTES}-byte frame cap"
                ),
            })?;
        frame[..4].copy_from_slice(&len.to_be_bytes());
        let crc = crc32(&frame[4..]);
        frame.extend_from_slice(&crc.to_be_bytes());
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append wal frame", &self.path, e))?;
        self.bytes += frame.len() as u64;
        self.unsynced += 1;
        // Emptied, the buffer is valid UTF-8 again and keeps its capacity.
        frame.clear();
        self.frame = String::from_utf8(frame).expect("an empty buffer is UTF-8");
        Ok(())
    }

    /// Forces every appended frame to disk. Returns `true` if an fsync was
    /// actually issued (false when nothing was pending).
    pub fn sync(&mut self) -> Result<bool, StoreError> {
        if self.unsynced == 0 {
            return Ok(false);
        }
        self.file
            .sync_all()
            .map_err(|e| io_err("sync wal", &self.path, e))?;
        self.unsynced = 0;
        Ok(true)
    }

    /// Appends not yet covered by an fsync.
    pub fn unsynced(&self) -> usize {
        self.unsynced
    }

    /// Valid bytes in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}
