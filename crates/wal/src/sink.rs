//! Append targets for the log: an in-memory buffer (the default — the
//! crash domain is a *processor panic*, not the whole OS) and an
//! optional file-backed sink for logs that must survive the process.
//!
//! Both are **fsync-free by design**: `append` hands the frame to the
//! buffer (or the kernel page cache) and returns. The durability
//! contract is append-buffer semantics — a frame is recoverable once
//! `append` returned, within the sink's crash domain — not synchronous
//! disk persistence. Nothing here ever calls `fsync`.

use std::fs;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Somewhere frames can be appended to and read back from.
///
/// `append` receives one complete frame (header + payload, see
/// [`crate::encode_record`]); `snapshot` returns every byte appended so far, in
/// order. A snapshot taken concurrently with a crash may end mid-frame
/// — [`crate::decode_log`] handles that torn tail.
pub trait LogSink: Send {
    /// Append one encoded frame.
    fn append(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Read back the full byte stream appended so far.
    fn snapshot(&self) -> io::Result<Vec<u8>>;
    /// Cut the stream back to its first `len` bytes, so the next
    /// `append` lands right behind them. Recovery uses this to drop a
    /// torn or corrupt tail ([`crate::LogTail`] reports where it starts)
    /// before new frames are written behind it, where no later decode
    /// would ever reach them.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// The default sink: a growable in-memory buffer. Infallible.
#[derive(Debug, Default)]
pub struct MemSink {
    buf: Vec<u8>,
}

impl MemSink {
    /// An empty buffer.
    pub fn new() -> Self {
        MemSink::default()
    }

    /// A sink pre-loaded with existing log bytes (restart simulation).
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        MemSink { buf }
    }
}

impl LogSink for MemSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.buf.extend_from_slice(frame);
        Ok(())
    }

    fn snapshot(&self) -> io::Result<Vec<u8>> {
        Ok(self.buf.clone())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.buf.truncate(len as usize);
        Ok(())
    }
}

/// A file-backed sink: frames are appended with plain `write` calls,
/// never `fsync`ed (see the module docs for the durability contract).
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    file: fs::File,
}

impl FileSink {
    /// Create (truncating any existing file) a fresh log at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = fs::OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        Ok(FileSink { path, file })
    }

    /// Open an existing log at `path` for further appends (creating it
    /// empty if absent). Existing bytes are preserved — `snapshot`
    /// returns them ahead of anything appended through this sink.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = fs::OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileSink { path, file })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogSink for FileSink {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        self.file.write_all(frame)
    }

    fn snapshot(&self) -> io::Result<Vec<u8>> {
        fs::read(&self.path)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        // An `open`ed sink appends wherever the file ends; a `create`d
        // one writes at its cursor, which must come back with the end.
        self.file.seek(SeekFrom::Start(len)).map(drop)
    }
}
