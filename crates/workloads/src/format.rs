//! `trace/v1` — the versioned binary on-disk trace format.
//!
//! Every run used to regenerate its workload and hold the whole
//! `Workload`/`KernelTrace`/`WarpTrace` tree in RAM. This module is the
//! producer/consumer split that decouples the two: [`TraceWriter`]
//! serializes a trace incrementally (TB by TB, no full-kernel buffer),
//! and [`TraceReader`] streams it back block by block, yielding
//! [`TbTrace`]s without ever materializing a kernel. The engine replays
//! either source through [`TraceSource`] with byte-identical reports.
//!
//! # On-disk contract (`trace/v1`)
//!
//! ```text
//! magic "OTLB.TRC" | version u32 LE | op blocks ... |
//! footer | footer-FNV u64 LE | footer-offset u64 LE | tail "OTLB.END"
//! ```
//!
//! *Op blocks* hold a run of consecutive TBs of one kernel in a
//! struct-of-arrays layout: a structure section (per-TB warp counts,
//! per-warp op counts), a tag section (one byte per op), and an operand
//! section (LEB128 varints). Memory-op base addresses are delta-encoded
//! against the previous address in the block (zigzag + varint);
//! [`LaneAccesses::Strided`] is the run-length form of a warp's lanes
//! (base, stride, active lanes), and gathers chain per-lane deltas. The
//! footer carries an FNV-1a 64 checksum per block, so corruption is
//! detected before a single op reaches the simulator.
//!
//! The *footer* is written last (append-only — the writer never seeks)
//! and holds everything needed without decoding a block: provenance
//! (benchmark, scale, seed, page size), the ordered buffer table that
//! reconstructs the deterministic [`AddressSpace`], the per-kernel block
//! index, and the [`TraceSummary`] accumulated at write time (so
//! `trace-info` and `repro --table2` never pay a full-decode pass).
//!
//! Evolution rule (mirrors the CSV column contract): `trace/v1` fields
//! are append-only. A field may be added at the *end* of the footer —
//! old readers must keep working on new files within the same version —
//! and any layout change to blocks or existing fields bumps the version,
//! which old readers reject with [`TraceError::Version`] instead of
//! misparsing.
//!
//! Every reader error is offset-tagged ([`TraceError`] carries the file
//! position); corrupt or truncated files fail with `Err`, never a panic.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vmem::{AddressSpace, PageSize, VirtAddr};

use crate::scale::Scale;
use crate::trace::{KernelTrace, LaneAccesses, TbTrace, TraceSummary, WarpOp, WarpTrace, Workload};

/// Leading file magic of a `trace/v1` file.
pub const MAGIC: &[u8; 8] = b"OTLB.TRC";

/// Trailing file magic (the last 8 bytes of a complete file).
pub const MAGIC_TAIL: &[u8; 8] = b"OTLB.END";

/// The format version this module writes and reads.
pub const VERSION: u32 = 1;

/// Target op count per block: large enough that varint streams compress
/// well, small enough that a decoded block (the streaming reader's whole
/// resident window) stays a few hundred KiB.
const BLOCK_TARGET_OPS: usize = 16 * 1024;

/// Op tag bytes of the block tag section.
const TAG_LOAD_STRIDED: u8 = 0;
const TAG_LOAD_GATHER: u8 = 1;
const TAG_STORE_STRIDED: u8 = 2;
const TAG_STORE_GATHER: u8 = 3;
const TAG_COMPUTE: u8 = 4;

/// Why a trace file could not be written or read.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure, tagged with what was being done.
    Io {
        /// What the format layer was doing when the I/O failed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file is not a `trace/v1` file (bad magic, impossible sizes).
    NotATrace {
        /// What looked wrong.
        what: String,
    },
    /// The file is a trace, but of an unsupported format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this reader supports.
        expected: u32,
    },
    /// Structurally invalid bytes at a known file offset.
    Corrupt {
        /// Absolute file offset the problem was detected at.
        offset: u64,
        /// What was expected / found.
        what: String,
    },
    /// The recorded buffer table cannot be replayed into an
    /// [`AddressSpace`] (duplicate names, base mismatch, …).
    Space {
        /// What went wrong during reconstruction.
        what: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io { context, source } => write!(f, "{context}: {source}"),
            TraceError::NotATrace { what } => write!(f, "not a trace/v1 file: {what}"),
            TraceError::Version { found, expected } => write!(
                f,
                "unsupported trace version {found} (this reader supports version {expected})"
            ),
            TraceError::Corrupt { offset, what } => write!(f, "offset {offset}: {what}"),
            TraceError::Space { what } => {
                write!(f, "cannot reconstruct the address space: {what}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> TraceError {
    let context = context.into();
    move |source| TraceError::Io { context, source }
}

// --- primitives ---------------------------------------------------------

/// FNV-1a 64 over `bytes` (std-only content hashing; stable across
/// platforms and processes, unlike `DefaultHasher`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of a whole file, streamed in chunks (used for the trace
/// cache's determinism check and `.case` trace references).
///
/// # Errors
///
/// Returns [`TraceError::Io`] if the file cannot be read.
pub fn file_hash(path: &Path) -> Result<u64, TraceError> {
    let mut f = File::open(path).map_err(io_err(format!("open {}", path.display())))?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = f
            .read(&mut buf)
            .map_err(io_err(format!("read {}", path.display())))?;
        if n == 0 {
            return Ok(h);
        }
        for &b in &buf[..n] {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over an in-memory byte slice, tagging every
/// failure with the absolute file offset it happened at.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute file offset of `buf[0]`.
    base: u64,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], base: u64) -> Self {
        Cursor { buf, pos: 0, base }
    }

    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn corrupt(&self, what: impl Into<String>) -> TraceError {
        TraceError::Corrupt {
            offset: self.offset(),
            what: what.into(),
        }
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.corrupt("truncated: expected another byte"))?;
        self.pos += 1;
        Ok(b)
    }

    fn u64_le(&mut self) -> Result<u64, TraceError> {
        let end = self
            .pos
            .checked_add(8)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("truncated: expected 8-byte word"))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 63 && byte > 1 {
                return Err(self.corrupt("varint overflows 64 bits"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn str(&mut self) -> Result<String, TraceError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| self.corrupt("string length overflow"))?;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("truncated: expected {len}-byte string")))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| self.corrupt("string is not UTF-8"))?
            .to_owned();
        self.pos = end;
        Ok(s)
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

// --- metadata -----------------------------------------------------------

/// One recorded allocation of the workload's address space, in
/// allocation order. Replaying the table through [`AddressSpace::new`]
/// (whose `allocate` is deterministic) reconstructs the exact space the
/// generator produced; the recorded base pins that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferRecord {
    /// Buffer name (unique within the space).
    pub name: String,
    /// Requested size in bytes.
    pub size: u64,
    /// Base virtual address the allocation produced.
    pub base: u64,
}

/// Location and integrity data of one op block (footer index entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockIndex {
    /// Absolute file offset of the block's first byte.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// Global index (within the kernel) of the block's first TB.
    pub first_tb: u64,
    /// Number of TBs in the block.
    pub tb_count: u64,
    /// Warp ops in the block (for `trace-info` block statistics).
    pub ops: u64,
    /// FNV-1a 64 of the encoded block bytes.
    pub checksum: u64,
}

/// Per-kernel metadata and block index from the trace footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelMeta {
    /// Kernel name.
    pub name: String,
    /// Threads per TB (occupancy accounting).
    pub threads_per_tb: u32,
    /// Compile-time per-SM TB concurrency limit.
    pub max_concurrent_tbs_per_sm: u8,
    /// Number of TBs in the kernel's grid.
    pub tb_count: u64,
    /// The kernel's op blocks, in TB order.
    pub blocks: Vec<BlockIndex>,
}

// --- writer -------------------------------------------------------------

/// Incremental `trace/v1` writer: TBs go in one at a time, blocks are
/// appended as they fill, and the footer (index + summary) is written by
/// [`TraceWriter::finish`]. Peak memory is one partial block, never a
/// kernel.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    path: PathBuf,
    /// Bytes written so far (the writer never seeks).
    pos: u64,
    name: String,
    bench: String,
    scale: String,
    seed: u64,
    page_size: PageSize,
    buffers: Vec<BufferRecord>,
    summary: TraceSummary,
    kernels: Vec<KernelMeta>,
    /// The kernel currently being written (`begin_kernel` ..
    /// `end_kernel`).
    open_kernel: bool,
    tbs_in_kernel: u64,
    // Current block accumulator (struct-of-arrays sections).
    sec_structure: Vec<u8>,
    sec_tags: Vec<u8>,
    sec_operands: Vec<u8>,
    block_first_tb: u64,
    block_tbs: u64,
    block_ops: u64,
    prev_base: u64,
}

impl TraceWriter {
    /// Creates `path` and writes the header. Provenance (`bench`,
    /// `scale`, `seed`) keys the on-disk cache; pass the registry name
    /// and the generation parameters, or `scale = None` for hand-built
    /// workloads. The buffer table is recorded from `space` in
    /// allocation order.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be created or
    /// written.
    pub fn create(
        path: &Path,
        name: &str,
        bench: &str,
        scale: Option<Scale>,
        seed: u64,
        space: &AddressSpace,
    ) -> Result<Self, TraceError> {
        let file = File::create(path).map_err(io_err(format!("create {}", path.display())))?;
        let mut out = BufWriter::new(file);
        out.write_all(MAGIC)
            .and_then(|()| out.write_all(&VERSION.to_le_bytes()))
            .map_err(io_err(format!("write header to {}", path.display())))?;
        let buffers = space
            .buffers()
            .map(|b| BufferRecord {
                name: b.name().to_owned(),
                size: b.size(),
                base: b.base().raw(),
            })
            .collect();
        Ok(TraceWriter {
            out,
            path: path.to_owned(),
            pos: (MAGIC.len() + 4) as u64,
            name: name.to_owned(),
            bench: bench.to_owned(),
            scale: scale.map(|s| s.to_string()).unwrap_or_default(),
            seed,
            page_size: space.page_size(),
            buffers,
            summary: TraceSummary::default(),
            kernels: Vec::new(),
            open_kernel: false,
            tbs_in_kernel: 0,
            sec_structure: Vec::new(),
            sec_tags: Vec::new(),
            sec_operands: Vec::new(),
            block_first_tb: 0,
            block_tbs: 0,
            block_ops: 0,
            prev_base: 0,
        })
    }

    /// Opens a kernel; TBs written next belong to it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NotATrace`] if a kernel is already open.
    pub fn begin_kernel(
        &mut self,
        name: &str,
        threads_per_tb: u32,
        max_concurrent_tbs_per_sm: u8,
    ) -> Result<(), TraceError> {
        if self.open_kernel {
            return Err(TraceError::NotATrace {
                what: "begin_kernel while a kernel is open".into(),
            });
        }
        self.kernels.push(KernelMeta {
            name: name.to_owned(),
            threads_per_tb,
            max_concurrent_tbs_per_sm,
            tb_count: 0,
            blocks: Vec::new(),
        });
        self.open_kernel = true;
        self.tbs_in_kernel = 0;
        Ok(())
    }

    /// Appends one TB to the open kernel, flushing a block to disk when
    /// the accumulator reaches the target op count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NotATrace`] outside `begin_kernel` /
    /// `end_kernel`, or [`TraceError::Io`] on a write failure.
    pub fn write_tb(&mut self, tb: &TbTrace) -> Result<(), TraceError> {
        if !self.open_kernel {
            return Err(TraceError::NotATrace {
                what: "write_tb outside begin_kernel/end_kernel".into(),
            });
        }
        if self.block_tbs == 0 {
            self.block_first_tb = self.tbs_in_kernel;
            self.prev_base = 0;
        }
        put_varint(&mut self.sec_structure, tb.warps().len() as u64);
        for warp in tb.warps() {
            put_varint(&mut self.sec_structure, warp.len() as u64);
            for op in warp.ops() {
                self.encode_op(op);
                self.block_ops += 1;
            }
        }
        self.block_tbs += 1;
        self.tbs_in_kernel += 1;
        if self.block_ops as usize >= BLOCK_TARGET_OPS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Closes the open kernel (flushes its final partial block).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NotATrace`] if no kernel is open, or
    /// [`TraceError::Io`] on a write failure.
    pub fn end_kernel(&mut self) -> Result<(), TraceError> {
        if !self.open_kernel {
            return Err(TraceError::NotATrace {
                what: "end_kernel without begin_kernel".into(),
            });
        }
        if self.block_tbs > 0 {
            self.flush_block()?;
        }
        if let Some(k) = self.kernels.last_mut() {
            k.tb_count = self.tbs_in_kernel;
        }
        self.open_kernel = false;
        Ok(())
    }

    /// Writes the footer and returns the summary accumulated at write
    /// time (the same numbers [`Workload::summary`] computes).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NotATrace`] if a kernel is still open, or
    /// [`TraceError::Io`] on a write failure.
    pub fn finish(mut self) -> Result<TraceSummary, TraceError> {
        if self.open_kernel {
            return Err(TraceError::NotATrace {
                what: "finish with an open kernel (call end_kernel)".into(),
            });
        }
        let mut footer = Vec::new();
        put_str(&mut footer, &self.name);
        put_str(&mut footer, &self.bench);
        put_str(&mut footer, &self.scale);
        put_varint(&mut footer, self.seed);
        footer.push(match self.page_size {
            PageSize::Small => 0,
            PageSize::Large => 1,
        });
        let s = self.summary;
        for v in [
            s.loads,
            s.stores,
            s.compute_ops,
            s.compute_cycles,
            s.gather_ops,
            s.strided_ops,
            s.lane_accesses,
        ] {
            put_varint(&mut footer, v);
        }
        put_varint(&mut footer, self.buffers.len() as u64);
        for b in &self.buffers {
            put_str(&mut footer, &b.name);
            put_varint(&mut footer, b.size);
            put_varint(&mut footer, b.base);
        }
        put_varint(&mut footer, self.kernels.len() as u64);
        for k in &self.kernels {
            put_str(&mut footer, &k.name);
            put_varint(&mut footer, u64::from(k.threads_per_tb));
            footer.push(k.max_concurrent_tbs_per_sm);
            put_varint(&mut footer, k.tb_count);
            put_varint(&mut footer, k.blocks.len() as u64);
            for blk in &k.blocks {
                put_varint(&mut footer, blk.offset);
                put_varint(&mut footer, blk.len);
                put_varint(&mut footer, blk.first_tb);
                put_varint(&mut footer, blk.tb_count);
                put_varint(&mut footer, blk.ops);
                footer.extend_from_slice(&blk.checksum.to_le_bytes());
            }
        }
        let footer_off = self.pos;
        let footer_sum = fnv1a(&footer);
        let ctx = format!("write footer to {}", self.path.display());
        self.out
            .write_all(&footer)
            .and_then(|()| self.out.write_all(&footer_sum.to_le_bytes()))
            .and_then(|()| self.out.write_all(&footer_off.to_le_bytes()))
            .and_then(|()| self.out.write_all(MAGIC_TAIL))
            .and_then(|()| self.out.flush())
            .map_err(io_err(ctx))?;
        Ok(self.summary)
    }

    fn encode_op(&mut self, op: &WarpOp) {
        match op {
            WarpOp::Compute { cycles } => {
                self.sec_tags.push(TAG_COMPUTE);
                put_varint(&mut self.sec_operands, u64::from(*cycles));
                self.summary.compute_ops += 1;
                self.summary.compute_cycles += u64::from(*cycles);
            }
            WarpOp::Load(acc) | WarpOp::Store(acc) => {
                let store = op.is_store();
                if store {
                    self.summary.stores += 1;
                } else {
                    self.summary.loads += 1;
                }
                self.summary.lane_accesses += acc.lane_count() as u64;
                match acc {
                    LaneAccesses::Strided {
                        base,
                        stride,
                        active_lanes,
                    } => {
                        self.summary.strided_ops += 1;
                        self.sec_tags.push(if store {
                            TAG_STORE_STRIDED
                        } else {
                            TAG_LOAD_STRIDED
                        });
                        self.put_delta(base.raw());
                        put_varint(&mut self.sec_operands, zigzag(*stride));
                        self.sec_operands.push(*active_lanes);
                    }
                    LaneAccesses::Gather(lanes) => {
                        self.summary.gather_ops += 1;
                        self.sec_tags.push(if store {
                            TAG_STORE_GATHER
                        } else {
                            TAG_LOAD_GATHER
                        });
                        put_varint(&mut self.sec_operands, lanes.len() as u64);
                        for va in lanes {
                            self.put_delta(va.raw());
                        }
                    }
                }
            }
        }
    }

    /// Delta-encodes a base address against the previous one in the
    /// block (wrapping arithmetic keeps it lossless for any u64).
    fn put_delta(&mut self, cur: u64) {
        let delta = cur.wrapping_sub(self.prev_base) as i64;
        put_varint(&mut self.sec_operands, zigzag(delta));
        self.prev_base = cur;
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        let mut block = Vec::with_capacity(
            self.sec_structure.len() + self.sec_tags.len() + self.sec_operands.len() + 16,
        );
        put_varint(&mut block, self.sec_structure.len() as u64);
        block.extend_from_slice(&self.sec_structure);
        put_varint(&mut block, self.sec_tags.len() as u64);
        block.extend_from_slice(&self.sec_tags);
        block.extend_from_slice(&self.sec_operands);
        let index = BlockIndex {
            offset: self.pos,
            len: block.len() as u64,
            first_tb: self.block_first_tb,
            tb_count: self.block_tbs,
            ops: self.block_ops,
            checksum: fnv1a(&block),
        };
        self.out
            .write_all(&block)
            .map_err(io_err(format!("write block to {}", self.path.display())))?;
        self.pos += block.len() as u64;
        if let Some(k) = self.kernels.last_mut() {
            k.blocks.push(index);
        }
        self.sec_structure.clear();
        self.sec_tags.clear();
        self.sec_operands.clear();
        self.block_tbs = 0;
        self.block_ops = 0;
        Ok(())
    }
}

/// Writes a whole workload to `path` and returns its summary.
///
/// # Errors
///
/// Returns a [`TraceError`] on any I/O failure.
pub fn write_workload(
    path: &Path,
    workload: &Workload,
    bench: &str,
    scale: Option<Scale>,
    seed: u64,
) -> Result<TraceSummary, TraceError> {
    let mut w = TraceWriter::create(path, workload.name(), bench, scale, seed, workload.space())?;
    for kernel in workload.kernels() {
        w.begin_kernel(
            &kernel.name,
            kernel.threads_per_tb,
            kernel.max_concurrent_tbs_per_sm,
        )?;
        for tb in &kernel.tbs {
            w.write_tb(tb)?;
        }
        w.end_kernel()?;
    }
    w.finish()
}

// --- reader -------------------------------------------------------------

/// A parsed `trace/v1` footer: all metadata, no decoded blocks. Opening
/// a reader reads only the footer; ops stream in through
/// [`TraceReader::stream_kernel`].
#[derive(Clone, Debug)]
pub struct TraceReader {
    path: PathBuf,
    name: String,
    bench: String,
    scale: String,
    seed: u64,
    page_size: PageSize,
    summary: TraceSummary,
    buffers: Vec<BufferRecord>,
    kernels: Vec<KernelMeta>,
}

impl TraceReader {
    /// Opens `path` and parses its footer (magic, version, checksum all
    /// verified).
    ///
    /// # Errors
    ///
    /// [`TraceError::NotATrace`] for a non-trace file,
    /// [`TraceError::Version`] for a version mismatch, and
    /// [`TraceError::Corrupt`]/[`TraceError::Io`] for damaged files.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        let mut file = File::open(path).map_err(io_err(format!("open {}", path.display())))?;
        let file_len = file
            .metadata()
            .map_err(io_err(format!("stat {}", path.display())))?
            .len();
        let min_len = (MAGIC.len() + 4 + 8 + 8 + MAGIC_TAIL.len()) as u64;
        if file_len < min_len {
            return Err(TraceError::NotATrace {
                what: format!("file is {file_len} bytes; a trace needs at least {min_len}"),
            });
        }
        let mut head = [0u8; 12];
        file.read_exact(&mut head)
            .map_err(io_err(format!("read header of {}", path.display())))?;
        if &head[..8] != MAGIC {
            return Err(TraceError::NotATrace {
                what: format!("bad leading magic {:02x?}", &head[..8]),
            });
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(&head[8..12]);
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceError::Version {
                found: version,
                expected: VERSION,
            });
        }
        let mut tail = [0u8; 16];
        file.seek(SeekFrom::End(-16))
            .and_then(|_| file.read_exact(&mut tail))
            .map_err(io_err(format!("read tail of {}", path.display())))?;
        if &tail[8..16] != MAGIC_TAIL {
            return Err(TraceError::Corrupt {
                offset: file_len - 8,
                what: format!(
                    "bad trailing magic {:02x?} (truncated write?)",
                    &tail[8..16]
                ),
            });
        }
        let mut off = [0u8; 8];
        off.copy_from_slice(&tail[..8]);
        let footer_off = u64::from_le_bytes(off);
        // Footer region: [footer_off, file_len - 16), last 8 bytes are
        // its checksum.
        if footer_off < (MAGIC.len() + 4) as u64 || footer_off + 8 > file_len - 16 {
            return Err(TraceError::Corrupt {
                offset: file_len - 16,
                what: format!("footer offset {footer_off} outside the file"),
            });
        }
        let footer_len = (file_len - 16 - 8 - footer_off) as usize;
        let mut footer = vec![0u8; footer_len + 8];
        file.seek(SeekFrom::Start(footer_off))
            .and_then(|_| file.read_exact(&mut footer))
            .map_err(io_err(format!("read footer of {}", path.display())))?;
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&footer[footer_len..]);
        let stored_sum = u64::from_le_bytes(sum);
        let computed = fnv1a(&footer[..footer_len]);
        if stored_sum != computed {
            return Err(TraceError::Corrupt {
                offset: footer_off,
                what: format!(
                    "footer checksum mismatch (stored {stored_sum:016x}, computed {computed:016x})"
                ),
            });
        }

        let mut c = Cursor::new(&footer[..footer_len], footer_off);
        let name = c.str()?;
        let bench = c.str()?;
        let scale = c.str()?;
        let seed = c.varint()?;
        let page_size = match c.u8()? {
            0 => PageSize::Small,
            1 => PageSize::Large,
            other => return Err(c.corrupt(format!("unknown page-size tag {other}"))),
        };
        let summary = TraceSummary {
            loads: c.varint()?,
            stores: c.varint()?,
            compute_ops: c.varint()?,
            compute_cycles: c.varint()?,
            gather_ops: c.varint()?,
            strided_ops: c.varint()?,
            lane_accesses: c.varint()?,
        };
        let buffer_count = c.varint()?;
        let mut buffers = Vec::new();
        for _ in 0..buffer_count {
            buffers.push(BufferRecord {
                name: c.str()?,
                size: c.varint()?,
                base: c.varint()?,
            });
        }
        let kernel_count = c.varint()?;
        let mut kernels = Vec::new();
        for _ in 0..kernel_count {
            let kname = c.str()?;
            let threads = c.varint()?;
            let threads_per_tb = u32::try_from(threads)
                .map_err(|_| c.corrupt(format!("threads_per_tb {threads} overflows u32")))?;
            let max_concurrent_tbs_per_sm = c.u8()?;
            let tb_count = c.varint()?;
            let block_count = c.varint()?;
            let mut blocks = Vec::new();
            for _ in 0..block_count {
                let blk = BlockIndex {
                    offset: c.varint()?,
                    len: c.varint()?,
                    first_tb: c.varint()?,
                    tb_count: c.varint()?,
                    ops: c.varint()?,
                    checksum: c.u64_le()?,
                };
                if blk.offset + blk.len > footer_off {
                    return Err(c.corrupt(format!(
                        "block [{}, +{}) overlaps the footer at {footer_off}",
                        blk.offset, blk.len
                    )));
                }
                blocks.push(blk);
            }
            kernels.push(KernelMeta {
                name: kname,
                threads_per_tb,
                max_concurrent_tbs_per_sm,
                tb_count,
                blocks,
            });
        }
        // Append-only evolution: trailing bytes a newer same-version
        // writer added are permitted (and ignored); short footers fail
        // above with offset-tagged errors.
        let _ = c.is_empty();
        Ok(TraceReader {
            path: path.to_owned(),
            name,
            bench,
            scale,
            seed,
            page_size,
            summary,
            buffers,
            kernels,
        })
    }

    /// The workload name recorded at write time.
    pub fn workload_name(&self) -> &str {
        &self.name
    }

    /// The registry benchmark this trace was generated from.
    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// The generation scale, if recorded (`None` for hand-built traces).
    pub fn scale(&self) -> Option<Scale> {
        self.scale.parse().ok()
    }

    /// The raw scale tag string (empty when unrecorded).
    pub fn scale_tag(&self) -> &str {
        &self.scale
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The page size of the recorded address space.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// The summary computed at write time (no decoding needed).
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }

    /// The recorded buffer table, in allocation order.
    pub fn buffers(&self) -> &[BufferRecord] {
        &self.buffers
    }

    /// Per-kernel metadata and block indexes.
    pub fn kernels(&self) -> &[KernelMeta] {
        &self.kernels
    }

    /// The path this reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rebuilds the address space by replaying the recorded allocation
    /// sequence through [`AddressSpace::new`] and verifying every base
    /// address matches the recording.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Space`] if an allocation fails or lands at
    /// a different base than recorded.
    pub fn address_space(&self) -> Result<AddressSpace, TraceError> {
        let mut space = AddressSpace::new(self.page_size);
        for rec in &self.buffers {
            let buf = space
                .allocate(&rec.name, rec.size)
                .map_err(|e| TraceError::Space {
                    what: format!("allocate {:?} ({} bytes): {e}", rec.name, rec.size),
                })?;
            if buf.base().raw() != rec.base {
                return Err(TraceError::Space {
                    what: format!(
                        "buffer {:?} reconstructed at {:#x}, recorded at {:#x}",
                        rec.name,
                        buf.base().raw(),
                        rec.base
                    ),
                });
            }
        }
        Ok(space)
    }

    /// Opens a streaming cursor over kernel `k`'s TBs. Each stream has
    /// its own file handle, so several kernels (or several replays) can
    /// stream concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NotATrace`] for an out-of-range kernel
    /// index, or [`TraceError::Io`] if the file cannot be reopened.
    pub fn stream_kernel(&self, k: usize) -> Result<TbStream, TraceError> {
        let meta = self.kernels.get(k).ok_or_else(|| TraceError::NotATrace {
            what: format!(
                "kernel index {k} out of range ({} kernels)",
                self.kernels.len()
            ),
        })?;
        let file =
            File::open(&self.path).map_err(io_err(format!("reopen {}", self.path.display())))?;
        Ok(TbStream {
            file: BufReader::new(file),
            path: self.path.clone(),
            blocks: meta.blocks.clone(),
            next_block: 0,
            tb_count: meta.tb_count,
            yielded: 0,
            pending: VecDeque::new(),
        })
    }

    /// Materializes the whole trace back into a [`Workload`] (summary
    /// primed from the footer, so [`Workload::summary`] is free).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] for damaged blocks or reconstruction
    /// failures.
    pub fn read_workload(&self) -> Result<Workload, TraceError> {
        let space = self.address_space()?;
        let mut kernels = Vec::with_capacity(self.kernels.len());
        for (k, meta) in self.kernels.iter().enumerate() {
            let mut stream = self.stream_kernel(k)?;
            let mut tbs = Vec::new();
            while let Some(tb) = stream.next_tb()? {
                tbs.push(tb);
            }
            kernels.push(KernelTrace {
                name: meta.name.clone(),
                tbs,
                max_concurrent_tbs_per_sm: meta.max_concurrent_tbs_per_sm,
                threads_per_tb: meta.threads_per_tb,
            });
        }
        let workload = Workload::new(self.name.clone(), kernels, space);
        workload.prime_summary(self.summary);
        Ok(workload)
    }

    /// Decodes every block of every kernel, verifying checksums and
    /// recounting the summary against the footer. `Ok` means the file's
    /// payload is fully intact.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found.
    pub fn verify(&self) -> Result<(), TraceError> {
        let mut counted = TraceSummary::default();
        for (k, meta) in self.kernels.iter().enumerate() {
            let mut stream = self.stream_kernel(k)?;
            let mut tbs = 0u64;
            while let Some(tb) = stream.next_tb()? {
                tbs += 1;
                for warp in tb.warps() {
                    for op in warp.ops() {
                        match op {
                            WarpOp::Compute { cycles } => {
                                counted.compute_ops += 1;
                                counted.compute_cycles += u64::from(*cycles);
                            }
                            WarpOp::Load(acc) | WarpOp::Store(acc) => {
                                if op.is_store() {
                                    counted.stores += 1;
                                } else {
                                    counted.loads += 1;
                                }
                                counted.lane_accesses += acc.lane_count() as u64;
                                match acc {
                                    LaneAccesses::Gather(_) => counted.gather_ops += 1,
                                    LaneAccesses::Strided { .. } => counted.strided_ops += 1,
                                }
                            }
                        }
                    }
                }
            }
            if tbs != meta.tb_count {
                return Err(TraceError::NotATrace {
                    what: format!(
                        "kernel {k} ({}) streamed {tbs} TBs, footer says {}",
                        meta.name, meta.tb_count
                    ),
                });
            }
        }
        if counted != self.summary {
            return Err(TraceError::NotATrace {
                what: format!(
                    "decoded summary {counted:?} disagrees with footer summary {:?}",
                    self.summary
                ),
            });
        }
        Ok(())
    }
}

/// A forward-only streaming cursor over one kernel's TBs. Holds at most
/// one decoded block; earlier blocks are dropped as soon as their TBs
/// are consumed, which is what keeps streamed replay's peak RSS flat.
#[derive(Debug)]
pub struct TbStream {
    file: BufReader<File>,
    path: PathBuf,
    blocks: Vec<BlockIndex>,
    next_block: usize,
    tb_count: u64,
    yielded: u64,
    pending: VecDeque<TbTrace>,
}

impl TbStream {
    /// The next TB in grid order, or `None` past the end.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] for checksum mismatches, truncated
    /// blocks, or undecodable bytes (all offset-tagged).
    pub fn next_tb(&mut self) -> Result<Option<TbTrace>, TraceError> {
        while self.pending.is_empty() {
            let Some(blk) = self.blocks.get(self.next_block).cloned() else {
                if self.yielded != self.tb_count {
                    return Err(TraceError::NotATrace {
                        what: format!(
                            "blocks exhausted after {} of {} TBs",
                            self.yielded, self.tb_count
                        ),
                    });
                }
                return Ok(None);
            };
            self.next_block += 1;
            self.load_block(&blk)?;
        }
        self.yielded += 1;
        Ok(self.pending.pop_front())
    }

    fn load_block(&mut self, blk: &BlockIndex) -> Result<(), TraceError> {
        let len = usize::try_from(blk.len).map_err(|_| TraceError::Corrupt {
            offset: blk.offset,
            what: format!("block length {} overflows this host", blk.len),
        })?;
        let mut raw = vec![0u8; len];
        self.file
            .seek(SeekFrom::Start(blk.offset))
            .and_then(|_| self.file.read_exact(&mut raw))
            .map_err(io_err(format!(
                "read block at offset {} of {}",
                blk.offset,
                self.path.display()
            )))?;
        let computed = fnv1a(&raw);
        if computed != blk.checksum {
            return Err(TraceError::Corrupt {
                offset: blk.offset,
                what: format!(
                    "block checksum mismatch (stored {:016x}, computed {computed:016x})",
                    blk.checksum
                ),
            });
        }
        decode_block(&raw, blk, &mut self.pending)
    }
}

/// Decodes one verified block into TBs (appended to `out`).
fn decode_block(
    raw: &[u8],
    blk: &BlockIndex,
    out: &mut VecDeque<TbTrace>,
) -> Result<(), TraceError> {
    let mut head = Cursor::new(raw, blk.offset);
    let structure_len = head.varint()?;
    let structure_len =
        usize::try_from(structure_len).map_err(|_| head.corrupt("structure length overflow"))?;
    let structure_end = head
        .pos
        .checked_add(structure_len)
        .filter(|&e| e <= raw.len())
        .ok_or_else(|| head.corrupt("structure section runs past the block"))?;
    let mut structure = Cursor::new(&raw[head.pos..structure_end], blk.offset + head.pos as u64);
    let mut tail = Cursor::new(&raw[structure_end..], blk.offset + structure_end as u64);
    let tags_len = tail.varint()?;
    let tags_len = usize::try_from(tags_len).map_err(|_| tail.corrupt("tag length overflow"))?;
    let tags_start = structure_end + tail.pos;
    let tags_end = tags_start
        .checked_add(tags_len)
        .filter(|&e| e <= raw.len())
        .ok_or_else(|| tail.corrupt("tag section runs past the block"))?;
    let mut tags = Cursor::new(&raw[tags_start..tags_end], blk.offset + tags_start as u64);
    let mut operands = Cursor::new(&raw[tags_end..], blk.offset + tags_end as u64);

    let mut prev_base: u64 = 0;
    let mut decode_base = |ops: &mut Cursor<'_>| -> Result<u64, TraceError> {
        let delta = unzigzag(ops.varint()?);
        prev_base = prev_base.wrapping_add(delta as u64);
        Ok(prev_base)
    };

    for _ in 0..blk.tb_count {
        let warp_count = structure.varint()?;
        let mut warps = Vec::with_capacity(
            usize::try_from(warp_count).map_err(|_| structure.corrupt("warp count overflow"))?,
        );
        for _ in 0..warp_count {
            let op_count = structure.varint()?;
            let mut warp = WarpTrace::new();
            for _ in 0..op_count {
                let tag = tags.u8()?;
                let op = match tag {
                    TAG_COMPUTE => {
                        let cycles = operands.varint()?;
                        WarpOp::Compute {
                            cycles: u32::try_from(cycles).map_err(|_| {
                                operands.corrupt(format!("compute cycles {cycles} overflow u32"))
                            })?,
                        }
                    }
                    TAG_LOAD_STRIDED | TAG_STORE_STRIDED => {
                        let base = VirtAddr::new(decode_base(&mut operands)?);
                        let stride = unzigzag(operands.varint()?);
                        let active_lanes = operands.u8()?;
                        let acc = LaneAccesses::Strided {
                            base,
                            stride,
                            active_lanes,
                        };
                        if tag == TAG_STORE_STRIDED {
                            WarpOp::Store(acc)
                        } else {
                            WarpOp::Load(acc)
                        }
                    }
                    TAG_LOAD_GATHER | TAG_STORE_GATHER => {
                        let lane_count = operands.varint()?;
                        let lane_count = usize::try_from(lane_count)
                            .map_err(|_| operands.corrupt("gather lane count overflow"))?;
                        let mut lanes = Vec::with_capacity(lane_count);
                        for _ in 0..lane_count {
                            lanes.push(VirtAddr::new(decode_base(&mut operands)?));
                        }
                        let acc = LaneAccesses::Gather(lanes);
                        if tag == TAG_STORE_GATHER {
                            WarpOp::Store(acc)
                        } else {
                            WarpOp::Load(acc)
                        }
                    }
                    other => return Err(tags.corrupt(format!("unknown op tag {other}"))),
                };
                warp.push(op);
            }
            warps.push(warp);
        }
        out.push_back(TbTrace::from_warps(warps));
    }
    if !structure.is_empty() || !tags.is_empty() || !operands.is_empty() {
        return Err(TraceError::Corrupt {
            offset: blk.offset,
            what: "block has trailing bytes after the indexed TBs".into(),
        });
    }
    Ok(())
}

// --- source abstraction -------------------------------------------------

/// Where a simulation's trace comes from: an in-RAM generated
/// [`Workload`], or a `trace/v1` file streamed from disk. The engine's
/// `run_source` produces byte-identical reports for both.
#[derive(Debug)]
pub enum TraceSource {
    /// A fully materialized, generated workload.
    Generated(Workload),
    /// A trace file, streamed block by block.
    File(TraceReader),
}

impl TraceSource {
    /// Opens a trace file as a source.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceReader::open`] errors.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Ok(TraceSource::File(TraceReader::open(path)?))
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        match self {
            TraceSource::Generated(w) => w.name(),
            TraceSource::File(r) => r.workload_name(),
        }
    }

    /// The trace summary (computed lazily for generated workloads, read
    /// from the footer for files).
    pub fn summary(&self) -> TraceSummary {
        match self {
            TraceSource::Generated(w) => w.summary(),
            TraceSource::File(r) => r.summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("otlb-format-{tag}-{}.trace", std::process::id()))
    }

    fn gemm_test_workload() -> Workload {
        registry()
            .into_iter()
            .find(|s| s.name == "gemm")
            .unwrap()
            .generate(Scale::Test, 42)
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut c = Cursor::new(&buf, 0);
        for &v in &values {
            assert_eq!(c.varint().unwrap(), v);
        }
        assert!(c.is_empty());
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, -4096, 4096] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn workload_round_trips_through_the_file() {
        let wl = gemm_test_workload();
        let path = temp_path("roundtrip");
        let summary = write_workload(&path, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        assert_eq!(summary, wl.summary());

        let reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.workload_name(), "gemm");
        assert_eq!(reader.bench(), "gemm");
        assert_eq!(reader.scale(), Some(Scale::Test));
        assert_eq!(reader.seed(), 42);
        assert_eq!(reader.summary(), wl.summary());
        reader.verify().unwrap();

        let back = reader.read_workload().unwrap();
        assert_eq!(back.name(), wl.name());
        assert_eq!(back.kernels().len(), wl.kernels().len());
        for (a, b) in back.kernels().iter().zip(wl.kernels()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.threads_per_tb, b.threads_per_tb);
            assert_eq!(a.max_concurrent_tbs_per_sm, b.max_concurrent_tbs_per_sm);
            assert_eq!(a.tbs, b.tbs);
        }
        // The reconstructed space replays the same allocations.
        let orig: Vec<_> = wl
            .space()
            .buffers()
            .map(|b| (b.name().to_owned(), b.base()))
            .collect();
        let rebuilt: Vec<_> = back
            .space()
            .buffers()
            .map(|b| (b.name().to_owned(), b.base()))
            .collect();
        assert_eq!(orig, rebuilt);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_matches_materialized_order() {
        let wl = gemm_test_workload();
        let path = temp_path("stream");
        write_workload(&path, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        for (k, kernel) in wl.kernels().iter().enumerate() {
            let mut stream = reader.stream_kernel(k).unwrap();
            for (t, tb) in kernel.tbs.iter().enumerate() {
                let got = stream.next_tb().unwrap().unwrap_or_else(|| {
                    panic!("stream ended at TB {t} of kernel {k}");
                });
                assert_eq!(&got, tb, "kernel {k} TB {t}");
            }
            assert!(stream.next_tb().unwrap().is_none());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_version_is_rejected_not_panicked() {
        let wl = gemm_test_workload();
        let path = temp_path("version");
        write_workload(&path, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version little-endian low byte
        std::fs::write(&path, &bytes).unwrap();
        match TraceReader::open(&path) {
            Err(TraceError::Version {
                found: 99,
                expected: 1,
            }) => {}
            other => panic!("expected a version error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_is_rejected_not_panicked() {
        let path = temp_path("header");
        std::fs::write(&path, b"this is not a trace file, just plain prose padding").unwrap();
        match TraceReader::open(&path) {
            Err(TraceError::NotATrace { what }) => {
                assert!(what.contains("magic"), "{what}");
            }
            other => panic!("expected a magic error, got {other:?}"),
        }
        // Too short to even hold the header and tail.
        std::fs::write(&path, b"tiny").unwrap();
        match TraceReader::open(&path) {
            Err(TraceError::NotATrace { what }) => {
                assert!(what.contains("bytes"), "{what}");
            }
            other => panic!("expected a size error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected_not_panicked() {
        let wl = gemm_test_workload();
        let path = temp_path("trunc");
        write_workload(&path, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(TraceReader::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_block_byte_fails_the_checksum() {
        let wl = gemm_test_workload();
        let path = temp_path("blockflip");
        write_workload(&path, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff; // inside the first block
        std::fs::write(&path, &bytes).unwrap();
        let reader = TraceReader::open(&path).unwrap(); // footer is intact
        let err = reader
            .stream_kernel(0)
            .unwrap()
            .next_tb()
            .expect_err("flipped block byte must fail the checksum");
        let msg = err.to_string();
        assert!(msg.contains("checksum"), "{msg}");
        assert!(msg.contains("offset"), "errors are offset-tagged: {msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn summary_is_accumulated_at_write_time() {
        let wl = gemm_test_workload();
        let path = temp_path("summary");
        write_workload(&path, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        let reader = TraceReader::open(&path).unwrap();
        // The footer summary equals the O(ops) pass, without decoding.
        assert_eq!(reader.summary(), wl.summary());
        assert_eq!(reader.summary().total_ops() as usize, wl.total_warp_ops());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_hash_is_deterministic() {
        let wl = gemm_test_workload();
        let a = temp_path("hash-a");
        let b = temp_path("hash-b");
        write_workload(&a, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        write_workload(&b, &wl, "gemm", Some(Scale::Test), 42).unwrap();
        assert_eq!(file_hash(&a).unwrap(), file_hash(&b).unwrap());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn writer_misuse_is_an_error_not_a_panic() {
        let wl = gemm_test_workload();
        let path = temp_path("misuse");
        let mut w = TraceWriter::create(&path, "x", "x", None, 0, wl.space()).unwrap();
        assert!(w.write_tb(&TbTrace::with_warps(1)).is_err()); // no open kernel
        w.begin_kernel("k", 32, 16).unwrap();
        assert!(w.begin_kernel("k2", 32, 16).is_err()); // nested
        assert!(w.finish().is_err()); // still open
        std::fs::remove_file(&path).unwrap();
    }
}
