// Append-only segment file of chunk payloads (see repo_format.h).
//
// The segment is the payload half of the repository: every distinct chunk
// payload is appended exactly once (callers dedup by ContentKey before
// appending) and addressed by the byte offset of its record. Reads re-verify
// the record framing and the payload CRC on every access — a flipped bit in
// the file is detected at the read site, never served to a restore path.

#ifndef TCSIM_SRC_REPO_SEGMENT_FILE_H_
#define TCSIM_SRC_REPO_SEGMENT_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/repo/repo_format.h"

namespace tcsim {

// Durability helpers shared by the repository's on-disk files.

// Flushes a stdio stream's kernel buffers to stable storage (fsync).
bool SyncStdioFile(std::FILE* f);

// Makes a directory's own entries durable. After creating or renaming a file,
// the *parent directory* must be fsynced too — otherwise a crash can lose the
// directory entry even though the file's bytes reached the platter, silently
// undoing an atomic rename-install. Returns true on platforms where
// directories cannot be opened for sync.
bool FsyncDirectory(const std::string& dir);

class SegmentFile {
 public:
  // Creates a fresh segment (truncating any existing file) and writes the
  // header. Null on I/O failure (`error` says why).
  static std::unique_ptr<SegmentFile> Create(const std::string& path,
                                             std::string* error);

  // Opens an existing segment for reading and appending. Validates the
  // header; the record stream itself is validated lazily, read by read
  // (recovery drives those reads through the journal's references).
  static std::unique_ptr<SegmentFile> OpenExisting(const std::string& path,
                                                   std::string* error);

  ~SegmentFile();
  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  // Appends one payload record straight from the caller's buffer, framed
  // with a CRC the caller has already verified (the image view's, or
  // ReadPayload's) — no intermediate copy and no second CRC pass. Returns
  // the record's byte offset, or 0 on I/O failure (0 is never a valid record
  // offset — the header precedes all records). Not flushed until Flush(). A
  // failed append is sticky (see ok()): the file position is no longer
  // trustworthy, so every later append and flush fails too until the
  // segment is reopened.
  uint64_t AppendSpan(const uint8_t* payload, uint64_t size, uint32_t crc);

  // Reads the payload at `offset`, verifying the record magic, the length
  // and CRC against `expected`, and bounds against the file size. False on
  // any mismatch; `out` is cleared, never partially filled.
  bool ReadPayload(uint64_t offset, const ContentKey& expected,
                   std::vector<uint8_t>* out);

  // Flushes buffered appends to the OS (and to stable storage with `fsync`).
  bool Flush(bool fsync);

  // False once any append or flush has failed. Sticky: the writer refuses
  // further appends instead of aborting, and the owner propagates the error
  // up to its commit result (the repository stays openable at the epoch the
  // last successful commit published).
  bool ok() const { return !io_error_; }

  // Current end-of-file append position (header + all records).
  uint64_t size() const { return append_pos_; }

  // I/O accounting for benches.
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  SegmentFile(std::FILE* file, std::string path, uint64_t append_pos);

  std::FILE* file_;
  std::string path_;
  uint64_t append_pos_;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  bool io_error_ = false;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_SEGMENT_FILE_H_
