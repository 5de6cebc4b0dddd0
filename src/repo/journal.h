// Write-ahead journal of repository operations (see repo_format.h).
//
// The journal is the metadata half of the repository: an append-only stream
// of typed, CRC-framed records (put-image, retire-image, next-handle,
// batch-put). Append order is publication order — a record whose bytes are
// fully on disk is committed; a torn tail (crash mid-append) is detected by
// framing or CRC and truncated away on the next open, rolling the repository
// back to the last complete operation.

#ifndef TCSIM_SRC_REPO_JOURNAL_H_
#define TCSIM_SRC_REPO_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace tcsim {

struct JournalRecord {
  uint8_t type = 0;
  std::vector<uint8_t> payload;
};

// Reads every complete record of the journal at `path` into `out`.
// Returns false only when the file cannot be opened or its header is bad
// (`error` says why). A torn tail is not an error: scanning stops at the
// first record that fails framing or CRC, and `recovered_bytes` reports the
// byte length of the valid prefix (header + complete records) so a writer
// can truncate the tail before appending.
bool ReadJournal(const std::string& path, std::vector<JournalRecord>* out,
                 uint64_t* recovered_bytes, std::string* error);

// Append-only journal writer.
class JournalWriter {
 public:
  // Creates a fresh journal (truncating any existing file). Null on failure.
  static std::unique_ptr<JournalWriter> Create(const std::string& path,
                                               std::string* error);

  // Opens an existing journal for appending at `append_at` — the valid-prefix
  // length reported by ReadJournal. The file is truncated to that length
  // first, discarding any torn tail.
  static std::unique_ptr<JournalWriter> OpenExisting(const std::string& path,
                                                     uint64_t append_at,
                                                     std::string* error);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Appends one record. Not durable until Flush(). A failed append is
  // sticky (see ok()): a partially written record would corrupt everything
  // appended after it, so the writer refuses further appends instead of
  // aborting — the owner surfaces the error through its commit result.
  bool Append(uint8_t type, const std::vector<uint8_t>& payload);

  // Flushes buffered appends to the OS (and to stable storage with `fsync`).
  bool Flush(bool fsync);

  // False once any append or flush has failed.
  bool ok() const { return !io_error_; }

  uint64_t size() const { return size_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  JournalWriter(std::FILE* file, uint64_t size);

  std::FILE* file_;
  uint64_t size_;
  uint64_t bytes_written_ = 0;
  bool io_error_ = false;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_REPO_JOURNAL_H_
