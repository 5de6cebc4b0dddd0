#include "src/repo/segment_file.h"

#include <cstring>

#ifdef _WIN32
#include <io.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include "src/repo/io_fault.h"
#include "src/sim/digest.h"
#include "src/sim/image.h"

namespace tcsim {

ContentKey ContentKeyOf(const uint8_t* data, uint64_t size) {
  Fnv1aDigest digest;
  digest.MixBytes(data, size);
  ContentKey key;
  key.hash = digest.value();
  key.crc = Crc32(data, size);
  key.size = size;
  return key;
}

ContentKey ContentKeyOf(const std::vector<uint8_t>& payload) {
  return ContentKeyOf(payload.data(), payload.size());
}

namespace {

// All record-path writes funnel through the fault hook, so an armed byte
// budget tears a record exactly where the real stream would have stopped.
// The Create-time header keeps plain fwrite: the hook models crashes inside
// the append path, not a repository that failed to initialize.
bool WritePod32(std::FILE* f, uint32_t v) {
  return RepoIoFaultInjector::Write(RepoIoTarget::kSegment, f, &v, sizeof v);
}

bool WritePod64(std::FILE* f, uint64_t v) {
  return RepoIoFaultInjector::Write(RepoIoTarget::kSegment, f, &v, sizeof v);
}

bool WriteHeaderPod32(std::FILE* f, uint32_t v) {
  return std::fwrite(&v, sizeof v, 1, f) == 1;
}

}  // namespace

bool SyncStdioFile(std::FILE* f) {
#ifdef _WIN32
  return _commit(_fileno(f)) == 0;
#else
  return ::fsync(fileno(f)) == 0;
#endif
}

bool FsyncDirectory(const std::string& dir) {
#ifdef _WIN32
  (void)dir;
  return true;  // no directory handles to sync; metadata rides with the files
#else
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#endif
}

SegmentFile::SegmentFile(std::FILE* file, std::string path, uint64_t append_pos)
    : file_(file), path_(std::move(path)), append_pos_(append_pos) {}

SegmentFile::~SegmentFile() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

std::unique_ptr<SegmentFile> SegmentFile::Create(const std::string& path,
                                                 std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    *error = "cannot create segment " + path;
    return nullptr;
  }
  // A batched epoch appends many records back to back; a wide stream buffer
  // coalesces their framing and payloads into large kernel writes (best
  // effort — the default buffer is only a throughput loss, not an error).
  std::setvbuf(f, nullptr, _IOFBF, 1 << 20);
  if (!WriteHeaderPod32(f, kSegmentMagic) ||
      !WriteHeaderPod32(f, kRepoFormatVersion) || std::fflush(f) != 0) {
    *error = "cannot write segment header of " + path;
    std::fclose(f);
    return nullptr;
  }
  auto seg = std::unique_ptr<SegmentFile>(
      new SegmentFile(f, path, kSegmentHeaderBytes));
  seg->bytes_written_ = kSegmentHeaderBytes;
  return seg;
}

std::unique_ptr<SegmentFile> SegmentFile::OpenExisting(const std::string& path,
                                                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    *error = "cannot open segment " + path;
    return nullptr;
  }
  std::setvbuf(f, nullptr, _IOFBF, 1 << 20);
  uint32_t magic = 0, version = 0;
  if (std::fread(&magic, sizeof magic, 1, f) != 1 ||
      std::fread(&version, sizeof version, 1, f) != 1 ||
      magic != kSegmentMagic || version != kRepoFormatVersion) {
    *error = "bad segment header in " + path;
    std::fclose(f);
    return nullptr;
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    *error = "cannot seek segment " + path;
    std::fclose(f);
    return nullptr;
  }
  const long end = std::ftell(f);
  return std::unique_ptr<SegmentFile>(
      new SegmentFile(f, path, static_cast<uint64_t>(end)));
}

uint64_t SegmentFile::Append(const std::vector<uint8_t>& payload) {
  return AppendSpan(payload.data(), payload.size(), Crc32(payload));
}

uint64_t SegmentFile::AppendSpan(const uint8_t* payload, uint64_t size,
                                 uint32_t crc) {
  if (io_error_) {
    return 0;
  }
  if (std::fseek(file_, static_cast<long>(append_pos_), SEEK_SET) != 0) {
    io_error_ = true;
    return 0;
  }
  const uint64_t offset = append_pos_;
  if (!WritePod32(file_, kSegmentRecordMagic) || !WritePod64(file_, size) ||
      !WritePod32(file_, crc) ||
      (size != 0 && !RepoIoFaultInjector::Write(RepoIoTarget::kSegment, file_,
                                               payload, size))) {
    io_error_ = true;
    return 0;
  }
  append_pos_ += kSegmentRecordOverhead + size;
  bytes_written_ += kSegmentRecordOverhead + size;
  return offset;
}

bool SegmentFile::ReadPayload(uint64_t offset, const ContentKey& expected,
                              std::vector<uint8_t>* out) {
  out->clear();
  // Bounds before any read: the whole record must lie inside the file.
  if (offset < kSegmentHeaderBytes ||
      offset + kSegmentRecordOverhead + expected.size > append_pos_) {
    return false;
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return false;
  }
  uint32_t magic = 0, crc = 0;
  uint64_t size = 0;
  if (std::fread(&magic, sizeof magic, 1, file_) != 1 ||
      std::fread(&size, sizeof size, 1, file_) != 1 ||
      std::fread(&crc, sizeof crc, 1, file_) != 1) {
    return false;
  }
  if (magic != kSegmentRecordMagic || size != expected.size ||
      crc != expected.crc) {
    return false;
  }
  std::vector<uint8_t> payload(size);
  if (size != 0 && std::fread(payload.data(), 1, size, file_) != size) {
    return false;
  }
  // Re-verify content against the actual bytes on disk, not just the stored
  // framing: a corrupt payload whose framing survived is still rejected.
  if (!(ContentKeyOf(payload) == expected)) {
    return false;
  }
  bytes_read_ += kSegmentRecordOverhead + size;
  *out = std::move(payload);
  return true;
}

bool SegmentFile::Flush(bool fsync) {
  if (io_error_) {
    return false;
  }
  if (std::fflush(file_) != 0) {
    io_error_ = true;
    return false;
  }
  if (fsync && !RepoIoFaultInjector::Fsync(RepoIoTarget::kSegment, file_)) {
    io_error_ = true;
    return false;
  }
  return true;
}

}  // namespace tcsim
