#include "src/repo/checkpoint_repo.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "src/obs/epoch_ledger.h"
#include "src/obs/metrics.h"
#include "src/sim/archive.h"
#include "src/sim/image.h"

namespace tcsim {

namespace {

// Repository counters, resolved once on first use. The repository has no
// simulator of its own, so its timing goes only to the epoch ledger's
// wall-clock stamps (repo.hash_wait, repo.append, repo.fsync, repo.journal).
obs::Counter* RepoCounter(const char* name) {
  return obs::MetricsRegistry::Global().FindCounter(name);
}

std::string SegmentPath(const std::string& dir, uint64_t epoch) {
  return dir + "/segment." + std::to_string(epoch);
}

std::string JournalPath(const std::string& dir, uint64_t epoch) {
  return dir + "/journal." + std::to_string(epoch);
}

std::string CurrentPath(const std::string& dir) { return dir + "/CURRENT"; }

// Atomically (via rename) points CURRENT at `epoch`. With `durable` set, the
// pointer's bytes are fsynced before the rename and the parent directory
// after it — a rename whose directory entry never reaches disk can be undone
// by a crash, resurrecting a CURRENT whose epoch files GC already retired.
bool WriteCurrent(const std::string& dir, uint64_t epoch, bool durable) {
  const std::string tmp = CurrentPath(dir) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool wrote =
      std::fprintf(f, "epoch %" PRIu64 "\n", epoch) > 0 && std::fflush(f) == 0;
  if (wrote && durable) {
    wrote = SyncStdioFile(f);
  }
  std::fclose(f);
  if (!wrote) {
    return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, CurrentPath(dir), ec);
  if (ec) {
    return false;
  }
  return !durable || FsyncDirectory(dir);
}

// Reads the epoch named by CURRENT; 0 on parse failure.
uint64_t ReadCurrent(const std::string& dir) {
  std::FILE* f = std::fopen(CurrentPath(dir).c_str(), "rb");
  if (f == nullptr) {
    return 0;
  }
  uint64_t epoch = 0;
  const int n = std::fscanf(f, "epoch %" SCNu64, &epoch);
  std::fclose(f);
  return n == 1 ? epoch : 0;
}

}  // namespace

CheckpointRepo::CheckpointRepo(std::string dir, RepoOptions options)
    : dir_(std::move(dir)),
      options_(options),
      hash_pool_(std::make_unique<HashPool>(options.hash_threads)) {}

CheckpointRepo::~CheckpointRepo() = default;

std::unique_ptr<CheckpointRepo> CheckpointRepo::Open(const std::string& dir,
                                                     RepoOptions options,
                                                     std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  auto repo =
      std::unique_ptr<CheckpointRepo>(new CheckpointRepo(dir, options));

  if (!std::filesystem::exists(CurrentPath(dir), ec)) {
    // Fresh repository: epoch 1, empty pair, then publish CURRENT.
    repo->segment_ = SegmentFile::Create(SegmentPath(dir, 1), error);
    if (repo->segment_ == nullptr) {
      return nullptr;
    }
    repo->journal_ = JournalWriter::Create(JournalPath(dir, 1), error);
    if (repo->journal_ == nullptr) {
      return nullptr;
    }
    // The new pair's directory entries must be durable before CURRENT can
    // name them.
    if (options.fsync && !FsyncDirectory(dir)) {
      *error = "cannot fsync repository directory " + dir;
      return nullptr;
    }
    if (!WriteCurrent(dir, 1, options.fsync)) {
      *error = "cannot publish CURRENT in " + dir;
      return nullptr;
    }
    return repo;
  }

  const uint64_t epoch = ReadCurrent(dir);
  if (epoch == 0) {
    *error = "corrupt CURRENT pointer in " + dir;
    return nullptr;
  }
  repo->epoch_ = epoch;

  std::vector<JournalRecord> journal_records;
  uint64_t valid_prefix = 0;
  if (!ReadJournal(JournalPath(dir, epoch), &journal_records, &valid_prefix,
                   error)) {
    return nullptr;
  }
  repo->segment_ = SegmentFile::OpenExisting(SegmentPath(dir, epoch), error);
  if (repo->segment_ == nullptr) {
    return nullptr;
  }
  // Replay. Every payload referenced by a visible record is read back and
  // CRC-verified before the repository declares itself open.
  for (const JournalRecord& rec : journal_records) {
    if (!repo->ApplyJournalRecord(rec)) {
      *error = "recovery failed: " + repo->error_;
      return nullptr;
    }
  }
  repo->journal_ =
      JournalWriter::OpenExisting(JournalPath(dir, epoch), valid_prefix, error);
  if (repo->journal_ == nullptr) {
    return nullptr;
  }
  repo->RebuildRetention();

  // Best-effort cleanup of pairs superseded before a crash could delete them.
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool stale_pair =
        (name.rfind("segment.", 0) == 0 || name.rfind("journal.", 0) == 0) &&
        name != "segment." + std::to_string(epoch) &&
        name != "journal." + std::to_string(epoch);
    if (stale_pair || name == "CURRENT.tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return repo;
}

std::vector<uint8_t> CheckpointRepo::EncodeImageRecord(uint64_t handle,
                                                       const ImageRecord& rec) {
  ArchiveWriter w;
  w.Write<uint64_t>(handle);
  w.Write<uint64_t>(rec.chunks.size());
  for (const ChunkRef& cr : rec.chunks) {
    w.WriteString(cr.id);
    w.Write<uint64_t>(cr.key.hash);
    w.Write<uint32_t>(cr.key.crc);
    w.Write<uint64_t>(cr.key.size);
    w.Write<uint64_t>(cr.offset);
  }
  return w.Take();
}

bool CheckpointRepo::DecodeImageRecord(const std::vector<uint8_t>& payload,
                                       uint64_t* handle, ImageRecord* rec) {
  ArchiveReader r(payload);
  *handle = r.Read<uint64_t>();
  const uint64_t count = r.Read<uint64_t>();
  if (!r.ok()) {
    return false;
  }
  rec->chunks.clear();
  for (uint64_t i = 0; i < count; ++i) {
    ChunkRef cr;
    cr.id = r.ReadString();
    cr.key.hash = r.Read<uint64_t>();
    cr.key.crc = r.Read<uint32_t>();
    cr.key.size = r.Read<uint64_t>();
    cr.offset = r.Read<uint64_t>();
    if (!r.ok()) {
      return false;
    }
    rec->chunks.push_back(std::move(cr));
  }
  return r.AtEnd();
}

bool CheckpointRepo::ApplyJournalRecord(const JournalRecord& jrec) {
  switch (jrec.type) {
    case kJournalPutImage: {
      uint64_t handle = 0;
      ImageRecord rec;
      if (!DecodeImageRecord(jrec.payload, &handle, &rec) || handle == 0) {
        error_ = "corrupt image record in journal";
        return false;
      }
      if (records_.count(handle) != 0) {
        error_ = "duplicate handle " + std::to_string(handle) + " in journal";
        return false;
      }
      // Verify every payload this record makes visible, byte for byte.
      std::vector<uint8_t> payload;
      for (const ChunkRef& cr : rec.chunks) {
        if (!segment_->ReadPayload(cr.offset, cr.key, &payload)) {
          error_ = "payload of chunk '" + cr.id +
                   "' failed verification (handle " + std::to_string(handle) +
                   ")";
          return false;
        }
        payloads_[cr.key].offset = cr.offset;
      }
      records_.emplace(handle, std::move(rec));
      next_handle_ = std::max(next_handle_, handle + 1);
      return true;
    }
    case kJournalRetireImage: {
      ArchiveReader r(jrec.payload);
      const uint64_t handle = r.Read<uint64_t>();
      auto it = records_.find(handle);
      if (!r.ok() || it == records_.end() || !it->second.live) {
        error_ = "retire of unknown or already-retired handle " +
                 std::to_string(handle);
        return false;
      }
      it->second.live = false;
      return true;
    }
    case kJournalBatchPut: {
      // A group-committed epoch: count, then length-prefixed put sub-records,
      // applied in order. The batch shares one CRC frame, so a torn tail
      // dropped the whole record and we never see a partial epoch here; a
      // sub-record that fails to apply is genuine corruption and refuses the
      // open.
      ArchiveReader r(jrec.payload);
      const uint64_t count = r.Read<uint64_t>();
      if (!r.ok()) {
        error_ = "corrupt batch record in journal";
        return false;
      }
      for (uint64_t i = 0; i < count; ++i) {
        const uint64_t len = r.Read<uint64_t>();
        if (!r.ok() || len > r.remaining()) {
          error_ = "corrupt batch record in journal";
          return false;
        }
        JournalRecord sub;
        sub.type = kJournalPutImage;
        sub.payload = r.ReadBytes(len);
        if (!ApplyJournalRecord(sub)) {
          return false;  // error_ already set by the sub-record
        }
      }
      if (!r.AtEnd()) {
        error_ = "corrupt batch record in journal";
        return false;
      }
      return true;
    }
    case kJournalNextHandle: {
      ArchiveReader r(jrec.payload);
      const uint64_t watermark = r.Read<uint64_t>();
      if (!r.ok()) {
        error_ = "corrupt next-handle record in journal";
        return false;
      }
      next_handle_ = std::max(next_handle_, watermark);
      return true;
    }
    default:
      error_ = "unknown journal record type " + std::to_string(jrec.type);
      return false;
  }
}

uint64_t CheckpointRepo::PutImage(const std::vector<uint8_t>& image_bytes) {
  // A put is a batch of one: same validation, same rejection strings, one
  // (all-or-nothing) journal record.
  std::unique_ptr<RepoWriteBatch> batch = BeginBatch();
  batch->Stage(std::vector<uint8_t>(image_bytes));
  const BatchCommitResult result = CommitBatch(std::move(batch));
  return result.ok ? result.handles[0] : 0;
}

std::unique_ptr<RepoWriteBatch> CheckpointRepo::BeginBatch() {
  return std::unique_ptr<RepoWriteBatch>(new RepoWriteBatch(this));
}

CheckpointRepo::BatchCommitResult CheckpointRepo::CommitBatch(
    std::unique_ptr<RepoWriteBatch> batch) {
  BatchCommitResult result;
  if (batch == nullptr || batch->repo_ != this) {
    result.error = "batch does not belong to this repository";
    error_ = result.error;
    return result;
  }
  // From here the batch is quiescent: staging has stopped (the caller handed
  // over ownership) and WaitPrepared() synchronizes with the last task, so
  // every entry is plain data owned by this thread.
  obs::EpochLedger& ledger = obs::EpochLedger::Global();
  const bool lg = ledger.enabled();
  const double lh0 = lg ? ledger.NowMs() : 0.0;
  batch->WaitPrepared();
  if (lg) {
    ledger.StampHere(-1, "repo.hash_wait", lh0, ledger.NowMs(), "hash_pool");
  }
  const std::vector<std::unique_ptr<RepoWriteBatch::Entry>>& entries =
      batch->entries_;
  result.handles.assign(entries.size(), 0);
  result.staged_bytes = batch->staged_bytes_;
  if (entries.empty()) {
    result.ok = true;
    error_.clear();
    return result;
  }

  // Publication order is stage order: handles, segment offsets, and the
  // journal record depend only on the staged images and their order.
  std::string err;
  std::vector<ImageRecord> staged;  // this commit's records, in stage order
  staged.reserve(entries.size());
  std::map<ContentKey, uint64_t> staged_offsets;  // appended this commit
  uint64_t dedup_hits = 0;
  const double la0 = lg ? ledger.NowMs() : 0.0;

  for (const auto& owned : entries) {
    const RepoWriteBatch::Entry* e = owned.get();
    if (!e->parsed_ok) {
      err = e->parse_error;
      break;
    }
    // Validate this entry's whole chunk table before touching the segment:
    // payload CRCs were proven by the hashing pool. Earlier entries of a
    // failing batch may already have appended — those bytes become orphans
    // the next GC reclaims, never a visible image.
    for (const RepoWriteBatch::StagedChunk& sc : e->chunks) {
      if (!sc.crc_ok) {
        err = "malformed image: CRC mismatch in chunk '" + sc.id + "'";
        break;
      }
    }
    if (!err.empty()) {
      break;
    }

    ImageRecord rec;
    rec.chunks.reserve(e->chunks.size());
    for (const RepoWriteBatch::StagedChunk& sc : e->chunks) {
      ChunkRef cr;
      cr.id = sc.id;
      cr.key = sc.key;
      result.logical_payload_bytes += sc.key.size;
      auto known = payloads_.find(sc.key);
      auto in_batch = known != payloads_.end() ? staged_offsets.end()
                                               : staged_offsets.find(sc.key);
      if (known != payloads_.end()) {
        cr.offset = known->second.offset;
        ++dedup_hits;
      } else if (in_batch != staged_offsets.end()) {
        cr.offset = in_batch->second;
        ++dedup_hits;
      } else {
        cr.offset =
            segment_->AppendSpan(sc.span.data, sc.span.size, sc.key.crc);
        if (cr.offset == 0) {
          err = "segment append failed";
          break;
        }
        staged_offsets.emplace(sc.key, cr.offset);
        result.appended_payload_bytes += sc.key.size;
      }
      rec.chunks.push_back(std::move(cr));
    }
    if (!err.empty()) {
      break;
    }
    staged.push_back(std::move(rec));
  }

  if (lg) {
    ledger.StampHere(-1, "repo.append", la0, ledger.NowMs(), "segment");
  }

  // Group commit: one segment flush covers every payload appended above,
  // then one CRC-framed journal record publishes the epoch atomically —
  // recovery either replays all of it or (torn tail) none of it.
  const double lf0 = lg ? ledger.NowMs() : 0.0;
  if (err.empty() && !segment_->Flush(options_.fsync)) {
    err = "segment flush failed";
  }
  if (lg) {
    ledger.StampHere(-1, "repo.fsync", lf0, ledger.NowMs(), "segment_flush");
  }
  const double lj0 = lg ? ledger.NowMs() : 0.0;
  if (err.empty()) {
    ArchiveWriter w;
    w.Write<uint64_t>(staged.size());
    for (size_t i = 0; i < staged.size(); ++i) {
      const std::vector<uint8_t> sub =
          EncodeImageRecord(next_handle_ + i, staged[i]);
      w.Write<uint64_t>(sub.size());
      w.WriteBytes(sub.data(), sub.size());
    }
    const std::vector<uint8_t> payload = w.Take();
    if (!journal_->Append(kJournalBatchPut, payload) ||
        !journal_->Flush(options_.fsync)) {
      err = "journal append failed";
    } else {
      static obs::Counter* const appends = RepoCounter("repo.journal.appends");
      static obs::Counter* const append_bytes = RepoCounter("repo.journal.bytes");
      appends->Increment();
      append_bytes->Add(payload.size());
    }
  }
  if (lg) {
    ledger.StampHere(-1, "repo.journal", lj0, ledger.NowMs(), "journal_fsync");
  }

  if (!err.empty()) {
    error_ = err;
    result.error = err;
    static obs::Counter* const failed = RepoCounter("repo.batch.failed_commits");
    failed->Increment();
    return result;
  }

  // Publish in memory: register payload offsets, install the records, and
  // retain each new image in handle order. A put only adds live records, so
  // this reaches the state a full rebuild would, at a cost proportional to
  // the new images rather than to the whole history.
  result.images = staged.size();
  for (size_t i = 0; i < staged.size(); ++i) {
    const uint64_t handle = next_handle_ + i;
    for (const ChunkRef& cr : staged[i].chunks) {
      payloads_[cr.key].offset = cr.offset;
    }
    records_.emplace(handle, std::move(staged[i]));
    Retain(handle);
    result.handles[i] = handle;
  }
  next_handle_ += staged.size();
  logical_put_bytes_ += result.logical_payload_bytes;
  physical_put_bytes_ += result.appended_payload_bytes;

  static obs::Counter* const put_images = RepoCounter("repo.put.images");
  static obs::Counter* const logical_bytes = RepoCounter("repo.put.logical_bytes");
  static obs::Counter* const physical_bytes = RepoCounter("repo.put.physical_bytes");
  static obs::Counter* const dedup = RepoCounter("repo.dedup.hits");
  static obs::Counter* const commits = RepoCounter("repo.batch.commits");
  static obs::Counter* const batch_images = RepoCounter("repo.batch.images");
  static obs::Counter* const batch_staged = RepoCounter("repo.batch.staged_bytes");
  static obs::Counter* const flushes = RepoCounter("repo.commit.flushes");
  put_images->Add(result.images);
  logical_bytes->Add(result.logical_payload_bytes);
  physical_bytes->Add(result.appended_payload_bytes);
  dedup->Add(dedup_hits);
  commits->Increment();
  batch_images->Add(result.images);
  batch_staged->Add(result.staged_bytes);
  flushes->Add(2);  // one segment + one journal flush per group commit
  static obs::Gauge* const queue_depth =
      obs::MetricsRegistry::Global().FindGauge("repo.hashpool.max_queue_depth");
  queue_depth->SetMax(static_cast<double>(hash_pool_->max_queue_depth()));

  result.ok = true;
  error_.clear();
  return result;
}

bool CheckpointRepo::RetireImage(uint64_t handle) {
  auto it = records_.find(handle);
  if (it == records_.end() || !it->second.live) {
    error_ = "retire of unknown or already-retired handle " +
             std::to_string(handle);
    return false;
  }
  ArchiveWriter w;
  w.Write<uint64_t>(handle);
  if (!Commit(kJournalRetireImage, w.Take())) {
    return false;
  }
  it->second.live = false;
  Release(handle);
  error_.clear();
  return true;
}

std::vector<uint8_t> CheckpointRepo::Materialize(uint64_t handle) {
  auto it = records_.find(handle);
  if (it == records_.end()) {
    error_ = "unknown handle " + std::to_string(handle);
    return {};
  }
  const ImageRecord& rec = it->second;
  if (!rec.live) {
    error_ = "handle " + std::to_string(handle) + " is retired";
    return {};
  }
  CheckpointImageBuilder builder;
  std::vector<uint8_t> payload;
  for (const ChunkRef& cr : rec.chunks) {
    if (!segment_->ReadPayload(cr.offset, cr.key, &payload)) {
      error_ = "payload of chunk '" + cr.id + "' failed CRC verification";
      return {};
    }
    builder.AddChunk(cr.id, std::move(payload));
    payload.clear();
  }
  error_.clear();
  std::vector<uint8_t> bytes = builder.Serialize();
  static obs::Counter* const count = RepoCounter("repo.materialize.count");
  static obs::Counter* const out_bytes = RepoCounter("repo.materialize.bytes");
  count->Increment();
  out_bytes->Add(bytes.size());
  return bytes;
}

CheckpointRepo::GcResult CheckpointRepo::CollectGarbage() {
  GcResult result;
  const uint64_t new_epoch = epoch_ + 1;
  std::string err;
  auto new_segment = SegmentFile::Create(SegmentPath(dir_, new_epoch), &err);
  auto new_journal = JournalWriter::Create(JournalPath(dir_, new_epoch), &err);
  if (new_segment == nullptr || new_journal == nullptr) {
    error_ = err;
    return result;
  }

  // The handle watermark must survive even if the highest-handled records
  // are dropped: a reused handle would silently re-bind a caller's stale
  // reference to a different image.
  ArchiveWriter watermark;
  watermark.Write<uint64_t>(next_handle_);
  if (!new_journal->Append(kJournalNextHandle, watermark.Take())) {
    error_ = "GC journal write failed";
    return result;
  }

  // Copy live records in handle order, with payloads deduped into the new
  // segment.
  std::map<ContentKey, uint64_t> new_offsets;
  std::map<uint64_t, ImageRecord> new_records;
  std::vector<uint8_t> payload;
  for (const auto& [handle, rec] : records_) {
    if (!rec.live) {
      continue;
    }
    ImageRecord copy = rec;
    for (ChunkRef& cr : copy.chunks) {
      auto it = new_offsets.find(cr.key);
      if (it == new_offsets.end()) {
        if (!segment_->ReadPayload(cr.offset, cr.key, &payload)) {
          error_ = "GC read of chunk '" + cr.id + "' failed verification";
          return result;
        }
        const uint64_t offset = new_segment->Append(payload);
        if (offset == 0) {
          error_ = "GC segment write failed";
          return result;
        }
        it = new_offsets.emplace(cr.key, offset).first;
      }
      cr.offset = it->second;
    }
    if (!new_journal->Append(kJournalPutImage,
                             EncodeImageRecord(handle, copy))) {
      error_ = "GC journal write failed";
      return result;
    }
    new_records.emplace(handle, std::move(copy));
  }
  if (!new_segment->Flush(options_.fsync) || !new_journal->Flush(options_.fsync)) {
    error_ = "GC flush failed";
    return result;
  }
  // The new pair's directory entries must be durable before CURRENT names
  // them: segment/journal bytes are on disk (flushed above), but their
  // entries live in the directory.
  if (options_.fsync && !FsyncDirectory(dir_)) {
    error_ = "cannot fsync repository directory before CURRENT install";
    return result;
  }
  // The atomic install point: until this rename, the old epoch is the
  // repository; after it, the new one is. WriteCurrent fsyncs the directory
  // after the rename, so a crash beyond this point cannot resurrect the old
  // epoch once its files are removed below.
  if (!WriteCurrent(dir_, new_epoch, options_.fsync)) {
    error_ = "cannot publish CURRENT for epoch " + std::to_string(new_epoch);
    return result;
  }

  result.reclaimed_bytes = segment_->size() > new_segment->size()
                               ? segment_->size() - new_segment->size()
                               : 0;
  result.live_bytes = new_segment->size();

  retired_io_written_ += segment_->bytes_written() + journal_->bytes_written();
  retired_io_read_ += segment_->bytes_read();
  const uint64_t old_epoch = epoch_;
  segment_ = std::move(new_segment);
  journal_ = std::move(new_journal);
  epoch_ = new_epoch;
  records_ = std::move(new_records);
  payloads_.clear();
  for (const auto& [key, offset] : new_offsets) {
    payloads_[key].offset = offset;
  }
  RebuildRetention();

  std::error_code ec;
  std::filesystem::remove(SegmentPath(dir_, old_epoch), ec);
  std::filesystem::remove(JournalPath(dir_, old_epoch), ec);

  result.ok = true;
  error_.clear();
  static obs::Counter* const gc_runs = RepoCounter("repo.gc.runs");
  static obs::Counter* const gc_reclaimed = RepoCounter("repo.gc.reclaimed_bytes");
  gc_runs->Increment();
  gc_reclaimed->Add(result.reclaimed_bytes);
  return result;
}

void CheckpointRepo::Retain(uint64_t handle) {
  for (const ChunkRef& cr : records_.at(handle).chunks) {
    if (payloads_[cr.key].refs++ == 0) {
      live_payload_bytes_ += kSegmentRecordOverhead + cr.key.size;
    }
  }
}

void CheckpointRepo::Release(uint64_t handle) {
  for (const ChunkRef& cr : records_.at(handle).chunks) {
    if (--payloads_.at(cr.key).refs == 0) {
      live_payload_bytes_ -= kSegmentRecordOverhead + cr.key.size;
    }
  }
}

void CheckpointRepo::RebuildRetention() {
  for (auto& [key, entry] : payloads_) {
    entry.refs = 0;
  }
  live_payload_bytes_ = 0;
  for (const auto& [handle, rec] : records_) {
    if (rec.live) {
      Retain(handle);
    }
  }
}

bool CheckpointRepo::Commit(uint8_t type, const std::vector<uint8_t>& payload) {
  // Durability barrier: every payload byte the record references reaches the
  // segment before the record itself exists.
  if (!segment_->Flush(options_.fsync)) {
    error_ = "segment flush failed";
    return false;
  }
  if (!journal_->Append(type, payload) || !journal_->Flush(options_.fsync)) {
    error_ = "journal append failed";
    return false;
  }
  static obs::Counter* const appends = RepoCounter("repo.journal.appends");
  static obs::Counter* const append_bytes = RepoCounter("repo.journal.bytes");
  appends->Increment();
  append_bytes->Add(payload.size());
  return true;
}

bool CheckpointRepo::IsLive(uint64_t handle) const {
  auto it = records_.find(handle);
  return it != records_.end() && it->second.live;
}

std::vector<uint64_t> CheckpointRepo::LiveHandles() const {
  std::vector<uint64_t> handles;
  for (const auto& [handle, rec] : records_) {
    if (rec.live) {
      handles.push_back(handle);
    }
  }
  return handles;
}

size_t CheckpointRepo::live_image_count() const {
  size_t count = 0;
  for (const auto& [handle, rec] : records_) {
    count += rec.live ? 1 : 0;
  }
  return count;
}

uint64_t CheckpointRepo::garbage_payload_bytes() const {
  const uint64_t content = segment_->size() - kSegmentHeaderBytes;
  return content > live_payload_bytes_ ? content - live_payload_bytes_ : 0;
}

uint64_t CheckpointRepo::bytes_written() const {
  return retired_io_written_ + segment_->bytes_written() +
         journal_->bytes_written();
}

uint64_t CheckpointRepo::bytes_read() const {
  return retired_io_read_ + segment_->bytes_read();
}

}  // namespace tcsim
